"""Shared container for time-indexed scalar measurement columns."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ObservableSeries:
    """Named measurement columns sharing a single time axis.

    Attributes:
        times: 1-D integer array of sample times, word-prefix lengths,
            autocorrelation lags or spectrum frequencies.
        columns: Mapping from column name to a 1-D array with one entry
            per sample time; insertion order fixes the emission order.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.ndim(self.times) != 1:
            raise ValueError("times must be a 1-D array")
        for name, col in self.columns.items():
            if np.ndim(col) != 1 or len(col) != len(self.times):
                raise ValueError(
                    f"column {name!r} must match the length of times"
                )

    def __len__(self) -> int:
        return len(self.times)

    def column(self, name: str) -> np.ndarray:
        """Return one named column.

        Raises:
            KeyError: If the column was not recorded.
        """
        return self.columns[name]
