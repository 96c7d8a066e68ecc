"""The shared time-indexed container: its shape checks and its length."""

from __future__ import annotations

import numpy as np
import pytest

from qwjumps.series import ObservableSeries


def test_times_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        ObservableSeries(times=np.zeros((2, 2), dtype=int))


def test_every_column_must_match_the_length_of_times():
    with pytest.raises(ValueError, match="'m2'"):
        ObservableSeries(times=np.arange(3), columns={"m2": np.zeros(2)})


def test_length_is_the_number_of_sample_times():
    series = ObservableSeries(times=np.arange(4), columns={"m2": np.zeros(4)})
    assert len(series) == 4
