"""Binary jump-control sequences.

The walk advances with a per-step jump length J_t = 1 + b_t, where b is a
binary word produced by one of six protocols: the degenerate all-zero word,
strict alternation, three aperiodic substitution families (Fibonacci,
Thue-Morse, Rudin-Shapiro), and a seeded uniform shuffle of the balanced
alternating word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["Protocol", "BinarySequence", "generate", "to_jumps"]


class Protocol(str, Enum):
    """Families of binary jump-control sequences."""

    STANDARD = "standard"
    PERIODIC = "periodic"
    FIBONACCI = "fibonacci"
    THUE_MORSE = "thue-morse"
    RUDIN_SHAPIRO = "rudin-shapiro"
    RANDOM = "random"


# Substitution rules, applied letter-wise once per round: protocol ->
# (rule, projection of the letters onto {0, 1}, start letter per seed symbol).
_SUBSTITUTIONS = {
    Protocol.FIBONACCI: (((0, 1), (0,)), (0, 1), (0, 1)),     # 0 -> 01, 1 -> 0
    Protocol.THUE_MORSE: (((0, 1), (1, 0)), (0, 1), (0, 1)),  # 0 -> 01, 1 -> 10
    # Rudin-Shapiro substitutes on the four-letter alphabet A,B,C,D (coded
    # 0..3): A -> AB, B -> AC, C -> DB, D -> DC, then projects A,B -> 0 and
    # C,D -> 1.  Seed symbol 0 starts from A, seed symbol 1 from D (the
    # letters that project onto the requested first symbol).
    Protocol.RUDIN_SHAPIRO: (((0, 1), (0, 2), (3, 1), (3, 2)), (0, 0, 1, 1), (0, 3)),
}


@dataclass(frozen=True)
class BinarySequence:
    """A finite word over {0, 1} plus the recipe that produced it.

    Attributes:
        symbols: Read-only uint8 array of length t_max + 1, entries in
            {0, 1}; index t runs over 0 .. t_max.
        protocol: Generating protocol.
        seed_symbol: Requested first symbol b_0.
        rng_seed: Seed of the shuffle generator; None unless the
            protocol is RANDOM.
    """

    symbols: np.ndarray
    protocol: Protocol
    seed_symbol: int
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        if self.symbols.ndim != 1 or len(self.symbols) == 0:
            raise ValueError("symbols must be a nonempty 1-D array")
        if not np.isin(self.symbols, (0, 1)).all():
            raise ValueError("symbols must contain only 0 and 1")

    def __len__(self) -> int:
        return len(self.symbols)

    def word(self) -> str:
        """The symbols as a compact '0'/'1' string."""
        return (self.symbols.astype(np.uint8) + ord("0")).tobytes().decode()

    def json_record(self) -> dict:
        """Compact JSON-serializable record of the sequence."""
        return {
            "protocol": self.protocol.value,
            "seed_symbol": self.seed_symbol,
            "rng_seed": self.rng_seed,
            "symbols": self.word(),
        }


def _iterate_substitution(rule, start: int, length: int) -> list[int]:
    # Round-by-round rewriting; words are prefix-stable under extension,
    # so truncating the first sufficiently long word is safe.
    word = [start]
    while len(word) < length:
        word = [out for sym in word for out in rule[sym]]
    return word[:length]


def _alternating(first: int, length: int) -> np.ndarray:
    word = np.empty(length, dtype=np.uint8)
    word[0::2] = first
    word[1::2] = 1 - first
    return word


def generate(
    protocol: Protocol | str,
    seed_symbol: int,
    t_max: int,
    rng_seed: int | None = None,
) -> BinarySequence:
    """Generate the binary jump-control word b_0 .. b_{t_max}.

    Substitution protocols rewrite their start symbol round by round
    until the word holds at least t_max + 1 symbols, then truncate.
    RANDOM builds the balanced alternating word of the same length and
    shuffles it uniformly (Fisher-Yates, as implemented by numpy's
    seeded PCG64 generator); if the shuffle moved the seed symbol away
    from the front, it is swapped back so b_0 equals seed_symbol.

    Args:
        protocol: Generation rule to apply.
        seed_symbol: First symbol of the word, integer 0 or 1.  STANDARD is
            all-zero by definition and ignores it; the Fibonacci rule
            started from 1 rewrites to the start-0 word after one
            round, so its b_0 is 0 as well.
        t_max: Integer number of evolution steps the word must cover;
            the word receives t_max + 1 symbols.
        rng_seed: Nonnegative integer shuffle seed, required for RANDOM
            and rejected for every other protocol.

    Returns:
        The generated BinarySequence.

    Raises:
        TypeError: If t_max, seed_symbol or a given rng_seed is not an
            integer.
        ValueError: On t_max < 1, seed_symbol outside {0, 1}, or an
            rng_seed/protocol mismatch.
    """
    protocol = Protocol(protocol)
    t_max, seed_symbol = operator.index(t_max), operator.index(seed_symbol)
    if rng_seed is not None:
        rng_seed = operator.index(rng_seed)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if seed_symbol not in (0, 1):
        raise ValueError("seed_symbol must be 0 or 1")
    if protocol is Protocol.RANDOM:
        if rng_seed is None:
            raise ValueError("rng_seed is required for the random protocol")
        if rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
    elif rng_seed is not None:
        raise ValueError(
            f"rng_seed is only valid for the random protocol, "
            f"not {protocol.value!r}"
        )

    length = t_max + 1
    if protocol is Protocol.STANDARD:
        symbols = np.zeros(length, dtype=np.uint8)
    elif protocol is Protocol.PERIODIC:
        symbols = _alternating(seed_symbol, length)
    elif protocol in _SUBSTITUTIONS:
        rule, projection, start = _SUBSTITUTIONS[protocol]
        letters = _iterate_substitution(rule, start[seed_symbol], length)
        symbols = np.array(projection, dtype=np.uint8)[letters]
    else:
        rng = np.random.default_rng(rng_seed)
        symbols = rng.permutation(_alternating(seed_symbol, length))
        target = int(np.argmax(symbols == seed_symbol))
        symbols[[0, target]] = symbols[[target, 0]]

    symbols.flags.writeable = False
    return BinarySequence(
        symbols=symbols,
        protocol=protocol,
        seed_symbol=seed_symbol,
        rng_seed=rng_seed if protocol is Protocol.RANDOM else None,
    )


def to_jumps(seq: BinarySequence) -> np.ndarray:
    """Jump lengths J_t = 1 + b_t as an int64 array over {1, 2}."""
    return seq.symbols.astype(np.int64) + 1
