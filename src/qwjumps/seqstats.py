"""Diagnostics for binary words.

Covers Lempel-Ziv complexity, autocorrelation, normalized power spectral
density, and cumulative symbol balance.  Complexity comes from one
Kaspar-Schuster scan (Phys. Rev. A 36, 842 (1987)); its test of a
candidate ending at position q reads only the first q symbols, so the
one scan yields the complexity of every prefix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequenceError
from .sequences import BinarySequence
from .series import ObservableSeries

__all__ = [
    "LzcTrace",
    "lzc",
    "lzc_curve",
    "autocorrelation",
    "psd",
    "ones_fraction_curve",
]


def _as_word(word) -> str:
    """Coerce a BinarySequence, string, or 0/1 iterable to a '0'/'1' string."""
    if isinstance(word, str):
        if not set(word) <= {"0", "1"}:
            raise ValueError("word must contain only the symbols 0 and 1")
        return word
    if isinstance(word, BinarySequence):
        return word.word()
    values = np.asarray(word, dtype=float)
    if values.ndim != 1 or not np.isin(values, (0.0, 1.0)).all():
        raise ValueError("word must be a 1-D sequence over {0, 1}")
    return (values + ord("0")).astype(np.uint8).tobytes().decode()


def _as_values(word) -> np.ndarray:
    return np.frombuffer(_as_word(word).encode(), dtype=np.uint8) - float(ord("0"))


@dataclass(frozen=True)
class LzcTrace:
    """Complexity count plus the component words of the parse.

    The partitions concatenate back to the scanned word and their count
    equals the complexity.
    """

    complexity: int
    partitions: tuple[str, ...]


def _scan(w: str) -> list[int]:
    """Kaspar-Schuster scan: the start of every component, the pending one's too."""
    starts = [0, 1]
    q_start, p = 1, -1  # candidate Q = w[q_start:q_end]; p its earliest start
    for q_end in range(2, len(w) + 1):
        # p < 0 marks a new one-symbol Q.  Otherwise Q minus its last symbol
        # first occurs at p, within w[:q_end - 2], so Q occurs at p or later.
        if p < 0 or w[p + q_end - q_start - 1] != w[q_end - 1]:
            p = w.find(w[q_start:q_end], p + 1, q_end - 1)
        if p < 0:
            starts.append(q_end)
            q_start = q_end
    return starts


def lzc(word) -> LzcTrace:
    """Lempel-Ziv complexity of a binary word via the Kaspar-Schuster scan.

    The scan keeps a parsed prefix S and a candidate component Q.  While
    Q occurs inside the vocabulary of S + Q with the last character
    dropped, Q keeps extending; otherwise Q closes as a new component
    and the scan restarts after it.  A leftover candidate at the end of
    the word counts as one final component, so a constant word of any
    length parses into exactly two components.

    The scan keeps the earliest occurrence of Q.  An extended Q is first
    tried there by one symbol comparison and only then searched for past
    it, since no occurrence can start earlier.

    Args:
        word: Nonempty word over {0, 1}.

    Returns:
        LzcTrace with the component count and the parsed components.

    Raises:
        ValueError: If the word is empty or holds other symbols.
    """
    w = _as_word(word)
    if not w:
        raise ValueError("word must be nonempty")
    starts = _scan(w)
    bounds = [s for s in starts if s < len(w)] + [len(w)]
    parts = tuple(w[a:b] for a, b in zip(bounds, bounds[1:]))
    return LzcTrace(complexity=len(parts), partitions=parts)


def lzc_curve(word, stride: int) -> ObservableSeries:
    """Complexity of each prefix of length stride, 2 * stride, and so on.

    Every value equals ``lzc`` of its prefix, read off one scan of the
    whole word: it counts the components that start inside the prefix.

    Args:
        word: Nonempty word over {0, 1}.
        stride: Positive integer prefix-length increment, at most len(word).

    Returns:
        ObservableSeries with times holding the prefix lengths and one
        column ``lzc``; values are nondecreasing in prefix length.
    """
    w = _as_word(word)
    stride = operator.index(stride)
    if stride < 1 or stride > len(w):
        bounds = f"1 .. {len(w)}, the word length"
        raise ValueError(f"stride must be in {bounds}, got {stride}")
    lengths = np.arange(stride, len(w) + 1, stride)
    values = np.searchsorted(_scan(w), lengths)
    return ObservableSeries(times=lengths, columns={"lzc": values})


def autocorrelation(word, tau_max: int) -> ObservableSeries:
    """Autocorrelation of the mean-centered word, normalized at lag 0.

    With z the centered word indexed 0 .. T, the raw value per lag is
    R(tau) = (1 / (T - tau)) * sum_{t = tau}^{T} z_t z_{t - tau}, and
    the returned values are R(tau) / R(0).  Values at positive lags may
    marginally exceed 1 in magnitude for strongly anticorrelated finite
    words because each lag uses its own finite-sample prefactor.

    Args:
        word: Word over {0, 1} of length at least tau_max + 2.
        tau_max: Largest lag, at least 1 and at most len(word) - 2 so
            every finite-sample prefactor stays finite.

    Returns:
        ObservableSeries over lags 0 .. tau_max with one column ``R``.

    Raises:
        ValueError: On an out-of-range tau_max.
        DegenerateSequenceError: For a constant word, whose centered
            values vanish identically and admit no normalization.
    """
    z, tau_max = _as_values(word), operator.index(tau_max)
    big_t = len(z) - 1
    if not 1 <= tau_max <= big_t - 1:
        bounds = f"1 .. {big_t - 1}, the word length less 2"
        raise ValueError(f"tau_max must be in {bounds}, got {tau_max}")
    z = z - z.mean()
    if not z.any():
        raise DegenerateSequenceError(
            "autocorrelation is undefined for a constant word"
        )
    # OpenBLAS splits a dot product of over 10 000 elements across its
    # threads, so its sum would depend on their number.  Summing fixed
    # blocks of 8192 keeps each on one thread; a short word is one block.
    raw = np.empty(tau_max + 1)
    for tau in range(tau_max + 1):
        a, b = z[tau:], z[: len(z) - tau]
        dot = sum(a[i : i + 8192] @ b[i : i + 8192] for i in range(0, len(a), 8192))
        raw[tau] = dot / (big_t - tau)
    return ObservableSeries(times=np.arange(tau_max + 1), columns={"R": raw / raw[0]})


def psd(word) -> ObservableSeries:
    """Normalized power spectrum of the mean-centered word.

    Power at integer frequency w in 1 .. T is the squared modulus of
    the discrete Fourier transform of the centered word (the constant
    prefactor of the transform cancels under normalization), and the
    returned powers sum to 1.  Frequency T aliases the zero-frequency
    bin and carries no power after centering.

    Args:
        word: Word over {0, 1} of length T >= 2.

    Returns:
        ObservableSeries over frequencies 1 .. T with one column ``Phi``.

    Raises:
        ValueError: If the word is shorter than 2 symbols.
        DegenerateSequenceError: For a constant word (zero spectrum).
    """
    z = _as_values(word)
    if len(z) < 2:
        raise ValueError("word must hold at least 2 symbols")
    z = z - z.mean()
    if not z.any():
        raise DegenerateSequenceError("spectrum is undefined for a constant word")
    bins = np.abs(np.fft.fft(z)) ** 2
    power = np.concatenate([bins[1:], bins[:1]])
    power /= power.sum()
    return ObservableSeries(times=np.arange(1, len(z) + 1), columns={"Phi": power})


def ones_fraction_curve(word) -> ObservableSeries:
    """Cumulative fraction of 1s, f(t) = (ones among b_0 .. b_t) / (t + 1).

    Args:
        word: Nonempty word over {0, 1}.

    Returns:
        ObservableSeries with one column ``f`` indexed by t.
    """
    values = _as_values(word)
    if len(values) == 0:
        raise ValueError("word must be nonempty")
    counts = np.cumsum(values)
    fractions = counts / np.arange(1, len(values) + 1)
    return ObservableSeries(
        times=np.arange(len(values)), columns={"f": fractions}
    )
