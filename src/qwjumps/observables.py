"""Distributional, informational, and entanglement measures of walker states.

All functions are pure and operate on plain numpy arrays: probability
profiles are nonnegative unit-sum arrays indexed by lattice site, and
spinor components are complex amplitude arrays of matching shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError

__all__ = [
    "ReducedCoinMatrix",
    "FitResult",
    "moment",
    "fit_alpha",
    "shannon_entropy",
    "ipr",
    "kurtosis",
    "kld",
    "jsd",
    "reduced_coin_matrix",
    "entanglement_entropy",
    "asymmetry_carpet",
]

# Floating slack tolerated when clamping the eigenvalue discriminant.
_DISCRIMINANT_TOL = 1e-12


@dataclass(frozen=True)
class ReducedCoinMatrix:
    """Entries of the 2x2 spin density matrix after tracing out position.

    Attributes:
        g_a: Total down-component weight, sum of |psi_down|^2.
        g_b: Total up-component weight, sum of |psi_up|^2.
        g_ab: Off-diagonal overlap, sum of psi_down * conj(psi_up).
    """

    g_a: float
    g_b: float
    g_ab: complex


@dataclass(frozen=True)
class FitResult:
    """Power-law fit of a variance curve.

    Attributes:
        alpha: Fitted scaling exponent (log-log slope).
        intercept: Fitted log-log intercept.
        window: Inclusive (t_lo, t_hi) time window of the fit.
        residual: Root-mean-square residual of the log-log fit.
    """

    alpha: float
    intercept: float
    window: tuple[float, float]
    residual: float


def moment(mass: np.ndarray, positions: np.ndarray, n: int) -> float:
    """n-th position moment, sum of x^n * P(x).

    Positions are cast to float before exponentiation so that large
    lattices cannot overflow integer powers.
    """
    if n < 1:
        raise ValueError("moment order must be a positive integer")
    x = np.asarray(positions, dtype=float)
    return float(np.sum(x**n * np.asarray(mass, dtype=float)))


def fit_alpha(times, m2, window: tuple[float, float] | None = None) -> FitResult:
    """Ordinary least squares of log m2 against log t.

    Args:
        times: Sample times, one per m2 value.
        m2: Second-moment samples; must be positive inside the window.
        window: Inclusive (t_lo, t_hi) bounds.  Defaults to
            [max(10, t_hi / 10), t_hi] with t_hi the last sample time,
            which discards the short-time transient.

    Returns:
        FitResult whose alpha is the fitted slope.

    Raises:
        DegenerateFitError: If fewer than two distinct times fall in
            the window or any windowed m2 is not positive.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(m2, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and m2 must be 1-D arrays of equal length")
    if window is None:
        t_hi = float(t.max())
        window = (max(10.0, t_hi / 10.0), t_hi)
    t_lo, t_hi = float(window[0]), float(window[1])
    mask = (t >= max(t_lo, 1.0)) & (t <= t_hi)
    if len(np.unique(t[mask])) < 2:
        raise DegenerateFitError(
            f"fit window [{t_lo}, {t_hi}] holds fewer than two distinct times"
        )
    if np.any(y[mask] <= 0.0):
        raise DegenerateFitError(
            f"fit window [{t_lo}, {t_hi}] holds non-positive m2 samples"
        )
    log_t = np.log(t[mask])
    log_y = np.log(y[mask])
    slope, intercept = np.polyfit(log_t, log_y, 1)
    residual = float(np.sqrt(np.mean((intercept + slope * log_t - log_y) ** 2)))
    return FitResult(
        alpha=float(slope),
        intercept=float(intercept),
        window=(t_lo, t_hi),
        residual=residual,
    )


def shannon_entropy(mass: np.ndarray) -> float:
    """Entropy -sum P log P in natural-log units, skipping zero cells."""
    p = np.asarray(mass, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def ipr(mass: np.ndarray) -> float:
    """Inverse participation ratio, 1 / sum P^2."""
    p = np.asarray(mass, dtype=float)
    return float(1.0 / np.sum(p * p))


def kurtosis(m2: float, m4: float) -> float:
    """Raw moment ratio m4 / m2^2, with no excess-3 offset.

    Raises:
        ValueError: When m2 is zero (the ratio is undefined, as for a
            profile fully concentrated at the origin).
    """
    if m2 == 0.0:
        raise ValueError("kurtosis is undefined when m2 is zero")
    return float(m4 / (m2 * m2))


def kld(r: np.ndarray, w: np.ndarray) -> float:
    """Kullback-Leibler divergence sum R log2(R / W), over cells with R > 0.

    Raises:
        ValueError: If R puts mass where W has none (infinite divergence).
    """
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if r.shape != w.shape:
        raise ValueError("profiles must share one shape")
    support = r > 0.0
    if np.any(w[support] == 0.0):
        raise ValueError("divergence is infinite: R has mass where W has none")
    rs = r[support]
    return float(np.sum(rs * np.log2(rs / w[support])))


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon dissimilarity via the mean distribution, in [0, 1].

    Each half is evaluated in ratio form, sum R log2(2R / (P + Q)) over
    cells with R > 0.  Since P + Q >= R there, the ratio stays finite
    even where forming the mean 0.5 (P + Q) would round a subnormal
    mass to zero; elsewhere it rounds exactly as R / (0.5 (P + Q)).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("profiles must share one shape")
    total = p + q
    halves = []
    for r in (p, q):
        support = r > 0.0
        rs = r[support]
        halves.append(float(np.sum(rs * np.log2(2.0 * rs / total[support]))))
    return 0.5 * (halves[0] + halves[1])


def reduced_coin_matrix(down: np.ndarray, up: np.ndarray) -> ReducedCoinMatrix:
    """Trace out position from a spinor state.

    Args:
        down: Complex down-component amplitudes per site.
        up: Complex up-component amplitudes per site, same shape.
    """
    down = np.asarray(down)
    up = np.asarray(up)
    if down.shape != up.shape:
        raise ValueError("spinor components must share one shape")
    g_a = float(np.sum(down.real**2 + down.imag**2))
    g_b = float(np.sum(up.real**2 + up.imag**2))
    g_ab = complex(np.sum(down * np.conj(up)))
    return ReducedCoinMatrix(g_a=g_a, g_b=g_b, g_ab=g_ab)


def entanglement_entropy(rc: ReducedCoinMatrix) -> float:
    """Binary entropy, in bits, of the spin density matrix eigenvalues.

    The eigenvalues are 1/2 +- (1/2) sqrt(1 - 4 g_a g_b + 4 |g_ab|^2).
    The square-root argument is clamped into [0, 1] when floating error
    pushes it marginally outside.

    Raises:
        ValueError: If the argument leaves [0, 1] by more than the
            clamping tolerance, indicating an invalid input matrix.
    """
    disc = 1.0 - 4.0 * rc.g_a * rc.g_b + 4.0 * abs(rc.g_ab) ** 2
    if disc < -_DISCRIMINANT_TOL or disc > 1.0 + _DISCRIMINANT_TOL:
        raise ValueError(
            f"eigenvalue discriminant {disc!r} is outside [0, 1]"
        )
    disc = min(max(disc, 0.0), 1.0)
    half_gap = 0.5 * math.sqrt(disc)
    entropy = 0.0
    for lam in (0.5 - half_gap, 0.5 + half_gap):
        if lam > 0.0:
            entropy -= lam * math.log2(lam)
    return entropy


def asymmetry_carpet(raw: np.ndarray) -> np.ndarray:
    """Normalize spin-asymmetry rows by each row's peak magnitude.

    Args:
        raw: Array of shape (times, sites) holding |psi_up|^2 -
            |psi_down|^2 per step and site.

    Returns:
        Array of the same shape with every row scaled into [-1, 1];
        rows that vanish identically stay zero.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("carpet input must be 2-D (times, sites)")
    peaks = np.max(np.abs(raw), axis=1, keepdims=True)
    scale = np.where(peaks > 0.0, peaks, 1.0)
    return raw / scale
