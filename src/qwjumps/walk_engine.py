"""Two-component quantum walk with jump-modulated shifts.

The walker evolves on a bounded 1-D lattice by alternating a 2x2 coin
rotation on the spin with a spin-conditioned translation: the down
component moves J sites left and the up component J sites right, where
J comes from a binary jump-control sequence.  A classical comparator
evolves a probability profile under the matching symmetric jump map.

Public states live on the lattice x in [-2 t_max, 2 t_max], which no
walk started at the origin can leave because the largest jump is 2 per
step; step() and classical_step() are the dense one-step references on
it.  evolve() and classical_evolve() run both walkers through one
recording loop on one packed kernel that keeps only the up component, of
which down is the phased mirror image, and only sites of the current
parity, inside a live window trimmed of edge values below
FLUSH_THRESHOLD, and build the dense state once, at the end.  A caller
asks evolve() for the spin-asymmetry carpet by passing a callable, which
gets one carpet row per step as it is made; no dense carpet is held.
Evolution never renormalizes: norm drift stays measurable as a
correctness signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import observables
from .errors import BoundaryContactError
from .sequences import Protocol, generate, to_jumps
from .series import ObservableSeries

__all__ = [
    "CoinFamily",
    "CoinSpec",
    "SpinorField",
    "ClassicalProfile",
    "RunConfig",
    "EvolutionResult",
    "ClassicalResult",
    "QUANTUM_FIELDS",
    "CLASSICAL_FIELDS",
    "initial_state",
    "step",
    "evolve",
    "classical_step",
    "classical_evolve",
]

QUANTUM_FIELDS = ("m2", "m4", "kappa", "S", "IPR", "JSD", "S_e")
CLASSICAL_FIELDS = ("m2", "m4", "kappa", "S", "IPR")

# Every TRIM_INTERVAL steps the evolution drops the edge sites of its live
# window whose stored reals all lie below FLUSH_THRESHOLD.  An amplitude
# that small squares to exactly 0.0; a classical mass that small lies far
# below the last bit of every sum it enters.
FLUSH_THRESHOLD = 1e-200
TRIM_INTERVAL = 16


class CoinFamily(str, Enum):
    """Coin matrix families."""

    H = "H"  # Hadamard-like: real rotation-reflection
    K = "K"  # Kempe-like: complex symmetric rotation


@dataclass(frozen=True)
class CoinSpec:
    """Coin family plus mixing angle theta in [0, pi/2] radians."""

    family: CoinFamily
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", CoinFamily(self.family))
        object.__setattr__(self, "theta", float(self.theta))
        if not 0.0 <= self.theta <= math.pi / 2.0 + 1e-15:
            raise ValueError(f"theta must lie in [0, pi/2] radians, got {self.theta!r}")

    def matrix(self) -> np.ndarray:
        """The 2x2 unitary acting on (up, down) amplitude pairs.

        At theta = 0 the H family is exactly diag(1, -1) and the K
        family is exactly the identity.
        """
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        if self.family is CoinFamily.H:
            return np.array([[c, s], [s, -c]], dtype=complex)
        return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


@dataclass(frozen=True)
class SpinorField:
    """Down/up complex amplitudes over a bounded symmetric lattice.

    Attributes:
        down: Complex amplitudes of the down component per site.
        up: Complex amplitudes of the up component per site.
        origin: Array index of lattice site x = 0.
    """

    down: np.ndarray
    up: np.ndarray
    origin: int

    def __post_init__(self) -> None:
        if self.down.shape != self.up.shape or self.down.ndim != 1:
            raise ValueError("components must be 1-D arrays of equal length")
        if len(self.down) < 3 or len(self.down) % 2 == 0:
            raise ValueError("extent must be odd and at least 3")
        if not 0 <= self.origin < len(self.down):
            raise ValueError("origin must index into the lattice")

    @property
    def extent(self) -> int:
        return len(self.down)

    def positions(self) -> np.ndarray:
        """Lattice coordinates per array index."""
        return np.arange(self.extent) - self.origin

    def probability(self) -> np.ndarray:
        """Site occupation profile |down|^2 + |up|^2."""
        down, up = self.down, self.up
        return down.real**2 + down.imag**2 + up.real**2 + up.imag**2

    def norm(self) -> float:
        """Total occupation; 1 up to floating drift for valid states."""
        return float(np.sum(self.probability()))


@dataclass(frozen=True)
class ClassicalProfile:
    """Nonnegative probability mass per site for the classical comparator."""

    mass: np.ndarray
    origin: int

    def __post_init__(self) -> None:
        if self.mass.ndim != 1 or len(self.mass) < 3 or len(self.mass) % 2 == 0:
            raise ValueError("mass must be a 1-D array of odd length >= 3")
        if not 0 <= self.origin < len(self.mass):
            raise ValueError("origin must index into the lattice")
        if np.any(self.mass < 0.0):
            raise ValueError("mass entries must be nonnegative")

    @property
    def extent(self) -> int:
        return len(self.mass)

    def positions(self) -> np.ndarray:
        return np.arange(self.extent) - self.origin


@dataclass(frozen=True)
class RunConfig:
    """One evolution: coin, jump protocol, horizon, and recording plan.

    Attributes:
        coin: Coin family and angle.
        protocol: Jump-control sequence family.
        t_max: Number of steps; 0 records just the initial state.
        seed_symbol: First symbol of the jump-control word.
        rng_seed: Shuffle seed, required iff protocol is RANDOM.
        record_stride: Sampling interval for observables; None picks 1
            while t_max <= 1000 and 10 beyond that.  The final step is
            always recorded.
        record_fields: Observable columns to record, drawn from
            QUANTUM_FIELDS.  Recording JSD co-evolves the classical
            comparator under the same jump schedule.
    """

    coin: CoinSpec
    protocol: Protocol
    t_max: int
    seed_symbol: int = 0
    rng_seed: int | None = None
    record_stride: int | None = None
    record_fields: tuple[str, ...] = QUANTUM_FIELDS

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        object.__setattr__(self, "record_fields", tuple(self.record_fields))
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")
        if self.record_stride is not None and self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        unknown = set(self.record_fields) - set(QUANTUM_FIELDS)
        if unknown:
            raise ValueError(f"unknown record fields: {sorted(unknown)}")

    @property
    def extent(self) -> int:
        # x spans [-2 t_max, 2 t_max], as the largest jump is 2 per step;
        # a 0-step run still needs a valid 3-site lattice.
        return 4 * max(1, self.t_max) + 1

    @property
    def stride(self) -> int:
        if self.record_stride is not None:
            return self.record_stride
        return 1 if self.t_max <= 1000 else 10

    def record_times(self) -> list[int]:
        """Sampled steps: every stride-th step from 0, plus t_max."""
        times = list(range(0, self.t_max + 1, self.stride))
        if times[-1] != self.t_max:
            times.append(self.t_max)
        return times

    def jump_schedule(self) -> np.ndarray:
        """Jump lengths J_0 .. J_{t_max - 1}; empty when t_max is 0."""
        if self.t_max == 0:
            return np.zeros(0, dtype=np.int64)
        seq = generate(
            self.protocol, self.seed_symbol, self.t_max, rng_seed=self.rng_seed
        )
        return to_jumps(seq)[: self.t_max]


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of a quantum evolution."""

    series: ObservableSeries
    final_state: SpinorField
    final_norm: float
    jumps: np.ndarray


@dataclass(frozen=True)
class ClassicalResult:
    """Outcome of a classical comparator evolution."""

    series: ObservableSeries
    final_profile: ClassicalProfile
    final_mass: float
    jumps: np.ndarray


def initial_state(coin: CoinSpec, extent: int) -> SpinorField:
    """Origin-localized spinor (|down> + e^{i phi} |up>) / sqrt(2).

    The phase phi is pi/2 for the H family and 0 for the K family,
    which makes the evolved occupation profile reflection-symmetric.
    Exactly: after t steps of step(), down(x) = phase_t * up(-x) bit for
    bit, with phase_t = 1 for K and (-1)^(t+1) i for H.

    Args:
        coin: Coin whose family selects the phase.
        extent: Odd lattice size, at least 3.
    """
    if extent < 3 or extent % 2 == 0:
        raise ValueError("extent must be odd and at least 3")
    origin = extent // 2
    amp = 1.0 / math.sqrt(2.0)
    down = np.zeros(extent, dtype=complex)
    up = np.zeros(extent, dtype=complex)
    down[origin] = amp
    up[origin] = 1j * amp if coin.family is CoinFamily.H else amp
    return SpinorField(down=down, up=up, origin=origin)


def step(state: SpinorField, coin: CoinSpec, jump: int) -> SpinorField:
    """One evolution step: coin on every site, then the conditioned shift.

    The down component moves jump sites toward negative x and the up
    component jump sites toward positive x.

    Raises:
        ValueError: If jump is not 1 or 2.
        BoundaryContactError: If nonzero amplitude would leave the
            lattice; amplitude on the outermost sites is still allowed.
    """
    if jump not in (1, 2):
        raise ValueError("jump must be 1 or 2")
    j = int(jump)
    m = coin.matrix()
    up_mix = m[0, 0] * state.up + m[0, 1] * state.down
    dn_mix = m[1, 0] * state.up + m[1, 1] * state.down
    if np.any(up_mix[-j:]) or np.any(dn_mix[:j]):
        raise BoundaryContactError(
            f"a jump of {j} would carry amplitude off the lattice"
        )
    up_next = np.zeros_like(up_mix)
    dn_next = np.zeros_like(dn_mix)
    up_next[j:] = up_mix[:-j]
    dn_next[:-j] = dn_mix[j:]
    return SpinorField(down=dn_next, up=up_next, origin=state.origin)


def classical_step(profile: ClassicalProfile, jump: int) -> ClassicalProfile:
    """One classical step: half the mass of each site moves +-jump sites.

    Raises:
        ValueError: If jump is not 1 or 2.
        BoundaryContactError: If nonzero mass would leave the lattice.
    """
    if jump not in (1, 2):
        raise ValueError("jump must be 1 or 2")
    j = int(jump)
    mass = profile.mass
    if np.any(mass[-j:]) or np.any(mass[:j]):
        raise BoundaryContactError(
            f"a jump of {j} would carry mass off the lattice"
        )
    nxt = np.zeros_like(mass)
    nxt[j:] += 0.5 * mass[:-j]
    nxt[:-j] += 0.5 * mass[j:]
    return ClassicalProfile(mass=nxt, origin=profile.origin)


class _PackedWalk:
    """Two-component walk on its parity lattice, in a trimmed live window.

    After t steps of summed length S, occupied sites have x = 2k - S with k
    in [0, S].  Only up is stored, up[k] at buffer index k + off with
    off = s_max - S, so a jump is free.  A symmetric coin, m11 = phase^2
    m00, and a start down = phase up with phase^4 = 1 keep down[k] =
    phases[t & 1] up[S - k]: the start phase, conjugated every step.  The
    window [lo, S + 1 - lo) is symmetric, so in the buffer it is
    up[lo + off : len(up) - lo]; the buffer is zero outside it.  A complex
    coin moves amplitudes, _CLASSICAL_COIN right- and left-moving mass.
    """

    def __init__(self, coin: np.ndarray, up0, down0, s_max: int):
        (self.m00, m01), (m10, m11) = coin
        phase = next((p for p in (1, -1, 1j, -1j) if down0 == p * up0), 0)
        if not phase or m10 != m01 or m11 != phase**2 * self.m00:
            raise ValueError("coin and start must keep down the phased mirror of up")
        # Exact: phase is +-1 or +-i, and m01 is real or imaginary.
        self.phases = (phase, phase.conjugate())
        self.m01 = tuple(m01 * p for p in self.phases)
        self.up = np.zeros(s_max + 1, np.result_type(coin, up0, down0))
        self.tmp = np.empty(s_max + 1, self.up.dtype)
        self.up[s_max] = up0
        self.off, self.lo, self.t = s_max, 0, 0

    def window(self, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """Down and up over the symmetric range [lo, S + 1 - lo) of packed sites."""
        u = self.up[lo + self.off : len(self.up) - lo]
        return self.phases[self.t & 1] * u[::-1], u

    def squares(self, lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|up|^2, down.real^2 and down.imag^2 over [lo, S + 1 - lo)."""
        sq = np.square(self.up[lo + self.off : len(self.up) - lo].view(np.float64))
        ur2, ui2 = sq[0::2], sq[1::2]
        # A phase of +-i swaps the real and imaginary parts of the mirror.
        dr2, di2 = (ui2, ur2) if self.phases[0].imag else (ur2, ui2)
        return ur2 + ui2, dr2[::-1], di2[::-1]

    def profile(self, lo: int) -> np.ndarray:
        """Mass over [lo, S + 1 - lo): n sites, x = 1 - n, 3 - n, ..., n - 1."""
        parts = (self.squares if np.iscomplexobj(self.up) else self.window)(lo)
        return sum(parts[1:], parts[0])

    def advance(self, jumps: list[int]) -> None:
        """Step through jumps: coin on the live window, then the free shift."""
        up, b, m00, m01 = self.up, self.tmp, self.m00, self.m01
        lo, off, t, n = self.lo, self.off, self.t, len(self.up)
        for jump in jumps:
            u = up[lo + off : n - lo]
            b_u = b[: len(u)]
            np.multiply(m01[t & 1], u[::-1], out=b_u)
            np.multiply(m00, u, out=u)
            np.add(u, b_u, out=u)
            off, t = off - jump, t + 1
            if t % TRIM_INTERVAL:
                continue
            # Drop the edge sites where up and its mirror lie below the threshold.
            u = up[lo + off : n - lo]
            big = np.abs(u.view(np.float64)) >= FLUSH_THRESHOLD
            first = int(min(big.argmax(), big[::-1].argmax())) // (u.itemsize // 8)
            u[:first] = u[len(u) - first :] = 0.0
            lo += first
        self.lo, self.off, self.t = lo, off, t


def _place(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a walker's live-window values onto a full lattice row."""
    # The window is centred on x = 0 and holds every other site.
    start = len(out) // 2 + 1 - len(values)
    out[start : start + 2 * len(values) : 2] = values
    return out


# Classical walkers start from (0.5, 0.5), so that down mirrors up.
_CLASSICAL_COIN = np.full((2, 2), 0.5)


def _sample(fields, walker, lo, comparator=None) -> list[float]:
    """The requested fields of walker over [lo, S + 1 - lo), in field order."""
    mass = walker.profile(lo)
    pos = np.arange(1 - len(mass), len(mass), 2.0)
    m2 = observables.moment(mass, pos, 2) if {"m2", "kappa"} & set(fields) else None
    m4 = observables.moment(mass, pos, 4) if {"m4", "kappa"} & set(fields) else None
    compute = {
        "m2": lambda: m2,
        "m4": lambda: m4,
        "kappa": lambda: observables.kurtosis(m2, m4) if m2 > 0.0 else math.nan,
        "S": lambda: observables.shannon_entropy(mass),
        "IPR": lambda: observables.ipr(mass),
        "JSD": lambda: observables.jsd(mass, comparator.profile(lo)),
        "S_e": lambda: observables.entanglement_entropy(
            observables.reduced_coin_matrix(*walker.window(lo))
        ),
    }
    return [compute[f]() for f in fields]


def _record(
    config, jumps, walker, fields, comparator=None, carpet_row=None
) -> ObservableSeries:
    """Advance the walker through jumps and sample fields at the record times.

    Walkers advance from stop to stop: the record times, or every step for a
    carpet, whose row at each t goes to carpet_row(t, row) as it is made.  A
    comparator advances over the same blocks and is sampled over the union
    of both (symmetric) windows as the JSD reference.
    """
    times = config.record_times()
    record_at = set(times)
    stops = range(config.t_max + 1) if carpet_row is not None else times
    jumps, rows = jumps.tolist(), []
    for start, t in zip([0, *stops], stops):
        walker.advance(jumps[start:t])
        if comparator is not None:
            comparator.advance(jumps[start:t])
        if carpet_row is not None:
            up2, dr2, di2 = walker.squares(walker.lo)
            raw = up2 - dr2 - di2
            # Cells outside the window are 0: the window's peak is the row's.
            row = observables.asymmetry_carpet(raw[None])[0]
            carpet_row(t, _place(row, np.zeros(config.extent)))
        if t in record_at:
            # Both walkers share one schedule and s_max, hence one off.
            lo = walker.lo if comparator is None else min(walker.lo, comparator.lo)
            rows.append(_sample(fields, walker, lo, comparator))
    columns = np.array(rows, dtype=float).T
    return ObservableSeries(np.array(times, dtype=np.int64), dict(zip(fields, columns)))


def evolve(config: RunConfig, carpet_row=None) -> EvolutionResult:
    """Run the configured walk and sample observables along the way.

    Runs on the packed, trimmed window of _PackedWalk; the JSD comparator
    runs on the same kernel and is compared over the union of the two
    windows.  Flushing moves only amplitudes far below 1e-162, which
    square to exactly 0, so every site probability and carpet cell is
    identical to repeated application of step().

    Args:
        config: The run.
        carpet_row: Asks for the spin-asymmetry carpet: called as
            carpet_row(t, row) for t = 0 .. t_max in order, with row the
            row-normalized |up|^2 - |down|^2 over the lattice, a fresh
            float64 array that the callee may keep.

    Returns:
        EvolutionResult; final_norm carries the uncorrected total
        occupation after the last step.
    """
    jumps = config.jump_schedule()
    s_max = int(jumps.sum())
    state0 = initial_state(config.coin, 3)
    qw = _PackedWalk(config.coin.matrix(), state0.up[1], state0.down[1], s_max)
    need_jsd = "JSD" in config.record_fields
    cw = _PackedWalk(_CLASSICAL_COIN, 0.5, 0.5, s_max) if need_jsd else None
    series = _record(config, jumps, qw, config.record_fields, cw, carpet_row)

    up, down = (np.zeros(config.extent, dtype=complex) for _ in range(2))
    d, u = qw.window(qw.lo)
    final_state = SpinorField(_place(d, down), _place(u, up), config.extent // 2)
    return EvolutionResult(
        series=series,
        final_state=final_state,
        final_norm=final_state.norm(),
        jumps=jumps,
    )


def classical_evolve(config: RunConfig) -> ClassicalResult:
    """Run the classical comparator under the configured jump schedule.

    Runs on the kernel of evolve(), so the profile is identical to
    repeated classical_step() wherever a mass of 1e-200 or more sits.
    Quantum-only record fields are ignored; at least one classical
    field (m2, m4, kappa, S, IPR) must remain requested.

    Raises:
        ValueError: If no classical field remains.
    """
    fields = tuple(f for f in config.record_fields if f in CLASSICAL_FIELDS)
    if not fields:
        raise ValueError("no classical record fields requested")
    jumps = config.jump_schedule()
    cw = _PackedWalk(_CLASSICAL_COIN, 0.5, 0.5, int(jumps.sum()))
    series = _record(config, jumps, cw, fields)

    mass = _place(cw.profile(cw.lo), np.zeros(config.extent))
    return ClassicalResult(
        series=series,
        final_profile=ClassicalProfile(mass=mass, origin=config.extent // 2),
        final_mass=float(np.sum(mass)),
        jumps=jumps,
    )
