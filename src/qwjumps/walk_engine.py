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
FLUSH_THRESHOLD, and build the dense state once, at the end.  Evolution
never renormalizes: norm drift stays measurable as a correctness signal.
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
# A carpet holds (t_max + 1) x (4 t_max + 1) float64 cells; RunConfig
# refuses one larger than this, which is every t_max above 8191.
CARPET_MAX_BYTES = 2**31


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
        carpet: Also store the row-normalized spin asymmetry |up|^2 -
            |down|^2 per step and site, within CARPET_MAX_BYTES.
    """

    coin: CoinSpec
    protocol: Protocol
    t_max: int
    seed_symbol: int = 0
    rng_seed: int | None = None
    record_stride: int | None = None
    record_fields: tuple[str, ...] = QUANTUM_FIELDS
    carpet: bool = False

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
        if self.carpet and 8 * (self.t_max + 1) * self.extent > CARPET_MAX_BYTES:
            raise ValueError(
                f"tmax {self.t_max} is too large for a carpet: its "
                f"{self.t_max + 1} x {self.extent} float64 cells exceed 2 GiB"
            )

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
    carpet: np.ndarray | None = None


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

    After steps of summed length S, occupied sites have x = 2k - S with k
    in [0, S].  Only up is stored, up[k] at buffer index k + off with
    off = s_max - S, so a jump is free.  A symmetric coin, m11 = phase^2
    m00, and a start down = phase up with phase^4 = 1 keep down[k] = phase
    up[S - k], with phase conjugated every step.  The window [lo, hi) stays
    symmetric, lo + hi - 1 = S; the buffer is zero outside it.  A complex
    coin moves amplitudes, _CLASSICAL_COIN right- and left-moving mass.
    """

    def __init__(self, coin: np.ndarray, up0, down0, s_max: int):
        (self.m00, self.m01), (m10, m11) = coin
        self.phase = next((p for p in (1, -1, 1j, -1j) if down0 == p * up0), 0)
        if not self.phase or m10 != self.m01 or m11 != self.phase**2 * self.m00:
            raise ValueError("coin and start must keep down the phased mirror of up")
        self.up = np.zeros(s_max + 1, np.result_type(coin, up0, down0))
        self.tmp = np.empty((2, s_max + 1), self.up.dtype)
        self.up[s_max] = up0
        self.off, self.s, self.t = s_max, 0, 0
        self.lo, self.hi = 0, 1

    def window(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Up and down over a symmetric range [lo, hi) of packed sites."""
        u = self.up[lo + self.off : hi + self.off]
        return u, u[::-1] if self.phase == 1 else self.phase * u[::-1]

    def squares(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|up|^2, down.real^2 and down.imag^2 over a symmetric [lo, hi)."""
        sq = np.square(self.up[lo + self.off : hi + self.off].view(np.float64))
        ur2, ui2 = sq[0::2], sq[1::2]
        # A phase of +-i swaps the real and imaginary parts of the mirror.
        dr2, di2 = (ui2, ur2) if self.phase.imag else (ur2, ui2)
        return ur2 + ui2, dr2[::-1], di2[::-1]

    def profile(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Mass and lattice positions x = 2k - S over a symmetric [lo, hi)."""
        parts = (self.squares if np.iscomplexobj(self.up) else self.window)(lo, hi)
        pos = np.arange(2 * lo - self.s, 2 * hi - self.s, 2.0)
        return sum(parts[1:], parts[0]), pos

    def place(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write values over the live window onto a full lattice row."""
        start = len(out) // 2 - self.s + 2 * self.lo
        out[start : start + 2 * len(values) : 2] = values
        return out

    def advance(self, jumps: list[int]) -> None:
        """Step through jumps: coin on the live window, then the free shift."""
        up, (a, b), m00 = self.up, self.tmp, self.m00
        # Exact: phase is +-1 or +-i, and m01 is real or imaginary.
        m01 = (self.m01 * self.phase, self.m01 * self.phase.conjugate())
        lo, hi, off, t = self.lo, self.hi, self.off, self.t
        for i, jump in enumerate(jumps):
            u = up[lo + off : hi + off]
            a_u, b_u = a[: hi - lo], b[: hi - lo]
            np.multiply(m00, u, out=a_u)
            np.multiply(m01[i & 1], u[::-1], out=b_u)
            np.add(a_u, b_u, out=u)
            off, hi, t = off - jump, hi + jump, t + 1
            if t % TRIM_INTERVAL:
                continue
            # Drop the edge sites where up and its mirror lie below the threshold.
            u = up[lo + off : hi + off]
            big = np.abs(u.view(np.float64)) >= FLUSH_THRESHOLD
            live = np.flatnonzero(big) // (u.itemsize // 8)
            first = int(min(live[0], len(u) - 1 - live[-1]))
            u[:first] = u[len(u) - first :] = 0.0
            lo, hi = lo + first, hi - first
        if len(jumps) % 2:
            self.phase = self.phase.conjugate()
        self.s += self.off - off
        self.lo, self.hi, self.off, self.t = lo, hi, off, t


# Classical walkers start from (0.5, 0.5), so that down mirrors up.
_CLASSICAL_COIN = np.full((2, 2), 0.5)


def _sample(fields, mass, pos, cw_mass=None, up=None, down=None) -> list[float]:
    """The requested observables of one sampled profile, in field order."""
    m2 = observables.moment(mass, pos, 2) if {"m2", "kappa"} & set(fields) else None
    m4 = observables.moment(mass, pos, 4) if {"m4", "kappa"} & set(fields) else None
    compute = {
        "m2": lambda: m2,
        "m4": lambda: m4,
        "kappa": lambda: observables.kurtosis(m2, m4) if m2 > 0.0 else math.nan,
        "S": lambda: observables.shannon_entropy(mass),
        "IPR": lambda: observables.ipr(mass),
        "JSD": lambda: observables.jsd(mass, cw_mass),
        "S_e": lambda: observables.entanglement_entropy(
            observables.reduced_coin_matrix(down, up)
        ),
    }
    return [compute[f]() for f in fields]


def _record(
    config, jumps, walker, fields, comparator=None, carpet=None
) -> ObservableSeries:
    """Advance the walker through jumps and sample fields at the record times.

    Walkers advance from stop to stop: the record times, or every step for a
    carpet.  A comparator advances over the same blocks and is sampled over
    the union of both (symmetric) windows as the JSD reference.
    """
    record_at = set(config.record_times())
    stops = range(config.t_max + 1) if carpet is not None else sorted(record_at)
    jumps, times, rows = jumps.tolist(), [], []
    for start, t in zip([0, *stops], stops):
        walker.advance(jumps[start:t])
        if comparator is not None:
            comparator.advance(jumps[start:t])
        if carpet is not None:
            up2, dr2, di2 = walker.squares(walker.lo, walker.hi)
            raw = up2 - dr2 - di2
            # Cells outside the window are 0: the window's peak is the row's.
            walker.place(observables.asymmetry_carpet(raw[None])[0], carpet[t])
        if t in record_at:
            lo, hi, cw_mass = walker.lo, walker.hi, None
            if comparator is not None:
                lo, hi = min(lo, comparator.lo), max(hi, comparator.hi)
                cw_mass = comparator.profile(lo, hi)[0]
            spinor = walker.window(lo, hi) if "S_e" in fields else ()
            times.append(t)
            rows.append(_sample(fields, *walker.profile(lo, hi), cw_mass, *spinor))
    columns = np.array(rows, dtype=float).T
    return ObservableSeries(np.array(times, dtype=np.int64), dict(zip(fields, columns)))


def evolve(config: RunConfig) -> EvolutionResult:
    """Run the configured walk and sample observables along the way.

    Runs on the packed, trimmed window of _PackedWalk; the JSD comparator
    runs on the same kernel and is compared over the union of the two
    windows.  Flushing moves only amplitudes far below 1e-162, which
    square to exactly 0, so every site probability and carpet cell is
    identical to repeated application of step().

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
    carpet = np.zeros((config.t_max + 1, config.extent)) if config.carpet else None
    series = _record(config, jumps, qw, config.record_fields, cw, carpet)

    up, down = (np.zeros(config.extent, dtype=complex) for _ in range(2))
    u, d = qw.window(qw.lo, qw.hi)
    final_state = SpinorField(qw.place(d, down), qw.place(u, up), config.extent // 2)
    return EvolutionResult(
        series=series,
        final_state=final_state,
        final_norm=final_state.norm(),
        jumps=jumps,
        carpet=carpet,
    )


def classical_evolve(config: RunConfig) -> ClassicalResult:
    """Run the classical comparator under the configured jump schedule.

    Runs on the kernel of evolve(), so the profile is identical to
    repeated classical_step() wherever a mass of 1e-200 or more sits.
    Quantum-only record fields are ignored; at least one classical
    field (m2, m4, kappa, S, IPR) must remain requested.

    Raises:
        ValueError: If no classical field remains, or if a carpet is
            requested: the classical walker has no spin to map.
    """
    if config.carpet:
        raise ValueError("carpet needs the quantum walk: classical has no spin")
    fields = tuple(f for f in config.record_fields if f in CLASSICAL_FIELDS)
    if not fields:
        raise ValueError("no classical record fields requested")
    jumps = config.jump_schedule()
    cw = _PackedWalk(_CLASSICAL_COIN, 0.5, 0.5, int(jumps.sum()))
    series = _record(config, jumps, cw, fields)

    mass = cw.place(cw.profile(cw.lo, cw.hi)[0], np.zeros(config.extent))
    return ClassicalResult(
        series=series,
        final_profile=ClassicalProfile(mass=mass, origin=config.extent // 2),
        final_mass=float(np.sum(mass)),
        jumps=jumps,
    )
