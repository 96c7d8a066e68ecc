"""Two-component quantum walk with jump-modulated shifts.

The walker evolves on a bounded 1-D lattice by alternating a 2x2 coin
rotation on the spin with a spin-conditioned translation: the down
component moves J sites left and the up component J sites right, where
J comes from a binary jump-control sequence.  A classical comparator
evolves a probability profile under the matching symmetric jump map.

The lattice spans x in [-2 t_max, 2 t_max], which no walk started at
the origin can leave because the largest jump is 2 per step.  Evolution
never renormalizes: norm drift stays measurable as a correctness
signal.
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
            raise ValueError("theta must lie in [0, pi/2] radians")

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
        return (
            self.down.real**2
            + self.down.imag**2
            + self.up.real**2
            + self.up.imag**2
        )

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
        carpet: Also store the spin asymmetry |up|^2 - |down|^2 for
            every step and site, row-normalized by peak magnitude.
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

    @property
    def x_max(self) -> int:
        # Maximum jump is 2 per step; a degenerate 0-step run still
        # needs a valid 3-site lattice.
        return max(1, 2 * self.t_max)

    @property
    def extent(self) -> int:
        return 2 * self.x_max + 1

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


def _classical_shift(mass, mass_next, lo, hi, j):
    """Move half of mass[lo:hi] j sites each way, into mass_next.

    mass_next holds the profile of two steps ago, whose support sits
    inside [lo, hi); zeroing only the slice of the new window that the
    assignment does not cover keeps it clean.  The sums match
    classical_step() element for element.
    """
    p = mass[lo:hi]
    mass_next[lo - j : lo + j] = 0.0
    mass_next[lo + j : hi + j] = 0.5 * p
    mass_next[lo - j : hi - j] += 0.5 * p


class _Recorder:
    """Accumulates requested observable columns at sampled steps."""

    def __init__(self, fields: tuple[str, ...], positions: np.ndarray):
        self.fields = fields
        self.positions = positions.astype(float)
        self.need_m2 = not {"m2", "kappa"}.isdisjoint(fields)
        self.need_m4 = not {"m4", "kappa"}.isdisjoint(fields)
        self.times: list[int] = []
        self.values: dict[str, list[float]] = {f: [] for f in fields}

    def record_profile(self, t, mass, lo, hi, cw_mass=None, down=None, up=None):
        self.times.append(t)
        pos = self.positions[lo:hi]
        if self.need_m2:
            m2 = observables.moment(mass, pos, 2)
        if self.need_m4:
            m4 = observables.moment(mass, pos, 4)
        for f in self.fields:
            if f == "m2":
                value = m2
            elif f == "m4":
                value = m4
            elif f == "kappa":
                value = observables.kurtosis(m2, m4) if m2 > 0.0 else math.nan
            elif f == "S":
                value = observables.shannon_entropy(mass)
            elif f == "IPR":
                value = observables.ipr(mass)
            elif f == "JSD":
                value = observables.jsd(mass, cw_mass)
            elif f == "S_e":
                rc = observables.reduced_coin_matrix(down, up)
                value = observables.entanglement_entropy(rc)
            self.values[f].append(value)

    def series(self) -> ObservableSeries:
        return ObservableSeries(
            times=np.array(self.times, dtype=np.int64),
            columns={f: np.array(v) for f, v in self.values.items()},
        )


def evolve(config: RunConfig) -> EvolutionResult:
    """Run the configured walk and sample observables along the way.

    Uses a growing active window over dense arrays: support can widen by
    at most one jump per side per step, so everything outside the window
    is exactly zero and is never touched.  The arithmetic is identical,
    element for element, to repeated application of step().

    Returns:
        EvolutionResult; final_norm carries the uncorrected total
        occupation after the last step.
    """
    coin_m = config.coin.matrix()
    m00, m01 = coin_m[0, 0], coin_m[0, 1]
    m10, m11 = coin_m[1, 0], coin_m[1, 1]
    jumps = config.jump_schedule()
    extent = config.extent
    state0 = initial_state(config.coin, extent)
    origin = state0.origin
    up, dn = state0.up.copy(), state0.down.copy()
    up_next, dn_next = np.zeros_like(up), np.zeros_like(dn)

    need_jsd = "JSD" in config.record_fields
    cw = cw_next = None
    if need_jsd:
        cw = np.zeros(extent)
        cw[origin] = 1.0
        cw_next = np.zeros(extent)

    carpet_rows = None
    if config.carpet:
        carpet_rows = np.zeros((config.t_max + 1, extent))

    recorder = _Recorder(config.record_fields, state0.positions())
    record_at = set(config.record_times())
    lo, hi = origin, origin + 1

    def observe(t: int) -> None:
        u, d = up[lo:hi], dn[lo:hi]
        if carpet_rows is not None:
            # Cells outside [lo, hi) are 0: the window's peak is the row's.
            raw = u.real**2 + u.imag**2 - d.real**2 - d.imag**2
            carpet_rows[t, lo:hi] = observables.asymmetry_carpet(raw[None])[0]
        if t in record_at:
            mass = u.real**2 + u.imag**2 + d.real**2 + d.imag**2
            cw_mass = cw[lo:hi] if need_jsd else None
            recorder.record_profile(t, mass, lo, hi, cw_mass=cw_mass, down=d, up=u)

    observe(0)
    for t in range(1, config.t_max + 1):
        j = int(jumps[t - 1])
        u, d = up[lo:hi], dn[lo:hi]
        # The next buffers hold the state of two steps ago, whose
        # support sits inside [lo, hi); zeroing only the slices of the
        # new window the writes below do not cover keeps them clean.
        up_next[lo - j : lo + j] = 0.0
        dn_next[hi - j : hi + j] = 0.0
        up_next[lo + j : hi + j] = m00 * u + m01 * d
        dn_next[lo - j : hi - j] = m10 * u + m11 * d
        up, up_next = up_next, up
        dn, dn_next = dn_next, dn
        if need_jsd:
            _classical_shift(cw, cw_next, lo, hi, j)
            cw, cw_next = cw_next, cw
        lo, hi = lo - j, hi + j
        observe(t)

    final_state = SpinorField(down=dn, up=up, origin=origin)
    return EvolutionResult(
        series=recorder.series(),
        final_state=final_state,
        final_norm=final_state.norm(),
        jumps=jumps,
        carpet=carpet_rows,
    )


def classical_evolve(config: RunConfig) -> ClassicalResult:
    """Run the classical comparator under the configured jump schedule.

    Quantum-only record fields are ignored; at least one classical
    field (m2, m4, kappa, S, IPR) must remain requested.
    """
    fields = tuple(f for f in config.record_fields if f in CLASSICAL_FIELDS)
    if not fields:
        raise ValueError("no classical record fields requested")
    jumps = config.jump_schedule()
    extent = config.extent
    origin = extent // 2
    mass = np.zeros(extent)
    mass[origin] = 1.0
    mass_next = np.zeros(extent)

    recorder = _Recorder(fields, np.arange(extent) - origin)
    record_at = set(config.record_times())
    lo, hi = origin, origin + 1

    def observe(t: int) -> None:
        if t in record_at:
            recorder.record_profile(t, mass[lo:hi], lo, hi)

    observe(0)
    for t in range(1, config.t_max + 1):
        j = int(jumps[t - 1])
        _classical_shift(mass, mass_next, lo, hi, j)
        mass, mass_next = mass_next, mass
        lo, hi = lo - j, hi + j
        observe(t)

    profile = ClassicalProfile(mass=mass, origin=origin)
    return ClassicalResult(
        series=recorder.series(),
        final_profile=profile,
        final_mass=float(np.sum(mass)),
        jumps=jumps,
    )
