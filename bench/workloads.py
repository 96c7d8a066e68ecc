"""The four benchmark workloads and the exact work each one asks for.

A workload is a fixed list of ``qwjumps`` CLI invocations (operations).
The workload seed only sets ``--rng-seed`` of random-protocol operations;
every other operation is the same for every seed.

Light-cone site-steps are counted outside the program, from
``RunConfig.jump_schedule()``: a walk of ``T`` steps with partial jump
sums ``S_t`` touches ``sum_{t=1..T} (2 S_t + 1)`` sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qwjumps.sequences import Protocol
from qwjumps.walk_engine import CoinSpec, RunConfig

PROTOCOLS = tuple(p.value for p in Protocol)
G5 = tuple(repr(float(v)) for v in np.linspace(0.0, math.pi / 2.0, 5))
PI_4 = repr(math.pi / 4.0)

# Full-scale sweep of the paper: 33 theta x 2 coin families quantum
# cells per (protocol, seed symbol), plus one classical cell each.
FULL_SCALE_T_MAX = 200_000
FULL_SCALE_CELLS_PER_SCHEDULE = 33 * 2 + 1

WORKLOADS = {
    "sweep-grid": "many short sweep cells on a 5-point theta grid; the only process-pool workload",
    "sweep-long": "two 10^4-step cells per walker; the step kernel and subnormal arithmetic dominate",
    "walk-export": "walk at its defaults for every protocol, classical walks and a carpet; all fields and CSV writers",
    "seq-diag": "seq at 10^4 symbols for every protocol; lzc_curve dominates and walk_engine is never called",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation, without its ``--out`` directory.

    Attributes:
        argv: Arguments after the program name.
        kind: ``seq``, ``walk``, ``classical``, ``carpet`` or ``sweep``.
        site_steps: Light-cone site-steps the invocation evolves when
            it completes (quantum plus classical).
        pool: Whether the invocation runs sweep cells in a process pool.
        rng_seed: The ``--rng-seed`` it passes; None when it passes none.
        meta: What the output checks need: horizon, protocol, grid sizes.
    """

    argv: tuple[str, ...]
    kind: str
    site_steps: int = 0
    pool: bool = False
    rng_seed: int | None = None
    meta: dict = field(default_factory=dict, compare=False)


def light_cone_site_steps(jumps: np.ndarray) -> int:
    """sum over t = 1..T of (2 S_t + 1), with S_t the partial jump sums."""
    partial = np.cumsum(jumps, dtype=np.int64)
    return int(2 * partial.sum() + len(jumps))


def schedule_site_steps(protocol: str, seed_symbol: int, t_max: int, rng_seed: int) -> int:
    run = RunConfig(
        coin=CoinSpec("H", 0.0),
        protocol=protocol,
        t_max=t_max,
        seed_symbol=seed_symbol,
        rng_seed=rng_seed if protocol == "random" else None,
    )
    return light_cone_site_steps(run.jump_schedule())


def _rng_args(protocol: str, rng_seed: int) -> tuple[str, ...]:
    return ("--rng-seed", str(rng_seed)) if protocol == "random" else ()


def _sweep(t_max: int, thetas, coin: str, protocols, seed_symbol: str, jobs: int, rng_seed: int) -> Op:
    families = ("H", "K") if coin == "both" else (coin,)
    seeds = (0, 1) if seed_symbol == "both" else (int(seed_symbol),)
    per_schedule = sum(
        schedule_site_steps(p, s, t_max, rng_seed) for p in protocols for s in seeds
    )
    argv = (
        "sweep", "--tmax", str(t_max), "--theta", *thetas, "--coin", coin,
        "--protocol", *protocols, "--seed-symbol", seed_symbol, "--jobs", str(jobs),
    )
    uses_random = "random" in protocols
    if uses_random:
        argv += ("--rng-seed", str(rng_seed))
    return Op(
        argv=argv,
        kind="sweep",
        site_steps=(len(families) * len(thetas) + 1) * per_schedule,
        pool=jobs > 1,
        rng_seed=rng_seed if uses_random else None,
        meta={"thetas": len(thetas), "protocols": tuple(protocols), "families": families},
    )


def build(name: str, rng_seed: int, scale: float = 1.0) -> list[Op]:
    """Operations of one workload.

    ``scale`` shrinks every horizon for the harness self-test; the
    benchmark itself always runs at scale 1.
    """

    def horizon(t: int) -> int:
        return max(20, int(t * scale))

    if name == "sweep-grid":
        return [_sweep(horizon(2000), G5, "both", PROTOCOLS, "both", 2, rng_seed)]
    if name == "sweep-long":
        return [
            _sweep(horizon(10_000), (PI_4,), "H", ("standard", "fibonacci"), "0", 2, rng_seed)
        ]
    if name == "walk-export":
        t_walk, t_carpet = horizon(2000), horizon(1000)
        ops = []
        for classical in (False, True):
            for p in PROTOCOLS:
                argv = ("walk", "--protocol", p, *_rng_args(p, rng_seed))
                if scale != 1.0:
                    argv += ("--tmax", str(t_walk))
                if classical:
                    argv += ("--classical",)
                ops.append(
                    Op(
                        argv=argv,
                        kind="classical" if classical else "walk",
                        site_steps=schedule_site_steps(p, 0, t_walk, rng_seed),
                        rng_seed=rng_seed if p == "random" else None,
                        meta={"t_max": t_walk, "protocol": p},
                    )
                )
        ops.append(
            Op(
                argv=("carpet", "--protocol", "periodic", "--coin", "K", "--tmax", str(t_carpet)),
                kind="carpet",
                site_steps=schedule_site_steps("periodic", 0, t_carpet, rng_seed),
                meta={"t_max": t_carpet, "protocol": "periodic"},
            )
        )
        return ops
    if name == "seq-diag":
        t_seq = horizon(10_000)
        ops = []
        for p in PROTOCOLS:
            argv = ("seq", "--protocol", p, *_rng_args(p, rng_seed))
            if scale != 1.0:
                argv += ("--tmax", str(t_seq))
            ops.append(
                Op(
                    argv=argv,
                    kind="seq",
                    rng_seed=rng_seed if p == "random" else None,
                    meta={"t_max": t_seq, "protocol": p},
                )
            )
        return ops
    raise ValueError(f"unknown workload {name!r}")


def full_sweep_site_steps(rng_seed: int) -> int:
    """Exact light-cone site-steps of the 792 + 12 full-scale sweep cells."""
    per_schedule = sum(
        schedule_site_steps(p, s, FULL_SCALE_T_MAX, rng_seed)
        for p in PROTOCOLS
        for s in (0, 1)
    )
    return FULL_SCALE_CELLS_PER_SCHEDULE * per_schedule
