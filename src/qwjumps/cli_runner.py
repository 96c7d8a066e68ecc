"""Command-line entry points.

Subcommands:
    seq     generate a jump-control sequence and its diagnostic reports
    walk    run a single evolution and emit its observable series
    sweep   fit the spreading exponent over a theta grid of evolutions
    carpet  export the space-time spin-asymmetry map of one evolution

Every command writes deterministic files: fixed row order, newline
terminated lines, and shortest-roundtrip float formatting, so reruns
with identical inputs are byte-identical.  A JSON config file passed
via --config may hold any of the command's options (keys match the
long flag names with underscores); explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import observables, seqstats
from .errors import (
    DegenerateFitError,
    DegenerateSequenceError,
    QwjumpsError,
)
# to_jumps is unused here but stays importable: bench/tracing.py wraps it
# by name on this module.
from .sequences import Protocol, generate, to_jumps  # noqa: F401
from .walk_engine import (
    CLASSICAL_FIELDS,
    QUANTUM_FIELDS,
    ClassicalResult,
    CoinFamily,
    CoinSpec,
    RunConfig,
    classical_evolve,
    evolve,
)

__all__ = ["main"]

DEFAULT_RNG_SEED = 12345
DEFAULT_THETA_POINTS = 33
FULL_SCALE_T_MAX = 200_000

_ALL_PROTOCOLS = [p.value for p in Protocol]

_DEFAULTS: dict[str, dict] = {
    "seq": {
        "protocol": "standard",
        "seed_symbol": 0,
        "rng_seed": None,
        "tmax": 10_000,
        "stride": None,
        "tau_max": None,
        "out": ".",
    },
    "walk": {
        "protocol": "standard",
        "coin": "H",
        "theta": math.pi / 4.0,
        "tmax": 2000,
        "seed_symbol": 0,
        "rng_seed": None,
        "stride": None,
        "classical": False,
        "carpet": False,
        "out": ".",
    },
    "sweep": {
        "protocol": _ALL_PROTOCOLS,
        "coin": "both",
        "theta": None,
        "tmax": None,
        "seed_symbol": "both",
        "rng_seed": None,
        "full_scale": False,
        "jobs": 1,
        "out": ".",
    },
    "carpet": {
        "protocol": "standard",
        "coin": "H",
        "theta": math.pi / 4.0,
        "tmax": 200,
        "seed_symbol": 0,
        "rng_seed": None,
        "out": ".",
    },
}


def _cell(value) -> str:
    """One deterministic CSV cell: plain ints, shortest-roundtrip floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _require_int(cfg: dict, key: str, minimum: int | None = None) -> int:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} must be at least {minimum}, got {value}")
    return value


def _resolve_rng_seed(cfg: dict, protocol: Protocol) -> int | None:
    """Default the shuffle seed for RANDOM; reject it elsewhere."""
    rng_seed = cfg["rng_seed"]
    if protocol is Protocol.RANDOM:
        if rng_seed is None:
            return DEFAULT_RNG_SEED
        return _require_int(cfg, "rng_seed", minimum=0)
    if rng_seed is not None:
        raise ValueError(
            "rng_seed is only valid with the random protocol, "
            f"not {protocol.value!r}"
        )
    return None


def _out_dir(cfg: dict) -> Path:
    out = Path(str(cfg["out"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _series_rows(series):
    names = list(series.columns)
    cols = [series.columns[n] for n in names]
    for i, t in enumerate(series.times):
        yield (int(t), *(col[i] for col in cols))


# ---------------------------------------------------------------- seq


def _cmd_seq(cfg: dict) -> None:
    protocol = Protocol(cfg["protocol"])
    seed_symbol = _require_int(cfg, "seed_symbol")
    t_max = _require_int(cfg, "tmax", minimum=1)
    rng_seed = _resolve_rng_seed(cfg, protocol)
    out = _out_dir(cfg)

    seq = generate(protocol, seed_symbol, t_max, rng_seed=rng_seed)
    length = len(seq)
    stride = cfg["stride"]
    stride = min(100, length) if stride is None else _require_int(cfg, "stride", 1)
    tau_max = cfg["tau_max"]
    if tau_max is None:
        tau_max = min(200, length - 2)
    else:
        tau_max = _require_int(cfg, "tau_max", minimum=1)

    _write_csv(out / "sequence.csv", ["b_t"], ((int(s),) for s in seq.symbols))
    _write_json(out / "sequence.json", seq.json_record())

    curve = seqstats.lzc_curve(seq, stride)
    _write_csv(
        out / "lzc_curve.csv",
        ["t", "lzc"],
        zip(curve.times, curve.column("lzc")),
    )
    balance = seqstats.ones_fraction_curve(seq)
    _write_csv(
        out / "ones_fraction.csv",
        ["t", "f"],
        _series_rows(balance),
    )

    try:
        acf = seqstats.autocorrelation(seq, tau_max)
    except DegenerateSequenceError as exc:
        _write_text(out / "acf.degenerate.txt", f"{exc}\n")
    else:
        _write_csv(out / "acf.csv", ["tau", "R"], zip(acf.lags, acf.values))

    try:
        spectrum = seqstats.psd(seq)
    except DegenerateSequenceError as exc:
        _write_text(out / "psd.degenerate.txt", f"{exc}\n")
    else:
        omega_max = float(spectrum.frequencies[-1])
        _write_csv(
            out / "psd.csv",
            ["omega_norm", "Phi"],
            zip(spectrum.frequencies / omega_max, spectrum.power),
        )

    _write_json(
        out / "config.json",
        {
            "command": "seq",
            "protocol": protocol.value,
            "seed_symbol": seed_symbol,
            "rng_seed": rng_seed,
            "tmax": t_max,
            "stride": stride,
            "tau_max": tau_max,
            "out": str(cfg["out"]),
        },
    )


# --------------------------------------------------------------- walk


def _run_config(cfg: dict, *, carpet: bool, t_max: int) -> RunConfig:
    protocol = Protocol(cfg["protocol"])
    coin = CoinSpec(CoinFamily(cfg["coin"]), float(cfg["theta"]))
    stride = cfg.get("stride")
    if stride is not None:
        stride = _require_int(cfg, "stride", minimum=1)
    classical = bool(cfg.get("classical", False))
    return RunConfig(
        coin=coin,
        protocol=protocol,
        t_max=t_max,
        seed_symbol=_require_int(cfg, "seed_symbol"),
        rng_seed=_resolve_rng_seed(cfg, protocol),
        record_stride=stride,
        record_fields=CLASSICAL_FIELDS if classical else QUANTUM_FIELDS,
        carpet=carpet,
    )


def _echo_run(cfg: dict, run: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "protocol": run.protocol.value,
        "coin": run.coin.family.value,
        "theta": run.coin.theta,
        "tmax": run.t_max,
        "seed_symbol": run.seed_symbol,
        "rng_seed": run.rng_seed,
        "stride": run.stride,
        "classical": bool(cfg.get("classical", False)),
        "carpet": run.carpet,
        "out": str(cfg["out"]),
    }


def _fit_payload(series) -> dict:
    try:
        fit = observables.fit_alpha(series.times, series.column("m2"))
    except DegenerateFitError as exc:
        return {"error": str(exc)}
    return {
        "alpha": fit.alpha,
        "intercept": fit.intercept,
        "window": list(fit.window),
        "residual": fit.residual,
    }


def _cmd_walk(cfg: dict) -> None:
    t_max = _require_int(cfg, "tmax", minimum=0)
    run = _run_config(cfg, carpet=bool(cfg.get("carpet", False)), t_max=t_max)
    out = _out_dir(cfg)
    result = classical_evolve(run) if cfg.get("classical") else evolve(run)
    series = result.series
    _write_csv(
        out / "observables.csv",
        ["t", *series.columns],
        _series_rows(series),
    )
    _write_json(out / "config.json", _echo_run(cfg, run, "walk"))
    _write_json(out / "fit.json", _fit_payload(series))
    if run.carpet and not isinstance(result, ClassicalResult):
        positions = result.final_state.positions()
        _write_carpet(out / "carpet.csv", result.carpet, positions)


def _write_carpet(path: Path, carpet: np.ndarray, positions: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,x,A_norm\n")
        for t in range(carpet.shape[0]):
            row = carpet[t]
            fh.write(
                "".join(
                    f"{t},{int(x)},{repr(float(v))}\n"
                    for x, v in zip(positions, row)
                )
            )


def _cmd_carpet(cfg: dict) -> None:
    t_max = _require_int(cfg, "tmax", minimum=0)
    run = _run_config(cfg, carpet=True, t_max=t_max)
    run = replace(run, record_fields=("m2",))
    out = _out_dir(cfg)
    result = evolve(run)
    _write_carpet(out / "carpet.csv", result.carpet, result.final_state.positions())
    _write_json(out / "config.json", _echo_run(cfg, run, "carpet"))


# -------------------------------------------------------------- sweep


def _sweep_cell(cell) -> tuple[str | None, float]:
    """Fit alpha for one sweep cell, returning (error, alpha).

    A cell whose family is None is the classical walker: its m2(t) is
    exactly sum_{s<t} J_s^2, so no profile is evolved.
    """
    family, theta, protocol, seed_symbol, rng_seed, t_max = cell
    try:
        run = RunConfig(
            coin=CoinSpec(CoinFamily(family or "H"), theta),
            protocol=Protocol(protocol),
            t_max=t_max,
            seed_symbol=seed_symbol,
            rng_seed=rng_seed if protocol == Protocol.RANDOM.value else None,
            record_fields=("m2",),
        )
        if family is None:
            times = run.record_times()
            m2 = np.cumsum(np.concatenate(([0], run.jump_schedule() ** 2)))[times]
        else:
            series = evolve(run).series
            times, m2 = series.times, series.column("m2")
        return None, observables.fit_alpha(times, m2).alpha
    except Exception as exc:  # surfaced with the cell identity by the caller
        return str(exc), math.nan


def _map_cells(worker, cells: list, jobs: int) -> list:
    if jobs <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, cells))


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _cmd_sweep(cfg: dict) -> None:
    protocols = cfg["protocol"]
    if isinstance(protocols, str):
        protocols = [protocols]
    protocols = [Protocol(p).value for p in protocols]
    if len(set(protocols)) != len(protocols):
        raise ValueError("protocol list holds duplicates")

    coin = str(cfg["coin"])
    if coin not in ("H", "K", "both"):
        raise ValueError(f"coin must be H, K, or both, got {coin!r}")
    families = ["H", "K"] if coin == "both" else [coin]

    seed_choice = str(cfg["seed_symbol"])
    if seed_choice not in ("0", "1", "both"):
        raise ValueError(f"seed_symbol must be 0, 1, or both, got {seed_choice!r}")
    seeds = [0, 1] if seed_choice == "both" else [int(seed_choice)]

    full_scale = bool(cfg.get("full_scale", False))
    if cfg["tmax"] is not None:
        t_max = _require_int(cfg, "tmax", minimum=10)
    else:
        t_max = FULL_SCALE_T_MAX if full_scale else 2000

    thetas = cfg["theta"]
    if thetas is None:
        grid = np.linspace(0.0, math.pi / 2.0, DEFAULT_THETA_POINTS)
    else:
        if isinstance(thetas, (int, float)):
            thetas = [thetas]
        grid = np.array(sorted({float(v) for v in thetas}), dtype=float)
    if len(grid) == 0:
        raise ValueError("theta grid must be nonempty")
    if grid[0] < 0.0 or grid[-1] > math.pi / 2.0 + 1e-15:
        raise ValueError("theta values must lie in [0, pi/2]")

    needs_rng = Protocol.RANDOM.value in protocols
    rng_seed = cfg["rng_seed"]
    if rng_seed is None:
        rng_seed = DEFAULT_RNG_SEED if needs_rng else None
    elif not needs_rng:
        raise ValueError(
            "rng_seed is only valid when the random protocol is swept"
        )
    else:
        rng_seed = _require_int(cfg, "rng_seed", minimum=0)

    jobs = _require_int(cfg, "jobs", minimum=1)
    out = _out_dir(cfg)

    qw_cells = [
        (family, float(theta), protocol, seed, rng_seed, t_max)
        for family in families
        for theta in grid
        for protocol in protocols
        for seed in seeds
    ]
    cw_cells = [
        (None, 0.0, protocol, seed, rng_seed, t_max)
        for protocol in protocols
        for seed in seeds
    ]
    cells = qw_cells + cw_cells
    results = _map_cells(_sweep_cell, cells, jobs)
    for (family, theta, protocol, seed, _, _), (error, _) in zip(cells, results):
        if error is not None:
            walker = "cw" if family is None else f"qw coin={family} theta={theta!r}"
            raise QwjumpsError(
                f"sweep cell failed ({walker} protocol={protocol} "
                f"seed_symbol={seed}): {error}"
            )

    n_seeds = len(seeds)
    qw_alpha = [alpha for _, alpha in results[: len(qw_cells)]]
    cw_alpha = [alpha for _, alpha in results[len(qw_cells) :]]

    cw_rows_per_protocol = {}
    for pi, protocol in enumerate(protocols):
        group = cw_alpha[pi * n_seeds : (pi + 1) * n_seeds]
        cw_rows_per_protocol[protocol] = _mean_stderr(group)

    header = ["theta", "protocol", "alpha", "stderr"]
    index = 0
    for family in families:
        rows = []
        for theta in grid:
            for protocol in protocols:
                group = qw_alpha[index : index + n_seeds]
                index += n_seeds
                mean, err = _mean_stderr(group)
                rows.append((float(theta), protocol, mean, err))
        _write_csv(out / f"alpha_qw_{family}.csv", header, rows)
    for family in families:
        rows = []
        for theta in grid:
            for protocol in protocols:
                mean, err = cw_rows_per_protocol[protocol]
                rows.append((float(theta), protocol, mean, err))
        _write_csv(out / f"alpha_cw_{family}.csv", header, rows)

    _write_json(
        out / "sweep_config.json",
        {
            "command": "sweep",
            "theta": [float(v) for v in grid],
            "protocol": protocols,
            "coin": families,
            "seed_symbol": seeds,
            "rng_seed": rng_seed,
            "tmax": t_max,
            "full_scale": full_scale,
            "jobs": jobs,
            "out": str(cfg["out"]),
        },
    )


# --------------------------------------------------------------- main


def _add_common(parser: argparse.ArgumentParser, *, many_protocols=False) -> None:
    parser.add_argument("--config", help="JSON file holding option defaults")
    if many_protocols:
        parser.add_argument(
            "--protocol",
            nargs="+",
            choices=_ALL_PROTOCOLS,
            help="jump-control protocols to sweep (default: all)",
        )
    else:
        parser.add_argument(
            "--protocol",
            choices=_ALL_PROTOCOLS,
            help="jump-control protocol (default: standard)",
        )
    parser.add_argument(
        "--seed-symbol",
        dest="seed_symbol",
        help="first symbol of the jump-control word",
    )
    parser.add_argument(
        "--rng-seed",
        dest="rng_seed",
        type=int,
        help="shuffle seed for the random protocol "
        f"(default: {DEFAULT_RNG_SEED})",
    )
    parser.add_argument("--tmax", type=int, help="number of evolution steps")
    parser.add_argument("--out", help="output directory (default: .)")


def _add_coin(parser: argparse.ArgumentParser, *, allow_both=False) -> None:
    choices = ["H", "K", "both"] if allow_both else ["H", "K"]
    parser.add_argument("--coin", choices=choices, help="coin family")
    if allow_both:
        parser.add_argument(
            "--theta",
            nargs="+",
            type=float,
            help="theta grid values in radians (default: 33 even points)",
        )
    else:
        parser.add_argument(
            "--theta", type=float, help="coin angle in radians (default: pi/4)"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwjumps",
        description="Quantum walks driven by binary jump-control sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="sequence generation and diagnostics")
    _add_common(p_seq)
    p_seq.add_argument(
        "--stride", type=int, help="prefix stride of the complexity curve"
    )
    p_seq.add_argument(
        "--tau-max", dest="tau_max", type=int, help="largest autocorrelation lag"
    )
    p_seq.set_defaults(handler=_cmd_seq)

    p_walk = sub.add_parser("walk", help="single evolution")
    _add_common(p_walk)
    _add_coin(p_walk)
    p_walk.add_argument(
        "--stride", type=int, help="observable sampling interval"
    )
    p_walk.add_argument(
        "--classical",
        action="store_true",
        default=None,
        help="evolve the classical comparator instead of the quantum walk",
    )
    p_walk.add_argument(
        "--carpet",
        action="store_true",
        default=None,
        help="also export the spin-asymmetry carpet",
    )
    p_walk.set_defaults(handler=_cmd_walk)

    p_sweep = sub.add_parser("sweep", help="spreading exponent over a theta grid")
    _add_common(p_sweep, many_protocols=True)
    _add_coin(p_sweep, allow_both=True)
    p_sweep.add_argument(
        "--full-scale",
        dest="full_scale",
        action="store_true",
        default=None,
        help=f"use t_max = {FULL_SCALE_T_MAX} unless --tmax is given "
        "(long runtime)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, help="worker processes for sweep cells (default: 1)"
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_carpet = sub.add_parser("carpet", help="spin-asymmetry carpet export")
    _add_common(p_carpet)
    _add_coin(p_carpet)
    p_carpet.set_defaults(handler=_cmd_carpet)

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    defaults = _DEFAULTS[args.command]
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown config fields: {sorted(unknown)}"
            )
    merged = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_cfg:
            merged[key] = file_cfg[key]
        else:
            merged[key] = default
    if args.command in ("seq", "walk", "carpet"):
        merged["seed_symbol"] = _parse_seed_symbol(merged["seed_symbol"])
    return merged


def _parse_seed_symbol(value) -> int:
    if isinstance(value, bool) or value not in (0, 1, "0", "1"):
        raise ValueError(f"seed_symbol must be 0 or 1, got {value!r}")
    return int(value)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        args.handler(cfg)
    except (QwjumpsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
