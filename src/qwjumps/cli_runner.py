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
from .walk_engine import CoinFamily, CoinSpec, RunConfig, classical_evolve, evolve

__all__ = ["main"]

DEFAULT_RNG_SEED = 12345
DEFAULT_THETA_POINTS = 33
FULL_SCALE_T_MAX = 200_000

_ALL_PROTOCOLS = [p.value for p in Protocol]

_SINGLE_RUN = {"protocol": "standard", "seed_symbol": 0, "rng_seed": None, "out": "."}
_COIN = {"coin": "H", "theta": math.pi / 4.0}
_DEFAULTS: dict[str, dict] = {
    "seq": {**_SINGLE_RUN, "tmax": 10_000, "stride": None, "tau_max": None},
    "walk": {
        **_SINGLE_RUN,
        **_COIN,
        "tmax": 2000,
        "stride": None,
        "classical": False,
        "carpet": False,
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
    "carpet": {**_SINGLE_RUN, **_COIN, "tmax": 200},
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
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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


# Types and wording for config-file values, which skip argparse's types.
_FILE_TYPES = {
    "classical": (bool, "true or false"),
    "carpet": (bool, "true or false"),
    "full_scale": (bool, "true or false"),
    "theta": ((int, float), "a number"),
    "protocol": (str, "a protocol name"),
}


def _file_value(command: str, key: str, value):
    """A config-file value checked as its flag is; sweep's become lists."""
    if key not in _FILE_TYPES or value is None and _DEFAULTS[command][key] is None:
        return value
    kind, noun = _FILE_TYPES[key]
    many = command == "sweep" and key in ("protocol", "theta")
    items = value if many and isinstance(value, list) else [value]
    ok = [isinstance(v, kind) and isinstance(v, bool) == (kind is bool) for v in items]
    if not all(ok):
        plural = " or a list of them" if many else ""
        raise ValueError(f"{key} must be {noun}{plural}, got {value!r}")
    return items if many else value


def _resolve_rng_seed(cfg: dict, protocols: list[str]) -> int | None:
    """Default the shuffle seed when RANDOM is run; reject it otherwise."""
    if Protocol.RANDOM.value not in protocols:
        if cfg["rng_seed"] is not None:
            raise ValueError(
                "rng_seed is only valid with the random protocol, "
                f"not {', '.join(map(repr, protocols))}"
            )
        return None
    if cfg["rng_seed"] is None:
        return DEFAULT_RNG_SEED
    return _require_int(cfg, "rng_seed", minimum=0)


def _parse_seed_symbol(value, *, allow_both: bool = False) -> list[int]:
    """The seed symbols that value selects: [0], [1], or, for "both", [0, 1].

    As for every integer option, bools and floats are refused.
    """
    if allow_both and value == "both":
        return [0, 1]
    if type(value) not in (int, str) or str(value) not in ("0", "1"):
        choices = "0, 1, or both" if allow_both else "0 or 1"
        raise ValueError(f"seed_symbol must be {choices}, got {value!r}")
    return [int(value)]


def _out_dir(cfg: dict) -> Path:
    out = Path(str(cfg["out"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _series_rows(series):
    cols = list(series.columns.values())
    for i, t in enumerate(series.times):
        yield (int(t), *(col[i] for col in cols))


# ---------------------------------------------------------------- seq


def _cmd_seq(cfg: dict) -> None:
    protocol = Protocol(cfg["protocol"])
    [seed_symbol] = _parse_seed_symbol(cfg["seed_symbol"])
    t_max = _require_int(cfg, "tmax", minimum=1)
    rng_seed = _resolve_rng_seed(cfg, [protocol.value])
    out = _out_dir(cfg)

    seq = generate(protocol, seed_symbol, t_max, rng_seed=rng_seed)
    length = len(seq)
    stride = cfg["stride"]
    stride = min(100, length) if stride is None else _require_int(cfg, "stride", 1)
    tau_max = cfg["tau_max"]
    tau_max = (
        min(200, length - 2) if tau_max is None else _require_int(cfg, "tau_max", 1)
    )

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
    [seed_symbol] = _parse_seed_symbol(cfg["seed_symbol"])
    protocol = Protocol(cfg["protocol"])
    coin = CoinSpec(CoinFamily(cfg["coin"]), float(cfg["theta"]))
    stride = cfg.get("stride")
    stride = stride if stride is None else _require_int(cfg, "stride", minimum=1)
    return RunConfig(
        coin=coin,
        protocol=protocol,
        t_max=t_max,
        seed_symbol=seed_symbol,
        rng_seed=_resolve_rng_seed(cfg, [protocol.value]),
        record_stride=stride,
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
        "classical": cfg.get("classical", False),
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
    if cfg["classical"] and cfg["carpet"]:
        raise ValueError("carpet needs the quantum walk: classical has no spin")
    run = _run_config(cfg, carpet=cfg["carpet"], t_max=t_max)
    out = _out_dir(cfg)
    result = classical_evolve(run) if cfg["classical"] else evolve(run)
    series = result.series
    _write_csv(
        out / "observables.csv",
        ["t", *series.columns],
        _series_rows(series),
    )
    _write_json(out / "config.json", _echo_run(cfg, run, "walk"))
    _write_json(out / "fit.json", _fit_payload(series))
    if run.carpet:
        _write_carpet(out / "carpet.csv", result.carpet, result.final_state.positions())


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


def _sweep_cell(run: RunConfig) -> tuple[str | None, float, float]:
    """Fit alpha for one sweep cell, returning (error, alpha_qw, alpha_cw).

    The classical walker under the cell's jumps J_s has m2(t) exactly
    sum_{s<t} J_s^2, so it is fitted at the quantum walk's sample times
    without evolving a profile.
    """
    try:
        result = evolve(run)
        times = result.series.times
        m2_cw = np.cumsum(np.concatenate(([0], result.jumps**2)))[times]
        alpha_qw = observables.fit_alpha(times, result.series.column("m2")).alpha
        return None, alpha_qw, observables.fit_alpha(times, m2_cw).alpha
    except Exception as exc:  # surfaced with the cell identity by the caller
        return str(exc), math.nan, math.nan


def _map_cells(worker, cells: list, jobs: int) -> list:
    if jobs <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, cells))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _cmd_sweep(cfg: dict) -> None:
    protocols = [Protocol(p).value for p in cfg["protocol"]]
    if len(set(protocols)) != len(protocols):
        raise ValueError("protocol list holds duplicates")

    coin = str(cfg["coin"])
    if coin not in ("H", "K", "both"):
        raise ValueError(f"coin must be H, K, or both, got {coin!r}")
    families = ["H", "K"] if coin == "both" else [coin]

    seeds = _parse_seed_symbol(cfg["seed_symbol"], allow_both=True)

    full_scale = cfg["full_scale"]
    if cfg["tmax"] is not None:
        t_max = _require_int(cfg, "tmax", minimum=10)
    else:
        t_max = FULL_SCALE_T_MAX if full_scale else 2000

    thetas = cfg["theta"]
    if thetas is None:
        grid = np.linspace(0.0, math.pi / 2.0, DEFAULT_THETA_POINTS)
    else:
        grid = np.array(sorted({float(v) for v in thetas}), dtype=float)
    if len(grid) == 0:
        raise ValueError("theta grid must be nonempty")
    if grid[0] < 0.0 or grid[-1] > math.pi / 2.0 + 1e-15:
        raise ValueError("theta values must lie in [0, pi/2]")

    rng_seed = _resolve_rng_seed(cfg, protocols)
    jobs = _require_int(cfg, "jobs", minimum=1)
    out = _out_dir(cfg)

    cells = [
        RunConfig(
            coin=CoinSpec(family, theta),
            protocol=protocol,
            t_max=t_max,
            seed_symbol=seed,
            rng_seed=rng_seed if protocol == Protocol.RANDOM.value else None,
            record_fields=("m2",),
        )
        for family in families
        for theta in grid
        for protocol in protocols
        for seed in seeds
    ]
    results = _map_cells(_sweep_cell, cells, jobs)
    for run, (error, _, _) in zip(cells, results):
        if error is not None:
            raise QwjumpsError(
                f"sweep cell failed (coin={run.coin.family.value} "
                f"theta={run.coin.theta!r} protocol={run.protocol.value} "
                f"seed_symbol={run.seed_symbol}): {error}"
            )

    # alphas[family, theta, protocol, seed] holds (alpha_qw, alpha_cw).
    shape = (len(families), len(grid), len(protocols), len(seeds), 2)
    alphas = np.array([result[1:] for result in results]).reshape(shape)
    header = ["theta", "protocol", "alpha", "stderr"]
    for f, family in enumerate(families):
        for w, walker in enumerate(("qw", "cw")):
            rows = [
                (float(theta), protocol, *_mean_stderr(alphas[f, i, k, :, w]))
                for i, theta in enumerate(grid)
                for k, protocol in enumerate(protocols)
            ]
            _write_csv(out / f"alpha_{walker}_{family}.csv", header, rows)

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
    parser.add_argument(
        "--protocol",
        nargs="+" if many_protocols else None,
        choices=_ALL_PROTOCOLS,
        help="jump-control protocols to sweep (default: all)"
        if many_protocols
        else "jump-control protocol (default: standard)",
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
    parser.add_argument(
        "--theta",
        nargs="+" if allow_both else None,
        type=float,
        help="theta grid values in radians (default: 33 even points)"
        if allow_both
        else "coin angle in radians (default: pi/4)",
    )


def _add_switch(parser: argparse.ArgumentParser, flag: str, help: str) -> None:
    """A true/false option; absent, it defers to the config file and defaults."""
    dest = flag[2:].replace("-", "_")
    parser.add_argument(flag, dest=dest, action="store_true", default=None, help=help)


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
    _add_switch(
        p_walk,
        "--classical",
        "evolve the classical comparator instead of the quantum walk",
    )
    _add_switch(p_walk, "--carpet", "also export the spin-asymmetry carpet")
    p_walk.set_defaults(handler=_cmd_walk)

    p_sweep = sub.add_parser("sweep", help="spreading exponent over a theta grid")
    _add_common(p_sweep, many_protocols=True)
    _add_coin(p_sweep, allow_both=True)
    _add_switch(
        p_sweep,
        "--full-scale",
        f"use t_max = {FULL_SCALE_T_MAX} unless --tmax is given (long runtime)",
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
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        file_cfg = {
            key: _file_value(args.command, key, value)
            for key, value in file_cfg.items()
        }
    flags = {key: getattr(args, key, None) for key in defaults}
    given = {key: value for key, value in flags.items() if value is not None}
    return {**defaults, **file_cfg, **given}


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
