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

One table, _COMMANDS, declares every option of every command: its
default, its flag, and its parser.  A parser takes (key, value) and
returns the typed, range-checked value (CoinSpec checks theta's range),
or raises ValueError naming the key.  It runs on every value, from the
defaults, the file and the flags alike, so handlers receive only parsed
values.  Each command's JSON echo is its parsed options plus the values
it resolved from them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
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
from .walk_engine import CoinSpec, RunConfig, classical_evolve, evolve

__all__ = ["main"]

DEFAULT_RNG_SEED = 12345
DEFAULT_THETA_POINTS = 33
FULL_SCALE_T_MAX = 200_000
# A carpet has (t_max + 1) x (4 t_max + 1) cells.  One whose float64 cells
# would pass this, which is every t_max above 8191, is refused: its
# carpet.csv would hold about 268 M rows.
CARPET_MAX_BYTES = 2**31

_ALL_PROTOCOLS = [p.value for p in Protocol]


def _open_csv(path: Path, header: list[str]):
    """Open path for writing and write the header line."""
    fh = open(path, "w", newline="")
    fh.write(",".join(header) + "\n")
    return fh


def _write_block(fh, columns) -> None:
    """Write one block's rows.

    A block is a tuple of equal-length 1-D arrays, one per column.  A
    cell is str of the array's .tolist() value: ints and strings as
    they are, floats as their shortest round-trip repr.

    Raises:
        ValueError: If the columns of the block differ in length.
    """
    cells = [map(str, column.tolist()) for column in columns]
    # The trailing "" ends the last row; an empty block writes "".
    fh.write("\n".join([*map(",".join, zip(*cells, strict=True)), ""]))


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write the header, then one block's rows (see _write_block)."""
    with _open_csv(path, header) as fh:
        _write_block(fh, columns)


def _write_series(path: Path, series) -> None:
    _write_csv(path, ["t", *series.columns], (series.times, *series.columns.values()))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", newline="")


# ------------------------------------------------------------ parsers


def _either(choices) -> str:
    """'a or b', or 'a, b, or c'."""
    *head, last = map(str, choices)
    return f"{', '.join(head)}{',' if len(head) > 1 else ''} or {last}"


def _pick(*choices: str):
    """A parser accepting one of the strings in choices."""

    def parse(key: str, value) -> str:
        if not (isinstance(value, str) and value in choices):
            raise ValueError(f"{key} must be {_either(choices)}, got {value!r}")
        return value

    return parse


def _integer(minimum: int):
    """A parser accepting integers of at least minimum; bools are refused."""

    def parse(key: str, value) -> int:
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{key} must be at least {minimum}, got {value}")
        return value

    return parse


def _switch(key: str, value) -> bool:
    if type(value) is not bool:
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _path(key: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a path string, got {value!r}")
    return value


def _seed_symbol(key: str, value) -> int:
    """0 or 1, from an integer or from a string, as flags give it."""
    if type(value) not in (int, str) or value not in (0, 1, "0", "1"):
        raise ValueError(f"{key} must be 0 or 1, got {value!r}")
    return int(value)


def _theta(key: str, value) -> float:
    """A coin angle in radians, as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _or_both(parse, both: list):
    """A parser of a list: [parse(value)], or all of both for "both"."""

    def parse_or_both(key: str, value) -> list:
        if value == "both":
            return list(both)
        try:
            return [parse(key, value)]
        except ValueError:
            words = _either([*both, "both"])
            raise ValueError(f"{key} must be {words}, got {value!r}") from None

    return parse_or_both


def _listed(key: str, value) -> list:
    """One value, or a nonempty list of them, as a list."""
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ValueError(f"{key} must not be an empty list")
    return items


_protocol = _pick(*_ALL_PROTOCOLS)


def _protocols(key: str, value) -> list[str]:
    protocols = [_protocol(key, v) for v in _listed(key, value)]
    if len(set(protocols)) != len(protocols):
        raise ValueError(f"{key} list holds duplicates")
    return protocols


def _theta_grid(key: str, value) -> list[float]:
    """Sweep angles, sorted and without repeats."""
    return sorted({_theta(key, v) for v in _listed(key, value)})


# ----------------------------------------------------------- handlers


def _resolve_rng_seed(cfg: dict, protocols: list[str]) -> int | None:
    """Default the shuffle seed when RANDOM is run; reject it otherwise."""
    if Protocol.RANDOM.value not in protocols:
        if cfg["rng_seed"] is not None:
            raise ValueError(
                "rng_seed is only valid with the random protocol, "
                f"not {', '.join(map(repr, protocols))}"
            )
        return None
    return DEFAULT_RNG_SEED if cfg["rng_seed"] is None else cfg["rng_seed"]


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- seq


def _cmd_seq(cfg: dict) -> None:
    t_max = cfg["tmax"]
    rng_seed = _resolve_rng_seed(cfg, [cfg["protocol"]])
    # The word holds t_max + 1 symbols; both horizons must fit in it, and
    # are checked before any file is written.
    stride = min(100, t_max + 1) if cfg["stride"] is None else cfg["stride"]
    tau_max = min(200, t_max - 1) if cfg["tau_max"] is None else cfg["tau_max"]
    if stride > t_max + 1:
        raise ValueError(f"stride must be at most tmax + 1, got {stride}")
    if tau_max > t_max - 1:
        raise ValueError(f"tau_max must be at most tmax - 1, got {tau_max}")
    out = _out_dir(cfg)

    seq = generate(cfg["protocol"], cfg["seed_symbol"], t_max, rng_seed=rng_seed)
    _write_csv(out / "sequence.csv", ["b_t"], (seq.symbols,))
    _write_json(out / "sequence.json", seq.json_record())

    _write_series(out / "lzc_curve.csv", seqstats.lzc_curve(seq, stride))
    _write_series(out / "ones_fraction.csv", seqstats.ones_fraction_curve(seq))

    try:
        acf = seqstats.autocorrelation(seq, tau_max)
    except DegenerateSequenceError as exc:
        (out / "acf.degenerate.txt").write_text(f"{exc}\n", newline="")
    else:
        _write_csv(out / "acf.csv", ["tau", "R"], (acf.lags, acf.values))

    try:
        spectrum = seqstats.psd(seq)
    except DegenerateSequenceError as exc:
        (out / "psd.degenerate.txt").write_text(f"{exc}\n", newline="")
    else:
        omega_norm = spectrum.frequencies / float(spectrum.frequencies[-1])
        _write_csv(out / "psd.csv", ["omega_norm", "Phi"], (omega_norm, spectrum.power))

    resolved = {"rng_seed": rng_seed, "stride": stride, "tau_max": tau_max}
    _write_json(out / "config.json", {**cfg, "command": "seq", **resolved})


# --------------------------------------------------------------- walk


def _run_config(cfg: dict, **plan) -> RunConfig:
    return RunConfig(
        coin=CoinSpec(cfg["coin"], cfg["theta"]),
        protocol=cfg["protocol"],
        t_max=cfg["tmax"],
        seed_symbol=cfg["seed_symbol"],
        rng_seed=_resolve_rng_seed(cfg, [cfg["protocol"]]),
        **plan,
    )


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


def _evolve(cfg: dict, run: RunConfig, carpet: bool):
    """Make --out and evolve run, streaming its carpet, if asked, to carpet.csv.

    Returns (out, result).  An oversized carpet is refused before --out
    exists.
    """
    if carpet and 8 * (run.t_max + 1) * run.extent > CARPET_MAX_BYTES:
        raise ValueError(
            f"tmax {run.t_max} is too large for a carpet: its "
            f"{run.t_max + 1} x {run.extent} float64 cells exceed 2 GiB"
        )
    out = _out_dir(cfg)
    if not carpet:
        return out, evolve(run)
    positions = np.arange(run.extent) - run.extent // 2
    with _open_csv(out / "carpet.csv", ["t", "x", "A_norm"]) as fh:
        # One block per time row, written as evolve makes it.
        def write_row(t: int, row: np.ndarray) -> None:
            _write_block(fh, (np.full_like(positions, t), positions, row))

        return out, evolve(run, carpet_row=write_row)


def _cmd_walk(cfg: dict) -> None:
    run = _run_config(cfg, record_stride=cfg["stride"])
    if cfg["classical"]:
        if cfg["carpet"]:
            raise ValueError("carpet needs the quantum walk: classical has no spin")
        out, result = _out_dir(cfg), classical_evolve(run)
    else:
        out, result = _evolve(cfg, run, cfg["carpet"])
    _write_series(out / "observables.csv", result.series)
    resolved = {"rng_seed": run.rng_seed, "stride": run.stride}
    _write_json(out / "config.json", {**cfg, "command": "walk", **resolved})
    _write_json(out / "fit.json", _fit_payload(result.series))


def _cmd_carpet(cfg: dict) -> None:
    run = _run_config(cfg, record_fields=("m2",))
    out, _ = _evolve(cfg, run, carpet=True)
    # The echo keeps walk's keys: a carpet is a quantum walk with --carpet.
    resolved = {"rng_seed": run.rng_seed, "stride": run.stride}
    echo = {**cfg, "command": "carpet", **resolved, "classical": False, "carpet": True}
    _write_json(out / "config.json", echo)


# -------------------------------------------------------------- sweep


def _sweep_cell(run: RunConfig) -> tuple[float, float]:
    """Fit alpha for one sweep cell, returning (alpha_qw, alpha_cw).

    The classical walker under the cell's jumps J_s has m2(t) exactly
    sum_{s<t} J_s^2, so it is fitted at the quantum walk's sample times
    without evolving a profile.

    Raises:
        QwjumpsError: Naming the cell, if its evolution or a fit fails.
    """
    try:
        result = evolve(run)
        times = result.series.times
        m2_cw = np.cumsum(np.concatenate(([0], result.jumps**2)))[times]
        alpha_qw = observables.fit_alpha(times, result.series.column("m2")).alpha
        return alpha_qw, observables.fit_alpha(times, m2_cw).alpha
    except Exception as exc:
        raise QwjumpsError(
            f"sweep cell failed (coin={run.coin.family.value} "
            f"theta={run.coin.theta!r} protocol={run.protocol.value} "
            f"seed_symbol={run.seed_symbol}): {exc}"
        ) from exc


def _map_cells(worker, cells: list, jobs: int) -> list:
    if jobs <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    # Workers beyond one per cell would start and sit idle.
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            return list(pool.map(worker, cells))
    except BrokenProcessPool as exc:
        raise QwjumpsError(f"a sweep worker process died: {exc}") from exc


def _cmd_sweep(cfg: dict) -> None:
    protocols, families, seeds = cfg["protocol"], cfg["coin"], cfg["seed_symbol"]
    t_max = cfg["tmax"]
    if t_max is None:
        t_max = FULL_SCALE_T_MAX if cfg["full_scale"] else 2000
    grid = cfg["theta"]
    if grid is None:
        grid = np.linspace(0.0, math.pi / 2.0, DEFAULT_THETA_POINTS).tolist()
    rng_seed = _resolve_rng_seed(cfg, protocols)

    # One tuple gives both the order of the cells and the shape of their
    # results.  CoinSpec checks each theta here, before --out exists.
    axes = (families, grid, protocols, seeds)
    cells = [
        RunConfig(
            coin=CoinSpec(family, theta),
            protocol=protocol,
            t_max=t_max,
            seed_symbol=seed,
            rng_seed=rng_seed if protocol == Protocol.RANDOM.value else None,
            record_fields=("m2",),
        )
        for family, theta, protocol, seed in itertools.product(*axes)
    ]
    # Cells that share a coin and a jump schedule evolve once, as evolve is
    # deterministic; standard and Fibonacci share theirs across seeds.  The
    # first family and theta hold each (protocol, seed) pair once.
    schedules = {
        (run.protocol, run.seed_symbol): run.jump_schedule().tobytes()
        for run in cells[: len(protocols) * len(seeds)]
    }
    keys = [(run.coin, schedules[run.protocol, run.seed_symbol]) for run in cells]
    firsts = {}
    for key, run in zip(keys, cells):
        firsts.setdefault(key, run)
    out = _out_dir(cfg)
    fits = dict(zip(firsts, _map_cells(_sweep_cell, [*firsts.values()], cfg["jobs"])))

    # alphas[family, theta, protocol, seed] holds (alpha_qw, alpha_cw).
    alphas = np.array([fits[key] for key in keys]).reshape(*map(len, axes), 2)
    # Statistics over seeds; a single seed gets ddof 0, so a stderr of 0.0.
    mean = alphas.mean(axis=3)
    stderr = alphas.std(axis=3, ddof=min(1, len(seeds) - 1)) / math.sqrt(len(seeds))
    header = ["theta", "protocol", "alpha", "stderr"]
    # One row per (theta, protocol), theta outermost.
    labels = (np.repeat(grid, len(protocols)), np.tile(protocols, len(grid)))
    for f, family in enumerate(families):
        for w, walker in enumerate(("qw", "cw")):
            stats = (mean[f, :, :, w].ravel(), stderr[f, :, :, w].ravel())
            path = out / f"alpha_{walker}_{family}.csv"
            _write_csv(path, header, (*labels, *stats))

    resolved = {"theta": grid, "tmax": t_max, "rng_seed": rng_seed}
    _write_json(out / "sweep_config.json", {**cfg, "command": "sweep", **resolved})


# --------------------------------------------------------------- main


def _opt(default, parse, help: str, **flag) -> tuple:
    """One option: its default, its parser, and its add_argument keywords."""
    return default, parse, {"help": help, **flag}


_TMAX = "number of evolution steps"
# The options of seq, walk and carpet, in flag order.
_SINGLE_RUN = {
    "protocol": _opt("standard", _protocol, "jump-control protocol (default: standard)",
                     choices=_ALL_PROTOCOLS),
    "seed_symbol": _opt(0, _seed_symbol, "first symbol of the jump-control word"),
    "rng_seed": _opt(None, _integer(0), "shuffle seed for the random protocol "
                     f"(default: {DEFAULT_RNG_SEED})", type=int),
    "tmax": _opt(2000, _integer(0), _TMAX, type=int),
    "out": _opt(".", _path, "output directory (default: .)"),
}
_COIN = {
    "coin": _opt("H", _pick("H", "K"), "coin family", choices=["H", "K"]),
    "theta": _opt(math.pi / 4.0, _theta, "coin angle in radians (default: pi/4)",
                  type=float),
}

# command -> (handler, help, options).  Updating a key keeps its place,
# so the flags of every command come in the order of _SINGLE_RUN.
_COMMANDS = {
    "seq": (_cmd_seq, "sequence generation and diagnostics", {
        **_SINGLE_RUN,
        "tmax": _opt(10_000, _integer(2), _TMAX, type=int),
        "stride": _opt(None, _integer(1), "prefix stride of the complexity curve",
                       type=int),
        "tau_max": _opt(None, _integer(1), "largest autocorrelation lag", type=int),
    }),
    "walk": (_cmd_walk, "single evolution", {
        **_SINGLE_RUN,
        **_COIN,
        "stride": _opt(None, _integer(1), "observable sampling interval", type=int),
        "classical": _opt(False, _switch, "evolve the classical comparator "
                          "instead of the quantum walk", action="store_true"),
        "carpet": _opt(False, _switch, "also export the spin-asymmetry carpet",
                       action="store_true"),
    }),
    "sweep": (_cmd_sweep, "spreading exponent over a theta grid", {
        **_SINGLE_RUN,
        "protocol": _opt(_ALL_PROTOCOLS, _protocols,
                         "jump-control protocols to sweep (default: all)",
                         nargs="+", choices=_ALL_PROTOCOLS),
        "seed_symbol": _opt("both", _or_both(_seed_symbol, [0, 1]),
                            "first symbol of the jump-control word"),
        # The default fit window [max(10, t/10), t] needs two sample times.
        "tmax": _opt(None, _integer(11), _TMAX, type=int),
        "coin": _opt("both", _or_both(_pick("H", "K"), ["H", "K"]), "coin family",
                     choices=["H", "K", "both"]),
        "theta": _opt(None, _theta_grid,
                      "theta grid values in radians (default: 33 even points)",
                      nargs="+", type=float),
        "full_scale": _opt(False, _switch, f"use t_max = {FULL_SCALE_T_MAX} unless "
                           "--tmax is given (long runtime)", action="store_true"),
        "jobs": _opt(1, _integer(1), "worker processes for sweep cells (default: 1)",
                     type=int),
    }),
    "carpet": (_cmd_carpet, "spin-asymmetry carpet export", {
        **_SINGLE_RUN,
        "tmax": _opt(200, _integer(0), _TMAX, type=int),
        **_COIN,
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwjumps",
        description="Quantum walks driven by binary jump-control sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help)
        p_command.add_argument("--config", help="JSON file holding option defaults")
        for key, (_, _, flag) in options.items():
            # An absent flag stays None: it defers to the file and defaults.
            p_command.add_argument("--" + key.replace("_", "-"), default=None, **flag)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags; every value parsed."""
    options = _COMMANDS[args.command][2]
    layers = [{key: default for key, (default, _, _) in options.items()}]
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(options)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        layers.append(file_cfg)
    flags = {key: getattr(args, key) for key in options}
    layers.append({key: value for key, value in flags.items() if value is not None})
    cfg = {}
    for layer in layers:
        for key, value in layer.items():
            default, parse, _ = options[key]
            cfg[key] = value if value is None and default is None else parse(key, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](_resolve(args))
    except (QwjumpsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
