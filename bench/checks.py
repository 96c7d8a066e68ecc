"""Output checks for one benchmark operation.

Every output file is reduced to a fingerprint: SHA-256 and size for the
determinism check, and for CSV files per-column statistics (sums, extrema,
first/last values, a position-weighted sum).  A fingerprint is compared
with the one recorded at the reference commit within a round-off
tolerance, and the outputs are also checked against invariants that hold
for any seed: row counts, columns, m2 > 0 after the first step, JSD and
S_e in [0, 1], IPR >= 1, normalized carpet and spectrum.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

# Round-off admitted against the reference, relative to a column's scale.
RTOL = 1e-9
# Slack for invariants that hold exactly in exact arithmetic.
EPS = 1e-9
_CHUNK_ROWS = 250_000


class _ColumnStats:
    """Streaming statistics of one numeric CSV column."""

    def __init__(self) -> None:
        self.n = 0
        self.nan = 0
        self.pos = 0
        self.sum = 0.0
        self.sumabs = 0.0
        self.wsum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.min_step = math.inf
        self.first = math.nan
        self.last = math.nan

    def add(self, v: np.ndarray) -> None:
        if len(v) == 0:
            return
        if self.n == 0:
            self.first = float(v[0])
        finite = np.isfinite(v)
        fv = np.where(finite, v, 0.0)
        index = np.arange(self.n + 1, self.n + len(v) + 1, dtype=float)
        self.nan += int(len(v) - finite.sum())
        self.pos += int(np.count_nonzero(v > 0.0))
        self.sum += float(fv.sum())
        self.sumabs += float(np.abs(fv).sum())
        self.wsum += float(index @ fv)
        if finite.any():
            self.min = min(self.min, float(v[finite].min()))
            self.max = max(self.max, float(v[finite].max()))
        steps = np.diff(np.concatenate(([self.last], v)) if self.n else v)
        steps = steps[np.isfinite(steps)]
        if len(steps):
            self.min_step = min(self.min_step, float(steps.min()))
        self.last = float(v[-1])
        self.n += len(v)

    def record(self) -> dict:
        return {
            "n": self.n,
            "nan": self.nan,
            "pos": self.pos,
            "sum": self.sum,
            "sumabs": self.sumabs,
            "wsum": self.wsum / max(self.n, 1),
            "min": self.min,
            "max": self.max,
            "min_step": self.min_step,
            "first": self.first,
            "last": self.last,
        }


def _numeric_csv(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        stats = [_ColumnStats() for _ in header]
        while True:
            lines = list(itertools.islice(fh, _CHUNK_ROWS))
            if not lines:
                break
            block = np.loadtxt(lines, delimiter=",", ndmin=2)
            for col, acc in enumerate(stats):
                acc.add(block[:, col])
    return {
        "header": header,
        "rows": stats[0].n if stats else 0,
        "cols": {name: acc.record() for name, acc in zip(header, stats)},
    }


def _alpha_csv(path: Path) -> dict:
    lines = path.read_text().splitlines()
    rows = []
    for line in lines[1:]:
        theta, protocol, alpha, stderr = line.split(",")
        rows.append([float(theta), protocol, float(alpha), float(stderr)])
    return {"header": lines[0].split(","), "rows": rows}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fingerprint(out_dir: Path) -> dict:
    """Fingerprint of every file an operation wrote into ``out_dir``."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        entry = {"bytes": path.stat().st_size, "sha256": _sha256(path)}
        if path.suffix == ".csv":
            entry.update(_alpha_csv(path) if path.name.startswith("alpha_") else _numeric_csv(path))
        elif path.suffix == ".json":
            obj = json.loads(path.read_text())
            if "symbols" in obj:
                symbols = obj.pop("symbols")
                obj["symbols_len"] = len(symbols)
                obj["symbols_sha256"] = hashlib.sha256(symbols.encode()).hexdigest()
            entry["json"] = obj
        else:
            entry["text"] = path.read_text()
        files[path.name] = entry
    return files


# ------------------------------------------------------------ invariants


def _record_rows(t_max: int) -> int:
    stride = 1 if t_max <= 1000 else 10
    return len(range(0, t_max + 1, stride)) + (1 if t_max % stride else 0)


def _need(files: dict, name: str, problems: list) -> dict | None:
    if name not in files:
        problems.append(f"missing {name}")
        return None
    return files[name]


def _header(entry: dict, name: str, expected: list, problems: list) -> bool:
    if entry["header"] != expected:
        problems.append(f"{name}: header {entry['header']} != {expected}")
        return False
    return True


def _range(entry: dict, name: str, col: str, lo: float, hi: float, problems: list) -> None:
    s = entry["cols"][col]
    if s["nan"] or s["min"] < lo - EPS or s["max"] > hi + EPS:
        problems.append(f"{name}: {col} outside [{lo}, {hi}] ({s['min']}, {s['max']}, nan={s['nan']})")


def _rows(entry: dict, name: str, expected: int, problems: list) -> None:
    if entry["rows"] != expected:
        problems.append(f"{name}: {entry['rows']} rows, expected {expected}")


def _walk_invariants(files: dict, t_max: int, columns: list, problems: list) -> None:
    obs = _need(files, "observables.csv", problems)
    if obs and _header(obs, "observables.csv", ["t", *columns], problems):
        _rows(obs, "observables.csv", _record_rows(t_max), problems)
        m2 = obs["cols"]["m2"]
        if m2["nan"] or m2["min"] < 0.0 or m2["pos"] != obs["rows"] - 1:
            problems.append("observables.csv: m2 not positive after t = 0")
        _range(obs, "observables.csv", "IPR", 1.0, math.inf, problems)
        _range(obs, "observables.csv", "S", 0.0, math.inf, problems)
        for col in ("JSD", "S_e"):
            if col in columns:
                _range(obs, "observables.csv", col, 0.0, 1.0, problems)
    fit = _need(files, "fit.json", problems)
    if fit and not math.isfinite(fit["json"].get("alpha", math.nan)):
        problems.append(f"fit.json: no finite alpha ({fit['json']})")
    _need(files, "config.json", problems)


def invariants(op, files: dict) -> list[str]:
    """Problems with ``files`` that no correct output can have."""
    problems: list[str] = []
    kind, meta = op.kind, op.meta
    if kind == "walk":
        _walk_invariants(files, meta["t_max"], ["m2", "m4", "kappa", "S", "IPR", "JSD", "S_e"], problems)
    elif kind == "classical":
        _walk_invariants(files, meta["t_max"], ["m2", "m4", "kappa", "S", "IPR"], problems)
    elif kind == "carpet":
        t_max = meta["t_max"]
        carpet = _need(files, "carpet.csv", problems)
        if carpet and _header(carpet, "carpet.csv", ["t", "x", "A_norm"], problems):
            _rows(carpet, "carpet.csv", (t_max + 1) * (4 * t_max + 1), problems)
            _range(carpet, "carpet.csv", "A_norm", -1.0, 1.0, problems)
            _range(carpet, "carpet.csv", "t", 0, t_max, problems)
            _range(carpet, "carpet.csv", "x", -2 * t_max, 2 * t_max, problems)
        _need(files, "config.json", problems)
    elif kind == "seq":
        length = meta["t_max"] + 1
        seq = _need(files, "sequence.csv", problems)
        if seq and _header(seq, "sequence.csv", ["b_t"], problems):
            _rows(seq, "sequence.csv", length, problems)
            _range(seq, "sequence.csv", "b_t", 0, 1, problems)
            record = _need(files, "sequence.json", problems)
            if record and (
                record["json"]["symbols_len"] != length
                or record["json"]["protocol"] != meta["protocol"]
            ):
                problems.append("sequence.json does not match the request")
        curve = _need(files, "lzc_curve.csv", problems)
        if curve and _header(curve, "lzc_curve.csv", ["t", "lzc"], problems):
            _rows(curve, "lzc_curve.csv", length // min(100, length), problems)
            lzc = curve["cols"]["lzc"]
            if lzc["min"] < 1 or lzc["min_step"] < 0:
                problems.append("lzc_curve.csv: complexity not >= 1 and nondecreasing")
        ones = _need(files, "ones_fraction.csv", problems)
        if ones and _header(ones, "ones_fraction.csv", ["t", "f"], problems):
            _rows(ones, "ones_fraction.csv", length, problems)
            _range(ones, "ones_fraction.csv", "f", 0.0, 1.0, problems)
        degenerate = meta["protocol"] == "standard"
        if degenerate:
            _need(files, "acf.degenerate.txt", problems)
            _need(files, "psd.degenerate.txt", problems)
        else:
            acf = _need(files, "acf.csv", problems)
            if acf and _header(acf, "acf.csv", ["tau", "R"], problems):
                _rows(acf, "acf.csv", min(200, length - 2) + 1, problems)
                if acf["cols"]["R"]["first"] != 1.0:
                    problems.append("acf.csv: R(0) != 1")
            spectrum = _need(files, "psd.csv", problems)
            if spectrum and _header(spectrum, "psd.csv", ["omega_norm", "Phi"], problems):
                _rows(spectrum, "psd.csv", length, problems)
                _range(spectrum, "psd.csv", "Phi", 0.0, 1.0, problems)
                if abs(spectrum["cols"]["Phi"]["sum"] - 1.0) > EPS:
                    problems.append("psd.csv: power does not sum to 1")
        _need(files, "config.json", problems)
    elif kind == "sweep":
        n_rows = meta["thetas"] * len(meta["protocols"])
        for walker in ("qw", "cw"):
            for family in meta["families"]:
                name = f"alpha_{walker}_{family}.csv"
                entry = _need(files, name, problems)
                if entry and _header(entry, name, ["theta", "protocol", "alpha", "stderr"], problems):
                    if len(entry["rows"]) != n_rows:
                        problems.append(f"{name}: {len(entry['rows'])} rows, expected {n_rows}")
                    for theta, protocol, alpha, stderr in entry["rows"]:
                        if not (math.isfinite(alpha) and math.isfinite(stderr) and stderr >= 0.0):
                            problems.append(f"{name}: bad row {theta} {protocol} {alpha} {stderr}")
        _need(files, "sweep_config.json", problems)
    return problems


# ------------------------------------------------------------- reference


def reference_key(op) -> str:
    """Reference lookup key: the argv without the workload's rng seed."""
    argv = list(op.argv)
    if "--rng-seed" in argv:
        i = argv.index("--rng-seed")
        del argv[i : i + 2]
    return " ".join(argv)


def _close(a, b, scale: float | None = None) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= RTOL * (max(abs(b), 1.0) if scale is None else scale)
    return a == b


def _compare_json(name: str, got: dict, ref: dict, problems: list) -> None:
    if set(got) != set(ref):
        problems.append(f"{name}: keys {sorted(got)} != {sorted(ref)}")
        return
    for key, r in ref.items():
        g = got[key]
        if isinstance(r, list) and isinstance(g, list):
            same = len(g) == len(r) and all(_close(a, b) for a, b in zip(g, r))
        else:
            same = _close(g, r)
        if not same:
            problems.append(f"{name}: {key} = {g!r}, reference {r!r}")


def compare_reference(op, files: dict, ref: dict) -> list[str]:
    """Problems comparing ``files`` with the reference fingerprint ``ref``.

    When the reference was recorded at another rng seed, only the rows of
    a sweep that do not depend on it are compared.  An operation that
    failed at the reference commit has no reference files.
    """
    problems: list[str] = []
    same_seed = ref.get("rng_seed") == op.rng_seed
    if "files" not in ref or (not same_seed and op.kind != "sweep"):
        return problems
    ref_files = ref["files"]
    if same_seed and set(files) != set(ref_files):
        problems.append(f"files {sorted(files)} != reference {sorted(ref_files)}")
    for name, r in ref_files.items():
        g = files.get(name)
        if g is None:
            continue
        if "rows" in r and isinstance(r["rows"], list):
            got_rows = {(row[0], row[1]): row for row in g["rows"]}
            for row in r["rows"]:
                if row[1] == "random" and not same_seed:
                    continue
                other = got_rows.get((row[0], row[1]))
                if other is None or not all(_close(a, b) for a, b in zip(other[2:], row[2:])):
                    problems.append(f"{name}: row {row} differs: {other}")
        elif not same_seed:
            continue
        elif "cols" in r:
            if g.get("header") != r["header"] or g.get("rows") != r["rows"]:
                problems.append(f"{name}: shape {g.get('header')} x {g.get('rows')} differs")
                continue
            for col, rs in r["cols"].items():
                gs = g["cols"][col]
                peak = max(abs(rs["min"]), abs(rs["max"]), 1e-300)
                for stat, rv in rs.items():
                    if stat == "pos":  # round-off may flip the sign of a value near 0
                        continue
                    if isinstance(rv, int):
                        same = gs[stat] == rv
                    else:
                        scale = rs["sumabs"] if stat in ("sum", "sumabs", "wsum") else peak
                        same = _close(gs[stat], rv, scale)
                    if not same:
                        problems.append(f"{name}: {col}.{stat} = {gs[stat]!r}, reference {rv!r}")
        elif "json" in r:
            # Where the files went and how many workers wrote them is not a result.
            got = {k: v for k, v in g["json"].items() if k not in ("out", "jobs")}
            want = {k: v for k, v in r["json"].items() if k not in ("out", "jobs")}
            _compare_json(name, got, want, problems)
        elif "text" in r and g.get("text") != r["text"]:
            problems.append(f"{name}: text differs")
    return problems
