"""Spans around the public functions of the qwjumps layers.

The wrappers are installed from the benchmark, on the module attributes
the callers look up: ``observables.moment`` (used by the walk recorder),
``seqstats.lzc`` (used by ``lzc_curve``), and the ``generate``,
``evolve`` and ``classical_evolve`` names imported into ``cli_runner``
and ``walk_engine``.  Spans stay in memory as (name, start, end, parent)
and are written out when the benchmark ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from qwjumps import cli_runner, observables, seqstats, sequences, walk_engine
from workloads import light_cone_site_steps

LAYERS = {
    sequences: ("generate", "to_jumps"),
    seqstats: ("lzc", "lzc_curve", "autocorrelation", "psd", "ones_fraction_curve"),
    walk_engine: ("generate", "to_jumps", "evolve", "classical_evolve"),
    observables: (
        "moment", "fit_alpha", "shannon_entropy", "ipr", "kurtosis", "kld", "jsd",
        "reduced_coin_matrix", "entanglement_entropy", "asymmetry_carpet",
    ),
    cli_runner: ("generate", "to_jumps", "evolve", "classical_evolve"),
}
SAMPLED = ("shannon_entropy", "ipr", "jsd", "reduced_coin_matrix", "entanglement_entropy")
PROBE = "bench.probe"


class Tracer:
    """Records nested spans and the counts taken from returned results."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.raised: set[int] = set()  # indices of spans whose call raised
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.quantum_site_steps = 0
        self.classical_site_steps = 0
        self.live_sites = 0
        self.window_sites = 0
        self.subnormal = 0
        self.norm_drift_max = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised.add(self._stack[-1])
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        probe = {"evolve": self._probe_quantum, "classical_evolve": self._probe_classical}.get(
            fn.__name__
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if probe is not None:
                self.call(PROBE, probe, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module, names in LAYERS.items():
            for attr in names:
                fn = getattr(module, attr)
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[fn] = self._wrap(f"{layer}.{fn.__name__}", fn)
                self._originals.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _probe_quantum(self, result) -> None:
        self.quantum_site_steps += light_cone_site_steps(result.jumps)
        state = result.final_state
        self.live_sites += int(np.count_nonzero(state.probability()))
        self.window_sites += 2 * int(np.sum(result.jumps)) + 1
        tiny = np.finfo(float).tiny
        for part in (state.up.real, state.up.imag, state.down.real, state.down.imag):
            self.subnormal += int(np.count_nonzero((part != 0.0) & (np.abs(part) < tiny)))
        self.norm_drift_max = max(self.norm_drift_max, abs(result.final_norm - 1.0))

    def _probe_classical(self, result) -> None:
        self.classical_site_steps += light_cone_site_steps(result.jumps)

    def summary(self) -> dict:
        """Per span name: count, and inclusive, self and returned-call self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "returned_self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            if i not in self.raised:
                entry["returned_self_s"] += end - start - child[i]
        return dict(out)

    def sampling_s(self) -> float:
        """Time in observables spans called directly by an evolution."""
        evolutions = {
            i for i, span in enumerate(self.spans)
            if span[0] in ("walk_engine.evolve", "walk_engine.classical_evolve")
        }
        return sum(
            end - start
            for name, start, end, parent in self.spans
            if parent in evolutions and name.startswith("observables.")
        )


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  bytes_written: int, pool_eff: float) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    s = tracer.summary()

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def returned_self_s(name):  # site-steps are counted for returned evolutions only
        return s.get(name, {}).get("returned_self_s", 0.0)

    def count(name):
        return s.get(name, {}).get("count", 0)

    evolve_all = total("walk_engine.evolve") + total("walk_engine.classical_evolve")
    q_steps, c_steps = tracer.quantum_site_steps, tracer.classical_site_steps
    self_sum = sum(v["self_s"] for k, v in s.items() if k != PROBE)
    m = {
        "sequences.generate_s": (total("sequences.generate"), "s"),
        "seqstats.lzc_curve_s": (total("seqstats.lzc_curve"), "s"),
        "seqstats.lzc_calls": (count("seqstats.lzc"), "count"),
        "seqstats.autocorrelation_s": (total("seqstats.autocorrelation"), "s"),
        "seqstats.psd_s": (total("seqstats.psd"), "s"),
        "seqstats.ones_fraction_curve_s": (total("seqstats.ones_fraction_curve"), "s"),
        "walk_engine.evolve_s": (total("walk_engine.evolve"), "s"),
        "walk_engine.evolve_self_s": (self_s("walk_engine.evolve"), "s"),
        "walk_engine.kernel_ns_per_site_step": (
            1e9 * returned_self_s("walk_engine.evolve") / q_steps if q_steps else 0.0, "ns"),
        "walk_engine.classical_evolve_s": (total("walk_engine.classical_evolve"), "s"),
        "walk_engine.classical_ns_per_site_step": (
            1e9 * returned_self_s("walk_engine.classical_evolve") / c_steps if c_steps else 0.0, "ns"),
        "walk_engine.site_steps": (q_steps + c_steps, "count"),
        "walk_engine.live_frac": (
            tracer.live_sites / tracer.window_sites if tracer.window_sites else 0.0, "ratio"),
        "walk_engine.subnormal_count": (tracer.subnormal, "count"),
        "walk_engine.norm_drift_max": (tracer.norm_drift_max, "ratio"),
        "observables.moment_s": (total("observables.moment"), "s"),
        "observables.moment_calls": (count("observables.moment"), "count"),
        "observables.sample_share": (
            tracer.sampling_s() / evolve_all if evolve_all else 0.0, "ratio"),
        **{f"observables.{fn}_s": (total(f"observables.{fn}"), "s") for fn in SAMPLED},
        "observables.fit_alpha_s": (total("observables.fit_alpha"), "s"),
        "observables.asymmetry_carpet_s": (total("observables.asymmetry_carpet"), "s"),
        "cli_runner.self_s": (self_s("cli_runner.main"), "s"),
        "cli_runner.bytes_written": (bytes_written, "B"),
        "cli_runner.pool_eff": (pool_eff, "ratio"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
    }
    return m
