"""The names the benchmark's trace mode wraps stay callable on their modules.

bench/tracing.py installs its spans by replacing module attributes by
name, so a renamed or inlined function, or a caller that binds an
observable directly instead of looking it up on the observables module,
silently drops a layer from the trace.
"""

from __future__ import annotations

import importlib
import math
from pathlib import Path

import pytest

from qwjumps import CoinSpec, RunConfig, walk_engine

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves_to_a_callable(tracing):
    for module, names in tracing.LAYERS.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_evolve_samples_through_the_observables_module(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        walk_engine.evolve(RunConfig(CoinSpec("H", math.pi / 4.0), "fibonacci", 20))
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["walk_engine.evolve"]["count"] == 1
    # 21 samples (t = 0 .. 20), each taking m2 and m4 and one of the rest.
    assert spans["observables.moment"]["count"] == 42
    for fn in tracing.SAMPLED:
        assert spans[f"observables.{fn}"]["count"] == 21, fn


# Per sample: the calls each field set makes, and the calls it must not make.
@pytest.mark.parametrize(
    "fields, per_sample",
    [
        (
            ("m2",),
            {"moment": 1, "shannon_entropy": 0, "ipr": 0, "jsd": 0,
             "reduced_coin_matrix": 0},
        ),
        (("m4", "S_e"), {"moment": 1, "reduced_coin_matrix": 1, "jsd": 0}),
        (("S",), {"moment": 0}),
    ],
    ids=["m2", "m4+S_e", "S"],
)
def test_a_sample_computes_only_its_requested_fields(tracing, fields, per_sample):
    config = RunConfig(
        CoinSpec("H", math.pi / 4.0), "fibonacci", 20, record_fields=fields
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        walk_engine.evolve(config)
    finally:
        tracer.uninstall()
    # A function never called has no span.
    counts = {name: span["count"] for name, span in tracer.summary().items()}
    for fn, count in per_sample.items():
        # 21 samples, t = 0 .. 20.
        assert counts.get(f"observables.{fn}", 0) == 21 * count, fn
