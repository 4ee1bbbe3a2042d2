"""The benchmark's traced run still finds every layer it wraps.

`bench/run.py --trace 1` records spans by swapping module attributes, such as
``renergy.coverage.field_values``, for recorders. If the trial engine stops
looking a layer up under the name the benchmark registers, the traced run
fails with AttributeError or with a layer-sum check; these tests fail first.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import pytest

from renergy import harness
from renergy.aggregation import Distributed
from renergy.channel import ChannelSpec
from renergy.coverage import ScenarioConfig
from renergy.energy_field import EnergyFieldSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


class _Checks:
    def __init__(self):
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py imported as a module, with bench/ on the import path."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("renergy_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CFG = ScenarioConfig(field=EnergyFieldSpec(gamma=20.0, lambda_e=0.05, nu=1.0),
                      channel=ChannelSpec.normalized(), lambda_b=1.0, lambda_u=10.0)


@pytest.mark.parametrize("architecture, warm",
                         [(None, False), (Distributed(lambda_h=2.0, lambda_a=0.5), False),
                          (None, True)],
                         ids=["onsite", "distributed", "onsite_memo_hit"])
def test_traced_chunk_accounts_for_every_layer(bench_run, architecture, warm):
    from tracing import Tracer
    cfg = _CFG if architecture is None else replace(_CFG, architecture=architecture)
    if warm:
        # leaves block 0, which the traced chunk begins in, drawn and kept
        harness.run_trials_chunk(cfg, 0, 200, 5)
    tracer = Tracer()
    bench_run._register(tracer)
    originals = [getattr(module, attr) for module, attr, _, _ in tracer._targets]
    tracer.install()
    try:
        tally = harness.run_trials_chunk(cfg, 200, 600, 5)
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in tracer._targets] == originals
    summary = tracer.summary()
    assert summary[bench_run.RTC]["calls"] == 1
    assert tracer.counters["trials"] == tally.trials == 400
    if warm:   # three blocks touched and two drawn, on-site from the user stream alone
        assert summary["geometry.substream"]["under"][bench_run.RTC]["calls"] == 2
    checks = _Checks()
    metrics = bench_run._layer_metrics(summary, tracer.counters, 0.0, 0.0, 0.0, checks)
    assert not checks.failures
    assert all(math.isfinite(v) for v in metrics.values())
    assert set(metrics) == set(bench_run.PER_LAYER)
