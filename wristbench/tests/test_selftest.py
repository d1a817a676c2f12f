"""Self-tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest wristbench/tests -q`` from the repository
root. They need no workload run: each check is fed hand-made inputs.
"""

import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Tracer, ledger, self_times


def test_ledger_self_times_and_remainder_sum_to_wall():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 6.0, 0],
        ["b", 5.2, 5.8, 2],
        ["e", 12.0, 13.0, -1],
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(6.0)
    assert own["b"] == pytest.approx(3.6)
    assert own["c"] == pytest.approx(0.4)
    assert own["e"] == pytest.approx(1.0)
    book = ledger(spans, wall_s=15.0)
    assert book["unattributed_s"] == pytest.approx(4.0)
    assert sum(book["layers"].values()) + book["unattributed_s"] == pytest.approx(15.0)
    assert book["unattributed_share"] == pytest.approx(4.0 / 15.0)


def test_tracer_wraps_nests_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Leaf:
        def work(self, x):
            return x + 1

        @classmethod
        def make(cls):
            return cls()

    module = types.ModuleType("fake")

    def outer(leaf, x):
        return leaf.work(x) * 2

    module.outer = outer
    original_work = Leaf.__dict__["work"]
    tracer.wrap(Leaf, "work", "leaf")
    tracer.wrap(Leaf, "make", "leaf")
    tracer.wrap(module, "outer", "root")
    assert module.outer(Leaf.make(), 3) == 8
    tracer.restore()
    assert Leaf.__dict__["work"] is original_work
    assert module.outer is outer
    names = [s[0] for s in tracer.spans]
    assert names == ["leaf", "root", "leaf"]
    assert tracer.spans[2][3] == 1  # work() nested inside outer()
    assert tracer.counters["leaf.calls"] == 2
    book = ledger(tracer.spans, wall_s=10.0)
    assert sum(book["layers"].values()) + book["unattributed_s"] == pytest.approx(10.0)


def _books(n, **overrides):
    books = {"sent": n, "decoded": n, "lost": 0, "unbooked": 0,
             "unaccounted": 0, "bye": True}
    books.update(overrides)
    return books


def test_fleet_check_passes_exact_words():
    words = workloads.expected_words(50)
    assert workloads.fleet_check(_books(50), words, clean=True, label="x") == []


def test_fleet_check_trips_on_one_corrupted_word():
    words = workloads.expected_words(50).copy()
    words[777] ^= 1
    failures = workloads.fleet_check(_books(50), words, clean=True, label="x")
    assert failures and "differ" in failures[0]


def test_fleet_check_trips_on_unbalanced_books():
    words = workloads.expected_words(50)
    hidden = _books(50, decoded=40, unbooked=10, unaccounted=0)
    assert workloads.fleet_check(hidden, words, clean=False, label="x")
    twice = _books(50, decoded=50, lost=2, unbooked=-2, unaccounted=-2)
    assert workloads.fleet_check(twice, words, clean=False, label="x")


def test_chaos_burst_books_every_frame_it_sends():
    """A faulted lane that reads its ACKs to EOF loses no frame silently."""
    import asyncio

    from repro.gateway import GatewayServer

    inputs = workloads.fleet_prepare(seed=1, open_s=0.1)

    async def one_burst():
        server = GatewayServer(samples_per_frame=workloads.FLEET_SPF)
        await server.start()
        try:
            return await workloads._burst(server, inputs, 0, None)
        finally:
            await server.stop()

    burst = asyncio.run(one_burst())
    chaos, clean = burst["lanes"]
    assert burst["failures"] == []
    assert chaos["bye"] and chaos["unbooked"] == 0 and chaos["lost"] > 0
    assert clean["decoded"] == workloads.FLEET_FRAMES


def _population(errors):
    from repro.experiments.population import PopulationResult

    errors = np.asarray(errors, dtype=float)
    return PopulationResult(
        systolic_errors_mmhg=errors,
        diastolic_errors_mmhg=-errors,
        waveform_rms_mmhg=np.abs(errors),
        subjects=tuple({"subject": i} for i in range(errors.size)),
    )


def test_cohort_digest_trips_on_a_changed_subject():
    base = _population([1.0, -2.0, 0.5, 1.5])
    changed = _population([1.0, -2.0, 0.5, 1.5 + 1e-9])
    first = workloads.cohort_digest(base)
    assert workloads.cohort_digest(_population([1.0, -2.0, 0.5, 1.5])) == first
    assert workloads.cohort_check([base], {0: first}, [(0, first)]) == []
    failures = workloads.cohort_check(
        [base], {0: first}, [(0, workloads.cohort_digest(changed))]
    )
    assert failures == ["cohort chunk 0: digest changed on repeat"]


def test_cohort_check_trips_on_the_numeric_guard():
    big = _population([4.0, -4.0, 4.0, -4.0])
    failures = workloads.cohort_check([big], {}, [])
    assert any("mean |error|" in f for f in failures)


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text()
    )
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        layers.per_layer_names()
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_collect_emits_every_per_layer_name_as_a_number():
    values = layers.collect({}, {}, {})
    assert list(values) == [n for n, _, _ in layers.per_layer_names()]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
