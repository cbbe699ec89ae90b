"""Seeded inputs are reproducible, and the seed never changes the work."""

import json
import os

import pytest

from lmcbench import run
from lmcbench.workloads import EXPECTED, PINNED_COUNTERS, WORKLOADS, Inputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Check kinds that are also workloads of ``tools/bench.py`` (``BENCH_lmc.json``).
BENCH_LMC_NAMES = {
    "fig10_d4": "fig10_d4",
    "fig10_d6": "fig10_d6",
    "fig10_d8": "fig10_d8",
    "fig10_d10": "fig10_d10",
    "s55_buggy": "s55_snapshot",
    "s56_buggy": "s56_onepaxos",
    "paxos_faults": "paxos_faults",
}

def _rounds(workload, seed, count=3):
    inputs = Inputs(workload, seed)
    return inputs.checks, [inputs.next_round() for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert _rounds(workload, 7) == _rounds(workload, 7)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_other_inputs_same_kinds(workload):
    checks_a, rounds_a = _rounds(workload, 1)
    checks_b, rounds_b = _rounds(workload, 2)
    assert checks_a != checks_b
    assert sorted(c.kind for c in checks_a) == sorted(c.kind for c in checks_b)
    if WORKLOADS[workload].shuffled:  # the seed orders the mix
        assert [[c.kind for c in r] for r in rounds_a] != [[c.kind for c in r] for r in rounds_b]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_keep_verdicts_and_pinned_counts(workload, tmp_path):
    outcomes = {}
    for label, seed in (("first", 1), ("again", 1), ("other", 2)):
        specs = Inputs(workload, seed).next_round()
        runs = run.run_round(specs, str(tmp_path / label), None, 0)
        assert [r.errors for r in runs] == [[] for _ in runs], label
        outcomes[label] = [
            (r.spec.kind, r.spec.params, r.result.found_bug, r.counters()) for r in runs
        ]
    assert outcomes["first"] == outcomes["again"]
    # Another seed renames and reorders, but every kind keeps its counters.
    first = sorted((kind, bug, sorted(c.items())) for kind, _p, bug, c in outcomes["first"])
    other = sorted((kind, bug, sorted(c.items())) for kind, _p, bug, c in outcomes["other"])
    assert first == other
    assert [p for _k, p, _b, _c in outcomes["first"]] != [p for _k, p, _b, _c in outcomes["other"]]


def test_pinned_counts_agree_with_bench_lmc():
    with open(os.path.join(ROOT, "BENCH_lmc.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["workloads"]
    for kind, name in BENCH_LMC_NAMES.items():
        entry = recorded[name]
        expected = EXPECTED[kind]
        assert {key: entry["counts"][key] for key in PINNED_COUNTERS} == expected.counters(), kind
        assert entry["completed"] == expected.completed, kind
        assert bool(entry["bugs"]) == expected.bug, kind


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, percentile = run.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_times_scale_to_the_reference_host():
    reference = run.REFERENCE_S
    assert run.to_reference(2.0, reference) == pytest.approx(2.0)
    # A host running at half speed takes twice as long for both.
    assert run.to_reference(4.0, 2 * reference) == pytest.approx(2.0)
    assert run.to_reference(3.0, reference, 2 * reference) == pytest.approx(2.0)
    assert run.time_reference() > 0


def test_benchmark_json_lists_what_the_runner_reports():
    from lmcbench.tracer import PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
