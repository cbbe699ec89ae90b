"""The tracer observes checks without changing them, and accounts for all time."""

import json
import math
import sys

import pytest

from lmcbench import run
from lmcbench.tracer import (
    LAYERS,
    ROOT_LAYER,
    Tracer,
    _import_sites,
    _targets,
    layer_metrics,
    layer_table,
)
from lmcbench.workloads import CheckSpec

S55 = CheckSpec("s55_buggy", (3, "val111", "val222"))
TWOPHASE = CheckSpec("twophase_drops4", ())
CHAIN = [
    CheckSpec("fig10_d4", ((1, 2, "val333"),), save_checkpoint=True),
    CheckSpec("fig10_d6", ((1, 2, "val333"),), extends="fig10_d4", save_checkpoint=True),
]


def _fingerprint(result):
    """Everything deterministic about a result, as one canonical string."""
    counters = {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith("phase_")
    }
    return json.dumps(
        {
            "counters": counters,
            "completed": result.completed,
            "stop_reason": result.stop_reason,
            "bugs": [bug.description for bug in result.bugs],
            "witnesses": [bug.trace_lines() for bug in result.bugs],
        },
        sort_keys=True,
    )


def _run(specs, tmp_path, tracer=None):
    return [run.run_check(spec, str(tmp_path), tracer, i) for i, spec in enumerate(specs)]


@pytest.fixture
def traced(tmp_path):
    """Untraced and traced runs of checks covering every layer."""
    specs = [S55, TWOPHASE] + CHAIN
    plain = _run(specs, tmp_path / "plain")
    tracer = Tracer()
    tracer.overhead_in, tracer.overhead_out = 1e-7, 3e-7
    observed = _run(specs, tmp_path / "traced", tracer)
    return plain, observed, tracer


def test_traced_results_are_identical_to_untraced(traced):
    plain, observed, _tracer = traced
    for before, after in zip(plain, observed):
        assert not before.errors and not after.errors
        assert _fingerprint(before.result) == _fingerprint(after.result)


def test_span_counts_agree_with_checker_counters(traced):
    _plain, observed, tracer = traced
    previous = None
    for run_, check in zip(observed, tracer.checks):
        metrics = layer_metrics(tracer.summarize(check["first"], check["last"]), check["counts"])
        # An extension leg's counters carry the legs before it.
        prior = previous.result.stats if run_.spec.extends else None

        def executed(name):
            return getattr(run_.result.stats, name) - (getattr(prior, name) if prior else 0)

        assert metrics["invariants.checks"] == executed("invariant_checks")
        assert metrics["core.soundness.calls"] == executed("soundness_calls")
        assert metrics["core.system_states.combos"] == executed("system_states_created")
        confirmed = metrics["core.soundness.confirm_ratio"] * metrics["core.soundness.calls"]
        assert round(confirmed) == executed("confirmed_bugs")
        previous = run_


def test_every_layer_is_seen(traced):
    _plain, _observed, tracer = traced
    rows = tracer.summarize(0, tracer.span_count())
    table = layer_table(rows)
    for layer in LAYERS:
        assert table[layer]["calls"] > 0, layer
    counts = sum((check["counts"] for check in tracer.checks), start=type(tracer.counts)())
    metrics = layer_metrics(rows, counts)
    assert metrics["core.checkpoint.bytes"] > 0
    assert 0 < metrics["model.hashing.intern_hit_ratio"] < 1


def test_self_times_sum_to_root_spans(traced):
    _plain, _observed, tracer = traced
    for check in tracer.checks:
        rows = tracer.summarize(check["first"], check["last"])
        table = layer_table(rows)
        metrics = layer_metrics(rows, check["counts"])
        assert metrics["core.checker.self_s"] == pytest.approx(table[ROOT_LAYER]["self_s"])
        total = sum(row["self_s"] for row in table.values())
        assert math.isclose(total, tracer.root_seconds(check["first"], check["last"]), rel_tol=1e-9)


def test_one_root_span_per_check(traced):
    _plain, _observed, tracer = traced
    for check in tracer.checks:
        parents = tracer.parents(check["first"], check["last"])
        roots = [i for i, parent in enumerate(parents) if parent < 0]
        assert roots == [check["last"] - check["first"] - 1]
        assert tracer.names[tracer.name_col[check["last"] - 1]] == f"{ROOT_LAYER}:check"


def test_every_wrapper_is_removed(tmp_path):
    protocol, invariant, *_ = S55.build()
    before = {
        (id(owner), attribute): getattr(owner, attribute)
        for _layer, owner, attribute, _kind, _outcome in _targets(protocol, invariant)
    }
    sites = {
        (module.__name__, site): value
        for value in before.values()
        for module, site in _import_sites(value)
    }
    assert len(sites) > len(before)  # hashing is imported by name in many modules
    tracer = Tracer()
    run.run_check(S55, str(tmp_path), tracer)
    with pytest.raises(RuntimeError):
        with tracer.check(1, protocol, invariant):
            assert tracer.installed
            raise RuntimeError("a check that fails mid-run")
    assert not tracer.installed
    for _layer, owner, attribute, _kind, _outcome in _targets(protocol, invariant):
        assert getattr(owner, attribute) is before[(id(owner), attribute)]
    for (module, site), value in sites.items():
        assert getattr(sys.modules[module], site) is value


def test_parents_follow_interval_nesting():
    tracer = Tracer()
    name = tracer.name_id("protocols", "handle_message")
    # root [0, 10] > a [1, 4] > b [2, 3]; c [5, 9] > d [5, 6]; recorded in end order
    for start, end in ((2, 3), (1, 4), (5, 6), (5, 9), (0, 10)):
        tracer._record(name, float(start), float(end))
    assert list(tracer.parents(0, 5)) == [1, 4, 3, 4, -1]
    rows = tracer.summarize(0, 5)
    assert rows["protocols:handle_message"]["calls"] == 5
    assert rows["protocols:handle_message"]["entries"] == 1
    assert rows["protocols:handle_message"]["self_s"] == pytest.approx(10.0)


def test_calibration_measures_a_positive_cost():
    tracer = Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    assert tracer.overhead_in >= 0 and tracer.overhead_out > 0
    assert tracer.overhead_in + tracer.overhead_out < 1e-4
    assert tracer.span_count() == 0
