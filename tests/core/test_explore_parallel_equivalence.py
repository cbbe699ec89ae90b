"""Exploration is independent of the phases that follow it.

LMC's exploration never consults system-state creation or soundness
verification, which is what makes the phases separable (the paper's
"embarrassingly parallelized" remark).  The Fig. 13 toggles expose this:
switching off system-state creation (LMC-explore) or soundness verification
(LMC-system-state) must leave every exploration counter identical to the
full serial pipeline run to completion, and switching off only soundness
must leave the system-state counters identical too.  Module and class names
keep the test IDs of the speculative frontier exploration these runs were
first compared against.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import WORKLOADS
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator
from repro.replay import validate_bug

#: Counters written by system-state creation and invariant checking.
SYSTEM_STATE_KEYS = frozenset(
    {"system_states_created", "invariant_checks", "preliminary_violations"}
)
#: Counters written by soundness verification and its caches.
SOUNDNESS_KEYS = frozenset(
    {
        "soundness_calls",
        "soundness_sequences",
        "confirmed_bugs",
        "sequence_cache_hits",
        "replay_cache_hits",
        "rejected_cache_evictions",
    }
)

#: The Fig. 13 configurations, each run until its budget or exhaustion.
EXPLORE_ONLY = dict(create_system_states=False)
SYSTEM_STATE = dict(verify_soundness=False)
FULL = dict(stop_on_first_bug=False)


def _counts(result, keep):
    return {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith("phase_") and keep(key)
    }


def _exploration(result):
    return _counts(
        result, lambda key: key not in SYSTEM_STATE_KEYS | SOUNDNESS_KEYS
    )


def _system_states(result):
    return _counts(result, lambda key: key in SYSTEM_STATE_KEYS)


def _run(make_protocol, invariant, budget=None, initial=None, **config_kw):
    checker = LocalModelChecker(
        make_protocol(),
        invariant,
        budget=budget or SearchBudget.unbounded(),
        config=LMCConfig.optimized(**config_kw),
    )
    return checker.run(initial)


def _assert_decoupled(make_protocol, invariant, **kwargs):
    explore = _run(make_protocol, invariant, **kwargs, **EXPLORE_ONLY)
    system = _run(make_protocol, invariant, **kwargs, **SYSTEM_STATE)
    full = _run(make_protocol, invariant, **kwargs, **FULL)
    assert _exploration(explore) == _exploration(system) == _exploration(full)
    assert _system_states(system) == _system_states(full)
    assert explore.stats.system_states_created == 0
    assert system.stats.soundness_calls == 0
    return full


class TestEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(no_voter=st.sampled_from([None, 0, 1, 2]))
    def test_2pc_matches_serial(self, no_voter):
        voters = (no_voter,) if no_voter is not None else ()
        full = _assert_decoupled(
            lambda: EagerCommitCoordinator(3, no_voters=voters), CommitValidity()
        )
        assert full.completed
        assert full.found_bug == (no_voter is not None)

    @settings(max_examples=4, deadline=None)
    @given(depth=st.integers(min_value=3, max_value=6))
    def test_depth_bounded_paxos_matches_serial(self, depth):
        full = _assert_decoupled(
            lambda: PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
            PaxosAgreement(0),
            budget=SearchBudget(max_depth=depth),
        )
        assert full.completed and full.stats.transitions > 0

    @settings(max_examples=3, deadline=None)
    @given(max_crashes=st.integers(min_value=0, max_value=2))
    def test_faulty_paxos_matches_serial(self, max_crashes):
        full = _assert_decoupled(
            lambda: PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
            PaxosAgreement(0),
            budget=SearchBudget(max_depth=5),
            fault_events_enabled=True,
            max_total_crashes=max_crashes,
        )
        assert full.stats.fault_crashes <= max_crashes

    def test_buggy_scenario_bug_and_witness_match(self):
        # The first bug is confirmed at transition 516; the budget stops the
        # run-to-completion configurations just past it.
        full = _assert_decoupled(
            lambda: scenario_protocol(buggy=True),
            PaxosAgreement(0),
            budget=SearchBudget(max_transitions=520),
            initial=partial_choice_state(),
        )
        assert full.found_bug
        first = _run(
            lambda: scenario_protocol(buggy=True),
            PaxosAgreement(0),
            initial=partial_choice_state(),
        )
        assert first.bugs[0].trace_lines() == full.bugs[0].trace_lines()
        replayed = validate_bug(
            scenario_protocol(buggy=True), full.first_bug(), PaxosAgreement(0)
        )
        assert replayed.complete and replayed.violates

    def test_round_threshold_keeps_small_runs_serial(self):
        """Every run is serial: the round-dispatch knobs no longer exist."""
        for knob in ("explore_round_threshold", "explore_shard_min"):
            with pytest.raises(TypeError):
                LMCConfig.optimized(**{knob: 1})
        result = _run(EagerCommitCoordinator, CommitValidity())
        assert result.completed

    @pytest.mark.parametrize("buggy", [False, True], ids=["clean", "buggy"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workload_exploration_independent_of_later_phases(
        self, workload, buggy
    ):
        """Every CLI workload, depth-bounded.  Local invariants build their
        completion system states inside soundness verification, so only the
        exploration counters are compared here."""
        builder = WORKLOADS[workload][0]
        budget = SearchBudget(max_depth=4)
        runs = [
            LocalModelChecker(
                *builder(3, buggy),
                budget=budget,
                config=LMCConfig.optimized(**phase),
            ).run()
            for phase in (EXPLORE_ONLY, SYSTEM_STATE, FULL)
        ]
        assert all(run.completed for run in runs)
        explore, system, full = (_exploration(run) for run in runs)
        assert explore == system == full
        assert full["transitions"] > 0
