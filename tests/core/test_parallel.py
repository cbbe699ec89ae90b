"""The phase decoupling that would let LMC's verification run in parallel.

The paper's introduction notes that exploration, system-state creation and
soundness verification are decoupled, and so "can be embarrassingly
parallelized".  The serial :class:`LocalModelChecker` is the only checker;
these tests pin the decoupling itself: soundness replay is a pure function
of hash-only ("plain") steps, a verification unit is searched combination
by combination under its cap, and every preliminary violation is confirmed
or rejected the same way whatever fault schedule produced it.  Module and
class names keep the test IDs of the process-pool checker these properties
were first written against.
"""

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.soundness import (
    SequenceStep,
    SoundnessVerifier,
    replay_sequences_indexed,
)
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.model.events import InternalEvent
from repro.model.types import Action
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator
from repro.replay import validate_bug
from repro.stats.counters import ExplorationStats


def _sequence(node, plain_steps, tag=""):
    """A node sequence from ``(consumed, generated)`` pairs."""
    return tuple(
        SequenceStep(
            InternalEvent(Action(node=node, name=f"e{node}-{index}{tag}")),
            consumed,
            generated,
        )
        for index, (consumed, generated) in enumerate(plain_steps)
    )


class _StubVerifier(SoundnessVerifier):
    """A verifier whose per-node candidate sequences are given up front."""

    def __init__(self, unit, max_combinations):
        super().__init__(None, ExplorationStats(), max_combinations=max_combinations)
        self._unit = {
            node: [
                _sequence(node, candidate, tag=f"/{choice}")
                for choice, candidate in enumerate(candidates)
            ]
            for node, candidates in unit.items()
        }

    def _enumerate_sequences(self, record):
        return self._unit[record]

    def verify(self):
        return self.is_state_sound({node: node for node in self._unit})


class TestPlainReplay:
    def test_empty_unit_valid(self):
        assert replay_sequences_indexed({}) == ()

    def test_send_then_receive(self):
        sequences = {0: _sequence(0, ((None, (7,)),)), 1: _sequence(1, ((7, ()),))}
        order = replay_sequences_indexed(sequences)
        assert order == ((0, 0), (1, 0))  # the send must run first

    def test_deadlock_detected(self):
        sequences = {0: _sequence(0, ((1, (2,)),)), 1: _sequence(1, ((2, (1,)),))}
        assert replay_sequences_indexed(sequences) is None

    def test_verify_unit_picks_working_combination(self):
        unit = {
            0: [((5, ()),), ((None, (9,)),)],  # first candidate needs hash 5
            1: [((9, ()),)],
        }
        verifier = _StubVerifier(unit, max_combinations=None)
        witness = verifier.verify()
        assert witness is not None
        # only the generating candidate works, and it must run first
        assert [event.action.name for event in witness] == ["e0-0/1", "e1-0/0"]
        assert verifier._stats.soundness_calls == 1
        assert verifier._stats.soundness_sequences == 2

    def test_verify_unit_cap(self):
        unit = {0: [((5, ()),)] * 4, 1: [((6, ()),)] * 4}
        verifier = _StubVerifier(unit, max_combinations=3)
        assert verifier.verify() is None
        assert verifier._stats.soundness_sequences == 3


class TestParallelChecker:
    @pytest.mark.parametrize("crashes", [0, 2])
    def test_clean_tree_rejects_all(self, crashes):
        result = LocalModelChecker(
            TreeProtocol(),
            ReceivedImpliesSent(),
            config=LMCConfig.optimized(
                fault_events_enabled=True, max_total_crashes=crashes
            ),
        ).run()
        assert result.completed
        assert not result.found_bug
        assert result.stats.soundness_calls > 0
        assert result.stats.fault_crashes == crashes

    @pytest.mark.parametrize("crashes", [0, 2])
    def test_buggy_scenario_confirmed(self, crashes):
        protocol = scenario_protocol(buggy=True)
        result = LocalModelChecker(
            protocol,
            PaxosAgreement(0),
            budget=SearchBudget(max_seconds=10.0),
            config=LMCConfig.optimized(
                fault_events_enabled=True, max_total_crashes=crashes
            ),
        ).run(partial_choice_state())
        assert result.found_bug
        replayed = validate_bug(protocol, result.first_bug(), PaxosAgreement(0))
        assert replayed.complete and replayed.violates

    def test_agrees_with_sequential_on_2pc_bug(self):
        """LMC and the global B-DFS baseline both find the eager-commit bug."""
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        local = LocalModelChecker(protocol, CommitValidity()).run()
        global_ = GlobalModelChecker(protocol, CommitValidity()).run()
        assert local.found_bug and global_.found_bug
        replayed = validate_bug(protocol, local.first_bug(), CommitValidity())
        assert replayed.complete and replayed.violates

    def test_collection_is_deduplicated_and_capped(self):
        """Run to completion, repeated violations on the same node states
        reuse their enumerations, and no call tries more combinations than
        ``max_combinations_per_check`` allows."""
        result = LocalModelChecker(
            EagerCommitCoordinator(3, no_voters=(2,)),
            CommitValidity(),
            config=LMCConfig.optimized(
                stop_on_first_bug=False, max_combinations_per_check=1
            ),
        ).run()
        stats = result.stats
        assert result.completed
        assert stats.soundness_calls == stats.preliminary_violations > 0
        assert stats.soundness_sequences <= stats.soundness_calls
        assert stats.sequence_cache_hits > 0

    def test_algorithm_label(self):
        optimized = LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            config=LMCConfig.optimized(),
        )
        general = LocalModelChecker(
            TreeProtocol(), ReceivedImpliesSent(), config=LMCConfig.general()
        )
        assert optimized.algorithm == "LMC-OPT"
        assert general.algorithm == "LMC-GEN"
        assert general.run().algorithm == "LMC-GEN"
