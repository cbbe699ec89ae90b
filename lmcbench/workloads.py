"""Seeded inputs for the four benchmark workloads, with their pinned outcomes.

A workload is a sequence of *checks*.  Each check is one model-checking call
against the default configuration (serial, caches on): a cold
``LocalModelChecker.run`` or, in the ``depth_extend`` chain, a
``load_checkpoint`` -> ``extend_depth`` leg.  The seed renames proposer nodes,
Paxos decree indexes and value names, and orders the ``snapshot_stream`` mix;
it never changes the amount of work, so every check's deterministic counters
are pinned here independently of the seed.

The checker itself never sees the seed: :meth:`CheckSpec.build` turns the
generated parameters into plain protocol, invariant and initial-state objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.protocols.onepaxos import OnePaxosAgreement, OnePaxosProtocol
from repro.protocols.onepaxos.scenarios import post_leaderchange_state
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit

#: The deterministic counters every check pins (checker ``stats`` fields).
PINNED_COUNTERS = (
    "transitions",
    "node_states",
    "system_states_created",
    "soundness_calls",
    "confirmed_bugs",
)


@dataclass(frozen=True)
class Expected:
    """A check's verdict and pinned counters (cumulative over a chain)."""

    bug: bool
    completed: bool
    counts: Tuple[int, int, int, int, int]

    def counters(self) -> Dict[str, int]:
        return dict(zip(PINNED_COUNTERS, self.counts))


#: Pinned outcomes per check kind.  ``fig10_dN``, ``s55_buggy``
#: (``s55_snapshot``), ``s56_buggy`` (``s56_onepaxos``) and ``paxos_faults``
#: match the entries of the same workloads in ``BENCH_lmc.json`` (asserted
#: by ``lmcbench/tests/test_workloads.py``).
EXPECTED: Dict[str, Expected] = {
    "paxos2_d4": Expected(False, True, (5930, 1707, 0, 0, 0)),
    "paxos_gen_n6_d3": Expected(False, True, (33, 32, 12287, 0, 0)),
    "s55_buggy": Expected(True, False, (516, 473, 784, 784, 1)),
    "s55_correct": Expected(False, True, (3831, 1188, 0, 0, 0)),
    "twophase_drops4": Expected(True, False, (134, 107, 2934, 2934, 1)),
    "s56_buggy": Expected(True, False, (8, 10, 7, 7, 1)),
    "s56_correct": Expected(False, True, (5, 6, 0, 0, 0)),
    "paxos_faults": Expected(False, True, (5376, 1269, 0, 0, 0)),
    "fig10_d4": Expected(False, True, (550, 216, 0, 0, 0)),
    "fig10_d6": Expected(False, True, (2051, 804, 0, 0, 0)),
    "fig10_d8": Expected(False, True, (4011, 1260, 0, 0, 0)),
    "fig10_d10": Expected(False, True, (4107, 1260, 0, 0, 0)),
}


@dataclass(frozen=True)
class CheckSpec:
    """One check: a kind from :data:`EXPECTED` plus its seeded parameters.

    ``extends`` names the kind whose checkpoint this check loads and
    extends; ``None`` means a cold ``run``.  ``save_checkpoint`` asks the
    check to write the snapshot of its completed pass.
    """

    kind: str
    params: Tuple[Any, ...]
    extends: Optional[str] = None
    save_checkpoint: bool = False

    @property
    def expected(self) -> Expected:
        return EXPECTED[self.kind]

    def build(self):
        """Fresh ``(protocol, invariant, budget, config, initial_system)``."""
        return _CONSTRUCTORS[self.kind](self)


def _paxos(proposals, num_nodes=3):
    return PaxosProtocol(num_nodes=num_nodes, proposals=tuple(proposals))


def _build_paxos2_d4(spec: CheckSpec):
    first, second = spec.params
    return (
        _paxos((first, second)),
        PaxosAgreement(first[1]),
        SearchBudget(max_depth=4),
        LMCConfig.optimized(),
        None,
    )


def _build_paxos_gen_n6_d3(spec: CheckSpec):
    (proposal,) = spec.params
    return (
        _paxos((proposal,), num_nodes=6),
        PaxosAgreement(proposal[1]),
        SearchBudget(max_depth=3),
        LMCConfig.general(),
        None,
    )


def _build_fig10(spec: CheckSpec):
    (proposal,) = spec.params
    depth = int(spec.kind[len("fig10_d") :])
    return (
        _paxos((proposal,)),
        PaxosAgreement(proposal[1]),
        SearchBudget(max_depth=depth),
        LMCConfig.optimized(),
        None,
    )


def _build_paxos_faults(spec: CheckSpec):
    (proposal,) = spec.params
    return (
        _paxos((proposal,)),
        PaxosAgreement(proposal[1]),
        SearchBudget.unbounded(),
        LMCConfig.optimized(fault_events_enabled=True),
        None,
    )


def _build_s55(spec: CheckSpec):
    index, first_value, contender_value = spec.params
    return (
        scenario_protocol(buggy=spec.kind == "s55_buggy"),
        PaxosAgreement(index),
        SearchBudget.unbounded(),
        LMCConfig.optimized(),
        partial_choice_state(index, first_value, contender_value),
    )


def _build_s56(spec: CheckSpec):
    (value,) = spec.params
    # ``scenario_protocol`` with the pending proposal's value renamed; the
    # snapshot's chosen value ``v2`` is fixed by the scenario itself.
    protocol = OnePaxosProtocol(
        num_nodes=3,
        proposals=((0, 0, value),),
        fault_suspects=(),
        buggy_init=spec.kind == "s56_buggy",
        require_init=False,
    )
    return (
        protocol,
        OnePaxosAgreement(0),
        SearchBudget.unbounded(),
        LMCConfig.optimized(),
        post_leaderchange_state(protocol),
    )


def _build_twophase_drops4(spec: CheckSpec):
    return (
        TimeoutTwoPhaseCommit(4),
        Atomicity(),
        SearchBudget.unbounded(),
        LMCConfig.optimized(drop_faults=True),
        None,
    )


_CONSTRUCTORS: Dict[str, Callable[[CheckSpec], tuple]] = {
    "paxos2_d4": _build_paxos2_d4,
    "paxos_gen_n6_d3": _build_paxos_gen_n6_d3,
    "s55_buggy": _build_s55,
    "s55_correct": _build_s55,
    "twophase_drops4": _build_twophase_drops4,
    "s56_buggy": _build_s56,
    "s56_correct": _build_s56,
    "paxos_faults": _build_paxos_faults,
    "fig10_d4": _build_fig10,
    "fig10_d6": _build_fig10,
    "fig10_d8": _build_fig10,
    "fig10_d10": _build_fig10,
}


# -- seeded generation -----------------------------------------------------------


#: Copies per ``snapshot_stream`` round of each soundness-bound check.
SOUNDNESS_REPEATS = 3


def _values(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct value names of one length (encoding cost is fixed)."""
    return [f"val{n}" for n in rng.sample(range(100, 1000), count)]


def _proposal(rng: random.Random, num_nodes: int = 3) -> Tuple[int, int, str]:
    """One scripted Paxos proposal: (proposer node, decree index, value)."""
    return (rng.randrange(num_nodes), rng.randrange(8), _values(rng, 1)[0])


def _two_proposals(rng: random.Random, num_nodes: int) -> Tuple[Tuple[int, int, str], ...]:
    """Two proposals from distinct nodes on distinct decree indexes."""
    first_node, second_node = rng.sample(range(num_nodes), 2)
    first_index, second_index = rng.sample(range(8), 2)
    first_value, second_value = _values(rng, 2)
    return (first_node, first_index, first_value), (second_node, second_index, second_value)


def _explore_opt(rng: random.Random) -> List[CheckSpec]:
    return [CheckSpec("paxos2_d4", _two_proposals(rng, 3))]


def _enumerate_gen(rng: random.Random) -> List[CheckSpec]:
    return [CheckSpec("paxos_gen_n6_d3", (_proposal(rng, 6),))]


def _snapshot_stream(rng: random.Random) -> List[CheckSpec]:
    """Each round: every snapshot check once, the soundness-bound ones thrice.

    The client restarts LMC from live snapshots; the two checks whose time
    goes to soundness verification (confirming the s5.5 witness, exhausting
    the 2PC drop rejections) recur most, each copy with its own renaming.
    """
    checks = []
    for _ in range(SOUNDNESS_REPEATS):
        index = rng.randrange(8)
        first_value, contender_value = _values(rng, 2)
        checks.append(CheckSpec("s55_buggy", (index, first_value, contender_value)))
        checks.append(CheckSpec("twophase_drops4", ()))
    index = rng.randrange(8)
    first_value, contender_value, onepaxos_value = _values(rng, 3)
    return checks + [
        CheckSpec("s55_correct", (index, first_value, contender_value)),
        CheckSpec("s56_buggy", (onepaxos_value,)),
        CheckSpec("s56_correct", (onepaxos_value,)),
        CheckSpec("paxos_faults", (_proposal(rng),)),
    ]


def _depth_extend(rng: random.Random) -> List[CheckSpec]:
    params = (_proposal(rng),)
    depths = (4, 6, 8, 10)
    return [
        CheckSpec(
            f"fig10_d{depth}",
            params,
            extends=f"fig10_d{depths[i - 1]}" if i else None,
            save_checkpoint=True,
        )
        for i, depth in enumerate(depths)
    ]


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists, what it stresses, how it is built."""

    name: str
    why: str
    stresses: str
    bypasses: str
    generate: Callable[[random.Random], List[CheckSpec]]
    #: Whether each round replays the checks in a fresh seeded order (the
    #: closed-loop stream) or in their fixed order (a single check or a chain).
    shuffled: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "explore_opt",
            "LMC-OPT 3-node Paxos, two proposals, max_depth=4: exploration-bound, "
            "never creates a system state or verifies soundness",
            "protocols, model.hashing, network.monotonic, core.records",
            "core.soundness, core.checkpoint (OPT enumerates per new state, creates none)",
            _explore_opt,
        ),
        Workload(
            "enumerate_gen",
            "LMC-GEN 6-node Paxos, one proposal, max_depth=3: 12,287 system "
            "states from 33 transitions, so enumeration and invariants dominate",
            "core.system_states, invariants",
            "protocols, network.monotonic, core.soundness, core.checkpoint",
            _enumerate_gen,
        ),
        Workload(
            "snapshot_stream",
            "closed loop, one client: seeded mix of restart-from-snapshot checks "
            "(s5.5, s5.6, 2PC drops, crash-restart) dominated by soundness verification",
            "core.soundness, core.system_states",
            "core.checkpoint",
            _snapshot_stream,
            shuffled=True,
        ),
        Workload(
            "depth_extend",
            "Fig. 10 chain: cold d=4 with a checkpoint, then load_checkpoint -> "
            "extend_depth to d=6, 8, 10, each leg saving its snapshot",
            "core.checkpoint, core.records",
            "core.system_states, invariants, core.soundness",
            _depth_extend,
        ),
    )
}


class Inputs:
    """The generated inputs of one benchmark run: checks and their order."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise KeyError(f"unknown workload {workload!r}")
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self._rng = random.Random(seed)
        self.checks = self.workload.generate(self._rng)

    def next_round(self) -> List[CheckSpec]:
        """The checks of the next round, in the order the client sends them."""
        if not self.workload.shuffled:
            return list(self.checks)
        return self._rng.sample(self.checks, len(self.checks))
