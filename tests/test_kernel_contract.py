"""Regression guards for the event kernel's contracts.

* **Allocation:** a steady-state simulated round builds no reference
  cycles — timers carry ``(callback, arg)``, handles never reference
  themselves and unlink when they fire or are cancelled — so reference
  counting alone reclaims the kernel's garbage (``docs/PROTOCOL.md``,
  "Event-loop fast paths").
* **Bit-identity:** kernel and gossip hot-path work must not move a
  single event. Arrival times are ``now + (offset + latency)`` in
  exactly that float association; the golden hashes below were recorded
  at the commit *before* the allocation-lean kernel and fail on any
  reassociation, RNG-stream slip or reordering of same-time events.
* **A copy is an event only if it can change state:** copies whose
  receiver already holds the message are elided at transmit and as the
  in-flight walker advances. The oracle is :class:`PerCopyNetwork` —
  one ``env.schedule()`` per copy at transmit, nothing elided — against
  which chains, round records, bytes and per-kind gossip counters must
  be identical, jittered or with every arrival tied; and the golden
  run's event count stays under a recorded ceiling, so per-copy events
  cannot creep back in.
* **Lifetime:** a node's round is state that kernel callbacks advance;
  a crash or a retirement at any of its waits leaves no timer, no parked
  waiter and no open step behind.
"""

from __future__ import annotations

import dataclasses
import gc
from collections import Counter

import numpy as np
import pytest

import repro.experiments.harness as harness
from repro.baplus.context import BAContext
from repro.baplus.messages import VoteMessage
from repro.chaos import FaultAction, figure8_adversary
from repro.chaos.faults import FilterChain, Partitioner
from repro.common.params import TEST_PARAMS
from repro.experiments.spec import ExperimentSpec
from repro.ledger.arraystate import ArrayWeights
from repro.ledger.block import Block
from repro.node.config import NetworkConfig, PopulationConfig
from repro.network.gossip import GossipNetwork
from repro.network.latency import LatencyModel, UniformLatencyModel
from repro.network.message import Envelope
from repro.node.proposal import PriorityMessage
from repro.node.recovery import attach_recovery_daemons
from repro.sim.loop import Environment, Timer
from repro.sortition.roles import FINAL_STEP, RECOVERY_ROUND_BASE
from tests.fixtures import (
    chain_fingerprint,
    chain_hash,
    events_of,
    run_chaos,
    run_sim,
    run_traced,
    sent_bytes,
)

#: Unreachable objects a 10-user, 2-round run may leave for the cyclic
#: collector. The closure-based kernel left 16,925 (two per event); the
#: cycle-free one leaves 0, so the slack is for protocol layers only.
UNREACHABLE_BUDGET = 100

GOLDEN_20_USERS_2_ROUNDS = {
    1: "25505d09514688c01d75e143af869c914fcf5dc9ba4325b051af62d49d52216f",
    2: "fed5b7eb290c5401fb7b5df75fcd8e3a9f2ccb65f63ae84e7e5068f253216b56",
}

#: What the same runs cost, exactly: kernel events, copies delivered,
#: copies elided, checks the crypto backend ran (``crypto.verifies +
#: crypto.vrf_verifies``). Deterministic on any host, so a hot-path
#: regression (an extra event per message, a lost receipt) fails here
#: without a timing. The first three are read when the
#: run *stops*, with copies still in flight, and were re-recorded once
#: when the dedup store became per-node generations rolled at each
#: node's own round boundary (was: id watermarks, every node pruned at
#: node 0's commit) — 21,829/24,103/11,515 and 21,111/24,265/12,402
#: before. That moves *when* a held copy is counted (elided at transmit
#: or dropped on landing), not what is decided about it: the drained
#: totals (``DRAINED_16_USERS_4_ROUNDS``), the chains and the cache
#: lookups did not move. The cache lookups fell once, 1,403 -> 1,232 and
#: 1,482 -> 1,273, when the admission gate became the node's one message
#: gate: a current-round priority announcement is verified there only,
#: no longer again by the priority handler. They fell again, 1,232 ->
#: 852 and 1,273 -> 893, when a transaction kept its signature verdict
#: on the instance: block validation at every node reads it back
#: instead of asking the cache once per transaction per block. When
#: the deployment-wide cache went (a message's receipts are the only
#: verification memo), its look-ups, 852 and 893, gave way to the
#: backend's checks, 572 and 577: exactly the cache's misses, so every
#: hit it had made was a repeat a receipt now answers.
GOLDEN_WORK_20_USERS_2_ROUNDS = {
    1: {"events_processed": 20_573, "messages_delivered": 24_390,
        "dup_elided": 13_058, "backend_checks": 572},
    2: {"events_processed": 21_226, "messages_delivered": 23_984,
        "dup_elided": 12_006, "backend_checks": 577},
}

#: What the same runs ask of the hot path per copy: BA* contexts built,
#: weight-table lookups, content-keyed sortition-receipt questions and
#: priority-announcement checks. One context per tip per deployment, and
#: a vote weighed once per context (admission weighs it, the damper and
#: CountVotes read the receipt the shared context keys). At the commit
#: before, every node built its own context each round and each vote was
#: weighed by admission, again by the damper and again on every
#: CountVotes pass: 40 / 12,637 / 11,935 (seed 1) and 40 / 13,448 /
#: 12,670 (seed 2). A priority announcement is verified once, by the
#: node's one message gate: while the priority handler verified every
#: current-round announcement again, this run made 382 (seed 1) and 458
#: (seed 2) ``PriorityMessage.verify`` calls and 980 / 1,055 weight
#: lookups.
GOLDEN_CALLS_20_USERS_2_ROUNDS = {
    1: {"BAContext.from_weights": 2, "ArrayWeights.get": 809,
        "VoteMessage.committee_votes": 278, "PriorityMessage.verify": 211},
    2: {"BAContext.from_weights": 2, "ArrayWeights.get": 846,
        "VoteMessage.committee_votes": 277, "PriorityMessage.verify": 249},
}


#: Two schedules a cheaper event must not move, ``(chain_hash,
#: events_processed)`` recorded at the commit before the uplink and
#: CountVotes stopped resuming a generator per message. *Lattice
#: time:* uniform latency plus bandwidth puts arrivals on a lattice, so
#: a vote that crosses a threshold ties with earlier arrivals and with
#: the node's own egress drain — dropping the per-arrival wake-up moves
#: the step relative to that drain and commits other round records.
LATTICE_TIME_16_USERS_3_ROUNDS = {
    5: ("d858e4ac94bcc5cf82b49f0c59b6a77a6012585597d1c887313199c83a2b85f8",
        15_243),
    7: ("a3330d0c84f8dcdc38164890478577d03185f767a17af450022d2b853f9d7f8f",
        15_609),
}
#: *Together-timeout:* λ_step = 0.12 s makes most steps time out, on
#: many nodes at instants an ulp apart (49 / 39 / 53 non-final
#: ``(node, round)``s). A deadline that stops re-arming after each
#: vote, or re-arms with another float than ``deadline - now``, changes
#: which of them fires first.
TOGETHER_TIMEOUT_24_USERS_3_ROUNDS = {
    1: ("aa7283bca863ab81432582b36b8f1813a8e2ed3384f12eee98ecf29d96ba85f3",
        80_083),
    5: ("00ba10d1f09096e81c13d5ab92a70244ec793e4b6569089ce85975ff58645b7b",
        50_209),
    7: ("df4807c630dbe1d5bf841546930288295c56f35736a91ede7578c268d3fa435d",
        51_833),
}

#: Three deployments the pool-backed builder had never stood up when
#: ``Population`` became the only way to build a sim node, ``(chain_hash,
#: events_processed)`` recorded at the commit before it did (dict-backed
#: ledger, nodes built by the harness's own loop). *Observers:* two
#: zero-stake slots past the users.
OBSERVERS_20_USERS_2_ROUNDS = {
    1: ("98415f95edf073480e1b6b86805742db990bbc8aad779a50b15be73d1f508462",
        23_146),
    2: ("17cfdf49ed20ef032b091940f1921aacfacaa249fe821664620b74375b4c5105",
        23_936),
}
#: *Byzantine stake:* the Figure 8 adversary on the four highest user
#: slots — the point at 20 %, as whole-run ``equivocate`` +
#: ``double-vote`` actions. A faulted core catches up over gossip: on
#: seed 1 only node 18 commits round 2 itself, and the 19 others halt and
#: adopt its chain through served requests (with no catch-up they ended
#: at heights 0 and 1). Seed 2 sends requests nobody needs to answer and
#: keeps its chain; the probes and polls add events. Seed 2 was
#: re-recorded when the network-wide quarantine went: the honest tip is
#: unchanged, and the four attackers, no longer cut out of the topology,
#: now commit round 2 too (heights ``[2] * 20``, not ``[2] * 16 + [1] *
#: 4``), in 23 simulated seconds instead of 196.
MALICIOUS_4_OF_20_USERS_2_ROUNDS = {
    1: ("958057876ead195016e9d0822f0df9c174bc5e1de335c4cca0bebc127c53fb5f",
        63_953),
    2: ("b68509444747f079cb1f5d4517cc238af1f149626e3b8a762990cf106f1525fb",
        28_545),
}
#: *Crash, restart, resync:* node 2 is down from t = 1 s to t = 8 s and
#: can only converge by adopting its peers' replayed history twice, each
#: time as the answer to its own ``chainreq``, payments in the blocks.
CRASH_RESYNC_8_USERS_2_ROUNDS = {
    5: ("6ba7a423514dadde0ea87923a54a0fc312aafc32195d46c6b127cfa9817930f9",
        5_011),
    6: ("e24b22e86f842dbc0e99b1c4246d7207f8caa1f99df57a256c7f499ff646ddfa",
        5_145),
}

#: Four deployments whose waits no pin above reaches, ``(chain_hash,
#: events_processed)`` recorded at the commit before every protocol wait
#: became a kernel callback. *Pipelined:* the final-vote counts that run
#: on in the background while the next round starts.
PIPELINED_20_USERS_3_ROUNDS = {
    1: ("27d57adf977f8cbb03213ca9bf3de14259f8bb8e964b5424050d64e1c7f9cdfe",
        26_614),
    2: ("f5769390be992593fe5d0228bc71dc210452fc069e2d8d7662dc07de1c2e11bf",
        26_143),
}
#: *Churning population:* 150 accounts on a 16-agent core — transients
#: whose target is raised while mid-round restart when their run ends,
#: and those retired mid-round are cut off at their current wait.
AGGREGATED_150_ACCOUNTS_3_ROUNDS = {
    1: ("e34f918d774f2f22312cad45f009e5dc7562c904392f975207f5fc7b94b8341a",
        180_767),
    2: ("2e41fe7e2b4c93a6901ba4210a4da4a4c5ad9e522098978ed12d8a5b03d21791",
        150_104),
}
#: *Recovery:* a partition exhausts MaxSteps on both sides, every node
#: halts, and the clock-driven daemons' sessions (section 8.2) agree on a
#: fork and resume the round.
RECOVERY_DAEMONS_12_USERS = {
    91: ("7aaa943fd8ae8519987f6c75c88deb703db5327bf48d60eb8ad59eb222374756",
        15_408),
    92: ("c93c072c75a4ebb175dfd7a3db6e09f00f1c43399c16cfd98d5a1681ddca7c62",
        19_495),
}
#: *Junk voters:* two of ten users run the ``flood`` (96 votes/s) or
#: ``spam`` (32 votes/s) loop from t = 0.5 s to the end of the run beside
#: their honest round. Recorded through the ``FaultInjector`` of the
#: commit before the attacker kinds could last the whole run; no honest
#: node asks for a chain, so the chains stand. The events the catch-up
#: adds are its probes. The ``flood`` pins were re-recorded when the
#: network-wide quarantine went: the honest tips are unchanged, and the
#: two flooders, blocked only at the honest gates they reach, commit
#: round 2 as well instead of polling for 190 s, cut off, at height 1.
JUNK_RATES = {"flood": 96.0, "spam": 32.0}
JUNK_VOTERS_2_OF_10_USERS_2_ROUNDS = {
    ("flood", 1): (
        "b392129282095572b10ff80e12f953553700397e518c2ba4ef638893e731af34",
        11_888),
    ("flood", 2): (
        "5b1ffc8eb9f0c31544131ed84afdbe02659b87492914259e969d4334cd965072",
        10_315),
    ("spam", 1): (
        "3414d60ec75bb1cb8a58e3e44ef5fa7599fd2839ccedc71d2c59d508d4cbad5c",
        14_847),
    ("spam", 2): (
        "f1a0f5fee31bcc1ca06687616219714aa471ee7027cab6ab226dd9dc28d74815",
        15_143),
}


def test_simulated_rounds_leave_no_cyclic_garbage():
    sim = run_sim(0, payments=5, num_users=10, seed=1)
    gc.collect()
    gc.disable()
    try:
        sim.run_rounds(2)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert sim.all_chains_equal()
    assert unreachable < UNREACHABLE_BUDGET


@pytest.mark.parametrize("seed", sorted(GOLDEN_20_USERS_2_ROUNDS))
@pytest.mark.parametrize("population", [
    PopulationConfig(),
    PopulationConfig(mode="aggregated", always_on_core=20),
], ids=["full", "aggregated-covering-core"])
def test_golden_chain_hash(seed, population):
    sim = run_sim(2, payments=10, num_users=20, seed=seed,
                  population=population)
    assert chain_hash(sim) == GOLDEN_20_USERS_2_ROUNDS[seed]
    summary = sim.summary()
    assert {
        "events_processed": summary["simloop.events_processed"],
        "messages_delivered": summary["network.messages_delivered"],
        "dup_elided": summary["gossip.dup_elided"],
        "backend_checks": (summary["crypto.verifies"]
                           + summary["crypto.vrf_verifies"]),
    } == GOLDEN_WORK_20_USERS_2_ROUNDS[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_20_USERS_2_ROUNDS))
def test_golden_run_pays_once_per_copy(monkeypatch, seed):
    calls: Counter = Counter()

    def count(cls, name, bind=lambda function: function):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, bind(counted))

    # from_weights is a classmethod: its bound original takes no cls.
    count(BAContext, "from_weights", bind=staticmethod)
    count(ArrayWeights, "get")
    count(VoteMessage, "committee_votes")
    count(PriorityMessage, "verify")
    sim = run_sim(2, payments=10, num_users=20, seed=seed)
    assert chain_hash(sim) == GOLDEN_20_USERS_2_ROUNDS[seed]
    assert dict(calls) == GOLDEN_CALLS_20_USERS_2_ROUNDS[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_20_USERS_2_ROUNDS))
def test_one_count_per_fact(seed):
    """Each fact about an arriving copy has one count, kept by the layer
    that decides it: the relay core keeps what the gate admits and drops
    what it rejects, the damper's suppressions are the core's damped
    relays, and no router counter shadows ``gossip.*``."""
    sim, bus = run_traced(2, payments=10, num_users=20, seed=seed)
    assert chain_hash(sim) == GOLDEN_20_USERS_2_ROUNDS[seed]
    counters = sim.summary()["obs"]["counters"]

    def total(prefix: str) -> int:
        return sum(value for name, value in counters.items()
                   if name.startswith(prefix))

    assert total("gossip.recv.") == counters["admission.admitted"] > 0
    assert (counters["gossip.ingress_rejected"]
            == total("admission.rejected.") > 0)
    assert counters["gossip.damped.vote"] == counters["damping.suppressed"]
    assert not [name for name in counters if name.startswith(
        ("router.dispatch.", "router.relayed.", "router.denied."))]


@pytest.mark.parametrize("seed", sorted(LATTICE_TIME_16_USERS_3_ROUNDS))
def test_lattice_time_schedule(seed):
    sim = run_sim(3, payments=8, num_users=16, seed=seed,
                  network=NetworkConfig(latency_model="uniform"))
    assert ((chain_hash(sim), sim.env.events_processed)
            == LATTICE_TIME_16_USERS_3_ROUNDS[seed])


@pytest.mark.parametrize("seed", sorted(TOGETHER_TIMEOUT_24_USERS_3_ROUNDS))
def test_together_timeout_schedule(seed):
    sim = run_sim(3, payments=8, num_users=24, seed=seed,
                  params=dataclasses.replace(TEST_PARAMS, lambda_step=0.12))
    assert ((chain_hash(sim), sim.env.events_processed)
            == TOGETHER_TIMEOUT_24_USERS_3_ROUNDS[seed])


@pytest.mark.parametrize("seed", sorted(OBSERVERS_20_USERS_2_ROUNDS))
def test_observers_schedule(seed):
    sim = run_sim(2, payments=10, num_users=20, seed=seed, num_observers=2)
    assert [node.chain.height for node in sim.observers] == [2, 2]
    assert ((chain_hash(sim), sim.env.events_processed)
            == OBSERVERS_20_USERS_2_ROUNDS[seed])


@pytest.mark.parametrize("seed", sorted(MALICIOUS_4_OF_20_USERS_2_ROUNDS))
def test_malicious_stake_schedule(seed):
    sim = harness.Simulation(
        harness.SimulationConfig(num_users=20, seed=seed),
        faults=figure8_adversary(range(16, 20)))
    sim.submit_payments(20, note_bytes=20)
    sim.run_rounds(2)
    assert ["propose_block" in vars(node) for node in sim.nodes] \
        == [False] * 16 + [True] * 4
    assert ((chain_hash(sim), sim.env.events_processed)
            == MALICIOUS_4_OF_20_USERS_2_ROUNDS[seed])


@pytest.mark.parametrize("seed", sorted(CRASH_RESYNC_8_USERS_2_ROUNDS))
def test_crash_resync_schedule(seed):
    verdict, sim = run_chaos(ExperimentSpec(
        "chaos", harness.SimulationConfig(num_users=8, seed=seed),
        rounds=2, payments=((8, 0),),
        faults=(FaultAction(kind="crash", start=1.0, end=8.0, nodes=(2,)),)))
    assert verdict.ok, verdict.violations
    assert [(event["node"], event["to_height"])
            for event in events_of(sim.obs, "catchup_adopted")] \
        == [(2, 1), (2, 2)]
    assert ((chain_hash(sim), sim.env.events_processed)
            == CRASH_RESYNC_8_USERS_2_ROUNDS[seed])


@pytest.mark.parametrize("seed", sorted(PIPELINED_20_USERS_3_ROUNDS))
def test_pipelined_final_schedule(seed):
    sim = run_sim(3, payments=10, num_users=20, seed=seed,
                  params=dataclasses.replace(TEST_PARAMS,
                                             pipeline_final_step=True))
    assert ((chain_hash(sim), sim.env.events_processed)
            == PIPELINED_20_USERS_3_ROUNDS[seed])


@pytest.mark.parametrize("seed", sorted(AGGREGATED_150_ACCOUNTS_3_ROUNDS))
def test_churning_population_schedule(seed):
    sim = run_sim(3, num_users=150, seed=seed,
                  params=TEST_PARAMS.scaled(0.25),
                  population=PopulationConfig(mode="aggregated",
                                              always_on_core=16))
    assert sim.population.stats()["retired_total"] > 0
    assert ((chain_hash(sim), sim.env.events_processed)
            == AGGREGATED_150_ACCOUNTS_3_ROUNDS[seed])


@pytest.mark.parametrize("seed", sorted(RECOVERY_DAEMONS_12_USERS))
def test_recovery_daemon_schedule(seed):
    params = dataclasses.replace(
        TEST_PARAMS, max_steps=9, lambda_step=1.0, lambda_block=2.0,
        lambda_priority=0.5, lambda_stepvar=0.5, recovery_interval=30.0)
    sim = harness.Simulation(harness.SimulationConfig(
        num_users=12, seed=seed, params=params))
    Partitioner(FilterChain(sim.network), [set(range(6)), set(range(6, 12))]
                ).schedule(sim.env, start=0.0, end=40.0)
    daemons = attach_recovery_daemons(sim.nodes, skew_per_node=0.01,
                                      resume_target=1)
    for node in sim.nodes:
        node.start(1)
    sim.env.run(until=25.0)
    assert all(node.halted for node in sim.nodes)
    sim.env.run(until=200.0)
    assert [daemon.recoveries for daemon in daemons] == [1] * 12
    assert ((chain_hash(sim), sim.env.events_processed)
            == RECOVERY_DAEMONS_12_USERS[seed])


@pytest.mark.parametrize("kind,seed", sorted(JUNK_VOTERS_2_OF_10_USERS_2_ROUNDS))
def test_junk_voter_schedule(kind, seed):
    sim = harness.Simulation(
        harness.SimulationConfig(num_users=10, seed=seed),
        faults=[FaultAction(kind=kind, start=0.5, nodes=(8, 9),
                            rate=JUNK_RATES[kind])])
    sim.submit_payments(5)
    sim.run_rounds(2)
    assert [node.catchup.requests_sent for node in sim.nodes[:8]] == [0] * 8
    assert ((chain_hash(sim), sim.env.events_processed)
            == JUNK_VOTERS_2_OF_10_USERS_2_ROUNDS[kind, seed])


# ---------------------------------------------------------------------------
# Lifetime: a stopped round leaves nothing behind
# ---------------------------------------------------------------------------

def _proposal_wait(node) -> bool:
    return (node._timer is not None
            and node._timer.callback == node._proposal_wake)


def _queued(node, callback) -> bool:
    return any(timer.callback == callback for timer in node.env._immediate)


#: Each wait a node's round can stand in, as "the victim waits there now";
#: ``proposal_pulsed`` is the proposal wait with both of its wake-ups
#: already queued, ``*_queued`` a start that has not fired yet.
WAITS = {
    "run_queued": lambda node: _queued(node, node._begin_run),
    "final_queued": lambda node: _queued(node, node._count_final),
    "proposal_sleep": lambda node: (node._timer is not None and
                                    node._timer.callback
                                    == node._proposal_window),
    "proposal_wait": _proposal_wait,
    "proposal_pulsed": _proposal_wait,
    "step_count": lambda node: any(count.key[1] != FINAL_STEP
                                   for count in node.participant.counts),
    "pipelined_final": lambda node: any(count.key[1] == FINAL_STEP
                                        for count in node.participant.counts),
    "resync_patience": lambda node: _catchup_wait(node, "BA"),
    "rejoin_wait": lambda node: _catchup_wait(node, "IDLE"),
}


def _catchup_wait(node, phase: str) -> bool:
    """Polling the catch-up: after a round without consensus (BA), or
    before a restarted node's first round (IDLE)."""
    return (node._timer is not None and node.phase == phase
            and node._timer.callback == node._await_catchup)


class _SilentCatchUp:
    """A catch-up that never holds anything: a wait polls to its end."""

    poll_interval, halt_polls, rejoin_polls = 5.0, 3, 3

    def take_pending(self):
        return None

    def request(self) -> None:
        pass


def _owned_timers(env: Environment, node) -> list[Timer]:
    """Live timers that would call back into ``node`` or its counts."""
    handles = [entry[2] for entry in env._heap] + list(env._immediate)
    owners = [(handle, getattr(handle.callback, "__self__", None))
              for handle in handles
              if isinstance(handle, Timer) and not handle.cancelled]
    return [handle for handle, owner in owners
            if owner is node or getattr(owner, "part", None)
            is node.participant]


def _parked_waiters(node) -> list:
    return ([waiter for waiters in node.buffer._parked.values()
             for waiter in waiters]
            + [waiter for tracker in node._trackers.values()
               for waiter in tracker.on_priority + tracker.on_block])


@pytest.mark.parametrize("stop", ["crash", "retire"])
@pytest.mark.parametrize("wait", sorted(WAITS))
def test_a_stopped_round_leaves_nothing_behind(wait, stop):
    """Crash or retire a node at each wait kind: no timer, no parked
    waiter survives, every open step exits ``interrupted``, and the node
    never moves again."""
    params = dataclasses.replace(
        TEST_PARAMS, max_steps=4,
        pipeline_final_step=wait in ("pipelined_final", "final_queued"))
    sim, bus = run_traced(0, payments=5, num_users=10, seed=1, params=params)
    victim = sim.nodes[3]
    if wait in ("proposal_wait", "proposal_pulsed", "resync_patience",
                "rejoin_wait"):
        # Cut off, it waits out the proposal (unless it holds its own)
        # and then every step.
        victim.interface.disconnected = True
        victim.catchup = _SilentCatchUp()
    if wait.startswith("proposal_"):
        victim.propose_block = lambda *args: None
    for node in sim.nodes:
        node.start(3)
    if wait == "rejoin_wait":
        victim.crash()

        def restart() -> None:
            victim.revive()
            victim.rejoin(3)
        sim.env.schedule(1.0, restart)
    sim.env.run(until=200.0, stop_when=lambda: WAITS[wait](victim))
    assert WAITS[wait](victim)
    if wait == "proposal_pulsed":
        # A new best priority and a new block in one instant: two
        # wake-ups queued, of which at most one may act.
        tracker, now = victim._round.tracker, sim.env.now
        tracker.observe_priority(PriorityMessage(
            proposer=b"p" * 32, round_number=tracker.round_number,
            vrf_hash=bytes(32), vrf_proof=bytes(80), sub_users=1,
            priority=b"\xff" * 32), sim.env)
        tracker.observe_block(Block(
            round_number=tracker.round_number,
            prev_hash=victim.chain.tip_hash, timestamp=now,
            proposer=b"q" * 32), sim.env)
        assert [timer.callback for timer in sim.env._immediate][-2:] \
            == [victim._proposal_wake] * 2
    open_steps = sorted(count.key for count in victim.participant.counts
                        if count.key[0] < RECOVERY_ROUND_BASE)
    assert bool(open_steps) == (wait in ("step_count", "pipelined_final"))

    getattr(victim, stop)()
    assert victim.phase == {"crash": "CRASHED", "retire": "RETIRED"}[stop]
    assert not victim.running and not victim.participant.counts
    sim.env.run(until=sim.env.now)  # what this instant still had queued
    assert not _owned_timers(sim.env, victim)
    assert not _parked_waiters(victim)
    assert [(event["round"], event["step"])
            for event in events_of(bus, "step_exit")
            if event["node"] == victim.index
            and event.get("interrupted")] == open_steps

    stopped_at = len(bus.events)
    sim.env.run(until=sim.env.now + 30.0)
    assert not [event for event in bus.events[stopped_at:]
                if event.get("node") == victim.index
                and event["kind"] in ("round_start", "step_enter",
                                      "vote_cast")]
    assert not _owned_timers(sim.env, victim)


# ---------------------------------------------------------------------------
# Elision: the per-copy oracle
# ---------------------------------------------------------------------------

#: ``env.events_processed`` per round of the golden 20-user run may not
#: exceed this. Recorded: 10,286.5 (seed 1) / 10,613 (seed 2) with
#: duplicate copies elided; 16,490.5 / 15,902.5 when every copy is an
#: event.
EVENTS_PER_ROUND_CEILING = 12_500


class PerCopyNetwork(GossipNetwork):
    """The oracle: one ``env.schedule()`` per copy, nothing elided.

    It overrides the one egress pass an urgent-lane batch goes through
    with the plainest multi-pass version of it: count, serialize, draw,
    schedule each copy.
    """

    def _transmit(self, sender, item):
        for delay in self._shaped_delays(sender.index, item):
            self.env.schedule(delay, sender._land, item)

    def _transmit_batch(self, sender, batch):
        offset, offsets = 0.0, []
        for envelope, _ in batch:
            sender._count_sent(envelope, 1)
            if self.bandwidth_bps is not None:
                offset += envelope.size * 8.0 / self.bandwidth_bps
            offsets.append(offset)
        src = sender.index
        if self.drop_filter is None and self.link_shaper is None:
            delays = [[latency] for latency in self.latency_model.latencies(
                src, [dst for _, dst in batch])]
        else:
            delays = [self._shaped_delays(src, item) for item in batch]
        for offset, item, shaped in zip(offsets, batch, delays):
            for delay in shaped:
                self.env.schedule(offset + delay, sender._land, item)
        return offsets[-1]


def _gossip_counters(bus) -> dict:
    counters = bus.metrics.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith(("gossip.recv.", "gossip.relayed.",
                                "gossip.dup_dropped"))}


#: What a *drained* 16-user, 4-round run decided about every copy it
#: carried, recorded at the commit before the dedup store moved from id
#: watermarks to per-node generations: who prunes what, and when, may
#: move the instant a copy is counted (and so the stop-time numbers in
#: ``GOLDEN_WORK_20_USERS_2_ROUNDS``), never what is decided about it.
DRAINED_16_USERS_4_ROUNDS = {
    "messages_delivered": 34_101,
    "gossip.dup_dropped": 24_756,
    "gossip.ingress_rejected": 2_951,
    "gossip.sent.block": 564, "gossip.sent.priority": 1_425,
    "gossip.sent.tx": 1_140, "gossip.sent.vote": 30_972,
    "gossip.recv.block": 184, "gossip.recv.priority": 225,
    "gossip.recv.tx": 180, "gossip.recv.vote": 5_805,
    "gossip.relayed.block": 78, "gossip.relayed.priority": 225,
    "gossip.relayed.tx": 180, "gossip.relayed.vote": 4_744,
}


def test_drained_run_decides_the_same_about_every_copy():
    sim, bus = run_traced(4, payments=12, num_users=16, seed=5)
    sim.env.run()
    counters = bus.metrics.snapshot()["counters"]
    drained = {name: value for name, value in counters.items()
               if name.startswith(("gossip.sent.", "gossip.recv.",
                                   "gossip.relayed.", "gossip.dup_dropped",
                                   "gossip.ingress_rejected"))}
    drained["messages_delivered"] = sim.network.messages_delivered
    assert drained == DRAINED_16_USERS_4_ROUNDS


@pytest.mark.parametrize("network", [
    NetworkConfig(),
    NetworkConfig(latency_model="uniform", bandwidth_bps=None),
    NetworkConfig(latency_model="uniform"),
], ids=["jittered-city", "every-arrival-ties", "ties-across-rearms"])
def test_elision_matches_per_copy_oracle(monkeypatch, network):
    def run():
        sim, bus = run_traced(2, payments=8, num_users=16, seed=5,
                              network=network)
        # Let what is still on the wire land, so both sides have counted
        # every copy (an elided copy is counted when it is decided).
        sim.env.run()
        return sim, bus

    elided, elided_bus = run()
    monkeypatch.setattr(harness, "GossipNetwork", PerCopyNetwork)
    oracle, oracle_bus = run()
    assert isinstance(oracle.network, PerCopyNetwork)
    assert oracle.network.dup_elided == 0 < elided.network.dup_elided
    assert chain_fingerprint(elided) == chain_fingerprint(oracle)
    assert (sent_bytes(elided.network)
            == sent_bytes(oracle.network))
    assert _gossip_counters(elided_bus) == _gossip_counters(oracle_bus)
    assert (elided.network.messages_delivered
            == oracle.network.messages_delivered)
    assert elided.env.events_processed < oracle.env.events_processed


@pytest.mark.parametrize("seed", sorted(GOLDEN_20_USERS_2_ROUNDS))
def test_golden_run_event_count_ceiling(seed):
    sim = run_sim(2, payments=10, num_users=20, seed=seed)
    assert sim.env.events_processed / 2 <= EVENTS_PER_ROUND_CEILING


def _bare(network_class, num_nodes=12, seed=3, bandwidth=1e6,
          latency_model=None, horizon=2):
    env = Environment()
    rng = np.random.default_rng(seed)
    if latency_model is None:
        latency_model = LatencyModel(num_nodes, rng)
    net = network_class(env, num_nodes, rng, latency_model,
                        bandwidth_bps=bandwidth,
                        seen_horizon_rounds=horizon)
    return env, net


def _flood(network_class, scenario):
    """Run ``scenario(env, net)`` on a bare network; what every node saw."""
    env, net = _bare(network_class)
    log: list[tuple] = []
    for index, interface in enumerate(net.interfaces):
        def accept(envelope, from_index, index=index):
            log.append((env.now, index, envelope.kind))
            return True
        interface.on_receive = accept
    scenario(env, net)
    env.run()
    return (log, sent_bytes(net), net.messages_delivered,
            net.rng.bit_generator.state)


def _both(scenario):
    return _flood(GossipNetwork, scenario), _flood(PerCopyNetwork, scenario)


def _envelope(kind="vote", size=200):
    return Envelope(origin=b"o", kind=kind, payload=None, size=size)


def test_the_oracle_replaces_the_one_egress_pass():
    """Every urgent-lane copy leaves through ``_transmit_batch``: with
    the oracle's override in place nothing is ever batched."""
    env, net = _bare(PerCopyNetwork)
    for k in range(5):
        net.interfaces[k].broadcast(_envelope(f"m{k}"))
    env.run()
    assert net.messages_delivered > 0
    assert env.batch_walks == env.batch_deliveries == 0


class TestElisionEdgeCases:
    def test_receiver_crash_with_copies_in_flight(self):
        def scenario(env, net):
            victim = net.interfaces[0].neighbors[0]
            for k in range(4):
                net.interfaces[0].broadcast(_envelope(f"m{k}"))
            env.schedule(0.02, lambda: setattr(
                net.interfaces[victim], "disconnected", True))
            env.schedule(0.4, lambda: setattr(
                net.interfaces[victim], "disconnected", False))
            env.schedule(0.4, lambda: net.interfaces[3].broadcast(
                _envelope("late")))

        elided, oracle = _both(scenario)
        assert elided == oracle

    @pytest.mark.parametrize("shape", ["duplicate", "reorder", "loss"])
    def test_link_shaper_faults_stay_reproducible(self, shape):
        def scenario(env, net):
            chaos = np.random.default_rng(11)

            def shaper(src, dst, envelope, delay):
                draw = chaos.random()
                if shape == "duplicate":
                    return [delay, delay + 0.05] if draw < 0.3 else [delay]
                if shape == "reorder":
                    return [delay + (0.2 if draw < 0.3 else 0.0)]
                return [] if draw < 0.2 else [delay]
            net.link_shaper = shaper
            net.drop_filter = lambda src, dst, envelope: chaos.random() < 0.05
            for k in range(5):
                net.interfaces[k].broadcast(_envelope(f"m{k}"))
                net.interfaces[k].broadcast(_envelope(f"b{k}", size=50_000))

        elided, oracle = _both(scenario)
        assert elided == oracle
        assert _flood(GossipNetwork, scenario) == elided

    def test_id_held_only_by_an_older_generation_is_not_elided(self):
        env, net = _bare(GossipNetwork, latency_model=UniformLatencyModel(0.01))
        sender, receiver = net.interfaces[0], net.interfaces[
            net.interfaces[0].neighbors[0]]
        old = _envelope()
        receiver._seen.add(old.msg_id)
        item = (old, receiver.index)
        assert sender._elide(item)
        # One boundary later the id is still held, but a coming boundary
        # may forget it: the copy must be simulated, not decided early.
        receiver.end_round()
        assert receiver.holds(old.msg_id)
        assert old.msg_id not in receiver._seen
        assert not sender._elide(item)
        fresh = _envelope()
        receiver._seen.add(fresh.msg_id)
        assert sender._elide((fresh, receiver.index))
        # ... and it outlives ``seen_horizon_rounds`` more boundaries.
        for _ in range(net.seen_horizon_rounds):
            receiver.end_round()
            assert receiver.holds(fresh.msg_id)
        assert not receiver.holds(old.msg_id)

    def test_pruned_id_is_accepted_again_like_the_oracle(self):
        def scenario(env, net):
            first = _envelope("first")
            net.interfaces[0].broadcast(first)
            for boundary in range(4):
                for interface in net.interfaces:
                    env.schedule(1.0 + boundary, interface.end_round)
            # A straggling copy of the long-forgotten message.
            env.schedule(6.0, lambda: net.interfaces[1]._send(
                first, net.interfaces[1].neighbors))

        elided, oracle = _both(scenario)
        assert elided == oracle
        # Re-accepted once by whoever the straggler reached.
        accepted = [node for _, node, kind in elided[0] if kind == "first"]
        assert max(accepted.count(node) for node in accepted) == 2

    def test_whole_batch_elided_schedules_nothing(self):
        env, net = _bare(GossipNetwork)
        sender = net.interfaces[0]
        envelope = _envelope()
        for neighbor in sender.neighbors:
            net.interfaces[neighbor]._seen.add(envelope.msg_id)
        draws_before = net.rng.bit_generator.state
        sender.broadcast(envelope)
        env.run()
        copies = len(sender.neighbors)
        assert env.batch_walks == env.batch_deliveries == 0
        assert net.dup_elided == net.messages_delivered == copies
        # The sender still paid: uplink bytes and one latency draw each.
        assert sender.bytes_sent == copies * envelope.size
        assert sender.messages_sent == copies
        assert net.rng.bit_generator.state != draws_before
