"""One description of a deployment, one builder of a node.

:mod:`repro.node.deployment` is the only place keys, genesis and the
node stack are derived, so the substrates cannot drift apart again:

* the sim harness and a live node process, given one config, hold the
  same keys, genesis seed and genesis ledger (zero balances included);
* a live node runs on the config its coordinator was given — the whole
  of it, through ``SimulationConfig.to_json`` — not on defaults of its
  own (the admission budgets and ``conformance`` once never reached
  the process);
* both substrates draw payments from one schedule, and gossip over
  one peer graph;
* a finished run reads the same on both: a live process's ``result``
  record rebuilds exactly the run a sim reads off its node.

Everything here is in-process: a ``NodeProcess`` is built from the
config file its cluster would write, but nothing listens or dials.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.crypto.backend import FastBackend
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import NetworkConfig, RuntimeConfig, SubstrateConfig
from repro.live.cluster import LIVE_SMOKE_PARAMS, LiveCluster, gossip_neighbors
from repro.live.node_main import NodeProcess
from repro.node.deployment import NodeRun, derive_genesis, payment_plan


def _live(**fields) -> SimulationConfig:
    return SimulationConfig(params=LIVE_SMOKE_PARAMS,
                            substrate=SubstrateConfig(kind="live"), **fields)


def _node_process(config: SimulationConfig, tmp_path, index: int = 0
                  ) -> NodeProcess:
    """The process ``LiveCluster`` would spawn for ``index``, unstarted."""
    cluster = LiveCluster(config)
    cluster.runtime_dir = tmp_path
    process = NodeProcess(cluster._node_config(index, control="unused"))
    process.node = process._build_node()
    return process


class TestLiveHonoursItsConfig:
    def test_runtime_group_reaches_the_node(self, tmp_path):
        process = _node_process(_live(
            num_users=4, initial_balance=50,
            runtime=RuntimeConfig(vote_buffer_budget=7,
                                  flood_budget_per_round=9)),
            tmp_path)
        node = process.node
        assert node.buffer.budget_messages == 7
        assert node.admission.flood_budget_per_round == 9
        process.bus.close()

    def test_defaults_match_the_sim_stack(self, tmp_path):
        process = _node_process(_live(num_users=4, initial_balance=50),
                                tmp_path)
        node = process.node
        assert isinstance(node.backend, FastBackend)
        assert node.damper is not None
        assert (node.buffer.budget_messages
                == RuntimeConfig().vote_buffer_budget)
        # Traced, but checked once per run, by the coordinator over the
        # merged trace: the process's only sink is its trace file.
        assert process.bus._sinks == [process.sink]
        process.bus.close()

    def test_layers_switch_off(self, tmp_path):
        process = _node_process(_live(
            num_users=4, initial_balance=50,
            runtime=RuntimeConfig(relay_damping=False)), tmp_path)
        assert process.node.damper is None
        # The gate is not a layer: every node judges its copies.
        assert process.transport.on_receive == process.node.receive
        process.bus.close()

    def test_trace_opens_at_the_end_of_start_up(self, tmp_path):
        """``bench/hooks/sitecustomize.py`` takes the ``open`` of
        ``trace-<index>.jsonl`` as the end of start-up."""
        process = _node_process(_live(num_users=3, initial_balance=70),
                                tmp_path, index=2)
        assert (tmp_path / "trace-2.jsonl").exists()
        process.bus.close()


class TestOneGenesis:
    CONFIG = dict(num_users=4, seed=9, balances=[60, 0, 70, 70])

    def test_sim_and_live_derive_the_same_genesis(self, tmp_path):
        sim = Simulation(SimulationConfig(**self.CONFIG))
        process = _node_process(_live(**self.CONFIG), tmp_path, index=2)
        assert process.genesis.keypairs == sim.keypairs
        assert process.genesis.seed == sim.genesis_seed
        live_chain, sim_chain = process.node.chain, sim.nodes[2].chain
        assert live_chain.initial_balances == sim_chain.initial_balances
        assert live_chain.genesis_seed == sim_chain.genesis_seed
        assert live_chain.tip_hash == sim_chain.tip_hash
        process.bus.close()

    def test_zero_balance_accounts_hold_keys_but_no_ledger_entry(self):
        genesis = derive_genesis(SimulationConfig(**self.CONFIG),
                                 FastBackend())
        broke = genesis.keypairs[1].public
        assert broke not in genesis.initial_balances
        assert genesis.index_of.get(broke) == 1
        assert sorted(genesis.initial_balances.values()) == [60, 70, 70]

    def test_observers_are_appended_with_zero_stake(self):
        genesis = derive_genesis(
            SimulationConfig(num_users=3, num_observers=2), FastBackend())
        assert len(genesis.keypairs) == 5
        assert [genesis.initial_balances.get(kp.public, 0)
                for kp in genesis.keypairs] == [10, 10, 10, 0, 0]


class TestOneOutcome:
    @pytest.fixture(scope="class")
    def outcome(self):
        sim = Simulation(SimulationConfig(num_users=6, seed=4))
        sim.submit_payments(6)
        sim.run_rounds(2)
        return sim.outcome()

    def test_a_result_record_rebuilds_the_run(self, outcome):
        for index, run in outcome.runs.items():
            assert NodeRun.from_record(index, run.to_record()) == run

    def test_the_outcome_reads_one_chain(self, outcome):
        assert outcome.heights == [2] * 6
        assert outcome.chains_equal()
        for round_number in (1, 2):
            assert len(outcome.agreed_hashes(round_number)) == 1
            assert len(outcome.round_latencies(round_number)) == 6
        assert outcome.agreed_hashes(3) == set()


class TestPaymentPlan:
    def test_round_robin_senders_never_pay_themselves(self):
        plan = list(payment_plan(np.random.default_rng(3), 5, 40))
        assert [sender for sender, _ in plan] == [k % 5 for k in range(40)]
        assert all(sender != recipient and 0 <= recipient < 5
                   for sender, recipient in plan)

    def test_insolvent_senders_are_skipped_before_the_draw(self):
        """The sim shares its RNG with the network model: a skipped
        sender must not consume a draw."""
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        plan = list(payment_plan(rng, 4, 8, can_pay=lambda s: s != 1))
        assert [sender for sender, _ in plan] == [0, 2, 3, 0, 2, 3]
        for _ in range(6):
            reference.integers(3)
        assert rng.integers(1 << 30) == reference.integers(1 << 30)

    def test_a_lone_user_has_nobody_to_pay(self):
        assert list(payment_plan(np.random.default_rng(0), 1, 5)) == []

    def test_each_live_node_submits_its_own_share(self, tmp_path):
        config = _live(num_users=4, seed=6, initial_balance=50)
        plan = list(payment_plan(np.random.default_rng(6), 4, 10))
        for index in (0, 3):
            process = _node_process(config, tmp_path, index=index)
            node, keys = process.node, process.genesis.keypairs
            process._submit_payments(node, [(10, 0)])
            mine = [keys[recipient].public for sender, recipient in plan
                    if sender == index]
            assembled = node.mempool.assemble(node.chain.state, 10**6)
            assert [tx.sender for tx in assembled] == (
                [keys[index].public] * len(mine))
            assert [tx.recipient for tx in assembled] == mine
            assert [tx.nonce for tx in assembled] == list(range(len(mine)))
            process.bus.close()


@pytest.mark.parametrize("balances", [None, [30, 0, 80, 90]])
def test_live_cluster_ships_the_whole_config(tmp_path, balances):
    config = _live(num_users=4, initial_balance=50, balances=balances,
                   network=NetworkConfig(peers_per_node=2))
    cluster = LiveCluster(config)
    cluster.runtime_dir = tmp_path
    shipped = cluster._node_config(1, control="unused", incarnation=2)
    assert SimulationConfig.from_json(shipped.pop("config")) == config
    assert shipped == {
        "index": 1, "control": "unused", "runtime_dir": str(tmp_path),
        "trace": str(tmp_path / "trace-1-r2.jsonl"), "incarnation": 2}


@pytest.mark.parametrize("latency_model", ["city", "uniform"])
def test_live_cluster_gossips_on_the_sims_peer_graph(latency_model):
    """A partial mesh: the coordinator ships each node the neighbors the
    sim of the same config starts with."""
    config = _live(num_users=8, seed=5, initial_balance=40,
                   network=NetworkConfig(peers_per_node=2,
                                         latency_model=latency_model))
    sim = Simulation(dataclasses.replace(config,
                                         substrate=SubstrateConfig()))
    shipped = gossip_neighbors(config)
    assert shipped == {str(interface.index): interface.neighbors
                       for interface in sim.network.interfaces}
    assert any(len(peers) < 7 for peers in shipped.values())
