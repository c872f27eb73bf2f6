#!/usr/bin/env python3
"""A tour of the library features beyond the core protocol.

Four capabilities built on top of the round pipeline:

1. **Passive observers** (§7) — zero-stake nodes that reach every
   agreement decision without ever being eligible to speak;
2. **Persistence** (§8.3) — export the chain with its certificates and
   reload it with full bootstrap revalidation;
3. **Forward-secure ephemeral keys** (§11) — Merkle-committed one-shot
   signing keys that are erased at use;
4. **Accountability** (§2's detect-and-punish) — extracting verifiable
   double-vote evidence from a live Byzantine attack.

Run:  python examples/extensions_tour.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Simulation, SimulationConfig, TEST_PARAMS
from repro.adversary import MaliciousNode
from repro.baplus.accountability import find_double_votes
from repro.crypto.ephemeral import EphemeralKeyChain, verify_ephemeral_key
from repro.crypto.hashing import H
from repro.ledger.persistence import load_chain, save_chain


def observers_demo() -> None:
    print("=" * 60)
    print("1. Passive observers (zero stake, full knowledge)")
    print("=" * 60)
    sim = Simulation(SimulationConfig(num_users=14, seed=101,
                                      num_observers=2))
    sim.submit_payments(20)
    sim.run_rounds(2)
    reference = sim.nodes[0].chain
    for observer in sim.observers:
        same = observer.chain.tip_hash == reference.tip_hash
        print(f"  observer {observer.index}: height "
              f"{observer.chain.height}, tip matches participants: {same}")
    print("  -> BA* keeps no secrets: watching the gossip is enough\n")


def persistence_demo() -> None:
    print("=" * 60)
    print("2. Persistence with bootstrap-grade revalidation")
    print("=" * 60)
    sim = Simulation(SimulationConfig(num_users=12, seed=102))
    sim.submit_payments(15)
    sim.run_rounds(2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.bin"
        written = save_chain(sim.nodes[0].chain, path)
        print(f"  wrote {written} bytes (blocks + certificates)")
        restored = load_chain(
            path,
            initial_balances={kp.public: sim.config.initial_balance
                              for kp in sim.keypairs},
            genesis_seed=sim.genesis_seed, params=TEST_PARAMS,
            backend=sim.backend)
        print(f"  reloaded and revalidated {restored.height} rounds; "
              f"tip matches: {restored.tip_hash == sim.nodes[0].chain.tip_hash}\n")


def ephemeral_demo() -> None:
    print("=" * 60)
    print("3. Forward-secure ephemeral keys (§11)")
    print("=" * 60)
    from repro.crypto.backend import FastBackend
    backend = FastBackend()
    chain = EphemeralKeyChain(backend, H(b"master"), first_round=1,
                              num_rounds=2, steps=["1", "2", "final"])
    print(f"  committed to {chain.remaining_slots()} one-shot keys under "
          f"root {chain.root.hex()[:16]}…")
    key = chain.use_key(1, "1")
    signature = backend.sign(key.keypair.secret, b"a committee vote")
    backend.verify(key.keypair.public, b"a committee vote", signature)
    ok = verify_ephemeral_key(chain.root, key.keypair.public, 1, "1",
                              key.proof)
    print(f"  vote signed with slot (1, '1'); commitment check: {ok}")
    try:
        chain.use_key(1, "1")
    except KeyError:
        print("  slot erased after use: compromising the user later "
              "cannot re-sign this step\n")


def accountability_demo() -> None:
    print("=" * 60)
    print("4. Detect-and-punish: forensic evidence from an attack")
    print("=" * 60)
    sim = Simulation(
        SimulationConfig(num_users=16, seed=103, num_malicious=3),
        malicious_class=MaliciousNode)
    for node in sim.nodes:
        node.start(1)
    sim.env.run(until=300.0,
                stop_when=lambda: not any(node.running for node in sim.nodes))
    steps = ["reduction_one", "reduction_two", "1", "2", "3", "final"]
    pooled = [vote
              for node in sim.nodes[:13]
              for step in steps
              for vote in node.buffer.messages(1, step)]
    evidence = find_double_votes(pooled, sim.backend)
    malicious = {node.keypair.public for node in sim.nodes[13:]}
    print(f"  pooled {len(pooled)} votes from 13 honest nodes")
    print(f"  double-vote evidence against {len({e.offender for e in evidence})} "
          f"key(s); all verifiable: "
          f"{all(e.verify(sim.backend) for e in evidence)}")
    print(f"  every offender is a known attacker: "
          f"{ {e.offender for e in evidence} <= malicious }")


def main() -> None:
    observers_demo()
    persistence_demo()
    ephemeral_demo()
    accountability_demo()


if __name__ == "__main__":
    main()
