"""Chaos verdict rows and the post-run audits of stored state.

Every rule a *trace* can break — ``unique-certificate``,
``monotonic-rounds``, ``liveness`` and the per-node BA* rules — lives in
:mod:`repro.conformance.machine` and is applied by the one
:class:`~repro.conformance.monitor.ConformanceMonitor` the harness
attaches to a traced run. What is left here is what events alone cannot
show, checked once the run is over against what the nodes actually
*stored*: :func:`audit_chains` re-verifies that committed prefixes do
not fork, that each chain's seed chain is exactly the section 5.2
recurrence (block seed when the VRF proof verifies, fallback hash
otherwise), and that stored certificates certify the blocks actually
committed; :func:`audit_ingress` that every honest buffer stayed inside
its budget. :class:`Violation` is the row either kind of finding takes
in a :class:`~repro.chaos.runner.ChaosVerdict`.

Reading what a run left behind is the one substrate-specific step of a
chaos run: :func:`sim_findings` reads node objects, :func:`live_findings`
the ``results`` each process reported (committed blocks as bytes, its
harvested metrics). Both hold each node's
``admission.buffer_high_water`` to the config's budget through
:func:`audit_ingress`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.node.deployment import node_counters
from repro.sortition.seed import fallback_seed, verify_seed


@dataclass(frozen=True)
class Violation:
    """One invariant breach, stamped with the simulated time."""

    invariant: str
    t: float
    detail: str

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "t": self.t,
                "detail": self.detail}


def audit_chains(nodes, *, backend, now: float,
                 skip: frozenset[int] = frozenset()) -> list[Violation]:
    """Post-run structural audit of the actual replicas.

    Checks what the event stream cannot: committed-prefix consistency
    against the longest honest chain, the section 5.2 seed-chain
    recurrence, and certificate/block binding. ``skip`` names nodes
    excluded from the audit (permanently crashed ones hold an honest but
    possibly short prefix — they are still checked for prefix
    consistency, never for length).
    """
    violations: list[Violation] = []
    live = [node for node in nodes if node.index not in skip]
    if not live:
        return violations
    reference = max(live, key=lambda node: node.chain.height)
    for node in nodes:
        chain = node.chain
        # Committed prefixes must agree block for block (no forks).
        common = min(chain.height, reference.chain.height)
        for round_number in range(1, common + 1):
            mine = chain.block_at(round_number).block_hash
            theirs = reference.chain.block_at(round_number).block_hash
            if mine != theirs:
                violations.append(Violation(
                    invariant="prefix-consistency", t=now,
                    detail=(f"node {node.index} round {round_number}: "
                            f"{mine.hex()[:16]} != node "
                            f"{reference.index}'s {theirs.hex()[:16]}")))
                break
        # Seed chain: replay the recurrence and compare (section 5.2).
        for round_number in range(1, chain.height + 1):
            block = chain.block_at(round_number)
            previous = chain.seed_of_round(round_number - 1)
            if block.is_empty or not verify_seed(
                    backend, block.proposer, block.seed, block.seed_proof,
                    previous, round_number):
                expected = fallback_seed(previous, round_number)
            else:
                expected = block.seed
            if chain.seed_of_round(round_number) != expected:
                violations.append(Violation(
                    invariant="seed-chain", t=now,
                    detail=(f"node {node.index} round {round_number}: "
                            f"stored seed diverges from the "
                            f"H(seed||r) recurrence")))
                break
        # Certificates must certify the block actually committed.
        for round_number in range(1, chain.height + 1):
            for certificate in (chain.certificate_at(round_number),
                                chain.final_certificate_at(round_number)):
                value = getattr(certificate, "value", None)
                if value is not None and value != chain.block_at(
                        round_number).block_hash:
                    violations.append(Violation(
                        invariant="certificate-binding", t=now,
                        detail=(f"node {node.index} round {round_number}: "
                                f"certificate certifies a different "
                                f"block")))
    return violations


def audit_ingress(counters: dict[int, dict], config, *, now: float,
                  skip: frozenset[int] = frozenset(),
                  network=None) -> list[Violation]:
    """The ``ingress-bounds`` rule: post-run high-water marks within
    their budgets.

    Under admission control every honest node's vote buffer must have
    stayed inside ``config``'s budget for the whole run — a high-water
    mark above it means the bound was enforced too late (or not at all)
    and a flood grew state without limit. ``counters`` maps a node to
    its runtime numbers under registry names (its
    ``admission.buffer_high_water``), read the same way on either
    substrate. Given the sim's ``network``, every honest egress lane is
    held to its budget too (only the sim has lanes). ``skip`` names the
    attacker nodes (their own buffers are not part of the robustness
    claim) plus permanently crashed ones.
    """
    budgets = config.runtime.admission_budgets()
    marks = [(index, "vote-buffer",
              numbers.get("admission.buffer_high_water", 0),
              budgets.vote_buffer_budget if budgets else None)
             for index, numbers in sorted(counters.items())]
    if network is not None:
        marks += [(index, "egress-lane", interface.egress_high_water,
                   interface.lane_budget)
                  for index, interface in enumerate(network.interfaces)
                  if interface is not None]
    return [Violation(
                invariant="ingress-bounds", t=now,
                detail=(f"node {index}: {what} high water {high_water} "
                        f"exceeded budget {budget}"))
            for index, what, high_water, budget in marks
            if index not in skip and budget and high_water > budget]


def sim_findings(sim, script) -> dict:
    """What a finished sim left behind, as ``render_verdict`` keywords.

    A node crashed for good is held to no height; under admission
    control, neither is one the network-wide quarantine still severs
    (catch-up runs over gossip, so it cannot have learned what it
    missed), and honest buffers are audited against their budgets.
    """
    now = sim.env.now
    gone = script.permanently_crashed()
    audits = audit_chains(sim.nodes, backend=sim.backend, now=now,
                          skip=gone)
    unjudged = gone
    if sim.quarantine_directory is not None:
        audits += audit_ingress(
            {node.index: node_counters(node) for node in sim.nodes},
            sim.config, now=now, skip=gone | script.attacker_nodes(),
            network=sim.network)
        unjudged = gone | sim.quarantine_directory.quarantined
    return {
        "audits": audits,
        "heights": [node.chain.height for node in sim.nodes],
        "laggards": [node.index for node in sim.nodes
                     if node.index not in unjudged
                     and node.chain.height < script.rounds],
        "now": now,
    }


def live_findings(cluster, script) -> dict:
    """What a finished live cluster left behind, as ``render_verdict``
    keywords.

    The clock at the end is the replayed trace's last record; the chain
    audit compares the committed block *bytes* each process reported
    (on this substrate "no fork" literally means identical bytes), and
    a process that reported nothing without being crashed for good is
    ``missing``.
    """
    results = cluster.results
    now = max((float(record.get("t", 0.0)) for record in cluster.obs.events),
              default=0.0)
    longest = max(results, key=lambda index: results[index]["height"],
                  default=None)
    audits: list[Violation] = []
    for index, result in sorted(results.items()):
        for round_number, (mine, theirs) in enumerate(
                zip(result["blocks"], results[longest]["blocks"]),
                start=1):
            if mine != theirs:
                audits.append(Violation(
                    invariant="prefix-consistency", t=now,
                    detail=(f"node {index} round {round_number}: "
                            f"committed block bytes differ from node "
                            f"{longest}'s")))
                break
    audits += audit_ingress(
        {index: result["metrics"] for index, result in results.items()},
        script.config, now=now, skip=script.attacker_nodes())
    users = range(script.config.num_users)
    gone = script.permanently_crashed()
    return {
        "audits": audits,
        "heights": [results[index]["height"] if index in results else None
                    for index in users],
        "laggards": [index for index, result in sorted(results.items())
                     if result["height"] < script.rounds],
        "missing": [index for index in users
                    if index not in results and index not in gone],
        "now": now,
    }
