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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def ingress_breach(index: int, what: str, high_water: int,
                   budget: int | None, now: float) -> list[Violation]:
    """The ``ingress-bounds`` rule: a high-water mark above its budget.

    One rule for both substrates: the sim audits node objects
    (:func:`audit_ingress`), the live runner the ``stats`` each process
    reported. No budget (``None``/0) means nothing to breach.
    """
    if not budget or high_water <= budget:
        return []
    return [Violation(
        invariant="ingress-bounds", t=now,
        detail=(f"node {index}: {what} high water {high_water} "
                f"exceeded budget {budget}"))]


def audit_ingress(nodes, network, *, now: float,
                  skip: frozenset[int] = frozenset()) -> list[Violation]:
    """Post-run bounded-buffer audit: high-water marks within budgets.

    Under admission control every honest node's vote buffer and every
    honest egress lane must have stayed inside its configured budget for
    the whole run — a high-water mark above budget means the bound was
    enforced too late (or not at all) and a flood grew state without
    limit. ``skip`` names the attacker nodes (their own buffers are not
    part of the robustness claim) plus permanently crashed ones.
    """
    violations: list[Violation] = []
    for node in nodes:
        if node.index not in skip:
            violations += ingress_breach(
                node.index, "vote-buffer",
                getattr(node.buffer, "high_water", 0),
                getattr(node.buffer, "budget_messages", None), now)
    for index, interface in enumerate(network.interfaces):
        if interface is not None and index not in skip:
            violations += ingress_breach(
                index, "egress-lane",
                getattr(interface, "egress_high_water", 0),
                getattr(interface, "lane_budget", None), now)
    return violations
