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

Reading what a run left behind is one step on both substrates: one
:class:`~repro.node.deployment.RunOutcome`, one :func:`findings`, the
same three chain audits — a sim's outcome is read off its node objects,
a live cluster's off the ``result`` each process reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.scenario import attacker_nodes, permanently_crashed
from repro.network.gossip import EGRESS_LANE_BUDGET
from repro.sortition.seed import accepted_seed


@dataclass(frozen=True)
class Violation:
    """One invariant breach, stamped with the simulated time."""

    invariant: str
    t: float
    detail: str

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "t": self.t,
                "detail": self.detail}


def audit_chains(runs, *, backend, now: float,
                 skip: frozenset[int] = frozenset()) -> list[Violation]:
    """Post-run structural audit of what each node stored.

    ``runs`` are :class:`~repro.node.deployment.NodeRun` s. Checks what
    the event stream cannot: committed-prefix consistency against the
    longest honest chain, the section 5.2 seed-chain recurrence (its VRF
    proofs checked on ``backend``), and certificate/block binding.
    ``skip`` names nodes excluded from the audit (permanently crashed
    ones hold an honest but possibly short prefix — they are still
    checked for prefix consistency, never for length).
    """
    violations: list[Violation] = []
    live = [run for run in runs if run.index not in skip]
    if not live:
        return violations
    reference = max(live, key=lambda run: run.height)
    for run in runs:
        # Committed prefixes must agree block for block (no forks).
        for round_number, (mine, theirs) in enumerate(
                zip(run.blocks, reference.blocks), start=1):
            if mine.block_hash != theirs.block_hash:
                violations.append(Violation(
                    invariant="prefix-consistency", t=now,
                    detail=(f"node {run.index} round {round_number}: "
                            f"{mine.block_hash.hex()[:16]} != node "
                            f"{reference.index}'s "
                            f"{theirs.block_hash.hex()[:16]}")))
                break
        # Seed chain: replay the recurrence and compare (section 5.2).
        for round_number, block in enumerate(run.blocks, start=1):
            if run.seeds[round_number] != accepted_seed(
                    backend, block, run.seeds[round_number - 1],
                    round_number):
                violations.append(Violation(
                    invariant="seed-chain", t=now,
                    detail=(f"node {run.index} round {round_number}: "
                            f"stored seed diverges from the "
                            f"H(seed||r) recurrence")))
                break
        # Certificates must certify the block actually committed.
        for round_number, (block, values) in enumerate(
                zip(run.blocks, run.certified), start=1):
            for value in values:
                if value is not None and value != block.block_hash:
                    violations.append(Violation(
                        invariant="certificate-binding", t=now,
                        detail=(f"node {run.index} round {round_number}: "
                                f"certificate certifies a different "
                                f"block")))
    return violations


def audit_ingress(counters: dict[int, dict], config, *, now: float,
                  skip: frozenset[int] = frozenset()) -> list[Violation]:
    """The ``ingress-bounds`` rule: post-run high-water marks within
    their budgets.

    Every honest node's vote buffer must have stayed inside
    ``config``'s budget for the whole run — a high-water mark above it
    means the bound was enforced too late (or not at all) and a flood
    grew state without limit. ``counters`` maps a node to its runtime
    numbers under registry names (its ``admission.buffer_high_water``),
    read the same way on either substrate; a node whose numbers carry
    ``admission.egress_high_water`` (only the sim has egress lanes) has
    its lane held to :data:`~repro.network.gossip.EGRESS_LANE_BUDGET`
    too. ``skip`` names the attacker nodes
    (their own buffers are not part of the robustness claim) plus
    permanently crashed ones.
    """
    bounds = (("vote-buffer", "admission.buffer_high_water",
               config.runtime.vote_buffer_budget),
              ("egress-lane", "admission.egress_high_water",
               EGRESS_LANE_BUDGET))
    return [Violation(
                invariant="ingress-bounds", t=now,
                detail=(f"node {index}: {what} high water "
                        f"{numbers[name]} exceeded budget {budget}"))
            for what, name, budget in bounds
            for index, numbers in sorted(counters.items())
            if index not in skip and numbers.get(name, 0) > budget]


def findings(outcome, spec) -> dict:
    """What a finished run left behind, as ``render_verdict`` keywords.

    ``outcome`` is the run's :class:`~repro.node.deployment.RunOutcome`,
    whichever substrate produced it, and ``spec`` the chaos
    :class:`~repro.experiments.spec.ExperimentSpec` it ran. Only a node
    crashed for good is held to no height, an attacker included;
    honest buffers are audited against their budgets; a node that
    reported nothing without being crashed for good is ``missing``.
    """
    now = outcome.now
    gone = permanently_crashed(spec.faults)
    runs = list(outcome.runs.values())
    audits = audit_chains(runs, backend=outcome.backend, now=now,
                          skip=gone)
    audits += audit_ingress(
        {run.index: run.counters for run in runs}, spec.config,
        now=now, skip=gone | attacker_nodes(spec.faults))
    return {
        "audits": audits,
        "heights": outcome.heights,
        "laggards": [run.index for run in runs
                     if run.index not in gone and run.height < spec.rounds],
        "missing": [index for index in range(outcome.slots)
                    if index not in outcome.runs and index not in gone],
        "now": now,
    }
