"""Online safety/liveness invariant checking over the trace stream.

The :class:`InvariantMonitor` implements the :class:`repro.obs.bus.TraceSink`
protocol, so attaching it is one ``bus.add_sink(monitor)`` — it then
sees every structured event the instant it is emitted and checks the
paper's core properties *while the scenario runs*:

``unique-certificate``
    At most one certified block per round across all honest nodes
    (section 5's safety theorem). Two honest ``round_commit`` events for
    the same round with different block hashes is a fork, full stop.
``monotonic-rounds``
    A node's committed rounds strictly increase — commitments are never
    rolled back (catch-up replaces a *shorter* chain only).
``liveness``
    After the last fault heals at ``heal_time``, some honest node must
    commit a new block within ``liveness_bound`` simulated seconds
    (section 3's weak-synchrony recovery promise). Checked at
    :meth:`finish`, which also catches the degenerate stalled-clock
    trace: time advanced past the bound with no commit at all.

Post-run (when actual node objects are available),
:func:`audit_chains` re-verifies what events alone cannot show: that
committed prefixes do not fork, that each chain's seed chain is exactly
the section 5.2 recurrence (block seed when the VRF proof verifies,
fallback hash otherwise), and that stored certificates certify the
blocks actually committed.

The monitor is a pure observer: it never touches the bus, the clock, or
any randomness, so a monitored run is byte-identical to an unmonitored
one.
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


class InvariantMonitor:
    """TraceBus sink asserting the paper's invariants online."""

    def __init__(self, *, liveness_bound: float,
                 heal_time: float = 0.0,
                 honest: frozenset[int] | None = None) -> None:
        if liveness_bound <= 0:
            raise ValueError("liveness_bound must be positive")
        self.liveness_bound = liveness_bound
        self.heal_time = heal_time
        #: Node indices whose commits count; ``None`` trusts every node
        #: (chaos scenarios run honest deployments — faults live in the
        #: network, not the nodes).
        self.honest = honest
        self.violations: list[Violation] = []
        #: round -> {block_hash_hex: (t, node) of first commit}.
        self._round_hashes: dict[int, dict[str, tuple[float, int]]] = {}
        #: node -> highest committed round seen.
        self._last_round: dict[int, int] = {}
        self._commit_times: list[float] = []
        self.events_seen = 0
        self.finished = False

    # -- TraceSink protocol --------------------------------------------

    def write_event(self, record: dict) -> None:
        self.events_seen += 1
        if record.get("kind") != "round_commit":
            return
        node = record.get("node")
        round_number = record.get("round")
        block_hash = record.get("block_hash")
        t = float(record.get("t", 0.0))
        if node is None or round_number is None or block_hash is None:
            return
        if self.honest is not None and node not in self.honest:
            return
        self._commit_times.append(t)
        hashes = self._round_hashes.setdefault(round_number, {})
        if block_hash not in hashes:
            if hashes:
                other_hash, (other_t, other_node) = next(iter(hashes.items()))
                self.violations.append(Violation(
                    invariant="unique-certificate", t=t,
                    detail=(f"round {round_number}: node {node} committed "
                            f"{block_hash[:16]} at t={t:.2f} but node "
                            f"{other_node} committed {other_hash[:16]} "
                            f"at t={other_t:.2f}")))
            hashes[block_hash] = (t, node)
        last = self._last_round.get(node)
        if last is not None and round_number <= last:
            self.violations.append(Violation(
                invariant="monotonic-rounds", t=t,
                detail=(f"node {node} committed round {round_number} "
                        f"after already committing round {last}")))
        else:
            self._last_round[node] = round_number

    def write_snapshot(self, snapshot: dict) -> None:
        """Snapshots carry counters, not events; nothing to check."""

    def close(self) -> None:
        """The bus owns the run's end; liveness is checked by finish()."""

    # -- verdict-time checks -------------------------------------------

    def feed(self, events: list[dict]) -> None:
        """Replay a recorded trace through the online checks."""
        for record in events:
            self.write_event(record)

    def commits_in_window(self, start: float, end: float) -> int:
        return sum(1 for t in self._commit_times if start < t <= end)

    def finish(self, now: float) -> list[Violation]:
        """Evaluate liveness at the end of the run and return everything.

        ``now`` is the simulated clock when the run stopped (for a
        recorded trace, the last event's timestamp).
        """
        self.finished = True
        deadline = self.heal_time + self.liveness_bound
        if now >= deadline:
            if self.heal_time > 0.0:
                window = self.commits_in_window(self.heal_time, deadline)
                if window == 0:
                    self.violations.append(Violation(
                        invariant="liveness", t=now,
                        detail=(f"no honest commit within "
                                f"{self.liveness_bound:.0f}s of the last "
                                f"heal at t={self.heal_time:.2f} (clock "
                                f"reached t={now:.2f})")))
            elif not self._commit_times:
                self.violations.append(Violation(
                    invariant="liveness", t=now,
                    detail=(f"fault-free run reached t={now:.2f} with no "
                            f"commit at all (bound "
                            f"{self.liveness_bound:.0f}s)")))
        return list(self.violations)


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
        if index not in skip:
            violations += ingress_breach(
                index, "egress-lane",
                getattr(interface, "egress_high_water", 0),
                getattr(interface, "lane_budget", None), now)
    return violations
