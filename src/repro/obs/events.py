"""Central catalogue of trace-event kinds and their required fields.

Every ``obs.emit`` call site in the tree must use a kind registered
here (a test greps the source for literal kinds and asserts it). The catalogue
serves two consumers:

* :func:`validate_record` — checks one record against its kind's spec,
  so a typo'd kind or missing field raises instead of producing an
  event no downstream aggregation will ever match; the catalogue tests
  run it over every record a whole simulation kept;
* :mod:`repro.conformance` — the reference BA* state machine keys its
  legal-transition tables on exactly these kinds, so an unregistered
  kind is by definition invisible to conformance checking.

The bus itself never validates: ad-hoc kinds are handy in unit tests
and downstream tooling, and the emit path is hot enough that no run
should pay a per-event schema check.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class EventSchemaError(ValueError):
    """An emitted record does not match its registered kind."""


@dataclass(frozen=True)
class EventKind:
    """Schema of one trace-event kind.

    ``required`` lists field names that must be present on every record
    of this kind (beyond the implicit ``t`` timestamp); ``optional``
    documents fields that may appear (validation does not reject unknown
    extras — forward compatibility — but the catalogue is the reference
    for what a well-formed record carries).
    """

    name: str
    emitted_by: str
    required: frozenset[str]
    optional: frozenset[str] = field(default_factory=frozenset)


def _kind(name: str, emitted_by: str, required: tuple[str, ...],
          optional: tuple[str, ...] = ()) -> EventKind:
    return EventKind(name=name, emitted_by=emitted_by,
                     required=frozenset(required),
                     optional=frozenset(optional))


#: kind name -> :class:`EventKind` spec. Mirrors the catalogue table in
#: docs/OBSERVABILITY.md; keep the two in sync.
EVENT_KINDS: dict[str, EventKind] = {k.name: k for k in [
    # -- node round lifecycle ------------------------------------------
    _kind("round_start", "node agent", ("node", "round")),
    _kind("block_proposed", "node agent",
          ("node", "round", "j", "weight")),
    _kind("proposal_resolved", "node agent",
          ("node", "round", "empty", "waited_s")),
    _kind("round_commit", "node agent",
          ("node", "round", "consensus", "empty", "block_hash",
           "payload_bytes", "binary_steps", "proposal_s", "ba_s",
           "final_s", "total_s")),
    _kind("final_certified", "pipelined final step",
          ("node", "round"), ("pipelined",)),
    _kind("consensus_halted", "node agent", ("node", "round")),
    # -- BA* step machinery --------------------------------------------
    _kind("vote_cast", "BA* committee vote",
          ("node", "round", "step", "j", "weight")),
    _kind("step_enter", "BA* CountVotes",
          ("node", "round", "step", "deadline_s")),
    # ``votes_counted`` is absent on interrupted exits (crash/retire
    # closing an open interval); ``interrupted`` marks those.
    _kind("step_exit", "BA* CountVotes / crash cleanup",
          ("node", "round", "step", "seconds", "timed_out"),
          ("votes_counted", "interrupted")),
    # -- fail-stop / recovery lifecycle --------------------------------
    _kind("node_crashed", "node agent (fail-stop, chaos)",
          ("node", "round")),
    _kind("node_restarted", "node agent (chaos rejoin)",
          ("node", "round")),
    _kind("catchup_adopted", "node agent (adopting ChainSync's stash)",
          ("node", "round", "from_height", "to_height")),
    # -- aggregated population -----------------------------------------
    _kind("agent_retired", "aggregated population",
          ("node", "height")),
    _kind("population_boundary", "aggregated population",
          ("round", "winners", "fresh", "live")),
    # -- chaos / admission ---------------------------------------------
    _kind("fault_applied", "chaos fault injector",
          ("fault", "nodes", "window")),
    _kind("fault_cleared", "chaos fault injector",
          ("fault", "nodes", "window")),
    _kind("peer_quarantined", "admission layer",
          ("node", "peer", "offense", "round")),
]}


def validate_record(record: dict) -> None:
    """Raise :class:`EventSchemaError` if ``record`` is malformed.

    ``record`` is one flat event dict as the bus published it
    (``{"t": ..., "kind": ..., ...}``).
    """
    kind = record.get("kind")
    spec = EVENT_KINDS.get(kind)
    if spec is None:
        raise EventSchemaError(
            f"unregistered event kind {kind!r} "
            f"(register it in repro.obs.events.EVENT_KINDS)")
    missing = [name for name in spec.required if name not in record]
    if missing:
        raise EventSchemaError(
            f"event kind {kind!r} missing required field(s) "
            f"{sorted(missing)} (record: {record!r})")
