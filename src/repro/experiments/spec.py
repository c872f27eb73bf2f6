"""One experiment point: a deployment, its run, and what to measure.

The paper's evaluation (section 10) is a *grid of deployments* — latency
vs. user count (Fig. 5), contention (Fig. 6), block size (Fig. 7),
malicious fraction (Fig. 8), proposal-wait window (section 6) — and every
point of every grid is one :class:`ExperimentSpec`:

* ``config`` — the :class:`~repro.node.config.SimulationConfig` of
  the deployment, seed included, so a spec is also a reproducibility
  token;
* ``rounds``, ``payments`` and ``faults`` — how long it runs, the
  payment batches submitted before the run, and the
  :class:`~repro.chaos.scenario.FaultAction` windows in force;
* ``measure`` — the name of the measurement taken afterwards
  (:data:`repro.experiments.sweep.MEASURES`); a chaos scenario
  (sections 3 and 8) is a spec whose measure is ``"chaos"``, whose
  verdict is the measurement, and which alone reads ``liveness_bound``.

The figure modules' grid builders and the chaos builders
(:mod:`repro.chaos.generate`) turn axis values into these fields, and
:func:`repro.experiments.sweep.run_point` runs any spec the same
way. Specs are frozen plain data: they pickle across process boundaries
and serialize to canonical JSON (``config.to_json()`` plus
``FaultAction.to_dict()``), so the sweep engine can ship them to
shared-nothing workers and checkpoint finished points by fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

from repro.chaos.scenario import FaultAction, check_faults, check_scenario
from repro.common.errors import SpecError
from repro.node.config import SimulationConfig

#: Seconds after the last fault heals within which a new block must
#: commit (the paper's weak-synchrony liveness promise, section 3).
LIVENESS_BOUND = 150.0


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully specified measurement point."""

    measure: str
    config: SimulationConfig
    rounds: int
    #: ``(count, note_bytes)`` payment batches submitted before the run.
    payments: tuple[tuple[int, int], ...] = ()
    faults: tuple[FaultAction, ...] = ()
    liveness_bound: float = LIVENESS_BOUND

    def validate(self) -> None:
        """Raise a :class:`~repro.common.errors.ConfigError` on bad values."""
        if self.rounds < 1:
            raise SpecError(f"rounds must be >= 1, got {self.rounds}")
        if any(count < 0 or note < 0 for count, note in self.payments):
            raise SpecError(
                f"payment batches must be non-negative, got {self.payments}")
        if self.liveness_bound <= 0:
            raise SpecError("liveness_bound must be positive")
        self.config.validate()
        check_faults(self.config, self.faults)
        if self.measure == "chaos":
            check_scenario(self.config, self.faults)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        """Plain-dict form: the config's JSON, the faults' dicts, and
        ``liveness_bound`` where it is not the default."""
        record = {
            "measure": self.measure,
            "config": self.config.to_json(),
            "rounds": self.rounds,
            "payments": [list(batch) for batch in self.payments],
            "faults": [action.to_dict() for action in self.faults],
        }
        if self.liveness_bound != LIVENESS_BOUND:
            record["liveness_bound"] = self.liveness_bound
        return record

    def canonical_json(self) -> str:
        """Deterministic one-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """Stable identity of this point, used as the checkpoint key."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def spec_from_json(record: dict) -> ExperimentSpec:
    """Rebuild a spec from :meth:`ExperimentSpec.to_json` output."""
    if not isinstance(record, dict):
        raise SpecError(f"a spec is a JSON object, not "
                        f"{type(record).__name__}")
    unknown = set(record) - ExperimentSpec.__dataclass_fields__.keys()
    if unknown:
        raise SpecError(f"unknown spec field(s) {sorted(unknown)}")
    try:
        return ExperimentSpec(
            measure=record["measure"],
            config=SimulationConfig.from_json(record["config"]),
            rounds=record["rounds"],
            payments=tuple((count, note)
                           for count, note in record.get("payments", ())),
            faults=tuple(FaultAction.from_dict(action)
                         for action in record.get("faults", ())),
            liveness_bound=float(record.get("liveness_bound",
                                            LIVENESS_BOUND)),
        )
    except (KeyError, TypeError) as error:
        raise SpecError(f"malformed spec record: {error!r}") from None


def _jsonable(value: Any) -> Any:
    """Recursively convert a typed point into JSON-safe plain data.

    ``NaN`` (from :meth:`LatencySummary.empty`) is mapped to ``None`` so
    the payload is *strict* JSON — byte-identical across writers and
    readable by non-Python tools.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class PointResult:
    """What ``run_point`` hands back: the spec and its measurement."""

    spec: ExperimentSpec
    point: Any  # the measure's typed dataclass (LatencyPoint, ...)

    def data(self) -> dict:
        """The measurement as JSON-safe plain data."""
        return _jsonable(self.point)

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "result": self.data()}
