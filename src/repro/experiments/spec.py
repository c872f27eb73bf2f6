"""The unified experiment-point API.

The paper's evaluation (section 10) is a *grid of sweeps* — latency vs.
user count (Fig. 5), contention (Fig. 6), block size (Fig. 7), malicious
fraction (Fig. 8), proposal-wait window (section 6) — and every point of
every grid goes through one contract:

* an :class:`ExperimentSpec` — a **frozen, picklable, JSON-serializable**
  dataclass that completely determines one measurement point (including
  its seed, so a spec is also a reproducibility token);
* ``run_point(spec) -> PointResult`` — the single dispatcher that
  validates the spec, runs the deployment, and wraps the typed point
  next to the spec that produced it.

Because specs are picklable and self-contained, the sweep engine
(:mod:`repro.experiments.sweep`) can ship them to shared-nothing worker
processes and merge results deterministically; because they serialize to
canonical JSON, finished points can be checkpointed and resumed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from repro.common.errors import SpecError
from repro.common.params import ProtocolParams

#: Spec kind -> spec class. Populated by :func:`register_spec`.
SPEC_KINDS: dict[str, type["ExperimentSpec"]] = {}

#: Spec kind -> measurement function (spec -> typed point dataclass).
#: Populated by :func:`register_runner` in the per-figure modules.
_RUNNERS: dict[str, Callable[["ExperimentSpec"], Any]] = {}


def register_spec(cls: type["ExperimentSpec"]) -> type["ExperimentSpec"]:
    """Class decorator: make ``cls`` discoverable by ``kind`` string."""
    if not cls.kind:
        raise SpecError(f"{cls.__name__} must define a non-empty kind")
    SPEC_KINDS[cls.kind] = cls
    return cls


def register_runner(kind: str) -> Callable:
    """Decorator: bind the measurement function for one spec kind."""
    def bind(function: Callable) -> Callable:
        _RUNNERS[kind] = function
        return function
    return bind


def _ensure_runners() -> None:
    """Import the per-figure modules so their runners self-register.

    Lazy to break the cycle: ``latency.py`` et al. import this module
    for the spec classes, so this module cannot import them at load
    time.
    """
    if len(_RUNNERS) >= len(SPEC_KINDS) and SPEC_KINDS:
        return
    from repro.experiments import (  # noqa: F401
        adversarial,
        latency,
        throughput,
        traffic,
        waiting,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Base class: one fully-specified measurement point.

    Subclasses add the per-figure axes; the base carries what every
    deployment needs. All fields have defaults so subclasses can append
    fields freely, and everything is plain data so instances pickle
    across process boundaries and round-trip through JSON.
    """

    #: Registry tag; each concrete subclass sets a unique string.
    kind: ClassVar[str] = ""

    seed: int = 0
    params: ProtocolParams | None = None

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`~repro.common.errors.SpecError` on bad values."""
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")
        self._validate()

    def _validate(self) -> None:
        """Subclass hook; base :meth:`validate` already ran."""

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        """Plain-dict form: ``{"kind": ..., <fields>}``, params nested."""
        record: dict[str, Any] = {"kind": self.kind}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, ProtocolParams):
                value = dataclasses.asdict(value)
            record[spec_field.name] = value
        return record

    def canonical_json(self) -> str:
        """Deterministic one-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """Stable identity of this point, used as the checkpoint key."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- execution -----------------------------------------------------

    def run(self) -> Any:
        """Validate, then run this point; returns the typed point."""
        self.validate()
        _ensure_runners()
        try:
            runner = _RUNNERS[self.kind]
        except KeyError:
            raise SpecError(
                f"no runner registered for spec kind {self.kind!r} "
                f"(known: {sorted(_RUNNERS)})") from None
        return runner(self)


def spec_from_json(record: dict) -> ExperimentSpec:
    """Rebuild a spec from :meth:`ExperimentSpec.to_json` output."""
    _ensure_runners()  # importing the figure modules registers the kinds
    data = dict(record)
    try:
        kind = data.pop("kind")
    except KeyError:
        raise SpecError("spec record lacks a 'kind' field") from None
    try:
        cls = SPEC_KINDS[kind]
    except KeyError:
        raise SpecError(
            f"unknown spec kind {kind!r} (known: {sorted(SPEC_KINDS)})"
        ) from None
    known = {spec_field.name for spec_field in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SpecError(
            f"unknown field(s) {sorted(unknown)} for spec kind {kind!r}")
    params = data.get("params")
    if isinstance(params, dict):
        data["params"] = ProtocolParams(**params)
    return cls(**data)


# ---------------------------------------------------------------------
# Concrete spec family (one subclass per paper sweep axis)
# ---------------------------------------------------------------------


@register_spec
@dataclass(frozen=True)
class LatencySpec(ExperimentSpec):
    """One Figure 5/6 point: round-completion latency at a population."""

    kind: ClassVar[str] = "latency"

    num_users: int = 20
    rounds: int = 2
    payload_bytes: int = 0
    bandwidth_bps: float | None = 20e6
    measure_round: int = 2
    #: "full" or "aggregated" — see SimulationConfig.population. The
    #: aggregated stake pool is what lets the latency axis reach the
    #: paper's population scales (Figure 5) on one machine.
    population: str = "full"
    always_on_core: int = 16
    steps_ahead: int = 4

    def _validate(self) -> None:
        if self.num_users < 1:
            raise SpecError(f"num_users must be >= 1, got {self.num_users}")
        if self.population not in ("full", "aggregated"):
            raise SpecError(
                f"population must be 'full' or 'aggregated', "
                f"got {self.population!r}")
        if self.always_on_core < 1:
            raise SpecError(
                f"always_on_core must be >= 1, got {self.always_on_core}")
        if self.steps_ahead < 1:
            raise SpecError(
                f"steps_ahead must be >= 1, got {self.steps_ahead}")
        if self.rounds < 1:
            raise SpecError(f"rounds must be >= 1, got {self.rounds}")
        if not 1 <= self.measure_round <= self.rounds:
            raise SpecError(
                f"measure_round ({self.measure_round}) must be in "
                f"[1, rounds={self.rounds}]")
        if self.payload_bytes < 0:
            raise SpecError("payload_bytes must be >= 0")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise SpecError("bandwidth_bps must be positive or None")


@register_spec
@dataclass(frozen=True)
class AdversarialSpec(ExperimentSpec):
    """One Figure 8 point: honest latency under malicious stake."""

    kind: ClassVar[str] = "adversarial"

    fraction: float = 0.0
    num_users: int = 20
    rounds: int = 2

    def _validate(self) -> None:
        if not 0 <= self.fraction < 0.34:
            raise SpecError(
                f"malicious fraction must be in [0, 1/3), "
                f"got {self.fraction}")
        if self.num_users < 2:
            raise SpecError(f"num_users must be >= 2, got {self.num_users}")
        if self.rounds < 1:
            raise SpecError(f"rounds must be >= 1, got {self.rounds}")


@register_spec
@dataclass(frozen=True)
class BlockSizeSpec(ExperimentSpec):
    """One Figure 7 bar: round-segment breakdown at a block size."""

    kind: ClassVar[str] = "block_size"

    block_size: int = 10_000
    num_users: int = 40
    bandwidth_bps: float = 5e6

    def _validate(self) -> None:
        if self.block_size < 1:
            raise SpecError(
                f"block_size must be >= 1, got {self.block_size}")
        if self.num_users < 2:
            raise SpecError(f"num_users must be >= 2, got {self.num_users}")
        if self.bandwidth_bps <= 0:
            raise SpecError("bandwidth_bps must be positive")


@register_spec
@dataclass(frozen=True)
class WaitingSpec(ExperimentSpec):
    """One section 6 point: proposal-wait window vs what it buys."""

    kind: ClassVar[str] = "waiting"

    wait_seconds: float = 1.0
    num_users: int = 20
    rounds: int = 3

    def _validate(self) -> None:
        if self.wait_seconds <= 0:
            raise SpecError(
                f"wait_seconds must be positive, got {self.wait_seconds}")
        if self.num_users < 2:
            raise SpecError(f"num_users must be >= 2, got {self.num_users}")
        if self.rounds < 1:
            raise SpecError(f"rounds must be >= 1, got {self.rounds}")


@register_spec
@dataclass(frozen=True)
class TrafficSpec(ExperimentSpec):
    """One traffic-census deployment: a stake shape, damped or not.

    The runner (:mod:`repro.experiments.traffic`) measures per-round
    gossip counters next to the closed-form committee-traffic model;
    ``params=None`` selects the census deployment
    (:data:`~repro.experiments.traffic.CENSUS_PARAMS`).
    """

    kind: ClassVar[str] = "traffic"

    stake_shape: str = "uniform"
    num_users: int = 40
    rounds: int = 2
    relay_damping: bool = True

    def _validate(self) -> None:
        if self.stake_shape not in ("uniform", "whale", "midtier"):
            raise SpecError(
                f"stake_shape must be uniform, whale or midtier, "
                f"got {self.stake_shape!r}")
        if self.num_users < 2:
            raise SpecError(f"num_users must be >= 2, got {self.num_users}")
        if self.rounds < 1:
            raise SpecError(f"rounds must be >= 1, got {self.rounds}")


# ---------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------


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
    point: Any  # the per-kind typed dataclass (LatencyPoint, ...)

    def data(self) -> dict:
        """The measurement as JSON-safe plain data."""
        return _jsonable(self.point)

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "result": self.data()}


def run_point(spec: ExperimentSpec) -> PointResult:
    """The one entry point: validate + run one experiment spec."""
    return PointResult(spec=spec, point=spec.run())

