"""Exception hierarchy for the Algorand reproduction.

Every package raises subclasses of :class:`ReproError` so that callers can
distinguish protocol-level failures (invalid blocks, bad proofs) from
programming errors (which surface as standard Python exceptions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, bad signature encoding)."""


class SignatureError(CryptoError):
    """A signature failed verification."""


class VRFError(CryptoError):
    """A VRF proof failed verification or could not be decoded."""


class SortitionError(ReproError):
    """Sortition was invoked with inconsistent weights or parameters."""


class LedgerError(ReproError):
    """A ledger operation failed (unknown account, malformed block)."""


class InvalidTransaction(LedgerError):
    """A transaction failed validation (bad signature, overspend, replay)."""


class InvalidBlock(LedgerError):
    """A proposed block failed validation (per paper section 8.1)."""


class InvalidCertificate(LedgerError):
    """A block certificate does not carry enough valid committee votes."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ConfigError(ReproError, ValueError):
    """A simulation or experiment was configured inconsistently.

    Subclasses :class:`ValueError` so callers written against the
    original bare ``ValueError``\\ s (``except ValueError`` /
    ``pytest.raises(ValueError)``) keep working while new code can
    catch the typed hierarchy.
    """


class PopulationError(ConfigError):
    """User / malicious / observer counts are out of range or inconsistent
    (negative counts, no honest user left at index 0, empty deployment)."""


class BalancesError(ConfigError):
    """An explicit balance table does not match the configured population
    (wrong length, negative stake)."""


class LatencyModelError(ConfigError):
    """An unknown network latency model was requested."""


class SpecError(ConfigError):
    """An :class:`~repro.experiments.spec.ExperimentSpec` or a grid axis
    is out of range (rounds < 1, malicious fraction >= 1/3, unknown
    measure, malformed spec record, ...)."""


class MissingExtraError(ReproError, ImportError):
    """A module needs a dependency that only an optional extra installs.

    The run-time stack (sim, live nodes, chaos, bench) needs ``numpy``
    alone; ``scipy`` and ``networkx`` belong to the ``analysis`` extra.
    Subclasses :class:`ImportError` so ``except ImportError`` guards
    around the import keep working.
    """

    def __init__(self, dependency: str, extra: str, needed_by: str) -> None:
        super().__init__(
            f"{needed_by} needs {dependency}, which only the {extra!r} "
            f"extra installs: pip install 'repro[{extra}]' "
            f"(from a checkout: pip install -e '.[{extra}]')")
        self.dependency = dependency
        self.extra = extra


class NetworkError(ReproError):
    """The simulated network was misconfigured (unknown peer, bad topology)."""


class NoSamplesError(ReproError, ValueError):
    """A statistical summary was requested over an empty sample set.

    Subclasses :class:`ValueError` so callers that predate the typed
    hierarchy (``except ValueError``) keep working. Experiment runners
    catch this to report an empty measurement point instead of crashing
    a whole figure sweep.
    """


class ConsensusHalted(ReproError):
    """BinaryBA* exceeded MaxSteps; liveness must be restored by recovery.

    This mirrors the ``HangForever()`` call in Algorithm 8: the protocol
    deliberately stops making progress and waits for the periodic recovery
    protocol of section 8.2.
    """
