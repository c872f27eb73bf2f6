"""Shared verification cache for the gossip hot path.

Section 10.1 of the paper models crypto verification as the dominant CPU
cost of running Algorand. In a simulated deployment the cost multiplies:
a message relayed through the gossip network reaches every node, and a
naive reproduction re-verifies its VRF proof and signature at each of
the ~n arrivals. Those checks are *context-independent* — the same
``(public key, bytes, proof)`` triple verifies identically everywhere —
so one simulation-wide memo table collapses n verifications into one.

What is safe to memoize and what is not:

* **Safe**: signature validity of exact bytes, VRF proof validity of
  exact ``(public, proof, alpha)``. Cache keys are the *full
  verification inputs*, never the envelope ``msg_id`` alone — a message
  id is sender-assigned and an adversary who reuses one on different
  contents must not inherit the original's verdict (see the equivocation
  tests). Negative results are memoized too: a forged signature is
  forged at every node.
* **Not safe**: anything evaluated against node-local context — seed
  lookback, weight tables, one-vote-per-key-per-step, equivocation
  tracking, balance checks. Those stay per-node in the protocol layer.

The cache *is* the deployment's crypto backend: it wraps the inner one
(fast or Ed25519) and counts what it forwards — signs, VRF proves, and
the verifies and VRF verifies that miss, so every miss is one inner
check (``verifies + vrf_verifies == misses``). Those counts are the
section 10.3 CPU-cost proxy (``crypto.*`` in a harvested snapshot).
"""

from __future__ import annotations

from itertools import islice

from repro.crypto.backend import CryptoBackend, KeyPair

#: Key-namespace tags: one cache holds every kind of check.
_SIG = 0
_VRF = 1
_SORT = 2


class VerificationCache(CryptoBackend):
    """The memoizing, counting wrapper over a deployment's backend.

    One instance is shared by every node of a simulation (one per live
    process). Key generation, signing and VRF evaluation are secret-key
    operations each node performs for itself: they are forwarded, never
    memoized. Entries are bounded: past ``max_entries`` the oldest
    quarter is evicted, which is harmless (a miss merely re-verifies)
    and keeps adversarial floods of unique invalid messages from growing
    memory without bound.
    """

    __slots__ = ("inner", "name", "_entries", "max_entries", "hits",
                 "misses", "negative_hits", "sort_hits", "sort_misses",
                 "signs", "verifies", "vrf_proves", "vrf_verifies")

    def __init__(self, inner: CryptoBackend,
                 max_entries: int = 1 << 18) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.inner = inner
        self.name = f"cached({inner.name})"
        self._entries: dict[tuple, tuple] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: Sortition-verdict memo traffic, counted apart from the
        #: signature/VRF hits: a sortition miss runs ``verify_sort``,
        #: whose inner VRF check is *itself* cached, so folding it into
        #: ``misses`` would break the "every miss reached the inner
        #: backend" accounting invariant.
        self.sort_hits = 0
        self.sort_misses = 0
        #: Hits that replayed a memoized *failure* (forged signature /
        #: bad VRF proof seen before) — the adversarial-flood share of
        #: the cache's work, reported separately in trace snapshots.
        self.negative_hits = 0
        #: Operations that reached ``inner`` (the CPU-cost proxy).
        self.signs = 0
        self.verifies = 0
        self.vrf_proves = 0
        self.vrf_verifies = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- bookkeeping ---------------------------------------------------

    def _record_miss(self) -> None:
        self.misses += 1
        if len(self._entries) >= self.max_entries:
            drop = max(1, len(self._entries) // 4)
            for key in list(islice(iter(self._entries), drop)):
                del self._entries[key]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int | float]:
        """Counters for benchmarks and experiment reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "negative_hits": self.negative_hits,
            "sort_hits": self.sort_hits,
            "sort_misses": self.sort_misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }

    # -- forwarded secret-key operations -------------------------------

    def keypair(self, seed: bytes) -> KeyPair:
        return self.inner.keypair(seed)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        self.signs += 1
        return self.inner.sign(secret, message)

    def vrf_prove(self, secret: bytes, alpha: bytes) -> tuple[bytes, bytes]:
        self.vrf_proves += 1
        return self.inner.vrf_prove(secret, alpha)

    def vrf_outputs(self, secrets: list[bytes], alpha: bytes) -> list[bytes]:
        return self.inner.vrf_outputs(secrets, alpha)

    # -- memoized checks -----------------------------------------------

    def verify(self, public: bytes, message: bytes,
               signature: bytes) -> None:
        """Memoized ``inner.verify``; re-raises cached failures."""
        key = (_SIG, public, message, signature)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            if entry[0] is not None:
                self.negative_hits += 1
                raise entry[0]
            return
        self._record_miss()
        self.verifies += 1
        try:
            self.inner.verify(public, message, signature)
        except Exception as exc:
            self._entries[key] = (exc,)
            raise
        self._entries[key] = (None,)

    def vrf_verify(self, public: bytes, proof: bytes,
                   alpha: bytes) -> bytes:
        """Memoized ``inner.vrf_verify``; re-raises cached failures."""
        key = (_VRF, public, proof, alpha)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            if entry[0] is not None:
                self.negative_hits += 1
                raise entry[0]
            return entry[1]
        self._record_miss()
        self.vrf_verifies += 1
        try:
            beta = self.inner.vrf_verify(public, proof, alpha)
        except Exception as exc:
            self._entries[key] = (exc, None)
            raise
        self._entries[key] = (None, beta)
        return beta

    def memo_sortition(self, compute, public: bytes, vrf_hash: bytes,
                       vrf_proof: bytes, seed: bytes, tau: float,
                       role: bytes, weight: int, total_weight: int) -> int:
        """Memoized sortition verdict (``verify_sort``'s sub-user count).

        The full verification context — seed, role, tau, and the weight
        pair — is part of the key, so the verdict is context-independent
        in exactly the sense the module docstring requires: every node
        holding the same chain state computes the same inputs, and one
        CDF walk serves all of them. ``compute`` is a thunk running the
        real :func:`repro.sortition.selection.verify_sort`.
        """
        key = (_SORT, public, vrf_hash, vrf_proof, seed, tau, role,
               weight, total_weight)
        entry = self._entries.get(key)
        if entry is not None:
            self.sort_hits += 1
            return entry[0]
        self.sort_misses += 1
        if len(self._entries) >= self.max_entries:
            drop = max(1, len(self._entries) // 4)
            for stale in list(islice(iter(self._entries), drop)):
                del self._entries[stale]
        j = int(compute())
        self._entries[key] = (j,)
        return j
