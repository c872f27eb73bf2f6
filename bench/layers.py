"""Layer attribution: fold a ``cProfile`` dump onto the repo's layers.

The layers are the repo's own module groups (``LAYER_PREFIXES``).  Every
profiled function that lives under ``src/repro`` belongs to the layer of
its module.  A *foreign* function (a builtin, ``heapq``, ``hashlib``,
numpy, asyncio, ...) has no layer of its own: its self time is charged
to whoever called it, following the caller edges ``cProfile`` records
until a repo function is reached.  Two exceptions, both live-only: time
blocked in the selector is ``idle``, and asyncio/selector machinery with
no repo caller on record (the profiler is switched on mid-loop) is the
socket event loop itself and goes to ``transport``.  What cannot be
charged to anyone is ``other``, so the layer self times always sum to
the profiled total.
"""

from __future__ import annotations

import pstats

#: ``(layer, module-path prefixes below src/repro/)``; first match wins.
LAYER_PREFIXES = [
    ("population", ("node/population",)),
    ("crypto", ("crypto/",)),
    ("cache", ("runtime/cache",)),
    ("sortition", ("sortition/",)),
    ("admission", ("runtime/admission",)),
    ("damping", ("runtime/damping",)),
    ("baplus", ("baplus/",)),
    ("gossip", ("network/gossip", "network/latency", "network/message",
                "network/topology")),
    ("simloop", ("sim/",)),
    ("ledger", ("ledger/",)),
    ("wire", ("network/wire", "common/encoding")),
    ("transport", ("live/transport", "live/clock", "live/catchup",
                   "live/faults")),
    ("node", ("node/", "runtime/router")),
    ("obs", ("obs/", "conformance/")),
    ("harness", ("experiments/", "live/cluster", "live/node_main",
                 "live/control")),
]

LAYERS = [layer for layer, _ in LAYER_PREFIXES] + ["other", "idle"]

_REPO_MARKER = "/src/repro/"
_IDLE_FUNCTIONS = ("<method 'poll' of 'select.epoll' objects>",
                   "<method 'poll' of 'select.poll' objects>",
                   "<built-in method select.select>")
_TOP_SPANS = 60


def repo_path(filename: str) -> str | None:
    """``runtime/admission`` for ``.../src/repro/runtime/admission.py``."""
    at = filename.rfind(_REPO_MARKER)
    if at < 0 or not filename.endswith(".py"):
        return None
    return filename[at + len(_REPO_MARKER):-3]


def _is_event_loop(filename: str) -> bool:
    return "/asyncio/" in filename or filename.endswith("/selectors.py")


def layer_of_path(path: str) -> str:
    for layer, prefixes in LAYER_PREFIXES:
        if path.startswith(prefixes):
            return layer
    return "other"


def fold(stats: dict) -> dict:
    """Fold ``pstats.Stats(...).stats`` into per-layer numbers.

    Returns ``{"total_s", "layers": {layer: {"self_s", "calls"}},
    "spans": [...]}`` where each span aggregates the calls that cross
    from one layer into an entry function of another:
    ``{"from", "to", "entry", "count", "inclusive_s"}``.
    """
    own_layer: dict = {}
    for func in stats:
        filename, _line, name = func
        path = repo_path(filename)
        if path is not None:
            own_layer[func] = layer_of_path(path)
        elif name in _IDLE_FUNCTIONS:
            own_layer[func] = "idle"

    memo: dict = {}

    def shares(func) -> dict:
        """Layer -> fraction of ``func``'s calls each layer is behind."""
        layer = own_layer.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {}  # breaks caller cycles among foreign functions
        result: dict = {}
        callers = stats[func][4] if func in stats else {}
        weight_total = sum(edge[3] for edge in callers.values())
        if weight_total > 0:
            for caller, edge in callers.items():
                for layer, share in shares(caller).items():
                    result[layer] = (result.get(layer, 0.0)
                                     + share * edge[3] / weight_total)
        if not result and _is_event_loop(func[0]):
            result = {"transport": 1.0}
        memo[func] = result
        return result

    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    total = 0.0
    for func, (_cc, ncalls, self_s, _cum, callers) in stats.items():
        total += self_s
        layer = own_layer.get(func)
        if layer is not None:
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += ncalls
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for layer, share in shares(caller).items():
                layers[layer]["self_s"] += edge[2] * share
                charged += edge[2] * share
        # Self time no caller edge accounts for (profile roots).
        rest = self_s - charged
        if rest > 0:
            fallback = shares(func)
            for layer, share in fallback.items():
                layers[layer]["self_s"] += rest * share
            layers["other"]["self_s"] += rest * max(
                0.0, 1.0 - sum(fallback.values()))

    spans: dict = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        callee_layer = own_layer.get(func)
        if callee_layer in (None, "idle"):
            continue
        entry = f"{repo_path(func[0])}:{func[2]}"
        for caller, edge in callers.items():
            caller_shares = shares(caller)
            if not caller_shares:
                continue
            caller_layer = max(caller_shares, key=caller_shares.get)
            if caller_layer == callee_layer:
                continue
            span = spans.setdefault(
                (caller_layer, entry),
                {"from": caller_layer, "to": callee_layer, "entry": entry,
                 "count": 0, "inclusive_s": 0.0})
            span["count"] += edge[0]
            span["inclusive_s"] += edge[3]
    top = sorted(spans.values(), key=lambda span: -span["inclusive_s"])
    return {"total_s": total, "layers": layers, "spans": top[:_TOP_SPANS]}


def fold_files(paths: list[str]) -> dict:
    """Fold the sum of several ``cProfile`` dump files."""
    return fold(pstats.Stats(*paths).stats)
