"""Start-up hook for live node processes (benchmark-owned).

``LiveCluster`` spawns ``python -m repro.live.node_main`` children with
the coordinator's ``PYTHONPATH`` behind ``src/``; the live worker puts
this directory on it, so every node process imports this file at
interpreter start.  It is inert unless ``BENCH_NODE_STATS_DIR`` is set.

What it records, per node process, into ``<dir>/<pid>.json`` at exit:

* ``ready``: monotonic time and process CPU at the moment the node
  opens its trace sink -- the last thing ``node_main`` does before it
  reports ``ready`` to the coordinator -- i.e. the end of start-up;
* ``exit``: the same two readings at interpreter exit, plus ``VmHWM``.

With ``BENCH_NODE_PROFILE=1`` (the traced run) it also profiles the
process from ``ready`` to exit with ``cProfile`` and dumps
``<dir>/<pid>.prof`` for ``bench/layers.py`` to fold.
"""

import os
import sys


def _install(out_dir: str, profile: bool) -> None:
    import atexit
    import json
    import time

    marks: dict = {}
    profiler = None
    if profile:
        import cProfile
        profiler = cProfile.Profile()

    def on_audit(event: str, args: tuple) -> None:
        if event != "open" or "ready" in marks:
            return
        name = os.path.basename(str(args[0]))
        if name.startswith("trace-") and name.endswith(".jsonl"):
            marks["ready"] = {"monotonic": time.monotonic(),
                              "cpu_s": time.process_time()}
            if profiler is not None:
                profiler.enable()

    def peak_rss_kb() -> int:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def dump() -> None:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(os.path.join(out_dir, f"{os.getpid()}.prof"))
        marks["exit"] = {"monotonic": time.monotonic(),
                         "cpu_s": time.process_time(),
                         "peak_rss_kb": peak_rss_kb()}
        with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(marks, handle)

    sys.addaudithook(on_audit)
    atexit.register(dump)


if os.environ.get("BENCH_NODE_STATS_DIR"):
    _install(os.environ["BENCH_NODE_STATS_DIR"],
             os.environ.get("BENCH_NODE_PROFILE") == "1")
