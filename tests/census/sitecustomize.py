"""Start-up hook of the code census (``tests/census/run.py``).

The driver puts this directory first on ``PYTHONPATH`` and names an
output directory in ``CENSUS_OUT``; every Python process of an entry
point then imports this file at interpreter start, and every process
forked from one inherits it.  Without ``CENSUS_OUT`` it does nothing.

On the first ``call`` of each code object defined under ``src/repro``
it appends one line, ``path<TAB>co_firstlineno<TAB>co_qualname`` (the
path relative to ``src/repro``), to ``<CENSUS_OUT>/<pid>.txt``.  The
file is line-buffered, so a process that leaves by ``os._exit`` or
SIGKILL -- a live node does -- has written every call it made.  A
forked child reopens the file under its own pid.
"""

import os
import sys
import threading


def _install(out_dir: str) -> None:
    root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src", "repro") + os.sep
    # Keyed by id; holding each code object keeps its id from being
    # reused by a later one (a code object's own hash walks its consts).
    seen: dict = {}
    sink = []

    def reopen() -> None:
        path = os.path.join(out_dir, f"{os.getpid()}.txt")
        sink[:] = [open(path, "a", buffering=1, encoding="utf-8")]

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        filename = code.co_filename
        if filename.startswith(root):
            sink[0].write(f"{filename[len(root):]}\t{code.co_firstlineno}"
                          f"\t{code.co_qualname}\n")

    reopen()
    os.register_at_fork(after_in_child=reopen)
    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("CENSUS_OUT"):
    _install(os.environ["CENSUS_OUT"])
