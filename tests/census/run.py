"""The code census: which functions under ``src/repro`` does some run reach?

Run it from the repository root::

    python tests/census/run.py            # run every entry point, print the census
    python tests/census/run.py --check    # ... and fail on anything unaccounted for

It runs each entry point in :data:`ENTRY_POINTS` in a scratch
directory, with this directory first on ``PYTHONPATH`` so that
``sitecustomize.py`` records, in every process and every fork of one,
the first call of each code object under ``src/repro``.  That takes
about ten minutes on two cores, most of it the aggregated sweep and
``python -m repro.experiments`` under the hook.  It then walks ``src/repro`` with :mod:`ast` and prints
the functions no process called, with their line counts (``def`` to the
function's last line).  ``--keep DIR`` keeps the per-process call files
in ``DIR``; ``--calls DIR`` joins an earlier run's files instead of
running anything.

Every function must meet one of three conditions: some entry point
runs it, ``unreached.txt`` names it with a reason, or it is deleted.
Some are exempt by rule and never listed: dunder methods, members of a
``typing.Protocol`` class, and ``@abstractmethod`` or ``raise
NotImplementedError`` stubs.  ``--check`` fails on

* an unreached function that ``unreached.txt`` does not name;
* a listed function that ran (so the list only shrinks);
* a listed name that no longer exists, or that is exempt by rule;
* a line with an unknown tag.

To add a reason, append a line ``path::qualname  tag: reason`` to
``unreached.txt`` (the path is relative to ``src/repro``; the qualname is
the function's ``__qualname__``).  The tag is one of

* ``bench`` -- ``bench/`` calls it, and ROADMAP item 1 retires it;
* ``item N`` -- the named ROADMAP item will call it;
* ``guard`` -- it runs only on bad or excess input; the reason names
  the tier-1 test that drives it;
* ``fixture`` -- pinned tests run on it.

"Only a test calls it" is not a reason: such a function goes, with its
tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
PACKAGE = REPO / "src" / "repro"
LIST = HERE / "unreached.txt"
TAGS = re.compile(r"bench|item \d+|guard|fixture")
_LINE = re.compile(r"(?P<key>\S+::\S+)\s+(?P<tag>[^:]+):\s+(?P<reason>\S.*)")

_CHAOS = ["-m", "repro.chaos"]
_SIM_BUILTINS = ("clean", "partition-heal", "flood", "byzantine",
                 "kill-partition")

#: Each entry point is one command line, run in order in one scratch
#: directory (later ones read the traces earlier ones wrote).
ENTRY_POINTS: list[list[str]] = [
    *([*_CHAOS, "--builtin", name, "--trace", f"sim-{name}.jsonl",
       "--verdict", f"sim-{name}.json"] for name in _SIM_BUILTINS),
    [*_CHAOS, "--sweep", "3", "--base-seed", "100"],
    [*_CHAOS, "--seed", "7"],
    [str(HERE / "scenarios.py")],
    *([*_CHAOS, f"{name}.json", "--trace", f"{name}.jsonl"]
      for name in ("builtin", "aggregated", "attacks")),
    [*_CHAOS, "--builtin", "clean", "--substrate", "live",
     "--trace", "live-clean.jsonl", "--runtime-dir", "live-clean"],
    [*_CHAOS, "--builtin", "kill-partition", "--substrate", "live",
     "--trace", "live-kill.jsonl", "--runtime-dir", "live-kill",
     "--verdict", "live-kill.json"],
    *([*argv, trace] for trace in ("live-clean.jsonl", "sim-clean.jsonl")
      for argv in (["-m", "repro.conformance"],
                   ["-m", "repro.conformance", "--verdict",
                    "conformance.json", "--require-complete"],
                   ["-m", "repro.obs.report"])),
    ["-m", "repro.experiments", "sweep", "--grid", "latency",
     "--users", "8", "--seeds", "0"],
    ["-m", "repro.experiments", "sweep", "--grid", "latency",
     "--users", "200", "--population", "aggregated", "--rounds", "2"],
    ["-m", "repro.experiments", "sweep", "--grid", "adversarial",
     "--users", "10", "--seeds", "0", "--fractions", "0,0.2"],
    *([str(path)] for path in sorted((REPO / "examples").glob("*.py"))),
    ["-m", "repro.experiments", "--jobs", "2"],
    ["-m", "repro.experiments.traffic", "--no-scale"],
]


@dataclass(frozen=True)
class Function:
    """One ``def`` under the package, as the census sees it."""

    path: str          # relative to the package root
    qualname: str
    firstlineno: int   # co_firstlineno: the first decorator's line
    lines: int         # def to end_lineno
    exempt: str | None = None

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def _is_protocol(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", None)
        if name == "Protocol":
            return True
    return False


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(
            decorator, ast.Attribute) else getattr(decorator, "id", None)
        if name == "abstractmethod":
            return True
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    raised = body[0].exc
    if isinstance(raised, ast.Call):
        raised = raised.func
    return getattr(raised, "id", None) == "NotImplementedError"


def _walk(body: list[ast.stmt], path: str, prefix: str,
          protocol: bool, out: list[Function]) -> None:
    for node in body:
        if isinstance(node, ast.ClassDef):
            _walk(node.body, path, f"{prefix}{node.name}.",
                  _is_protocol(node), out)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            name = node.name
            exempt = ("dunder" if name.startswith("__")
                      and name.endswith("__") else
                      "protocol" if protocol else
                      "stub" if _is_stub(node) else None)
            out.append(Function(path, prefix + name, first,
                                node.end_lineno - node.lineno + 1, exempt))
            _walk(node.body, path, f"{prefix}{name}.<locals>.", False, out)
        else:
            # if/try/with blocks at any level hold defs of the same scope.
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                _walk([child for child in getattr(node, field, [])
                       if isinstance(child, ast.AST)], path, prefix,
                      protocol, out)


def functions(package: Path = PACKAGE) -> list[Function]:
    """Every function defined under ``package``, in file order."""
    out: list[Function] = []
    for source in sorted(package.rglob("*.py")):
        path = source.relative_to(package).as_posix()
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        _walk(tree.body, path, "", False, out)
    return out


def reached(calls: Path) -> set[tuple[str, int, str]]:
    """The ``(path, co_firstlineno, co_qualname)`` every process called."""
    seen: set[tuple[str, int, str]] = set()
    for record in calls.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            path, first, qualname = line.split("\t")
            seen.add((path, int(first), qualname))
    return seen


def read_list(text: str) -> dict[str, tuple[str, str]]:
    """``unreached.txt`` as ``{key: (tag, reason)}``; raises on a bad line."""
    listed: dict[str, tuple[str, str]] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        match = _LINE.fullmatch(line.strip())
        if match is None or not TAGS.fullmatch(match["tag"]):
            raise ValueError(f"unreached.txt:{number}: not "
                             f"'path::qualname  tag: reason' with a known "
                             f"tag: {line!r}")
        if match["key"] in listed:
            raise ValueError(f"unreached.txt:{number}: {match['key']} "
                             "is listed twice")
        listed[match["key"]] = (match["tag"], match["reason"])
    return listed


@dataclass
class Census:
    everything: list[Function]
    unreached: list[Function]
    unlisted: list[Function]   # unreached, not exempt, not listed
    stale: list[str]           # listed, yet it ran
    gone: list[str]            # listed, yet no such function, or exempt


def join(everything: list[Function], calls: set[tuple[str, int, str]],
         listed: dict[str, tuple[str, str]]) -> Census:
    """Hold the functions against the calls and the list.

    A call names its function by path and qualname; the line tells
    apart the defs that share both (a property's getter and setter), so
    a line that moved since the run matters only there.
    """
    shared = Counter(fn.key for fn in everything)
    named = {(path, qualname) for path, _, qualname in calls}
    unreached = [fn for fn in everything
                 if (fn.path, fn.firstlineno, fn.qualname) not in calls
                 and (shared[fn.key] > 1
                      or (fn.path, fn.qualname) not in named)]
    missed = {fn.key for fn in unreached if fn.exempt is None}
    present = {fn.key for fn in everything if fn.exempt is None}
    return Census(
        everything=everything,
        unreached=unreached,
        unlisted=[fn for fn in unreached
                  if fn.exempt is None and fn.key not in listed],
        stale=[key for key in listed if key in present and key not in missed],
        gone=[key for key in listed if key not in present],
    )


def run_entry_points(calls: Path) -> list[str]:
    """Run :data:`ENTRY_POINTS` under the hook; return the ones that failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(REPO / "src")])
    env["CENSUS_OUT"] = str(calls)
    failed = []
    with tempfile.TemporaryDirectory(prefix="census-work-") as work:
        for argv in ENTRY_POINTS:
            label = " ".join(argv)
            started = time.monotonic()
            result = subprocess.run(
                [sys.executable, *argv], cwd=work, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, check=False)
            took = time.monotonic() - started
            status = "ok" if result.returncode == 0 else (
                f"exit {result.returncode}")
            print(f"  {took:6.1f}s  {status:7}  python {label}", flush=True)
            if result.returncode != 0:
                failed.append(label)
                sys.stderr.write(result.stderr[-2000:])
    return failed


def report(census: Census) -> None:
    total = sum(fn.lines for fn in census.everything)
    lines = sum(fn.lines for fn in census.unreached)
    for fn in census.unreached:
        note = f"  [{fn.exempt}]" if fn.exempt else ""
        print(f"{fn.lines:5}  {fn.key}{note}")
    exempt = [fn for fn in census.unreached if fn.exempt]
    print(f"\n{len(census.everything)} functions, {total} lines; "
          f"unreached: {len(census.unreached)} functions, {lines} lines "
          f"({len(exempt)} exempt by rule, "
          f"{sum(fn.lines for fn in exempt)} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Which functions under src/repro does no run reach?")
    parser.add_argument("--check", action="store_true",
                        help="fail on anything neither reached, listed "
                             "nor exempt, and on stale list lines")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep the per-process call files in DIR")
    source.add_argument("--calls", type=Path, metavar="DIR",
                        help="join the call files of an earlier --keep "
                             "run instead of running the entry points")
    args = parser.parse_args(argv)

    listed = read_list(LIST.read_text(encoding="utf-8"))
    failed: list[str] = []
    if args.calls is not None:
        calls = reached(args.calls)
    else:
        out = Path(tempfile.mkdtemp(prefix="census-calls-"))
        try:
            failed = run_entry_points(out)
            calls = reached(out)
        finally:
            if args.keep is not None:
                shutil.copytree(out, args.keep, dirs_exist_ok=True)
            shutil.rmtree(out)
    census = join(functions(), calls, listed)
    report(census)
    if not args.check:
        return 0
    problems = [f"entry point failed: python {label}" for label in failed]
    problems += [f"unreached and not in unreached.txt: {fn.key}"
                 for fn in census.unlisted]
    problems += [f"listed but it ran: {key}" for key in census.stale]
    problems += [f"listed but no such function (or exempt by rule): {key}"
                 for key in census.gone]
    for problem in problems:
        print(f"CENSUS: {problem}", file=sys.stderr)
    print("census check: " + ("OK" if not problems
                              else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
