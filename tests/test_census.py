"""The census check itself, on a synthetic package: no entry point runs.

``tests/census/run.py --check`` joins three things: the functions a
package defines, the calls its runs recorded, and ``unreached.txt``.
Here the package and the calls are made up, so the join's verdicts can
be stated exactly.
"""

from __future__ import annotations

import importlib.util
import sys

import pytest

from tests.census import run as census

SOURCE = '''\
from typing import Protocol


class Clock(Protocol):
    def now(self) -> float: ...


def reached():
    return 1


def unreached():
    return 2


def listed_but_ran():
    return 3


class Box:
    def __len__(self):
        return 0

    @staticmethod
    def decorated():
        return 4
'''


def _record_calls(path, package) -> str:
    """Import ``path`` and call what a run would, recording the census's
    ``path<TAB>co_firstlineno<TAB>co_qualname`` lines the way the hook
    does."""
    spec = importlib.util.spec_from_file_location("census_synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    lines = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == str(path):
            lines.append(f"{path.relative_to(package).as_posix()}\t"
                         f"{code.co_firstlineno}\t{code.co_qualname}\n")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        module.reached()
        module.listed_but_ran()
        module.Box.decorated()
    finally:
        sys.setprofile(previous)
    return "".join(lines)


def test_join_flags_the_unlisted_and_the_stale(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    source = package / "mod.py"
    source.write_text(SOURCE, encoding="utf-8")
    calls = tmp_path / "calls"
    calls.mkdir()
    (calls / "4242.txt").write_text(_record_calls(source, package),
                                    encoding="utf-8")

    everything = census.functions(package)
    assert {fn.key: fn.exempt for fn in everything} == {
        "mod.py::Clock.now": "protocol",
        "mod.py::reached": None,
        "mod.py::unreached": None,
        "mod.py::listed_but_ran": None,
        "mod.py::Box.__len__": "dunder",
        "mod.py::Box.decorated": None,
    }
    listed = census.read_list(
        "mod.py::listed_but_ran  guard: a test drives it\n")
    result = census.join(everything, census.reached(calls), listed)
    assert [fn.key for fn in result.unlisted] == ["mod.py::unreached"]
    assert result.stale == ["mod.py::listed_but_ran"]
    assert result.gone == []
    # The stubs are unreached too, but exempt: counted, never flagged.
    assert sorted(fn.key for fn in result.unreached) == [
        "mod.py::Box.__len__", "mod.py::Clock.now", "mod.py::unreached"]


def test_a_listed_name_that_is_gone_or_exempt_is_flagged(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(SOURCE, encoding="utf-8")
    listed = census.read_list("mod.py::deleted  item 9: it went\n"
                              "mod.py::Clock.now  fixture: a stub\n"
                              "mod.py::unreached  bench: bench/ calls it\n")
    result = census.join(census.functions(package), set(), listed)
    assert result.gone == ["mod.py::deleted", "mod.py::Clock.now"]
    assert [fn.key for fn in result.unlisted] == [
        "mod.py::reached", "mod.py::listed_but_ran", "mod.py::Box.decorated"]


@pytest.mark.parametrize("line", [
    "mod.py::f  maybe: no such tag",
    "mod.py::f  item: a ROADMAP item needs its number",
    "mod.py::f guard",
    "mod.py f  guard: no qualname",
])
def test_a_bad_line_is_refused(line):
    with pytest.raises(ValueError):
        census.read_list(line)


def test_the_checked_in_list_parses_with_the_four_tags():
    listed = census.read_list(census.LIST.read_text(encoding="utf-8"))
    assert listed
    for key, (tag, reason) in listed.items():
        assert census.TAGS.fullmatch(tag), key
        assert reason.strip(), key
    assert {tag.split()[0] for tag, _ in listed.values()} <= {
        "bench", "item", "guard", "fixture"}
