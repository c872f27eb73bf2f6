"""The printed figures and tables are pinned byte for byte.

Tiny grids of every sweep-backed measure (latency, adversarial, block
size, timeouts, waiting, traffic) go through the grid builders, the sweep engine
and the renderers the ``python -m repro.experiments`` artifacts print
with; the sha256 of each rendered text is compared to a recorded value.
A change to how an experiment point is described, run or measured must
leave these digests alone: the same deployment prints the same bytes.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.__main__ import ARTIFACTS
from repro.experiments.adversarial import figure8_specs
from repro.experiments.latency import figure5_specs, figure6_specs
from repro.experiments.sweep import run_point, run_sweep
from repro.experiments.throughput import figure7_specs
from repro.experiments.timeouts import timeouts_spec
from repro.experiments.traffic import build_report, render_census
from repro.experiments.waiting import waiting_specs

#: Artifact renderer -> the tiny grid it renders.
GRIDS = {
    "fig5": lambda: figure5_specs([6, 8], seed=100, payload_bytes=4_000),
    "fig6": lambda: figure6_specs([6, 8], seed=200),
    "fig7": lambda: figure7_specs([1_000, 5_000], seed=300, num_users=6),
    "fig8": lambda: figure8_specs([0.0, 0.2], num_users=10, seed=700),
    "tab_throughput": lambda: figure7_specs([2_000], seed=400, num_users=6),
    "tab_timeouts": lambda: [timeouts_spec(6, seed=800, rounds=2)],
    "tab_waiting": lambda: waiting_specs([0.1, 2.0], seed=10, num_users=6),
}

#: sha256 of each rendered text.
DIGESTS = {
    "fig5": "06d66d3d5e67e918c2ff9341c9f9e09d04e54bf5e6b311dd9aa8ab34f64c564e",
    "fig6": "3b40e70544ca78f8007968da4ba3a138f98ddc350ea41564ac8c81341d9cb15b",
    "fig7": "f4f528fc278f13080cffd268984ced258097242a6d022e9fceabc73980d2d665",
    "fig8": "a97dc719d956d6c17e2520920cc37816b44477a08a4cc86bb0dd1b181c48f2e6",
    "tab_throughput": "317502f7d2316083574bf2c541e832ffa9e85f01654d49f0459b23ad20c31ff0",
    "tab_timeouts": "758c03a1b8ef3e7b5c3f04d8192f5ba8933abd13f01ae406da5543ce85fa4f24",
    "tab_waiting": "42b709a66288c13307bff185fbed8311b6a02974e707b1741d5438cc12255c3e",
    "census": "a3a7fd1e07434c1ac2144f9df8c87d51a894c206b1cabfb9749d2d22848775d6",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render(name: str) -> str:
    if name == "census":
        return render_census(build_report(include_scale=False,
                                          num_users=10, rounds=1))
    report = run_sweep(GRIDS[name](), jobs=1)
    assert not report.failures, [o.error for o in report.failures]
    return ARTIFACTS[name].render(report.results())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_rendered_text_is_pinned(name):
    assert _digest(render(name)) == DIGESTS[name], render(name)


#: sha256 of a tiny section 10.5 timeout report, as sorted-key JSON;
#: recorded before ``measure_timeouts`` became a sweep measure.
TIMEOUTS_DIGEST = \
    "362fb887dea10ca27a16ccac664599b8b8f6f6249d3812a1a55e86f656af4bab"


def test_timeouts_report_is_pinned():
    report = run_point(timeouts_spec(6, seed=800, rounds=2)).data()
    assert _digest(json.dumps(report, sort_keys=True)) == TIMEOUTS_DIGEST, \
        report
