"""Tests for repro.obs: metrics registry, trace bus, JSONL sink, report.

The simulation-backed tests share two module-scoped deployments (one
traced, one not) of the same seed, so the determinism claims — tracing
changes nothing, snapshots are reproducible — are checked against real
protocol runs without paying for a simulation per test.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.__main__ import main as chaos_main
from repro.experiments.harness import Simulation, SimulationConfig
from repro.obs import JsonlTraceSink, MetricsRegistry, TraceBus, read_trace
from repro.obs.metrics import HistogramSummary
from repro.obs.report import main as report_main
from repro.obs.report import render_report, round_segments, traffic_by_kind

from tests.fixtures import events_of

USERS = 8
ROUNDS = 2
SEED = 5
PAYMENTS = 16


def _run(obs: TraceBus | None) -> Simulation:
    sim = Simulation(SimulationConfig(num_users=USERS, seed=SEED), obs=obs)
    sim.submit_payments(PAYMENTS)
    sim.run_rounds(ROUNDS)
    return sim


def _chain_fingerprint(sim: Simulation) -> list[bytes]:
    return [sim.nodes[0].chain.block_at(r).block_hash
            for r in range(1, ROUNDS + 1)]


@pytest.fixture(scope="module")
def traced():
    bus = TraceBus()
    sim = _run(bus)
    return sim, bus


@pytest.fixture(scope="module")
def untraced():
    return _run(None)


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 4)
        registry.inc("a.c", 2.5)
        assert registry.snapshot()["counters"] == {"a.b": 5, "a.c": 2.5}

    def test_set_counter_overwrites(self):
        registry = MetricsRegistry()
        registry.inc("crypto.verifies", 3)
        registry.set_counter("crypto.verifies", 10)
        assert registry.snapshot()["counters"] == {"crypto.verifies": 10}

    def test_gauges(self):
        registry = MetricsRegistry()
        assert registry.snapshot()["gauges"] == {}
        registry.set_gauge("x", 1)
        registry.set_gauge("x", 7)
        assert registry.snapshot()["gauges"] == {"x": 7}

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.inc("gossip.sent.vote", 2)
        registry.inc("gossip.sent.block")
        registry.inc("router.unknown_kind")
        assert registry.counters_with_prefix("gossip.sent.") == {
            "gossip.sent.block": 1, "gossip.sent.vote": 2}

    def test_histograms(self):
        registry = MetricsRegistry()
        for value in (1, 5, 3):
            registry.observe("batch", value)
        summary = registry.snapshot()["histograms"]["batch"]
        assert summary == {"count": 3, "sum": 9.0, "min": 1, "max": 5,
                           "mean": 3.0}

    def test_empty_histogram_summary(self):
        assert HistogramSummary().as_dict() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            registry.inc(name)
            registry.set_gauge(name, 0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])
        assert list(snapshot["gauges"]) == sorted(snapshot["gauges"])


class TestTraceBus:
    def test_emit_stamps_bound_clock(self):
        bus = TraceBus()
        now = [0.0]
        bus.bind_clock(lambda: now[0])
        bus.emit("tick")
        now[0] = 2.5
        bus.emit("tock", node=3, round=1, step="final", extra="x")
        assert bus.events[0] == {"t": 0.0, "kind": "tick"}
        assert bus.events[1] == {"t": 2.5, "kind": "tock", "node": 3,
                                 "round": 1, "step": "final", "extra": "x"}

    def test_optional_fields_omitted(self):
        bus = TraceBus()
        bus.emit("bare")
        assert set(bus.events[0]) == {"t", "kind"}

    def test_max_events_bounds_memory(self):
        bus = TraceBus(max_events=2)
        for i in range(5):
            bus.emit("e", index=i)
        assert len(bus.events) == 2
        assert bus.dropped_events == 3

    def test_events_of_kind(self):
        bus = TraceBus()
        bus.emit("a")
        bus.emit("b")
        bus.emit("a")
        assert [event["kind"] for event in bus.events] == ["a", "b", "a"]

    def test_harvesters_run_at_snapshot(self):
        bus = TraceBus()
        bus.add_harvester(lambda b: b.metrics.set_counter("harvested", 42))
        assert bus.snapshot()["counters"]["harvested"] == 42

    def test_close_is_idempotent(self, tmp_path):
        bus = TraceBus()
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        bus.add_sink(sink)
        bus.emit("only")
        first = bus.close()
        second = bus.close()  # must not write a second snapshot
        assert first == second
        events, snapshot = read_trace(tmp_path / "t.jsonl")
        assert len(events) == 1 and snapshot is not None


class TestTracedSimulation:
    def test_event_times_match_simulated_clock(self, traced):
        sim, bus = traced
        times = [event["t"] for event in bus.events]
        assert times == sorted(times)
        assert times[-1] <= sim.env.now

    def test_tracing_is_a_pure_observer(self, traced, untraced):
        """Identical seed with and without a bus: byte-identical chains."""
        sim_on, _ = traced
        assert _chain_fingerprint(sim_on) == _chain_fingerprint(untraced)
        assert sim_on.env.events_processed == untraced.env.events_processed

    def test_snapshot_deterministic_across_runs(self, traced):
        _, bus = traced
        rerun_bus = TraceBus()
        _run(rerun_bus)
        assert rerun_bus.snapshot() == bus.snapshot()
        assert rerun_bus.events == bus.events

    def test_expected_event_kinds_present(self, traced):
        _, bus = traced
        kinds = {event["kind"] for event in bus.events}
        assert {"round_start", "block_proposed", "proposal_resolved",
                "vote_cast", "step_enter", "step_exit",
                "round_commit"} <= kinds

    def test_every_node_commits_every_round(self, traced):
        _, bus = traced
        commits = events_of(bus, "round_commit")
        assert len(commits) == USERS * ROUNDS
        for commit in commits:
            assert commit["total_s"] >= commit["ba_s"]
            assert commit["consensus"] in ("final", "tentative")

    def test_summary_surfaces_runtime_counters(self, traced):
        sim, _ = traced
        summary = sim.summary()
        assert summary["crypto.verifies"] > 0
        assert summary["crypto.vrf_verifies"] > 0
        assert summary["router.unknown_kind"] == 0
        assert summary["obs"]["counters"]["gossip.recv.vote"] > 0
        assert summary["sortition.verifies"] > 0


def test_interleaved_simulations_count_their_own_sortitions():
    """Sortition tallies belong to the run, not the process: a
    simulation built before another one ran reports what it reports
    alone."""
    def tallies(sim: Simulation) -> dict:
        return {name: value for name, value in sim.summary().items()
                if name.startswith("sortition.")}

    config = SimulationConfig(num_users=USERS, seed=SEED)
    first, second = Simulation(config), Simulation(config)
    first.run_rounds(ROUNDS)
    second.run_rounds(ROUNDS)
    assert tallies(first)["sortition.proves"] > 0
    assert tallies(second) == tallies(first)


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        bus.add_sink(JsonlTraceSink(path, buffer_lines=2))
        bus.bind_clock(lambda: 1.25)
        bus.emit("commit", node=0, round=1, block_hash=b"\x00\xff")
        bus.emit("plain", value=3)
        bus.metrics.inc("crypto.verifies", 9)
        bus.close()
        events, snapshot = read_trace(path)
        assert events == [
            {"t": 1.25, "kind": "commit", "node": 0, "round": 1,
             "block_hash": "00ff"},  # bytes are hex-encoded on write
            {"t": 1.25, "kind": "plain", "value": 3},
        ]
        assert snapshot["counters"]["crypto.verifies"] == 9

    def test_unknown_record_types_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"event","t":0,"kind":"a"}\n'
                        '{"type":"fancy-new-thing","x":1}\n'
                        '\n'
                        '{"type":"snapshot","metrics":{"counters":{}}}\n')
        events, snapshot = read_trace(path)
        assert len(events) == 1
        assert snapshot == {"counters": {}}

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"event","t":0,"kind":"a"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_trace(path)

    def test_closed_sink_rejects_writes(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.write_event({"t": 0, "kind": "late"})


class TestReport:
    def test_round_segments_aggregation(self):
        commits = [
            {"kind": "round_commit", "round": 1, "consensus": "final",
             "empty": False, "proposal_s": 2.0, "ba_s": 1.0,
             "final_s": 0.5, "total_s": 3.5},
            {"kind": "round_commit", "round": 1, "consensus": "tentative",
             "empty": False, "proposal_s": 4.0, "ba_s": 3.0,
             "final_s": 0.5, "total_s": 7.5},
        ]
        [row] = round_segments(commits)
        assert row["nodes"] == 2
        assert row["proposal_s"] == 3.0
        assert row["final_nodes"] == 1 and row["tentative_nodes"] == 1

    def test_traffic_join(self):
        rows = traffic_by_kind({
            "gossip.sent.vote": 10, "gossip.sent_bytes.vote": 1000,
            "gossip.recv.vote": 8, "gossip.relayed.vote": 5,
            "gossip.sent.block": 1,
        })
        assert [r["kind"] for r in rows] == ["block", "vote"]
        assert rows[1] == {"kind": "vote", "sent": 10, "sent_bytes": 1000,
                           "recv": 8, "recv_bytes": 0, "relayed": 5}

    def test_render_report_golden_sections(self, traced):
        _, bus = traced
        report = render_report(bus.events, bus.snapshot())
        for header in ("== Per-round segments", "== BA* step timings ==",
                       "== Message traffic by kind ==",
                       "== Runtime counters =="):
            assert header in report
        lines = report.splitlines()
        segment_rows = [line for line in lines
                        if line.split() and line.split()[0].isdigit()
                        and line.split()[1] == str(USERS)]
        assert len(segment_rows) == ROUNDS  # one aggregated row per round
        assert any("vote" in line for line in lines)
        assert any(line.split()[:1] == ["crypto"] and "verifies" in line
                   for line in lines)

    def test_render_report_empty_trace(self):
        report = render_report([], None)
        assert "(no round_commit events in trace)" in report
        assert "(trace has no snapshot record)" in report

    def test_cli_round_trip(self, traced, tmp_path, capsys):
        _, bus = traced
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        for event in bus.events:
            sink.write_event(event)
        sink.write_snapshot(bus.snapshot())
        sink.close()
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert f"({len(bus.events)} events, snapshot present)" in out
        assert "== Per-round segments" in out

    def test_cli_usage_errors(self, tmp_path, capsys):
        assert report_main([]) == 2
        assert report_main([str(tmp_path / "missing.jsonl")]) == 2
        out = capsys.readouterr().out
        assert "usage:" in out and "does not exist" in out


class TestRecordCLI:
    def test_records_playable_trace(self, tmp_path, capsys):
        """A plain run's trace comes from the chaos CLI's clean builtin."""
        path = tmp_path / "rec.jsonl"
        assert chaos_main(["--builtin", "clean", "--users", "6",
                           "--base-seed", "2", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[OK] clean: heights=[2, 2, 2, 2, 2, 2]" in out
        events, snapshot = read_trace(path)
        assert events and snapshot is not None
        assert json.dumps(snapshot)  # snapshot is JSON-clean
        assert report_main([str(path)]) == 0
