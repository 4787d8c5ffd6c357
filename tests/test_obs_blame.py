"""Tests for stall attribution and causal what-if (repro.obs.blame).

The probe-disabled bit-identity guarantee is pinned in
``tests/test_simt_determinism.py``; this file covers the analysis on
top of recorded evidence: exact lifetime tiling, stall coverage,
critical-path extraction (against a brute-force walk on a fixture),
identity/scaled replay, planted-slowdown localization, summary
merge/JSON round trips, metric publication, and the CLI.
"""

import json

import pytest

from repro.bfs.persistent import run_persistent_bfs
from repro.graphs import roadmap_graph
from repro.graphs.generators import social_graph
from repro.obs.blame import (
    ALL_CLASSES,
    COMPUTE,
    STALL_CLASSES,
    BlameGraph,
    BlameProbe,
    BlameSession,
    BlameSummary,
    Segment,
    build_graph,
    critical_path,
    publish_blame,
    replay,
    scale_graph,
    summarize_graph,
)
from repro.simt import TESTGPU


@pytest.fixture(scope="module")
def blame_run():
    """One blamed RF/AN BFS on the test GPU, shared across tests."""
    g = roadmap_graph(12, 12, seed=3)
    probe = BlameProbe()
    run = run_persistent_bfs(
        g, 0, "RF/AN", TESTGPU, 4, verify=False, observers=[probe]
    )
    graph = build_graph(probe)
    return probe, run, graph


@pytest.fixture(scope="module")
def blame_social():
    """A blamed BFS with real parallel work (social graph).

    The roadmap fixture is termination-dominated (tiny frontier); this
    one spreads cycles across reserve/dna_spin/termination, which the
    what-if localization tests need so a planted slowdown's signal is
    not drowned by one dominant class.
    """
    g = social_graph(400, 8, seed=1)
    probe = BlameProbe()
    run = run_persistent_bfs(
        g, 0, "RF/AN", TESTGPU, 4, verify=False, observers=[probe]
    )
    return probe, run, build_graph(probe)


class TestGraph:
    def test_segments_tile_each_lifetime_exactly(self, blame_run):
        _, _, graph = blame_run
        assert graph.segments
        for wf, segs in graph.segments.items():
            assert segs, f"wavefront {wf} has no segments"
            for a, b in zip(segs, segs[1:]):
                assert a.end == b.start  # contiguous, no gaps or overlap
            for seg in segs:
                assert seg.dur >= 0
                assert seg.cls in ALL_CLASSES

    def test_stall_classes_cover_noncompute_within_1pct(self, blame_run):
        # the acceptance bar: stall-class totals must account for all
        # non-compute cycles to within 1% (the tiling makes this exact
        # up to the explicit 'other' residual).
        _, _, graph = blame_run
        s = summarize_graph(graph, whatif=False)
        noncompute = s.wf_cycles - s.cycles.get(COMPUTE, 0.0)
        stalls = sum(s.cycles.get(c, 0.0) for c in STALL_CLASSES)
        assert noncompute > 0
        assert stalls >= 0.99 * noncompute
        assert stalls <= noncompute + 1e-9

    def test_summary_cycles_sum_to_wf_cycles(self, blame_run):
        _, _, graph = blame_run
        s = summarize_graph(graph, whatif=False)
        assert sum(s.cycles.values()) == pytest.approx(s.wf_cycles)

    def test_find_locates_containing_segment(self, blame_run):
        _, _, graph = blame_run
        wf = next(iter(graph.segments))
        seg = graph.segments[wf][len(graph.segments[wf]) // 2]
        mid = (seg.start + seg.end) / 2.0
        found = graph.find(wf, mid)
        assert found is seg or (found.start <= mid <= found.end)


class TestReplay:
    def test_identity_replay_reproduces_makespan_exactly(self, blame_run):
        _, _, graph = blame_run
        assert replay(graph) == pytest.approx(graph.total)
        assert replay(graph, {c: 1.0 for c in STALL_CLASSES}) == (
            pytest.approx(graph.total)
        )

    def test_scaling_down_shortens_scaling_up_lengthens(self, blame_run):
        _, _, graph = blame_run
        s = summarize_graph(graph, whatif=False)
        cls = max(STALL_CLASSES, key=lambda c: s.cycles.get(c, 0.0))
        assert s.cycles[cls] > 0
        assert replay(graph, {cls: 0.0}) < graph.total
        assert replay(graph, {cls: 2.0}) > graph.total

    def test_scale_then_inverse_recovers_original(self, blame_social):
        _, _, graph = blame_social
        s = summarize_graph(graph, whatif=False)
        for cls in ("dna_spin", "reserve", "termination"):
            assert s.cycles.get(cls, 0.0) > 0
            doubled = scale_graph(graph, {cls: 2.0})
            assert doubled.total > graph.total
            assert replay(doubled, {cls: 0.5}) == pytest.approx(graph.total)


def _fixture_graph():
    """Two wavefronts with a cross-wavefront causal wait.

    wf0: compute [0, 60].
    wf1: compute [0, 20]; dna_spin [20, 70] elastic, anchored to wf0's
    cycle 60 (residual 10); compute [70, 90].  Makespan 90.
    """
    segs = {
        0: [Segment(0, 0.0, 60.0, COMPUTE)],
        1: [
            Segment(1, 0.0, 20.0, COMPUTE),
            Segment(1, 20.0, 70.0, "dna_spin", elastic=True,
                    dep_wf=0, dep_cycle=60.0),
            Segment(1, 70.0, 90.0, COMPUTE),
        ],
    }
    return BlameGraph(segments=segs, total=90.0)


def _brute_force_chains(graph):
    """All legal backward chains from the final segment, exhaustively.

    At each elastic segment with an in-window anchor the walk may jump
    to the producer OR fall back to the wavefront's own predecessor;
    rigid segments only have the predecessor move.  Yields the
    per-class charge dict of every complete chain.
    """
    end_wf = max(graph.segments, key=lambda w: graph.segments[w][-1].end)
    start = (end_wf, len(graph.segments[end_wf]) - 1,
             graph.segments[end_wf][-1].end)

    out = []

    def walk(wf, i, cut, charged):
        seg = graph.segments[wf][i]
        prev_end = graph.segments[wf][i - 1].end if i > 0 else seg.start
        if (seg.elastic and seg.dep_cycle >= 0 and seg.dep_cycle >= prev_end
                and seg.dep_cycle <= cut and seg.dep_wf in graph.segments):
            nxt = dict(charged)
            nxt[seg.cls] = nxt.get(seg.cls, 0.0) + (cut - seg.dep_cycle)
            target = graph.find(seg.dep_wf, seg.dep_cycle)
            j = graph.segments[seg.dep_wf].index(target)
            walk(seg.dep_wf, j, seg.dep_cycle, nxt)
        nxt = dict(charged)
        nxt[seg.cls] = nxt.get(seg.cls, 0.0) + (cut - seg.start)
        if i > 0:
            walk(wf, i - 1, seg.start, nxt)
        else:
            out.append(nxt)

    walk(*start, {})
    return out


class TestCriticalPath:
    def test_fixture_matches_brute_force(self):
        graph = _fixture_graph()
        totals, chain = critical_path(graph)
        # every backward chain telescopes to the makespan...
        chains = _brute_force_chains(graph)
        assert chains
        for charged in chains:
            assert sum(charged.values()) == pytest.approx(graph.total)
        # ...and the walk returns the anchor-preferring one exactly
        assert totals == {COMPUTE: 80.0, "dna_spin": 10.0}
        assert {c: v for c, v in totals.items()} in chains
        assert sum(v for _, v in chain) == pytest.approx(graph.total)
        # the chain crossed into the producer wavefront
        assert {seg.wf for seg, _ in chain} == {0, 1}

    def test_anchor_outside_window_falls_back_to_predecessor(self):
        graph = _fixture_graph()
        # push the anchor before the wait even started: not binding
        graph.segments[1][1].dep_cycle = 10.0
        totals, chain = critical_path(graph)
        assert sum(totals.values()) == pytest.approx(graph.total)
        assert {seg.wf for seg, _ in chain} == {1}
        assert totals["dna_spin"] == pytest.approx(50.0)

    def test_bfs_chain_sums_to_makespan(self, blame_run):
        _, run, graph = blame_run
        totals, chain = critical_path(graph)
        assert chain
        # the chain telescopes from the last exit down to the first
        # issue of whichever wavefront it bottoms out in (launch ramp).
        root_start = chain[-1][0].start
        assert 0 <= root_start <= 64
        assert sum(totals.values()) == pytest.approx(
            graph.total - root_start
        )
        assert graph.total == pytest.approx(run.cycles)

    def test_empty_graph(self):
        totals, chain = critical_path(BlameGraph(segments={}, total=0.0))
        assert totals == {} and chain == []


class TestWhatIf:
    @pytest.mark.parametrize(
        "planted", ["dna_spin", "reserve", "termination"]
    )
    def test_planted_2x_slowdown_is_localized(self, blame_social, planted):
        # plant a 2x slowdown in one stall class, then ask the what-if
        # projector which class to fix: it must name the planted one,
        # and undoing it must recover the original makespan exactly.
        _, _, graph = blame_social
        base = summarize_graph(graph, whatif=False)
        assert base.cycles.get(planted, 0.0) > 0
        slowed = scale_graph(graph, {planted: 2.0})
        s = summarize_graph(slowed, whatif=True)
        best = max(
            (c for c in STALL_CLASSES if c in s.projections),
            key=lambda c: s.speedup(c, "half"),
        )
        assert best == planted
        assert replay(slowed, {planted: 0.5}) == pytest.approx(graph.total)

    def test_projection_keys_and_monotonicity(self, blame_run):
        _, _, graph = blame_run
        s = summarize_graph(graph, whatif=True)
        assert s.projections
        for cls, proj in s.projections.items():
            assert set(proj) == {"half", "zero"}
            assert proj["zero"] <= proj["half"] <= s.end_cycles
            assert s.speedup(cls, "zero") >= s.speedup(cls, "half") >= 1.0


class TestSummary:
    def test_json_round_trip(self, blame_run):
        _, _, graph = blame_run
        s = summarize_graph(graph, whatif=True)
        data = json.loads(json.dumps(s.to_json()))
        back = BlameSummary.from_json(data)
        assert back.to_json() == s.to_json()

    def test_merge_adds(self, blame_run):
        _, _, graph = blame_run
        a = summarize_graph(graph, whatif=True)
        b = summarize_graph(graph, whatif=True)
        m = BlameSummary()
        m.merge(a).merge(b)
        assert m.launches == 2
        assert m.end_cycles == pytest.approx(2 * graph.total)
        for cls, v in a.cycles.items():
            assert m.cycles[cls] == pytest.approx(2 * v)
        # fractions are ratio-preserving under merge
        for cls in a.cycles:
            assert m.fraction(cls) == pytest.approx(a.fraction(cls))


class TestPublish:
    def test_metrics_names_and_regress_rules(self, blame_run):
        from repro.obs.regress import DEFAULT_RULES, match_rule
        from repro.obs.registry import MetricsRegistry

        _, _, graph = blame_run
        s = summarize_graph(graph, whatif=False)
        reg = MetricsRegistry()
        publish_blame(s, reg)
        scalars = reg.scalars()
        for cls, v in s.cycles.items():
            assert scalars[f"blame.cycles.{cls}"] == int(v)
            assert scalars[f"blame.frac.{cls}"] == pytest.approx(
                s.fraction(cls), abs=1e-6
            )
        # the sentinel judges fractions with a wide band, cycles exactly
        frac_rule = match_rule("blame.frac.dna_spin", DEFAULT_RULES)
        assert frac_rule is not None and not frac_rule.exact
        assert frac_rule.tolerance == pytest.approx(0.25)
        cyc_rule = match_rule("blame.cycles.compute", DEFAULT_RULES)
        assert cyc_rule is not None and cyc_rule.exact


class TestBlameSession:
    def test_collects_and_restores_factory(self):
        import repro.simt.engine as engine_mod

        g = roadmap_graph(8, 8, seed=2)
        assert engine_mod.attached() == ()
        with BlameSession(keep_graphs=True, keep_probes=True) as session:
            run = run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 2, verify=False)
        assert engine_mod.attached() == ()
        assert len(session.launches) == 1
        assert len(session.graphs) == 1
        assert len(session.probes) == 1
        assert session.merged().end_cycles == pytest.approx(run.cycles)

    def test_not_reentrant(self):
        with BlameSession() as session:
            with pytest.raises(RuntimeError):
                session.__enter__()


class TestCli:
    def test_blame_main_bfs_quick(self, tmp_path, capsys):
        from repro.harness.cli import main

        rc = main(
            [
                "blame", "bfs",
                "--device", "testgpu",
                "--quick",
                "--no-ledger",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "what-if" in out

        payload = json.loads((tmp_path / "blame.json").read_text())
        blame = payload["blame"]
        # the emitted totals satisfy the 1%-of-non-compute bar
        noncompute = blame["wf_cycles"] - blame["cycles"].get(COMPUTE, 0.0)
        stalls = sum(
            v for c, v in blame["cycles"].items() if c in STALL_CLASSES
        )
        assert stalls >= 0.99 * noncompute

        trace = json.loads((tmp_path / "trace.json").read_text())
        flows = [
            e for e in trace["traceEvents"] if e.get("cat") == "blame"
        ]
        assert flows
        assert {e["ph"] for e in flows} == {"s", "f"}

    def test_blame_main_no_trace(self, tmp_path, capsys):
        from repro.harness.blame import blame_main

        rc = blame_main(
            [
                "nqueens",
                "--device", "testgpu",
                "--quick",
                "--no-ledger",
                "--no-trace",
                "--no-whatif",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "blame.json").exists()
        assert not (tmp_path / "trace.json").exists()


class TestSummarizeResults:
    def test_top3_blame_rendering_and_graceful_degrade(self, tmp_path):
        import sys

        sys.path.insert(0, "tools")
        try:
            from summarize_results import summarize_blame
        finally:
            sys.path.pop(0)

        # no artifacts: empty string, no exception
        assert summarize_blame(tmp_path) == ""

        # a malformed artifact degrades to a skip
        (tmp_path / "broken.blame.json").write_text("{not json")
        assert summarize_blame(tmp_path) == ""

        payload = {
            "workload": "bfs/tiny",
            "blame": {
                "end_cycles": 1000.0,
                "wf_cycles": 4000.0,
                "cycles": {
                    "compute": 2000.0, "dna_spin": 900.0,
                    "reserve": 700.0, "termination": 300.0,
                    "atomic_serial": 100.0,
                },
                "projections": {"dna_spin": {"half": 900.0, "zero": 800.0}},
            },
        }
        (tmp_path / "blame.json").write_text(json.dumps(payload))
        text = summarize_blame(tmp_path)
        assert "bfs/tiny" in text
        # top-3 stall classes only
        assert "dna_spin" in text and "reserve" in text
        assert "termination" in text and "atomic_serial" not in text
        assert "compute" not in text
