"""Tests for the regression sentinel, tools/bench_diff.py and the
guards of tools/bench_engine.py."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.regress import (
    DEFAULT_RULES,
    Rule,
    check_floors,
    compare,
    extract_metrics,
    flatten_metrics,
    match_rule,
)

REPO = Path(__file__).resolve().parents[1]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_diff = _load_tool("bench_diff")
bench_engine = _load_tool("bench_engine")


class TestRules:
    def test_first_match_wins(self):
        rules = (Rule("a.*", better="lower"), Rule("*", better="higher"))
        assert match_rule("a.x", rules).better == "lower"
        assert match_rule("b.x", rules).better == "higher"

    def test_default_rules_classify_the_bench_namespace(self):
        assert match_rule("soup.cycles", DEFAULT_RULES).exact
        assert match_rule("sim.issued_ops", DEFAULT_RULES).exact
        assert match_rule("queue.cas_retry_rounds", DEFAULT_RULES).exact
        sec = match_rule("bfs.seconds", DEFAULT_RULES)
        assert not sec.exact and sec.better == "lower"
        ops = match_rule("soup.ops_per_sec", DEFAULT_RULES)
        assert ops.better == "higher"
        assert not match_rule("harness_quick.jobs", DEFAULT_RULES).gate

    def test_flight_and_watchdog_rules(self):
        # recorder overhead is a noisy wall-clock ratio: tolerant, lower
        # better; watchdog trips are deterministic windows: exact, so a
        # new trip on a previously clean config gates.
        frac = match_rule("flight.overhead_frac", DEFAULT_RULES)
        assert frac.better == "lower" and not frac.exact
        trips = match_rule("watchdog.trips", DEFAULT_RULES)
        assert trips.exact and trips.better == "lower"
        assert match_rule("watchdog.warns", DEFAULT_RULES).exact
        # the flight benchmark's simulated quantities stay exact via the
        # generic rules (flight.* wall metrics keep their own patterns)
        assert match_rule("flight.cycles", DEFAULT_RULES).exact
        sec = match_rule("flight.seconds", DEFAULT_RULES)
        assert not sec.exact and sec.better == "lower"


class TestFloors:
    def test_vector_throughput_floors_live_in_the_rule_table(self):
        # the CI bench-vector-guard step and bench_engine --vector-guard
        # both read these floors; they are the single source of truth.
        soup = match_rule("soup.ops_per_sec", DEFAULT_RULES)
        bfs = match_rule("bfs.ops_per_sec", DEFAULT_RULES)
        assert soup.floor and soup.floor > 0
        assert bfs.floor and bfs.floor > 0
        assert "floor" in soup.describe()

    def test_check_floors_flags_only_breaches(self):
        soup_floor = match_rule("soup.ops_per_sec", DEFAULT_RULES).floor
        good = {"soup.ops_per_sec": soup_floor + 1, "other.ops_per_sec": 1}
        assert check_floors(good) == {}
        bad = {"soup.ops_per_sec": soup_floor - 1}
        assert check_floors(bad) == {
            "soup.ops_per_sec": (soup_floor - 1, soup_floor)
        }

    def test_floors_do_not_leak_into_pairwise_compare(self):
        # a floor judges one run on its own; compare() stays strictly
        # baseline-relative so historic small-scale fixtures keep
        # working and bench_diff's tolerance semantics are unchanged.
        below = {"soup.ops_per_sec": 1800}
        assert compare(below, dict(below)).passed


class TestCompare:
    def test_exact_rule_fails_on_any_unfavourable_drift(self):
        cmp = compare({"soup.cycles": 100}, {"soup.cycles": 101})
        assert not cmp.passed
        assert cmp.regressions[0].name == "soup.cycles"

    def test_exact_rule_notes_favourable_drift_without_failing(self):
        cmp = compare({"soup.cycles": 100}, {"soup.cycles": 99})
        assert cmp.passed
        assert cmp.deltas[0].status == "changed"

    def test_tolerance_absorbs_wall_clock_noise(self):
        cmp = compare({"bfs.seconds": 1.0}, {"bfs.seconds": 1.2})
        assert cmp.passed  # +20% < 35% tolerance
        cmp = compare({"bfs.seconds": 1.0}, {"bfs.seconds": 1.5})
        assert not cmp.passed

    def test_direction_aware_ops_per_sec(self):
        cmp = compare({"x.ops_per_sec": 1000}, {"x.ops_per_sec": 500})
        assert not cmp.passed
        cmp = compare({"x.ops_per_sec": 500}, {"x.ops_per_sec": 1000})
        assert cmp.passed
        assert cmp.deltas[0].status == "improved"

    def test_added_and_removed_metrics_never_gate(self):
        cmp = compare({"gone.cycles": 5}, {"new.cycles": 7})
        assert cmp.passed
        assert {d.status for d in cmp.deltas} == {"added", "removed"}

    def test_render_table_and_verdict(self):
        cmp = compare(
            {"soup.cycles": 100, "bfs.seconds": 1.0},
            {"soup.cycles": 110, "bfs.seconds": 1.0},
            label_a="base", label_b="cand",
        )
        text = cmp.render()
        assert "REGRESSION" in text
        assert "VERDICT: FAIL" in text
        assert "base" in text and "cand" in text
        passing = compare({"a.cycles": 1}, {"a.cycles": 1}).render()
        assert "VERDICT: PASS" in passing

    def test_flatten_and_extract(self):
        bench = {"benchmarks": {"soup": {"cycles": 5, "label": "x"}}}
        assert extract_metrics(bench) == {"soup.cycles": 5}
        entry = {"metrics": {"sim.cycles": 9}}
        assert extract_metrics(entry) == {"sim.cycles": 9}
        assert flatten_metrics({"a": {"b": 1}, "flag": True}) == {"a.b": 1}


@pytest.fixture
def bench_pair(tmp_path):
    base = {
        "benchmarks": {
            "soup": {"seconds": 0.5, "issued_ops": 900, "cycles": 1000,
                     "ops_per_sec": 1800},
            "bfs": {"seconds": 1.0, "issued_ops": 5000, "cycles": 9000,
                    "ops_per_sec": 5000},
        }
    }
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base))
    return base, base_path


class TestBenchDiffCli:
    def test_identical_passes(self, bench_pair, tmp_path, capsys):
        base, base_path = bench_pair
        same = tmp_path / "same.json"
        same.write_text(json.dumps(base))
        assert bench_diff.main([str(base_path), str(same)]) == 0
        assert "VERDICT: PASS" in capsys.readouterr().out

    def test_injected_regression_fails(self, bench_pair, tmp_path, capsys):
        base, base_path = bench_pair
        bad = json.loads(json.dumps(base))
        bad["benchmarks"]["soup"]["cycles"] += 1       # sim drift: exact
        bad["benchmarks"]["bfs"]["seconds"] *= 2.0     # wall: over tolerance
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert bench_diff.main([str(base_path), str(bad_path)]) == 1
        out = capsys.readouterr().out
        assert "soup.cycles" in out and "bfs.seconds" in out
        assert "VERDICT: FAIL — 2 regression(s)" in out

    def test_tolerance_flag_widens_wall_gate(self, bench_pair, tmp_path):
        base, base_path = bench_pair
        slow = json.loads(json.dumps(base))
        slow["benchmarks"]["bfs"]["seconds"] *= 2.0
        slow["benchmarks"]["bfs"]["ops_per_sec"] //= 2
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        assert bench_diff.main([str(base_path), str(slow_path)]) == 1
        assert bench_diff.main(
            [str(base_path), str(slow_path), "--tolerance", "1.5"]
        ) == 0

    def test_missing_input_exits_2(self, bench_pair, tmp_path):
        _, base_path = bench_pair
        with pytest.raises(SystemExit) as exc:
            bench_diff.main([str(base_path), str(tmp_path / "absent.json")])
        assert exc.value.code == 2

    def test_ledger_refs_resolve(self, bench_pair, tmp_path, monkeypatch, capsys):
        from repro.obs.ledger import Ledger

        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        ledger = Ledger()
        cfg = {"benchmarks": ["soup"]}
        ledger.record("bench_engine", cfg, {"soup.cycles": 10},
                      wall_seconds=1.0, created=1_700_000_000)
        ledger.record("bench_engine", cfg, {"soup.cycles": 10},
                      wall_seconds=1.0, created=1_700_000_060)
        assert bench_diff.main(["last~1", "last"]) == 0
        assert "VERDICT: PASS" in capsys.readouterr().out


class TestBenchEngineGuard:
    """``--guard`` evaluates all of its checks before exiting."""

    POINT = {"seconds": 1.0, "issued_ops": 10, "cycles": 100,
             "ops_per_sec": 10}

    @pytest.fixture
    def fake_benches(self, monkeypatch):
        # canned datapoints: the guard logic runs, no launch does
        point = self.POINT
        for name in ("bench_soup", "bench_bfs", "bench_bfs_sharded",
                     "bench_bfs_sharded_imbalanced"):
            monkeypatch.setattr(
                bench_engine, name, lambda repeats=3: dict(point)
            )

        def fracs(flight, grow):
            monkeypatch.setattr(
                bench_engine, "bench_bfs_flight",
                lambda repeats, bare: dict(point, overhead_frac=flight),
            )
            monkeypatch.setattr(
                bench_engine, "bench_bfs_grow",
                lambda repeats, bare: dict(point, overhead_frac=grow),
            )

        return fracs

    def _guard(self, tmp_path, baseline_seconds):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"benchmarks": {
            "soup": dict(self.POINT, seconds=baseline_seconds)
        }}))
        out = tmp_path / "bench.json"
        argv = ["--quick", "--no-ledger", "--out", str(out),
                "--baseline", str(base), "--guard", "--flight-budget", "0.35"]
        return argv, out

    def test_wall_clock_and_flight_failures_are_both_named(
        self, fake_benches, tmp_path
    ):
        fake_benches(flight=0.9, grow=0.01)
        # soup runs 2x its baseline: past the 35% wall-clock tolerance
        argv, out = self._guard(tmp_path, baseline_seconds=0.5)
        with pytest.raises(SystemExit) as exc:
            bench_engine.main(argv)
        msg = str(exc.value)
        assert "wall-clock guard" in msg
        assert "flight guard" in msg
        assert "grow guard" not in msg
        guard = json.loads(out.read_text())["guard"]
        assert guard["failed"] == ["wall-clock", "flight"]
        assert guard["passed"] is False
        assert guard["flight_overhead_frac"] == 0.9
        assert guard["grow_overhead_frac"] == 0.01
        assert set(guard["regressions"]) == {"soup"}

    def test_passing_guard_records_every_check(self, fake_benches, tmp_path):
        fake_benches(flight=0.1, grow=0.01)
        argv, out = self._guard(tmp_path, baseline_seconds=1.0)
        assert bench_engine.main(argv) == 0
        guard = json.loads(out.read_text())["guard"]
        assert guard["failed"] == [] and guard["passed"] is True
        assert guard["flight_budget"] == 0.35
        assert guard["grow_budget"] == 0.10
