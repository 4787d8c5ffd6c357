"""Tests for the run ledger and the ``runs`` CLI."""

import json

import pytest

from repro.harness.cli import main
from repro.obs.ledger import Ledger, LedgerError, config_hash


@pytest.fixture
def ledger(tmp_path):
    return Ledger(tmp_path / "ledger")


def _record(ledger, n=0, **metrics):
    metrics = metrics or {"sim.cycles": 100 + n, "tab1.seconds": 1.0}
    return ledger.record(
        kind="harness",
        config={"experiments": ["tab1"], "quick": True},
        metrics=metrics,
        wall_seconds=1.25,
        argv=["tab1", "--quick"],
        created=1_700_000_000 + n,  # distinct, deterministic timestamps
    )


class TestLedger:
    def test_record_writes_manifest_and_index(self, ledger):
        entry = _record(ledger)
        assert entry["schema"] == 1
        assert entry["config_hash"] == config_hash(entry["config"])
        assert entry["run_id"].endswith(entry["config_hash"][:8])
        on_disk = json.loads(
            (ledger.root / f"{entry['run_id']}.json").read_text()
        )
        assert on_disk == entry
        (line,) = ledger.entries()
        assert line["run_id"] == entry["run_id"]
        assert "metrics" not in line  # index lines stay slim

    def test_same_second_runs_get_distinct_ids(self, ledger):
        a = _record(ledger, n=0)
        b = ledger.record(
            kind="harness", config={"experiments": ["tab1"], "quick": True},
            metrics={}, wall_seconds=0.1, created=1_700_000_000,
        )
        assert a["run_id"] != b["run_id"]
        assert len(ledger.entries()) == 2

    def test_load_by_exact_prefix_last_and_last_n(self, ledger):
        first = _record(ledger, n=0)
        second = _record(ledger, n=60)
        assert ledger.load(first["run_id"])["run_id"] == first["run_id"]
        assert ledger.load("last")["run_id"] == second["run_id"]
        assert ledger.load("last~1")["run_id"] == first["run_id"]
        prefix = first["run_id"][: len(first["run_id"]) - 2]
        if not second["run_id"].startswith(prefix):
            assert ledger.load(prefix)["run_id"] == first["run_id"]

    def test_load_errors(self, ledger):
        with pytest.raises(LedgerError):
            ledger.load("last")  # empty ledger
        _record(ledger, n=0)
        _record(ledger, n=60)
        with pytest.raises(LedgerError):
            ledger.load("last~5")
        with pytest.raises(LedgerError):
            ledger.load("20")  # ambiguous prefix (both start with "20")
        with pytest.raises(LedgerError):
            ledger.load("no-such-run")
        with pytest.raises(LedgerError):
            ledger.load("last~-1")  # negative N must not wrap to the oldest run

    def test_env_var_moves_the_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "elsewhere"))
        assert Ledger().root == tmp_path / "elsewhere"


class TestRunsCli:
    """The ``python -m repro.harness runs ...`` surface.

    The autouse ``_isolated_ledger`` fixture points ``$REPRO_LEDGER`` at
    a per-test tmp dir, so harness invocations here record into it.
    """

    def test_harness_run_records_and_lists(self, capsys):
        assert main(["tab1", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "[ledger: recorded run " in captured.err
        assert "[ledger:" not in captured.out  # stdout stays report-only

        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "harness" in out and "1 run(s)" in out

    def test_no_ledger_flag_skips_recording(self, capsys):
        assert main(["tab1", "--quick", "--no-ledger"]) == 0
        capsys.readouterr()
        # an empty ledger is an error for queries: one line, exit 1
        assert main(["runs", "list"]) == 1
        captured = capsys.readouterr()
        assert "no runs recorded" in captured.err
        assert captured.err.count("\n") == 1

    def test_empty_ledger_queries_exit_one(self, capsys):
        for argv in (["runs", "list"], ["runs", "report"],
                     ["runs", "diff", "last~1", "last"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "no runs recorded" in captured.err

    def test_show_and_diff_identical_runs(self, capsys):
        assert main(["tab1", "--quick"]) == 0
        assert main(["tab1", "--quick"]) == 0
        capsys.readouterr()

        assert main(["runs", "show", "last"]) == 0
        out = capsys.readouterr().out
        assert "kind" in out and "harness" in out
        assert "tab1.seconds" in out

        # identical config, deterministic sim metrics: diff passes
        assert main(["runs", "diff", "last~1", "last"]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: PASS" in out

    def test_diff_flags_injected_regression(self, capsys, monkeypatch, tmp_path):
        import os

        assert main(["tab1", "--quick"]) == 0
        capsys.readouterr()
        ledger = Ledger()
        base = ledger.load("last")
        worse = dict(base["metrics"])
        worse["experiments"] = worse.get("experiments", 1) - 1
        worse["tab1.seconds"] = worse.get("tab1.seconds", 1.0) * 10 + 1.0
        ledger.record(
            kind="harness", config=base["config"], metrics=worse,
            wall_seconds=99.0,
        )
        assert main(["runs", "diff", "last~1", "last"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "VERDICT: FAIL" in out
        assert "tab1.seconds" in out

    def test_report_shows_verdict_vs_predecessor(self, capsys):
        assert main(["tab1", "--quick"]) == 0
        assert main(["tab1", "--quick"]) == 0
        capsys.readouterr()
        assert main(["runs", "report"]) == 0
        out = capsys.readouterr().out
        assert "vs prev" in out
        assert "first" in out
        assert "ok" in out

    def test_old_entries_with_job_id_still_load(self, capsys):
        """Entries written when the ledger still carried ``job_id`` load."""
        ledger = Ledger()
        ledger.root.mkdir(parents=True)
        index = []
        for n in range(2):
            run_id = f"20231114T221320Z-abcdef0{n}"
            entry = {
                "schema": 1, "run_id": run_id, "kind": "harness",
                "created": "2023-11-14T22:13:20Z", "argv": ["tab1"],
                "git_sha": None, "python": "3.11.0", "platform": "linux",
                "seed": None, "job_id": "job-xyz",
                "config": {"experiments": ["tab1"]},
                "config_hash": "abcdef0123", "wall_seconds": 1.0,
                "metrics": {"sim.cycles": 100}, "notes": None,
            }
            (ledger.root / f"{run_id}.json").write_text(json.dumps(entry))
            index.append(json.dumps({
                k: entry[k] for k in ("schema", "run_id", "kind", "created",
                                      "git_sha", "config_hash",
                                      "wall_seconds", "job_id")
            }))
        ledger.index_path.write_text("\n".join(index) + "\n")

        assert main(["runs", "list"]) == 0
        assert "2 run(s)" in capsys.readouterr().out
        assert main(["runs", "show", "last"]) == 0
        assert "20231114T221320Z-abcdef01" in capsys.readouterr().out
        assert main(["runs", "diff", "last~1", "last"]) == 0
        assert "VERDICT: PASS" in capsys.readouterr().out

    def test_unknown_ref_exits_1(self, capsys):
        assert main(["runs", "show", "nope"]) == 1
        assert "no run matching" in capsys.readouterr().err
