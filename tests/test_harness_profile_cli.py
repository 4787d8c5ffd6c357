"""Tests for ``python -m repro.harness profile`` and ``--profile``."""

import json

import pytest

from repro.harness.cli import main
from repro.harness.experiments import EXPERIMENTS, ExperimentResult
from repro.harness.profile import profile_main


class TestProfileSubcommand:
    def test_bfs_smoke_writes_trace_and_metrics(self, tmp_path, capsys):
        rc = main(
            [
                "profile", "bfs",
                "--device", "testgpu",
                "--quick",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "utilization over simulated time" in out
        assert "queue contention" in out

        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["sim_cycles"] > 0

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["workload"].startswith("bfs/")
        launch = metrics["launches"][-1]
        assert launch["device"] == "TestGPU"
        assert launch["queues"]  # the work queue registered itself

    def test_variant_flag_reaches_the_queue(self, tmp_path):
        rc = profile_main(
            [
                "bfs",
                "--device", "testgpu",
                "--variant", "BASE",
                "--quick",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        variants = {
            q["variant"]
            for launch in metrics["launches"]
            for q in launch["queues"].values()
        }
        assert variants == {"BASE"}

    def test_nqueens_workload(self, tmp_path):
        rc = profile_main(
            [
                "nqueens",
                "--device", "testgpu",
                "--quick",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["workload"].startswith("nqueens/")

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            profile_main(["mandelbrot"])


def _tiny_run(exp_id):
    """A stand-in experiment: one tiny BFS per queue variant."""
    from repro.bfs.persistent import run_persistent_bfs
    from repro.graphs import roadmap_graph
    from repro.simt import TESTGPU

    g = roadmap_graph(8, 8, seed=5)
    cycles = {}
    for variant in ("BASE", "RF/AN"):
        run = run_persistent_bfs(g, 0, variant, TESTGPU, 2, verify=False)
        cycles[variant] = run.cycles
    return ExperimentResult(
        exp_id, "tiny", f"cycles={cycles}", {"cycles": cycles}
    )


def _tiny_experiment(cfg):
    """A stand-in experiment: one tiny BFS per queue variant."""
    return _tiny_run("tinyexp")


def _tiny_experiment2(cfg):
    """A second stand-in experiment (distinct id for parallel runs)."""
    return _tiny_run("tinyexp2")


class TestProfileFlag:
    def test_profile_flag_keeps_report_and_adds_metrics(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENTS, "tinyexp", _tiny_experiment)

        rc = main(["tinyexp", "--out", str(tmp_path / "plain")])
        assert rc == 0
        plain = capsys.readouterr().out

        rc = main(["tinyexp", "--profile", "--out", str(tmp_path / "prof")])
        assert rc == 0
        profiled = capsys.readouterr().out

        # the report itself is unchanged by profiling
        plain_txt = (tmp_path / "plain" / "tinyexp.txt").read_text()
        prof_txt = (tmp_path / "prof" / "tinyexp.txt").read_text()
        assert plain_txt == prof_txt
        assert "cycles=" in plain and "cycles=" in profiled

        payload = json.loads(
            (tmp_path / "prof" / "tinyexp.profile.json").read_text()
        )
        assert len(payload["launches"]) == 2  # one per variant
        assert all(l["cycles"] > 0 for l in payload["launches"])
        assert not (tmp_path / "plain" / "tinyexp.profile.json").exists()

    def test_probe_factory_restored_after_profile_run(self, monkeypatch):
        import repro.simt.engine as engine_mod

        monkeypatch.setitem(EXPERIMENTS, "tinyexp", _tiny_experiment)
        assert engine_mod.attached() == ()
        assert main(["tinyexp", "--profile"]) == 0
        assert engine_mod.attached() == ()

    def test_profile_single_experiment_with_jobs_stays_quiet(
        self, monkeypatch, capsys
    ):
        # one experiment: nothing to fan out, no caching to lose.
        monkeypatch.setitem(EXPERIMENTS, "tinyexp", _tiny_experiment)
        assert main(["tinyexp", "--profile", "--jobs", "4"]) == 0
        err = capsys.readouterr().err
        assert "--profile" not in err

    def test_profile_composes_with_jobs(self, monkeypatch, capsys, tmp_path):
        # sessions open inside each worker; per-experiment metrics come
        # back attributed, and the warning explains the lost run cache.
        monkeypatch.setitem(EXPERIMENTS, "tinyexp", _tiny_experiment)
        monkeypatch.setitem(EXPERIMENTS, "tinyexp2", _tiny_experiment2)

        from repro.harness.config import HarnessConfig
        from repro.harness.experiments import run_many

        cfg = HarnessConfig(quick=True, verify=False)
        profiles = {}
        results = run_many(
            cfg, ["tinyexp", "tinyexp2"], jobs=2, profiles=profiles
        )
        assert [r.exp_id for r in results] == ["tinyexp", "tinyexp2"]
        for exp_id in ("tinyexp", "tinyexp2"):
            launches = profiles[exp_id]
            assert len(launches) == 2  # one per variant
            assert all(l["cycles"] > 0 for l in launches)

        # profiled parallel results match the sequential profiled path
        seq_profiles = {}
        seq_results = run_many(
            cfg, ["tinyexp", "tinyexp2"], jobs=1, profiles=seq_profiles
        )
        assert [r.text for r in seq_results] == [r.text for r in results]
        assert seq_profiles == profiles


class TestProfileSessionEdgeCases:
    def test_double_attach_raises(self):
        from repro.obs import ProfileSession

        with ProfileSession() as session:
            with pytest.raises(RuntimeError):
                session.__enter__()

    def test_detach_without_attach_raises_and_preserves_factory(self):
        import repro.simt.engine as engine_mod
        from repro.obs import ProfileSession

        # an attached session must survive a stray __exit__ of another
        # one that was never entered.
        with ProfileSession() as active:
            assert engine_mod.attached() == (active,)
            with pytest.raises(RuntimeError):
                ProfileSession().__exit__(None, None, None)
            assert engine_mod.attached() == (active,)
        assert engine_mod.attached() == ()

    def test_session_reusable_after_clean_exit(self):
        import repro.simt.engine as engine_mod
        from repro.obs import ProfileSession

        session = ProfileSession()
        for _ in range(2):
            with session:
                assert engine_mod.attached() == (session,)
            assert engine_mod.attached() == ()
