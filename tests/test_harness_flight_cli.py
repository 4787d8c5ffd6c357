"""The ``--flight`` harness surface: watch, postmortem, live telemetry."""

from repro.harness.cli import main
from repro.harness.postmortem import postmortem_main
from repro.harness.watch import watch_main
from repro.obs.flight import build_postmortem, write_postmortem
from repro.obs.runlog import read_runlog
from repro.simt import QueueFullError


class TestFlightFlag:
    def test_flight_run_emits_snapshots_and_stays_identical(
        self, tmp_path, capsys
    ):
        # fig1 actually simulates launches (tab1/tab2 are pure dataset
        # statistics, so they would never touch the flight recorder).
        log_plain = tmp_path / "plain.jsonl"
        log_flight = tmp_path / "flight.jsonl"
        assert main(
            ["fig1", "--quick", "--no-ledger",
             "--run-log", str(log_plain)]
        ) == 0
        plain_out = capsys.readouterr().out
        assert main(
            ["fig1", "--quick", "--no-ledger", "--flight",
             "--run-log", str(log_flight),
             "--postmortem-dir", str(tmp_path / "pm")]
        ) == 0
        flight_out = capsys.readouterr().out

        # the recorder is passive: stdout reports are byte-identical
        # (modulo the wall-clock "regenerated in Xs" footer line)
        def report_lines(text):
            return [
                ln for ln in text.splitlines()
                if "regenerated in" not in ln
            ]

        assert report_lines(flight_out) == report_lines(plain_out)

        events = read_runlog(str(log_flight))
        kinds = [ev["event"] for ev in events]
        assert "snapshot" in kinds
        snap = next(ev for ev in events if ev["event"] == "snapshot")
        assert snap["cycle"] > 0
        assert snap["queues"]
        assert "deliveries" in snap
        # a healthy run writes no postmortem bundles
        assert not list((tmp_path / "pm").glob("*.json")) \
            if (tmp_path / "pm").exists() else True

    def test_flight_composes_with_profile(self, tmp_path, capsys):
        log = tmp_path / "both.jsonl"
        for name, flags in (
            ("plain", []),
            ("prof", ["--profile"]),
            ("both", ["--profile", "--flight", "--run-log", str(log),
                      "--postmortem-dir", str(tmp_path / "pm")]),
        ):
            assert main(
                ["fig1", "--quick", "--no-ledger",
                 "--out", str(tmp_path / name), *flags]
            ) == 0
        assert "ignored" not in capsys.readouterr().err
        # reports match a plain run byte for byte, the profile matches
        # --profile alone, and the flight recorder streamed snapshots
        for fname in ("fig1.json", "fig1.txt"):
            assert (tmp_path / "both" / fname).read_bytes() == (
                tmp_path / "plain" / fname
            ).read_bytes()
        assert (tmp_path / "both" / "fig1.profile.json").read_bytes() == (
            tmp_path / "prof" / "fig1.profile.json"
        ).read_bytes()
        kinds = [ev["event"] for ev in read_runlog(str(log))]
        assert "snapshot" in kinds


class TestWatchCli:
    def test_once_renders_a_frame(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(
            ["fig1", "--quick", "--no-ledger", "--flight",
             "--run-log", str(log)]
        ) == 0
        capsys.readouterr()
        assert watch_main([str(log), "--once"]) == 0
        out = capsys.readouterr().out
        assert "DONE" in out
        assert "groups" in out
        assert "queue fill:" in out
        assert "delivered" in out

    def test_once_missing_file_exits_one(self, tmp_path, capsys):
        assert watch_main([str(tmp_path / "nope.jsonl"), "--once"]) == 1
        assert "no runlog" in capsys.readouterr().err

    def test_loop_stops_on_run_finished(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(
            ["tab1", "--quick", "--no-ledger", "--run-log", str(log)]
        ) == 0
        capsys.readouterr()
        # the log already records run_finished: the loop exits after
        # its first frame without sleeping forever.
        assert watch_main([str(log), "--no-clear",
                           "--interval", "0.01"]) == 0


class TestPostmortemCli:
    def _bundle_dir(self, tmp_path):
        err = QueueFullError(
            "queue full: queue 'wq' fill 64/64",
            queue="wq", capacity=64, fill=64,
        )
        bundle = build_postmortem(error=err, config={"experiments": ["x"]})
        write_postmortem(bundle, str(tmp_path))
        return tmp_path

    def test_show_renders_newest_bundle(self, tmp_path, capsys):
        d = self._bundle_dir(tmp_path)
        assert postmortem_main(["show", "--dir", str(d)]) == 0
        out = capsys.readouterr().out
        assert "QueueFullError" in out
        assert "fill 64/64" in out

    def test_show_empty_dir_exits_one(self, tmp_path, capsys):
        assert postmortem_main(["show", "--dir", str(tmp_path)]) == 1
        assert "no bundles" in capsys.readouterr().err

    def test_report_lists_bundles(self, tmp_path, capsys):
        d = self._bundle_dir(tmp_path)
        assert postmortem_main(["report", str(d)]) == 0
        out = capsys.readouterr().out
        assert "QueueFullError" in out
        assert "queue=wq" in out
        assert "fill=64/64" in out

    def test_show_unreadable_bundle_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "postmortem-bad.json"
        bad.write_text("{not json")
        assert postmortem_main(["show", str(bad)]) == 1
        assert "postmortem:" in capsys.readouterr().err
