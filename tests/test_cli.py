"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_defaults(self):
        args = build_parser().parse_args(["mine"])
        assert args.domain == "folk_remedies"
        assert args.budget == 1_000

    def test_mine_rejects_unknown_domain(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--domain", "sports"])

    def test_experiment_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "e99"])

    def test_classic_options(self):
        args = build_parser().parse_args(
            ["classic", "--items", "50", "--support", "0.1"]
        )
        assert args.items == 50
        assert args.support == 0.1


class TestExecution:
    def test_mine_runs(self, capsys):
        code = main(
            [
                "mine",
                "--members", "8",
                "--budget", "80",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "questions asked" in out
        assert "ground truth" in out

    def test_classic_runs(self, capsys):
        code = main(
            [
                "classic",
                "--items", "40",
                "--transactions", "300",
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frequent itemsets" in out

    def test_dispatched_session_resumes_to_its_fingerprint(self, capsys, tmp_path):
        # The final checkpoint must capture the dispatcher, or the resume
        # would continue the finished session as a synchronous one.
        store = str(tmp_path / "sharded.db")
        code = main(
            [
                "mine", "--population-backend", "array", "--members", "200",
                "--shards", "2", "--in-flight", "4", "--latency", "lognormal:60:1.0",
                "--budget", "80", "--seed", "4", "--checkpoint", store,
            ]
        )
        assert code == 0
        first = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("fingerprint: ")]
        assert main(["kb", store]) == 0
        assert "dispatched session" in capsys.readouterr().out
        assert main(["mine", "--resume", "--checkpoint", store]) == 0
        again = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("fingerprint: ")]
        assert first and again == first

    def test_mine_save_cache_then_replay(self, capsys, tmp_path):
        cache_path = tmp_path / "answers.json"
        code = main(
            [
                "mine",
                "--members", "8",
                "--budget", "80",
                "--seed", "5",
                "--save-cache", str(cache_path),
            ]
        )
        assert code == 0
        assert cache_path.exists()
        capsys.readouterr()
        code = main(["replay", str(cache_path), "--support", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cached answers" in out

    def test_replay_missing_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["replay", str(tmp_path / "nope.json")])

    @pytest.mark.slow
    def test_experiment_smoke_runs(self, capsys):
        code = main(["experiment", "e1", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "crowdminer" in out
        assert "vs questions" in out  # the ascii chart header


class TestRepairFlags:
    """The chaos-hardening surface: --repair, --chaos-kill, kb scrub."""

    def test_serve_parser_takes_repair_and_chaos_kill(self):
        args = build_parser().parse_args(
            ["serve", "--resume", "--repair", "--chaos-kill", "commit:3"]
        )
        assert args.repair
        assert args.chaos_kill == "commit:3"

    def test_mine_parser_takes_repair(self):
        args = build_parser().parse_args(
            ["mine", "--resume", "--checkpoint", "x.db", "--repair"]
        )
        assert args.repair

    def test_bad_chaos_kill_spec_errors(self, capsys):
        code = main(["serve", "--port", "0", "--chaos-kill", "nonsense"])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["kb"], ["mine", "--resume", "--checkpoint"], ["mine", "--checkpoint"]],
    )
    def test_a_text_file_is_not_a_session_store(self, command, tmp_path, capsys):
        path = tmp_path / "notes.db"
        path.write_text("not a database at all\n")
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: not a session store: {path}\n"

    def test_serve_resume_refuses_a_text_file_store(self, tmp_path, capsys):
        (tmp_path / "s1.db").write_text("not a database at all\n")
        code = main(["serve", "--data-dir", str(tmp_path), "--resume", "--port", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: not a session store")

    @pytest.fixture
    def corrupt_store(self, tmp_path, capsys):
        """A finished durable session whose newest checkpoint is damaged."""
        import sqlite3

        path = tmp_path / "s.db"
        code = main(
            [
                "mine", "--members", "6", "--budget", "20", "--seed", "5",
                "--checkpoint", str(path), "--checkpoint-every", "4",
            ]
        )
        assert code == 0
        capsys.readouterr()
        conn = sqlite3.connect(path)
        cid, blob = conn.execute(
            "SELECT id, payload FROM checkpoints ORDER BY id DESC LIMIT 1"
        ).fetchone()
        damaged = bytearray(blob)
        damaged[len(damaged) // 2] ^= 0x20
        conn.execute(
            "UPDATE checkpoints SET payload=? WHERE id=?", (bytes(damaged), cid)
        )
        conn.commit()
        conn.close()
        return path

    def test_kb_reports_scrub_findings(self, corrupt_store, capsys):
        code = main(["kb", str(corrupt_store), "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "integrity: 1 corrupt checkpoint(s)" in out

    def test_resume_without_repair_is_loud(self, corrupt_store, capsys):
        code = main(
            ["mine", "--resume", "--checkpoint", str(corrupt_store)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupt" in err
        assert "--repair" in err

    def test_resume_names_why_a_store_is_refused(self, corrupt_store, capsys):
        # A store whose newest checkpoint names a class this build no
        # longer has: the refusal names the class, not bare damage.
        import sqlite3

        from repro.storage.integrity import seal_payload
        from tests.storage.test_checkpoint_resume import missing_class_pickle

        conn = sqlite3.connect(corrupt_store)
        conn.execute(
            "UPDATE checkpoints SET payload=? WHERE id=(SELECT MAX(id) FROM checkpoints)",
            (seal_payload(missing_class_pickle({"format": 11})),),
        )
        conn.commit()
        conn.close()
        code = main(["mine", "--resume", "--checkpoint", str(corrupt_store)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot unpickle checkpoint payload: AttributeError")
        assert "GarbledMember" in err

    def test_resume_with_repair_recovers(self, corrupt_store, capsys):
        code = main(
            ["mine", "--resume", "--repair", "--checkpoint", str(corrupt_store)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repair: dropped 1 corrupt checkpoint(s)" in out
        assert "fingerprint:" in out
