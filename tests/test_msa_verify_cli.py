import json
import subprocess
import sys

from .conftest import cli_env
from .oracles import parse_record, read_records


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "anderson2p.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


class TestMsaVerify:
    def test_nt_to_ns_batch(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g": 25.0, "interval": [0.0, 50.0]}))
        out = _run_cli(
            ["msa-verify", "--config", str(cfg), "--check", "nt-to-ns",
             "--seeds", "5", "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
        recs = read_records(next((tmp_path / "o").rglob("records.jsonl")))
        assert len(recs) == 5
        for r in recs:
            obj = parse_record(r)
            if not obj.skipped:
                assert obj.ns_ok

    def test_nt_to_ns_reads_a_zero_mass(self, tmp_path):
        out = _run_cli(["msa-verify", "--check", "nt-to-ns", "--seeds", "2",
                        "--nt-mass", "0", "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
        recs = read_records(next((tmp_path / "o").rglob("records.jsonl")))
        assert [r["m_hat"] for r in recs] == [0.0, 0.0]

    def test_inductive_step_batch(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"interval": [-2.0, 6.0]}))
        out = _run_cli(
            ["msa-verify", "--config", str(cfg), "--check", "inductive-step",
             "--seeds", "4", "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
        recs = read_records(next((tmp_path / "o").rglob("records.jsonl")))
        assert len(recs) == 4
        for r in recs:
            obj = parse_record(r)
            if not obj.skipped:
                assert obj.ns_ok

    def test_boundary_recovery_batch(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g": 2.0}))
        out = _run_cli(
            ["msa-verify", "--config", str(cfg), "--check", "boundary-recovery",
             "--seeds", "2", "--radius", "4", "--sub-radius", "2",
             "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
        recs = read_records(next((tmp_path / "o").rglob("records.jsonl")))
        assert len(recs) == 2
        for r in recs:
            obj = parse_record(r)
            assert obj.max_rel_error <= 1e-6
            assert obj.n_reconstructions > 0

    def test_ss_probe_and_green_roundtrip(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"trials": 4, "schedule": {"L0": 2}, "g": 20.0,
             "interval": [-0.5, 0.5]}))
        out = _run_cli(
            ["mc-estimate", "--config", str(cfg), "--event", "ss-probe",
             "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
        recs = read_records(next((tmp_path / "o").rglob("records.jsonl")))
        kinds = {r["kind"] for r in recs}
        assert "estimate" in kinds

    def test_green_subcommand(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({}))
        out = _run_cli(
            ["green", "--config", str(cfg), "--radius", "1",
             "--energy", "-25.0", "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
        rec = read_records(next((tmp_path / "o").rglob("records.jsonl")))[0]
        obj = parse_record(rec)
        assert obj.energy == -25.0 and len(obj.values) == 9

    def test_decay_fit_csv(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({}))
        out = _run_cli(
            ["decay-fit", "--config", str(cfg), "--g-list", "1,20",
             "--radius", "5", "--samples", "3", "--out", str(tmp_path / "o")],
            tmp_path)
        assert out.returncode == 0, out.stderr
        csv_path = next((tmp_path / "o").rglob("decay.csv"))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("g,")
        assert len(lines) == 3
