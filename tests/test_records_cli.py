import json
import subprocess
import sys

import numpy as np
import pytest

from anderson2p.classify import classify_box
from anderson2p.config import ConfigError, ExperimentConfig
from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.experiment import EstimateRecord, EventSpec, estimate_event
from anderson2p.geometry import Box2
from anderson2p.msa import count_singular_subboxes
from anderson2p.records import (
    dumps_record,
    parse_record,
    read_records,
    sample_record,
    write_records,
)

from .conftest import cli_env


class TestRoundTrip:
    def test_estimate_record(self, desk):
        rec = estimate_event(EventSpec("resonant_at_energy", energy=0.0),
                             desk, 20, 1)
        blob = json.loads(dumps_record(rec.to_record()))
        back = parse_record(blob)
        assert isinstance(back, EstimateRecord)
        assert back.to_record() == rec.to_record()

    def test_classification_record(self, desk):
        box = Box2.of_origin(1, 2)
        sample = sample_potential(DistributionSpec.uniform(), 2, 0,
                                  domain_for_boxes([box]))
        rep = classify_box(box, sample, InteractionSpec.triangular(), desk.g,
                           0.5, 0.5, nt_mass=1.0)
        back = parse_record(json.loads(dumps_record(rep.to_record())))
        assert back.to_record() == rep.to_record()

    def test_counter_record(self, desk):
        sample = sample_potential(DistributionSpec.uniform(), 2, 0,
                                  domain_for_boxes([Box2.of_origin(1, desk.L[1])]))
        rep = count_singular_subboxes(Box2.of_origin(1, desk.L[1]).center, 0,
                                      desk, sample, InteractionSpec.triangular(),
                                      desk.g, 0.0)
        back = parse_record(json.loads(dumps_record(rep.to_record())))
        assert back.to_record() == rep.to_record()

    def test_sample_record_rebuilds(self):
        sample = sample_potential(DistributionSpec.uniform(), 7, 3,
                                  np.arange(5).reshape(-1, 1))
        rec = sample_record(sample)
        back = parse_record(json.loads(dumps_record(rec.to_record())))
        rebuilt = back.to_sample()
        assert rebuilt.values == sample.values

    def test_nt_to_ns_record(self):
        from anderson2p.classify import nt_to_ns_check
        from anderson2p.geometry import Point2

        box = Box2(Point2.of((0,), (30,)), 9)
        sample = sample_potential(DistributionSpec.uniform(), 6, 0,
                                  domain_for_boxes([box]))
        rep = nt_to_ns_check(box, sample, InteractionSpec.triangular(), 25.0,
                             -5.0, 1.0, 0.5, "l1")
        back = parse_record(json.loads(dumps_record(rep.to_record())))
        assert back.to_record() == rep.to_record()

    def test_inductive_step_record(self, desk):
        from anderson2p.msa import inductive_ns_step

        parent = Box2.of_origin(1, desk.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 6, 0,
                                  domain_for_boxes([parent]))
        rep = inductive_ns_step(parent.center, 0, desk, sample,
                                InteractionSpec.triangular(), desk.g, -1.0)
        back = parse_record(json.loads(dumps_record(rep.to_record())))
        assert back.to_record() == rep.to_record()

    def test_decay_fit_record(self):
        from anderson2p.experiment import decay_fit
        from anderson2p.operators import assemble_two_particle

        box = Box2.of_origin(1, 4)
        sample = sample_potential(DistributionSpec.uniform(), 6, 0,
                                  domain_for_boxes([box]))
        op = assemble_two_particle(box, sample, InteractionSpec.triangular(), 10.0)
        fits, _ = decay_fit(op)
        rec = fits[0].to_record()
        back = parse_record(json.loads(dumps_record(rec)))
        assert back.to_record() == rec

    def test_write_read_stamps_hash(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records(path, [{"kind": "spectrum", "center": [0, 0],
                              "radius": 1, "eigenvalues": [0.5],
                              "max_residual": 0.0}], "abc123")
        recs = read_records(path)
        assert recs[0]["config_hash"] == "abc123"


class TestConfig:
    def test_defaults_build(self):
        cfg = ExperimentConfig.from_dict({})
        sched = cfg.build_schedule()
        assert sched.preset == "desk" and sched.non_asymptotic_regime

    def test_asymptotic_preset(self):
        cfg = ExperimentConfig.from_dict({"preset": "asymptotic"})
        sched = cfg.build_schedule()
        assert not sched.non_asymptotic_regime

    def test_unknown_key_diagnosed(self):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_dict({"frobnicate": 1})
        assert any(f == "frobnicate" for f, _ in e.value.diagnostics)

    def test_bad_distribution_diagnosed(self):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_dict(
                {"distribution": {"kind": "uniform", "support": [1, 0]}})
        assert any(f == "distribution" for f, _ in e.value.diagnostics)

    @pytest.mark.parametrize("spacing", [0, 0.0, -0.5, float("inf"), float("nan"),
                                         True, "0.1", [0.1]])
    def test_bad_grid_spacing_diagnosed(self, spacing):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_dict({"grid_spacing": spacing})
        assert [f for f, _ in e.value.diagnostics] == ["grid_spacing"]

    @pytest.mark.parametrize("spacing", [None, 0.05, 1])
    def test_grid_spacing_accepted(self, spacing):
        assert ExperimentConfig.from_dict({"grid_spacing": spacing}).grid_spacing == spacing

    def test_hash_semantics(self):
        a = ExperimentConfig.from_dict({})
        b = ExperimentConfig.from_dict({"output_dir": "/tmp/elsewhere"})
        c = ExperimentConfig.from_dict({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "anderson2p.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


class TestCli:
    def test_unknown_subcommand_exit_2(self, tmp_path):
        out = _run_cli(["frobnicate"], tmp_path)
        assert out.returncode == 2

    def test_spectrum_single_point(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"trials": 1}))
        out = _run_cli(
            ["spectrum", "--config", str(cfg), "--radius", "0",
             "--center", "0;0", "--out", str(tmp_path / "o")],
            tmp_path,
        )
        assert out.returncode == 0, out.stderr
        rec_files = list((tmp_path / "o").rglob("records.jsonl"))
        assert len(rec_files) == 1
        rec = read_records(rec_files[0])[0]
        assert rec["kind"] == "spectrum"
        assert len(rec["eigenvalues"]) == 1

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dimension": 0}))
        out = _run_cli(["spectrum", "--config", str(cfg)], tmp_path)
        assert out.returncode == 2
        err = json.loads(out.stderr.strip().splitlines()[-1])
        assert err["error"] == "invalid_config"

    @pytest.mark.parametrize("args, field", [
        (["--event", "single_box_singular", "--set", "grid_spacing=0"], "grid_spacing"),
        (["--event", "pair_singular", "--set", "grid_spacing=-0.5"], "grid_spacing"),
        (["--event", "interactive_counter_at_least", "--n", "0"], None),
    ])
    def test_event_changing_input_exit_2(self, tmp_path, args, field):
        out = _run_cli(["mc-estimate", *args, "--set", "trials=1",
                        "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 2, out.stderr
        err = json.loads(out.stderr.strip().splitlines()[-1])
        if field is None:
            assert err["error"] == "InvalidInputError" and "n >= 1" in err["message"]
        else:
            assert [d["field"] for d in err["diagnostics"]] == [field]
        assert not (tmp_path / "o").exists()

    def test_infeasible_schedule_exit_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"schedule": {"gamma": 40.0, "L0": 100}}))
        out = _run_cli(["spectrum", "--config", str(cfg)], tmp_path)
        assert out.returncode == 3

    def test_mc_estimate_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"trials": 8, "seed": 4}))
        args = ["mc-estimate", "--config", str(cfg), "--event",
                "resonant_at_energy", "--energy", "0.0"]
        out1 = _run_cli([*args, "--out", str(tmp_path / "a")], tmp_path)
        out2 = _run_cli([*args, "--out", str(tmp_path / "b")], tmp_path)
        assert out1.returncode == 0 and out2.returncode == 0
        rec1 = next((tmp_path / "a").rglob("records.jsonl")).read_bytes()
        rec2 = next((tmp_path / "b").rglob("records.jsonl")).read_bytes()
        assert rec1 == rec2

    def test_classify_roundtrip(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({}))
        out = _run_cli(
            ["classify", "--config", str(cfg), "--energy", "0.5",
             "--radius", "2", "--out", str(tmp_path / "o")],
            tmp_path)
        assert out.returncode == 0, out.stderr
        rec = read_records(next((tmp_path / "o").rglob("records.jsonl")))[0]
        obj = parse_record(rec)
        assert obj.energy == 0.5

    def test_matrix_dump_17_digits(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({}))
        dump = tmp_path / "m.txt"
        out = _run_cli(
            ["spectrum", "--config", str(cfg), "--radius", "1",
             "--dump-matrix", str(dump), "--out", str(tmp_path / "o")],
            tmp_path)
        assert out.returncode == 0, out.stderr
        lines = dump.read_text().strip().splitlines()
        assert lines
        i, j, v = lines[0].split()
        assert float(v) != 0.0

    def test_manifest_references_hash(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"trials": 2}))
        out = _run_cli(
            ["sample", "--config", str(cfg), "--radius", "1",
             "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
        man = json.loads(next((tmp_path / "o").rglob("manifest.json")).read_text())
        recs = read_records(next((tmp_path / "o").rglob("records.jsonl")))
        assert all(r["config_hash"] == man["config_hash"] for r in recs)

    def test_overrides(self, tmp_path):
        out = _run_cli(
            ["spectrum", "--set", "g=5.0", "--set", "schedule.L0=4",
             "--radius", "0", "--out", str(tmp_path / "o")], tmp_path)
        assert out.returncode == 0, out.stderr
