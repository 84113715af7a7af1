import argparse
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from anderson2p import cli
from anderson2p.classify import classify_box
from anderson2p.config import ConfigError, ExperimentConfig
from anderson2p.disorder import DistributionSpec, InteractionSpec, domain_for_boxes, sample_potential
from anderson2p.experiment import (
    EVENT_KINDS,
    MODE_KINDS,
    EventSpec,
    estimate_event,
)
from anderson2p.geometry import Box2
from anderson2p.msa import count_singular_subboxes, validate_parameters
from anderson2p.records import Record, dumps_record, sample_record, write_records

from .conftest import cli_env
from .oracles import parse_record, read_records, sample_from_record


def _estimate(desk):
    [rec] = estimate_event([EventSpec("resonant_at_energy", energy=0.0)],
                           desk, 20, 1)
    return rec.to_record()


def _classification(desk):
    box = Box2.of_origin(1, 2)
    sample = sample_potential(DistributionSpec.uniform(), 2, 0,
                              domain_for_boxes([box]))
    return classify_box(box, sample, InteractionSpec.triangular(), desk.g,
                        0.5, 0.5, nt_mass=1.0).to_record()


def _counter_report(desk):
    sample = sample_potential(DistributionSpec.uniform(), 2, 0,
                              domain_for_boxes([Box2.of_origin(1, desk.L[1])]))
    return count_singular_subboxes(Box2.of_origin(1, desk.L[1]).center, 0,
                                   desk, sample, InteractionSpec.triangular(),
                                   desk.g, 0.0).to_record()


def _sample(desk):
    sample = sample_potential(DistributionSpec.uniform(), 7, 3,
                              np.arange(5).reshape(-1, 1))
    return sample_record(sample).to_record()


def _nt_to_ns(desk):
    from anderson2p.classify import nt_to_ns_check
    from anderson2p.geometry import Point2

    box = Box2(Point2.of((0,), (30,)), 9)
    sample = sample_potential(DistributionSpec.uniform(), 6, 0,
                              domain_for_boxes([box]))
    return nt_to_ns_check(box, sample, InteractionSpec.triangular(), 25.0,
                          -5.0, 1.0, 0.5, "l1").to_record()


def _inductive_step(desk):
    from anderson2p.msa import inductive_ns_step

    parent = Box2.of_origin(1, desk.L[1])
    sample = sample_potential(DistributionSpec.uniform(), 6, 0,
                              domain_for_boxes([parent]))
    return inductive_ns_step(parent.center, 0, desk, sample,
                             InteractionSpec.triangular(), desk.g, -1.0).to_record()


def _decay_fit(desk):
    from anderson2p.experiment import decay_fit
    from anderson2p.operators import assemble_two_particle

    box = Box2.of_origin(1, 4)
    sample = sample_potential(DistributionSpec.uniform(), 6, 0,
                              domain_for_boxes([box]))
    op = assemble_two_particle(box, sample, InteractionSpec.triangular(), 10.0)
    fits, _ = decay_fit(op)
    return fits[0].to_record()


def _cli_records(command, settings=None, **options):
    """The records of a CLI subcommand run in process on the default
    configuration, updated by ``settings``."""
    cfg = ExperimentConfig.from_dict(settings or {})
    args = argparse.Namespace(**{"center": None, "trial": 0, "radius": None, **options})
    return cli._COMMANDS[command](cfg, cfg.build_schedule(), args)[0]


def _cli_record(command, settings=None, **options):
    """The one record of a CLI subcommand run in process."""
    [rec] = _cli_records(command, settings, **options)
    return rec


#: ``mc-estimate``'s options apart from ``--event``
_MC_OPTIONS = dict(scales="2", energy=None, k=None, n=1, g_list="1,80")


#: one record of every kind, as the package emits it; a case's first word
#: is its kind
_RECORDS = {
    "estimate": _estimate,
    "classification": _classification,
    "counter_report": _counter_report,
    "sample": _sample,
    "nt_to_ns": _nt_to_ns,
    "inductive_step": _inductive_step,
    "decay_fit": _decay_fit,
    "spectrum": lambda desk: _cli_record("spectrum", dump_matrix=None),
    "green_column": lambda desk: _cli_record("green", energy=0.3, source=None),
    "recovery": lambda desk: _cli_record(
        "msa-verify", check="boundary-recovery", sub_radius=None, nt_mass=None,
        seeds=1, k=None),
    "parameter_report": lambda desk: validate_parameters(desk).to_record(),
    "wegner_row": lambda desk: _cli_record(
        "mc-estimate", {"trials": 4}, event="wegner", **_MC_OPTIONS),
    "localization_row": lambda desk: _cli_record(
        "decay-fit", radius=4, g_list="5", samples=2),
    "g_trend_summary": lambda desk: _cli_records(
        "mc-estimate", {"trials": 4}, event="g-trend", **_MC_OPTIONS)[-1],
    # an estimate with its coupling, a subtype of the estimate record
    "estimate g-trend": lambda desk: _cli_records(
        "mc-estimate", {"trials": 4}, event="g-trend", **_MC_OPTIONS)[0],
}


class TestRoundTrip:
    @pytest.mark.parametrize("case", list(_RECORDS))
    def test_round_trip(self, case, desk):
        kind = case.split()[0]
        rec = _RECORDS[case](desk)
        assert rec["kind"] == kind
        back = parse_record(json.loads(dumps_record(rec)))
        assert isinstance(back, Record) and back.kind == kind
        assert back.to_record() == rec

    def test_every_record_kind_is_distinct_and_parsed(self):
        """Every ``Record`` type has its own kind, and ``parse_record``
        round-trips a record of each (``test_round_trip``)."""
        kinds = [cls.kind for cls in Record.__subclasses__()]
        assert len(set(kinds)) == len(kinds)
        assert set(kinds) == {case.split()[0] for case in _RECORDS}

    def test_sample_record_rebuilds(self):
        sample = sample_potential(DistributionSpec.uniform(), 7, 3,
                                  np.arange(5).reshape(-1, 1))
        rec = sample_record(sample)
        back = parse_record(json.loads(dumps_record(rec.to_record())))
        rebuilt = sample_from_record(back)
        assert rebuilt.values == sample.values

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

    def test_hash_pinned(self):
        """The hash is sha256 of sorted-key JSON, so these hex values hold on
        any machine; a changed value changes every record's ``config_hash``
        and every output directory name."""
        full = {
            "dimension": 2, "adjacency": "l1",
            "distribution": {"kind": "truncated-gaussian", "support": [-1.0, 2.0],
                             "mu": 0.5, "sigma": 0.75},
            "interaction": {"r0": 2, "profile": [1.0, 0.5, 0.25]}, "g": 7.5,
            "schedule": {"L0": 3, "alpha": 1.5, "gamma": 0.25, "m0": 2.0,
                         "beta": 0.5, "p": 2.0, "q": 1.5, "J": 1, "k_max": 2,
                         "p_tilde": 3.0},
            "preset": "custom", "interval": [-0.5, 0.5], "grid_spacing": 0.05,
            "trials": 12, "seed": 42, "output_dir": "out",
        }
        assert set(full) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert ExperimentConfig.from_dict({}).config_hash() == (
            "acb6aee516cb999973c5960425af7d77f809c2173830d5cffdd99c13a78d1bc4")
        assert ExperimentConfig.from_dict(full).config_hash() == (
            "a86ae1c085f532523303ea6c4144bb597c5120f7c886ed4193bbd94a4000bdba")


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

    @pytest.mark.parametrize("config, overrides, field", [
        ([1, 2], [], "config"),
        ("x", [], "config"),
        ({}, ["distribution=3"], "distribution"),
        ({}, ["interval=3"], "interval"),
        ({}, ["schedule=3"], "schedule"),
        ({}, ["g=5", "g.x=1"], "g"),
        ({}, ["dimension=true"], "dimension"),
        ({}, ["trials=true"], "trials"),
        ({}, ["seed=true"], "seed"),
        ({}, ["g=x"], "g"),
        ({}, ["adjacency=3"], "adjacency"),
        ({}, ["interaction.r0=x"], "interaction"),
        ({}, ["schedule.L0=x"], "schedule.L0"),
        ({}, ["schedule.L0=1"], "schedule"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, config, overrides,
                                     field):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        argv = ["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]
        for pair in overrides:
            argv += ["--set", pair]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_config"
        assert [d["field"] for d in err["diagnostics"]] == [field]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["classify", "--energy", "0", "--k", "3"],
        ["mc-estimate", "--event", "total_counter_at_least", "--k", "2"],
        ["mc-estimate", "--event", "single_box_singular", "--k", "9"],
        ["msa-verify", "--check", "inductive-step", "--k", "5"],
        ["mc-estimate", "--event", "single_box_singular", "--k", "-1"],
    ])
    def test_k_outside_schedule_exit_2(self, tmp_path, capsys, argv):
        # the desk schedule has scales 0..2
        assert cli.main(argv + ["--set", "trials=1",
                                "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "InvalidInputError"
        assert "schedule has scales 0..2" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,named", [
        (["classify", "--energy", "0.3", "--k", "0"], {}),
        (["msa-verify", "--check", "inductive-step", "--seeds", "2"], {"seed": 0}),
    ], ids=["classify", "inductive-step"])
    def test_linalg_error_is_numeric_error_exit_2(self, tmp_path, capsys, monkeypatch,
                                                  argv, named):
        # an eigensolver that does not converge is a numeric failure, not a
        # crash; a window test whose Cholesky stage certifies nothing sends
        # every question the Gershgorin discs leave to the eigensolver
        calls = []

        def diverging(a, *args, **kwargs):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        def indefinite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverging)
        monkeypatch.setattr(np.linalg, "cholesky", indefinite)
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert calls  # the eigensolver was reached, and its error ended the run
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"kind": "error", "error": "NumericError",
                       "message": "Eigenvalues did not converge", **named}
        assert not (tmp_path / "o").exists()

    def test_green_source_outside_box_exit_2(self, tmp_path, capsys):
        argv = ["green", "--energy", "0.3", "--radius", "2", "--source", "9;9",
                "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "error" and err["error"] == "InvalidInputError"
        assert "'9;9'" in err["message"] and "outside the box" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv,option", [
        (["green", "--radius", "1"], "--energy"),
        (["classify", "--k", "0"], "--energy"),
        (["classify", "--energy", "0.1"], "--mass"),
        (["classify", "--energy", "0.1"], "--nt-mass"),
        (["mc-estimate", "--event", "resonant_at_energy", "--set", "trials=1"], "--energy"),
    ], ids=["green-energy", "classify-energy", "classify-mass", "classify-nt-mass",
            "mc-estimate-energy"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, argv, option, value):
        # argparse's float takes all three; the record would hold bare NaN
        assert cli.main(argv + [f"{option}={value}", "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"kind": "error", "error": "InvalidInputError",
                       "message": f"{option} must be a finite number, got {float(value)}"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "-0.0"])
    @pytest.mark.parametrize("argv,option", [
        (["classify", "--energy", "0.1"], "--mass"),
        (["classify", "--energy", "0.1", "--k", "0"], "--mass"),
    ], ids=["classify-mass", "classify-k-mass"])
    def test_non_positive_mass_exit_2(self, tmp_path, capsys, argv, option, value):
        # exp(-m L) >= 1 would make every box non-singular
        assert cli.main(argv + [f"{option}={value}", "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"kind": "error", "error": "InvalidInputError",
                       "message": f"{option} must be positive, got {float(value)}"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["classify", "--energy", "0.1", "--nt-mass=-1"],
        ["msa-verify", "--check", "nt-to-ns", "--seeds", "1", "--nt-mass=-0.5"],
    ], ids=["classify", "nt-to-ns"])
    def test_negative_nt_mass_exit_2(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        value = float(argv[-1].split("=")[1])
        assert err == {"kind": "error", "error": "InvalidInputError",
                       "message": f"--nt-mass must not be negative, got {value}"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option,message", [
        *[pytest.param(["msa-verify", "--check", check, f"--seeds={seeds}"],
                       f"--seeds must be at least 1, got {seeds}", id=f"{check}-{seeds}")
          for seeds in ("0", "-3")
          for check in ("inductive-step", "nt-to-ns", "boundary-recovery")],
        pytest.param(["msa-verify", "--check", "nt-to-ns", "--radius", "0"],
                     "--radius 0 leaves the nt-to-ns box no offset: it needs 2 * radius + "
                     "interaction.r0 + 1 < 6 * radius, with interaction.r0 = 1",
                     id="nt-to-ns-radius-0"),
        pytest.param(["msa-verify", "--check", "nt-to-ns", "--radius", "-2"],
                     "--radius -2 leaves the nt-to-ns box no offset: it needs 2 * radius + "
                     "interaction.r0 + 1 < 6 * radius, with interaction.r0 = 1",
                     id="nt-to-ns-radius-negative"),
        *[pytest.param(["msa-verify", "--check", "boundary-recovery", *radius,
                        "--sub-radius", sub],
                       f"--sub-radius must be at least 0 and below --radius 4, got {sub}",
                       id=f"sub-radius-{sub}")
          for radius, sub in ((["--radius", "4"], "-1"), (["--radius", "4"], "4"), ([], "5"))],
        *[pytest.param(["decay-fit", "--radius", "8", "--g-list", "5", "--samples", samples],
                       f"--samples must be at least 1, got {samples}",
                       id=f"decay-fit-samples-{samples}")
          for samples in ("0", "-2")],
    ])
    def test_rejects_out_of_range_values(self, tmp_path, capsys, option, message):
        # seeds below 1 left range(seeds) empty, and the run exited 0 with no
        # records; the radii ended in a ValueError or TypeError traceback, and
        # decay-fit's samples below 1 in an IndexError
        argv = [*option, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"kind": "error", "error": "InvalidInputError", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["mc-estimate", "--event", "wegner", "--scales", "2,x"],
                     "--scales entry 'x' is not an integer", id="scales-word"),
        pytest.param(["mc-estimate", "--event", "wegner", "--scales", "2.5"],
                     "--scales entry '2.5' is not an integer", id="scales-fraction"),
        *[pytest.param(["mc-estimate", "--event", "wegner", "--scales", scales],
                       f"--scales entry {entry!r} is not a box length: each scale is the L0 "
                       "of a schedule, at least 2", id=f"scales-{name}")
          for scales, entry, name in (("0", "0", "zero"), ("1", "1", "one"),
                                      ("-3", "-3", "negative"), ("4,1", "1", "second"))],
        *[pytest.param([*command, "--g-list", g_list], f"--g-list entry {entry!r} is not a "
                       "finite number", id=f"{command[-1]}-{name}")
          for command in (["mc-estimate", "--event", "g-trend"], ["decay-fit"])
          for g_list, entry, name in (("1,,", "", "empty"), ("1,inf", "inf", "inf"),
                                      ("nan", "nan", "nan"))],
    ])
    def test_bad_list_entry_exit_2(self, tmp_path, capsys, argv, message):
        # bare int() and float() ended in a ValueError traceback, a
        # non-finite coupling in a NumericError about the operator matrix,
        # and a scale below 2 in an error about the schedule key L0
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"kind": "error", "error": "InvalidInputError", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--radius", "1", "--center", "1,2;3,4"],
        ["spectrum", "--radius", "1", "--center", "1,2;3,4"],
        ["green", "--energy", "0.3", "--radius", "1", "--center", "1,2;3,4"],
        ["green", "--energy", "0.3", "--radius", "1", "--source", "1,2;3,4"],
        ["classify", "--energy", "0.3", "--radius", "1", "--center", "1,2;3,4"],
        ["classify", "--energy", "0.3", "--k", "0", "--center", "1,2;3,4"],
    ])
    def test_configuration_of_wrong_dimension_exit_2(self, tmp_path, capsys, argv):
        # the default configuration has dimension=1
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "InvalidInputError"
        assert "has dimension 2, but dimension=1" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["mc-estimate", "--event", "resonant_at_energy", "--energy", "0",
         "--set", "trials=1"],
        ["msa-verify", "--check", "inductive-step", "--seeds", "1"],
    ])
    @pytest.mark.parametrize("option", [["--center", "1,2;3,4"],
                                        ["--trial", "3"]])
    def test_one_box_options_rejected_where_unread(self, tmp_path, capsys,
                                                   argv, option):
        # only sample, spectrum, green and classify read --center and --trial
        assert cli.main(argv + option + ["--out", str(tmp_path / "o")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_radius_rejected_where_unread(self, tmp_path, capsys):
        argv = ["mc-estimate", "--event", "resonant_at_energy", "--energy", "0",
                "--radius", "7", "--set", "trials=1", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "unrecognized arguments: --radius 7" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("check,option", [
        ("inductive-step", ["--radius", "7"]),
        ("inductive-step", ["--sub-radius", "3", "--nt-mass", "2"]),
        ("nt-to-ns", ["--sub-radius", "3"]),
        ("boundary-recovery", ["--nt-mass", "2"]),
    ])
    def test_msa_verify_rejects_options_its_check_does_not_read(self, tmp_path, capsys,
                                                                check, option):
        argv = ["msa-verify", "--check", check, "--seeds", "1", *option,
                "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "error" and err["error"] == "InvalidInputError"
        assert all(flag in err["message"] for flag in option[::2])
        assert not (tmp_path / "o").exists()

    def test_center_of_configured_dimension_accepted(self, tmp_path):
        argv = ["spectrum", "--center", "1,2;3,4", "--radius", "1",
                "--set", "dimension=2", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        rec = read_records(next((tmp_path / "o").rglob("records.jsonl")))[0]
        assert rec["center"] == [1, 2, 3, 4] and len(rec["eigenvalues"]) == 81

    def test_top_scale_accepted(self, tmp_path):
        argv = ["mc-estimate", "--event", "single_box_singular", "--k", "2",
                "--set", "trials=1", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0

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


class TestMcEstimateModes:
    """Every ``mc-estimate`` mode builds its specs as ``--event <kind>``
    does, and runs with other arguments keep their own directories."""

    @staticmethod
    def _records(tmp_path, *argv) -> list[dict]:
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert cli.main(["mc-estimate", *argv, "--out", str(out)]) == 0
        [path] = out.rglob("records.jsonl")
        return read_records(path)

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_every_kind_runs(self, tmp_path, kind):
        fixed = ["--energy", "0.3"] if kind.endswith("_at_energy") else []
        [rec] = self._records(tmp_path, "--event", kind, "--set", "trials=2", *fixed)
        assert rec["event"]["kind"] == kind and rec["trials"] == 2

    @pytest.mark.parametrize("spacing", [[], ["--set", "grid_spacing=0.05"]])
    def test_ss_probe_equals_the_single_kind_estimates(self, tmp_path, spacing):
        argv = ["--set", "trials=3", "--set", "seed=3", *spacing]
        probe = self._records(tmp_path, "--event", "ss-probe", *argv)
        kinds = MODE_KINDS["ss-probe"]
        assert [r["event"]["kind"] for r in probe] == list(kinds)
        assert probe == [self._records(tmp_path, "--event", kind, *argv)[0]
                         for kind in kinds]

    @pytest.mark.parametrize("event", ["ss-probe", "g-trend"])
    def test_modes_read_grid_spacing(self, tmp_path, event):
        records = self._records(tmp_path, "--event", event, "--set", "trials=2",
                                "--set", "grid_spacing=0.05")
        estimates = [r for r in records if r["kind"] == "estimate"]
        assert estimates
        assert all(r["event"]["grid_spacing"] == 0.05 for r in estimates)
        deltas = [r["grid_delta"] for r in estimates if r["grid_delta"] is not None]
        assert deltas and deltas == pytest.approx([0.05] * len(deltas), rel=0.05)

    def test_pair_resonant_decides_over_the_interval(self, tmp_path):
        argv = ["--event", "pair_resonant", "--set", "trials=6"]
        [wide] = self._records(tmp_path, *argv, "--set", "interval=[-200,200]")
        [far] = self._records(tmp_path, *argv, "--set", "interval=[1000,1001]")
        assert wide["event"]["interval"] == [-200, 200] and wide["successes"] > 0
        # no eigenvalue of a desk box lies near 1000
        assert far["event"]["interval"] == [1000, 1001] and far["successes"] == 0

    def test_residual_reports_the_singular_grid(self, tmp_path):
        records = self._records(tmp_path, "--event", "ss-probe", "--set", "trials=1")
        delta = {r["event"]["kind"]: r["grid_delta"] for r in records}
        assert delta["mixed_pair_singular"] is not None
        assert delta["mixed_pair_residual"] == delta["mixed_pair_singular"]

    def test_runs_with_other_arguments_keep_their_directories(self, tmp_path):
        runs = [["--event", "wegner", "--scales", "2"],
                ["--event", "resonant_at_energy", "--energy", "0"],
                ["--event", "wegner", "--scales", "2"]]
        for argv in runs:
            assert cli.main(["mc-estimate", *argv, "--set", "trials=2",
                             "--out", str(tmp_path)]) == 0
        dirs = sorted(tmp_path.iterdir())
        assert len(dirs) == 2
        for path in dirs:
            manifest = json.loads((path / "manifest.json").read_text())
            listed = {f["path"] for f in manifest["files"]}
            assert listed | {"manifest.json"} == {p.name for p in path.iterdir()}
