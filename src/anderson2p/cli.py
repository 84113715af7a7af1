"""Command-line runner: configuration, subcommands, and result persistence.

Subcommands::

    sample       dump one disorder sample
    spectrum     diagonalize one box (optional matrix triplet dump)
    green        one Green's-function column
    classify     full classification of one box at one energy
    msa-verify   seeded batches of the deterministic steps
                 (--check nt-to-ns | inductive-step | boundary-recovery)
    mc-estimate  Monte Carlo event estimation
                 (--event <kind> | wegner | ss-probe | g-trend)
    decay-fit    effective-mass extraction across couplings

What each event kind reads (the interval, scale k + 1) comes from
``experiment.EVENTS``; ``ss-probe`` and ``g-trend`` estimate the kinds
``experiment.MODE_KINDS`` names, with specs built as for ``--event
<kind>``.  Each run does its LAPACK on one BLAS thread
(``blas.one_thread``) and spreads the trials of every ``mc-estimate``
mode and the seeds of ``msa-verify``'s ``nt-to-ns`` check over one worker
thread per CPU (``blas.ordered_map``); the ``inductive-step`` seeds go to
the workers in batches of at most ``blas.BATCH_ITEMS`` seeds
(``blas.batched_map``).  It writes
``records.jsonl`` (one JSON record per line; byte-stable across reruns of
the same configuration, whatever the host's core count, the worker count
or the caller's thread variables) plus ``manifest.json`` carrying the
config hash, version, timestamp, wall time, BLAS policy and worker count;
some subcommands also emit CSV summaries.  The files go to
``<root>/<subcommand>-<tag>``, where the tag hashes the configuration and
the subcommand's arguments.  Exit codes: 0 success, 2 invalid
configuration or arguments (a non-finite ``--energy``, ``--mass`` or
``--nt-mass`` among them), or a package or numpy ``LinAlgError`` failure
during the run, 3 infeasible schedule.  A failure prints one JSON error
record to stderr and writes no files; that of ``mc-estimate`` names the
lowest failing trial (``"trial"``), that of ``msa-verify`` the lowest
failing seed (``"seed"``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from . import __version__, blas
from .classify import classify_box, nt_to_ns_check, resonance_width
from .config import ConfigError, ExperimentConfig
from .disorder import domain_for_boxes, sample_potential
from .errors import Anderson2pError, InfeasibleScheduleError, InvalidInputError
from .experiment import (
    EVENTS,
    MODE_KINDS,
    EventSpec,
    estimate_event,
    localization_mass_sweep,
    singularity_vs_g_probe,
    wegner_sweep,
)
from .geometry import Box2, Point2
from .msa import inductive_ns_steps, validate_parameters
from .operators import assemble_two_particle, diagonalize
from .records import (
    GreenRecord,
    RecoveryRecord,
    SpectrumRecord,
    sample_record,
    write_csv,
    write_matrix_triplets,
    write_records,
)
from .resolvent import boundary_recovery, green_column

ENV_OUTDIR = "ANDERSON2P_OUTDIR"


def _parse_center(text: str | None, d: int) -> Point2:
    """A configuration given as 'x1,...;x2,...' in dimension ``d``; the
    origin when ``text`` is empty."""
    if not text:
        return Point2.of((0,) * d, (0,) * d)
    try:
        left, right = text.split(";")
        point = Point2.of((int(t) for t in left.split(",")),
                          (int(t) for t in right.split(",")))
    except Exception:
        raise InvalidInputError(
            f"center must look like 'x1,...;x2,...', got {text!r}"
        ) from None
    if point.d != d:
        raise InvalidInputError(
            f"configuration {text!r} has dimension {point.d}, but dimension={d}")
    return point


def _parse_list(option: str, text: str, parse) -> list:
    """The comma-separated entries of ``option``, each read by ``parse``
    (``int`` or ``float``).  An entry that does not parse, or is not
    finite, is an ``InvalidInputError`` naming the option and the entry."""
    kind = "an integer" if parse is int else "a finite number"
    values = []
    for entry in text.split(","):
        try:
            value = parse(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidInputError(f"{option} entry {entry!r} is not {kind}")
        values.append(value)
    return values


def _apply_overrides(raw: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError([("--set", f"expected key=value, got {pair!r}")])
        key, value = pair.split("=", 1)
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep as string
        node = raw
        parts = key.split(".")
        for i, part in enumerate(parts):
            if not isinstance(node, dict):
                where = ".".join(parts[:i]) or "config"
                raise ConfigError([(where, f"is not a JSON object, so "
                                           f"--set {key} cannot reach into it")])
            if i < len(parts) - 1:
                node = node.setdefault(part, {})
        node[parts[-1]] = value
    return raw


def _check_scale(subcommand: str, args, sched) -> None:
    """Reject a scale index outside the schedule: scale ``k`` (``--k``, 0 by
    default) and scale ``k + 1`` where the command reads it must both lie
    in ``0..k_max``.  ``classify`` reads a scale only when given ``--k``."""
    k = getattr(args, "k", None)
    if k is None:
        if subcommand == "classify":
            return
        k = 0
    top = k + (subcommand == "classify"
               or getattr(args, "check", None) == "inductive-step"
               or any(EVENTS[kind].next_scale
                      for kind in _event_kinds(getattr(args, "event", None))
                      if kind in EVENTS))
    if k < 0 or top > sched.k_max:
        scales = f"{k} and {top}" if top > k else f"{k}"
        raise InvalidInputError(f"k={k} reads scale {scales}, but the schedule "
                                f"has scales 0..{sched.k_max}")


def _check_finite(args) -> None:
    """Reject a ``--energy``, ``--mass`` or ``--nt-mass`` that is not a
    finite number: argparse's ``float`` takes ``nan`` and ``inf``, which
    no predicate can decide and JSON cannot carry.  Reject a ``--mass``
    that is not positive and a negative ``--nt-mass`` too: under a
    negative mass the threshold ``exp(-m L)`` exceeds 1, so every box
    passes as non-singular or non-tunnelling, and a zero mass asserts no
    decay.  ``nt-to-ns`` reads an NT mass of 0 as given."""
    for name in ("energy", "mass", "nt_mass"):
        value = getattr(args, name, None)
        if value is None:
            continue
        option = f"--{name.replace('_', '-')}"
        if not math.isfinite(value):
            raise InvalidInputError(f"{option} must be a finite number, got {value}")
        if name == "mass" and not value > 0:
            raise InvalidInputError(f"{option} must be positive, got {value}")
        if name == "nt_mass" and value < 0:
            raise InvalidInputError(f"{option} must not be negative, got {value}")


def _out_dir(args, cfg: ExperimentConfig, subcommand: str) -> Path:
    """``<root>/<subcommand>-<tag>``, the tag hashing the configuration and
    the subcommand's own arguments, so that runs differing in either do not
    share a directory."""
    base = (
        getattr(args, "out", None)
        or cfg.output_dir
        or os.environ.get(ENV_OUTDIR)
        or "runs"
    )
    own = {name: value for name, value in vars(args).items()
           if name not in ("subcommand", "config", "overrides", "out")}
    tag = hashlib.sha256(json.dumps([cfg.config_hash(), own], sort_keys=True)
                         .encode()).hexdigest()
    path = Path(base) / f"{subcommand}-{tag[:8]}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _one_box(cfg, sched, args, radius=None):
    """The box of a one-box subcommand, at ``--center`` with ``radius``
    (by default ``--radius``, else L_0), and its disorder sample at
    ``--trial``."""
    if radius is None:
        radius = args.radius if args.radius is not None else sched.L[0]
    box = Box2(_parse_center(args.center, cfg.dimension), radius)
    sample = sample_potential(cfg.distribution_spec(), cfg.seed, args.trial,
                              domain_for_boxes([box]))
    return box, sample


# --------------------------------------------------------------------------
# subcommand implementations; each returns a list of record dicts plus
# optional csv tables {name: (header, rows)}


def _cmd_sample(cfg, sched, args):
    _, sample = _one_box(cfg, sched, args)
    return [sample_record(sample).to_record()], {}


def _cmd_spectrum(cfg, sched, args):
    box, sample = _one_box(cfg, sched, args)
    op = assemble_two_particle(box, sample, cfg.interaction_spec(), cfg.g,
                               cfg.adjacency)
    sd = diagonalize(op)
    if args.dump_matrix:
        with open(args.dump_matrix, "w") as fh:
            write_matrix_triplets(op.matrix, fh)
    rec = SpectrumRecord(
        center=box.center.flat, radius=box.radius,
        eigenvalues=[float(e) for e in sd.eigenvalues],
        max_residual=float(sd.residual_norms.max()),
    )
    return [rec.to_record()], {}


def _cmd_green(cfg, sched, args):
    box, sample = _one_box(cfg, sched, args)
    op = assemble_two_particle(box, sample, cfg.interaction_spec(), cfg.g,
                               cfg.adjacency)
    source = _parse_center(args.source, cfg.dimension) if args.source else box.center
    try:
        index = box.index_of(source)
    except KeyError:
        raise InvalidInputError(
            f"source {args.source!r} lies outside the box at "
            f"{box.center.flat} of radius {box.radius}") from None
    vector, residual = green_column(op, args.energy, index)
    rec = GreenRecord(
        center=box.center.flat, radius=box.radius, energy=float(args.energy),
        source=source.flat, residual=residual,
        values=[float(v) for v in vector],
    )
    return [rec.to_record()], {}


def _cmd_classify(cfg, sched, args):
    radius = None
    if args.k is not None:
        # the complete-non-resonance flag is defined for scale-(k+1) boxes
        required = sched.L[args.k + 1]
        if args.radius is not None and args.radius != required:
            raise InvalidInputError(
                f"--k {args.k} classifies the scale-{args.k + 1} box; "
                f"radius must be {required}"
            )
        radius = required
    box, sample = _one_box(cfg, sched, args, radius)
    mass = args.mass if args.mass is not None else sched.m[0]
    rep = classify_box(
        box, sample, cfg.interaction_spec(), cfg.g, args.energy, mass,
        beta=sched.beta, adjacency=cfg.adjacency, nt_mass=args.nt_mass,
        schedule=sched if args.k is not None else None, k=args.k,
    )
    return [rep.to_record()], {}


#: the msa-verify options each ``--check`` reads
_CHECK_OPTIONS = {"nt-to-ns": ("radius", "nt_mass"), "inductive-step": (),
                  "boundary-recovery": ("radius", "sub_radius")}


def _cmd_msa_verify(cfg, sched, args):
    unread = [f"--{name.replace('_', '-')}"
              for name in ("radius", "sub_radius", "nt_mass")
              if getattr(args, name) is not None
              and name not in _CHECK_OPTIONS[args.check]]
    if unread:
        raise InvalidInputError(f"--check {args.check} does not read {', '.join(unread)}")
    if args.seeds < 1:
        raise InvalidInputError(f"--seeds must be at least 1, got {args.seeds}")
    if args.check == "boundary-recovery":
        parent_radius = args.radius if args.radius is not None else 4
        sub_radius = args.sub_radius if args.sub_radius is not None else 2
        if not 0 <= sub_radius < parent_radius:
            raise InvalidInputError(
                f"--sub-radius must be at least 0 and below --radius {parent_radius}, "
                f"got {sub_radius}")
        # a plain loop: a seed is Python around many tiny LAPACK calls, and
        # two workers trading the GIL at each call ran slower than one
        return [rec.to_record() for rec in blas.plain_map(
            lambda s: _recovery_batch(cfg, sched, s, parent_radius, sub_radius),
            range(args.seeds))], {}
    interaction = cfg.interaction_spec()
    dist = cfg.distribution_spec()
    d = cfg.dimension
    lo, hi = cfg.interval
    k = args.k if args.k is not None else 0
    if args.check == "nt-to-ns":
        L = args.radius if args.radius is not None else max(9, sched.L[k])
        nt_mass = args.nt_mass if args.nt_mass is not None else 1.0
        if 2 * L + interaction.r0 + 1 >= 6 * L:
            raise InvalidInputError(
                f"--radius {L} leaves the nt-to-ns box no offset: it needs "
                f"2 * radius + interaction.r0 + 1 < 6 * radius, with interaction.r0 = "
                f"{interaction.r0}")

        def check(s):
            rng = Generator(Philox(key=np.array([cfg.seed, s], dtype=np.uint64)))
            offset = int(rng.integers(2 * L + interaction.r0 + 1, 6 * L))
            center = Point2.of((0,) * d, (offset,) + (0,) * (d - 1))
            box = Box2(center, L)
            sample = sample_potential(dist, cfg.seed, s, domain_for_boxes([box]))
            energy = float(rng.uniform(lo, hi))
            return nt_to_ns_check(box, sample, interaction, cfg.g, energy,
                                  nt_mass, sched.beta, "l1")

        # each seed is a pure function of (cfg.seed, s), so the workers' order
        # cannot reach the records
        return [rep.to_record() for rep in blas.ordered_map(check, range(args.seeds))], {}
    parent = Box2.of_origin(d, sched.L[k + 1])

    def batch(seeds):
        samples, energies = [], []
        for s in seeds:
            rng = Generator(Philox(key=np.array([cfg.seed, s], dtype=np.uint64)))
            samples.append(sample_potential(dist, cfg.seed, s, domain_for_boxes([parent])))
            energies.append(float(rng.uniform(lo, hi)))
        return inductive_ns_steps(parent.center, k, sched, samples, energies, interaction,
                                  cfg.g, cfg.adjacency)

    # a seed's report does not depend on the others in its batch, so neither
    # the batches nor the worker count can reach the records
    return [rep.to_record() for rep in blas.batched_map(batch, range(args.seeds))], {}


def _recovery_batch(cfg, sched, seed_trial, parent_radius, sub_radius):
    d = cfg.dimension
    interaction = cfg.interaction_spec()
    parent = Box2.of_origin(d, parent_radius)
    sample = sample_potential(cfg.distribution_spec(), cfg.seed, seed_trial,
                              domain_for_boxes([parent]))
    parent_op = assemble_two_particle(parent, sample, interaction, cfg.g,
                                      cfg.adjacency)
    sd = diagonalize(parent_op)
    max_off = parent_radius - sub_radius - 1  # sub-box plus its exterior shell
    width = resonance_width(sub_radius, sched.beta)
    n_rec = n_skip = 0
    max_err = 0.0
    for off in Box2.of_origin(d, max_off).points():
        sub = Box2(Point2.of(off[:d], off[d:]), sub_radius)
        sub_op = assemble_two_particle(sub, sample, interaction, cfg.g,
                                       cfg.adjacency)
        ev = sub_op.eigenvalues()
        resonant = np.abs(ev[:, None] - sd.eigenvalues).min(axis=0) < width
        keep = ~resonant
        n_skip += int(resonant.sum())
        n_rec += int(keep.sum())
        res = boundary_recovery(sub_op, sd.eigenvalues[keep],
                                sd.eigenvectors[:, keep], parent)
        rel = res.max_error / np.maximum(res.psi_sup, 1e-300)
        max_err = max(max_err, float(rel.max(initial=0.0)))
    return RecoveryRecord(
        seed=seed_trial, parent_radius=parent_radius, sub_radius=sub_radius,
        n_eigenpairs=sd.n, n_reconstructions=n_rec,
        n_skipped_resonant=n_skip, max_rel_error=max_err,
    )


def _event_kinds(event: str | None) -> tuple[str, ...]:
    """The event kinds ``mc-estimate --event <event>`` estimates."""
    return MODE_KINDS.get(event, (event,))


def _event_spec(cfg, args, kind: str) -> EventSpec:
    """The spec of one estimate; every ``--event`` but ``wegner``, whose
    specs are not grid events, builds its specs here."""
    reads_interval = kind in EVENTS and EVENTS[kind].interval  # EventSpec rejects the rest
    return EventSpec(
        kind=kind, k=args.k or 0,
        interval=cfg.interval if reads_interval else None,
        energy=args.energy, n=args.n, adjacency=cfg.adjacency,
        grid_spacing=cfg.grid_spacing,
    )


def _cmd_mc_estimate(cfg, sched, args):
    interaction = cfg.interaction_spec()
    dist = cfg.distribution_spec()
    if args.event == "wegner":
        scales = _parse_list("--scales", args.scales, int)
        for entry, scale in zip(args.scales.split(","), scales):
            if scale < 2:
                raise InvalidInputError(f"--scales entry {entry!r} is not a box length: "
                                        "each scale is the L0 of a schedule, at least 2")
        energy = args.energy if args.energy is not None else 0.0
        rows = wegner_sweep(scales, energy, cfg.trials, sched, cfg.seed,
                            dist, interaction, cfg.adjacency)
        header = ["scale", "p_single", "single_lo", "single_hi",
                  "p_pair", "pair_lo", "pair_hi", "reference"]
        table = [[r.scale, r.single_box.estimate, r.single_box.wilson_low,
                  r.single_box.wilson_high, r.pair.estimate, r.pair.wilson_low,
                  r.pair.wilson_high, r.reference] for r in rows]
        return [r.to_record() for r in rows], {"wegner.csv": (header, table)}
    specs = [_event_spec(cfg, args, kind) for kind in _event_kinds(args.event)]
    if args.event == "g-trend":
        gs = _parse_list("--g-list", args.g_list, float)
        estimates, summary = singularity_vs_g_probe(gs, specs[0], sched, cfg.trials,
                                                    cfg.seed, dist, interaction)
        return [rec.to_record() for rec in [*estimates, summary]], {}
    return [rec.to_record() for rec in estimate_event(specs, sched, cfg.trials, cfg.seed,
                                                      dist, interaction)], {}


def _cmd_decay_fit(cfg, sched, args):
    gs = _parse_list("--g-list", args.g_list, float)
    if args.samples < 1:
        raise InvalidInputError(f"--samples must be at least 1, got {args.samples}")
    radius = args.radius if args.radius is not None else 10
    rows = localization_mass_sweep(
        gs, radius, args.samples, cfg.seed, d=cfg.dimension,
        dist=cfg.distribution_spec(), interaction=cfg.interaction_spec(),
        adjacency=cfg.adjacency,
    )
    csvs = {
        "decay.csv": (
            ["g", "median_m_hat", "ci_low", "ci_high"],
            [[r.g, r.median_m_hat, r.ci_low, r.ci_high] for r in rows],
        )
    }
    return [r.to_record() for r in rows], csvs


#: what the failing item of a subcommand's ``blas`` map is, in its error record
_ITEM_NAMES = {"msa-verify": "seed", "mc-estimate": "trial"}

_COMMANDS = {
    "sample": _cmd_sample,
    "spectrum": _cmd_spectrum,
    "green": _cmd_green,
    "classify": _cmd_classify,
    "msa-verify": _cmd_msa_verify,
    "mc-estimate": _cmd_mc_estimate,
    "decay-fit": _cmd_decay_fit,
}


def run(subcommand: str, config_path: str | None, overrides: list[str],
        args, blas_policy: dict) -> tuple[int, list[Path]]:
    """Execute one subcommand; returns (exit code, emitted files).
    ``blas_policy`` is the record of ``blas.one_thread`` for the manifest."""
    try:
        raw = {}
        if config_path:
            raw = json.loads(Path(config_path).read_text())
        raw = _apply_overrides(raw, overrides or [])
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError as e:
        print(json.dumps(e.to_record()), file=sys.stderr)
        return 2, []
    except (OSError, json.JSONDecodeError) as e:
        print(json.dumps({"kind": "error", "error": "invalid_config",
                          "diagnostics": [{"field": "config",
                                           "message": str(e)}]}),
              file=sys.stderr)
        return 2, []
    try:
        sched = cfg.build_schedule()
    except InfeasibleScheduleError as e:
        print(json.dumps({"kind": "error", "error": "infeasible_schedule",
                          "message": str(e), "k": e.k}), file=sys.stderr)
        return 3, []
    except InvalidInputError as e:
        print(json.dumps(ConfigError([("schedule", str(e))]).to_record()),
              file=sys.stderr)
        return 2, []
    t0 = time.perf_counter()
    try:
        _check_finite(args)
        _check_scale(subcommand, args, sched)
        records, csvs = _COMMANDS[subcommand](cfg, sched, args)
    except InfeasibleScheduleError as e:
        print(json.dumps({"kind": "error", "error": "infeasible_schedule",
                          "message": str(e)}), file=sys.stderr)
        return 3, []
    except (Anderson2pError, np.linalg.LinAlgError) as e:
        # numpy's LinAlgError (an eigensolver that does not converge, a
        # singular solve) is a numeric failure like the package's own
        error = "NumericError" if isinstance(e, np.linalg.LinAlgError) else type(e).__name__
        record = {"kind": "error", "error": error, "message": str(e)}
        if subcommand in _ITEM_NAMES and hasattr(e, "item_index"):
            record[_ITEM_NAMES[subcommand]] = e.item_index
        print(json.dumps(record), file=sys.stderr)
        return 2, []
    out = _out_dir(args, cfg, subcommand)
    chash = cfg.config_hash()
    rec_path = out / "records.jsonl"
    n = write_records(rec_path, records, chash)
    files = [rec_path]
    for name, (header, rows) in csvs.items():
        path = out / name
        write_csv(path, header, rows)
        files.append(path)
    # parameter-validation outcome is part of every run's provenance
    param_report = validate_parameters(sched).to_record()
    manifest = {
        "config_hash": chash,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "subcommand": subcommand,
        "non_asymptotic_regime": sched.non_asymptotic_regime,
        "parameter_report": param_report,
        "blas": blas_policy,
        "workers": blas.workers(),
        "files": [{"path": p.name, "records": (n if p == rec_path else None)}
                  for p in files],
    }
    man_path = out / "manifest.json"
    man_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    files.append(man_path)
    print(f"wrote {n} records to {rec_path}")
    return 0, files


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="anderson2p",
        description="two-particle disordered lattice laboratory",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (dotted paths allowed)")
        p.add_argument("--out", help="output directory root")

    def one_box(p):
        common(p)
        p.add_argument("--radius", type=int, default=None)
        p.add_argument("--trial", type=int, default=0,
                       help="trial index of the disorder sample")
        p.add_argument("--center", help="box center as 'x1,..;x2,..'")

    p = sub.add_parser("sample", help="dump one disorder sample")
    one_box(p)

    p = sub.add_parser("spectrum", help="diagonalize one box")
    one_box(p)
    p.add_argument("--dump-matrix", help="write matrix triplets to this file")

    p = sub.add_parser("green", help="one Green's-function column")
    one_box(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--source", help="source configuration (defaults to center)")

    p = sub.add_parser("classify", help="classify one box at one energy")
    one_box(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--nt-mass", type=float, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="scale index enabling the complete-non-resonance flag")

    p = sub.add_parser("msa-verify", help="batched deterministic checks")
    common(p)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--check", required=True,
                   choices=["nt-to-ns", "inductive-step", "boundary-recovery"])
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nt-mass", type=float, default=None)
    p.add_argument("--sub-radius", type=int, default=None)

    p = sub.add_parser("mc-estimate", help="Monte Carlo event estimation")
    common(p)
    p.add_argument("--event", required=True,
                   help="event kind, or wegner | ss-probe | g-trend")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--scales", default="2,4,8")
    p.add_argument("--g-list", default="1,5,20")

    p = sub.add_parser("decay-fit", help="effective-mass sweep over couplings")
    common(p)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--g-list", default="1,5,20")
    p.add_argument("--samples", type=int, default=20)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage already; normalize unknown subcommands
        return int(e.code) if e.code else 0
    # set once per run and put back after it, so in-process callers keep
    # their own count
    with blas.one_thread() as blas_policy:
        code, _ = run(args.subcommand, args.config, args.overrides, args,
                      blas_policy)
    return code


if __name__ == "__main__":
    sys.exit(main())
