"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Tolerances are pinned here, not configurable.

Criterion 11 (the resonance-frequency trend across box sizes at fixed
energy) is asserted at its stated parameters; see the README's
known-results section for the measured behaviour at these scales.
"""

import json
import math
import subprocess
import sys

import numpy as np

from anderson2p.classify import (
    exists_resonant_pair,
    is_nontunnelling,
    nt_to_ns_check,
    resonance_width,
)
from anderson2p.disorder import (
    DistributionSpec,
    InteractionSpec,
    domain_for_boxes,
    sample_potential,
)
from anderson2p.experiment import (
    EventSpec,
    estimate_event,
    localization_mass_sweep,
)
from anderson2p.geometry import Box1, Box2, Point2, projections
from anderson2p.msa import (
    count_singular_subboxes,
    desk_schedule,
    inductive_ns_step,
    asymptotic_schedule,
    schedule,
    validate_parameters,
)
from anderson2p.operators import (
    assemble_two_particle,
    diagonalize,
    single_particle_factors,
)
from anderson2p.resolvent import boundary_recovery, green_column, green_spectral

from .conftest import cli_env, random_point2
from .oracles import (
    box_distance,
    check_passed,
    dense_inverse_green,
    exhaustive_separated_subset,
    grid_resonant_pair,
    operator_norm2,
    permutation_conjugate_check,
    tensor_spectrum,
)

INTER = InteractionSpec.triangular(1, 1.0)
UNIFORM = DistributionSpec.uniform()


def _report(n, name, ok, detail=""):
    print(f"ACCEPTANCE {n:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def _random_box_and_sample(rng, d, max_radius, *, non_interactive=False,
                           cover_sigma=False, min_radius=0):
    while True:
        lo = max(min_radius, 1 if non_interactive else 0)
        L = int(rng.integers(lo, max_radius + 1))
        c = random_point2(rng, d, 8)
        if non_interactive:
            # push the second particle outside the interaction layer
            shift = 2 * L + INTER.r0 + 1 + int(rng.integers(0, 2 * L + 2))
            x2 = tuple(x + shift for x in c.x1.coords)
            c = Point2.of(c.x1.coords, x2)
        box = Box2(c, L)
        boxes = [box, box.sigma()] if cover_sigma else [box]
        sample = sample_potential(UNIFORM, int(rng.integers(2**40)), 0,
                                  domain_for_boxes(boxes))
        return box, sample


def test_01_permutation_symmetry():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        box, sample = _random_box_and_sample(
            rng, d, 3 if d == 1 else 1, cover_sigma=True)
        g = float(rng.uniform(0.5, 20.0))
        adjacency = "sup" if rng.integers(2) else "l1"
        op = assemble_two_particle(box, sample, INTER, g, adjacency)
        gap = permutation_conjugate_check(box, sample, INTER, g, adjacency)
        rel = gap / max(1.0, operator_norm2(op))
        worst = max(worst, rel)
        if rel > 1e-8:
            break
    _report(1, "permutation-symmetry", worst <= 1e-8,
            f"(worst relative spectral gap {worst:.2e} over 200 pairs)")


def test_02_tensor_decomposition():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        box, sample = _random_box_and_sample(
            rng, d, 3 if d == 1 else 1, non_interactive=True)
        g = float(rng.uniform(0.5, 20.0))
        ts = tensor_spectrum(box, sample, INTER, g, "l1")
        direct = assemble_two_particle(box, sample, INTER, g, "l1").eigenvalues()
        worst = max(worst, float(np.abs(ts - direct).max()))
        if worst > 1e-8:
            break
    _report(2, "tensor-decomposition", worst <= 1e-8,
            f"(worst elementwise gap {worst:.2e} over 200 non-interactive boxes)")


def _nonresonant_energies(ev, count, rng, margin=1e-3):
    out = []
    scale = max(1.0, float(np.abs(ev).max()))
    while len(out) < count:
        e = float(rng.uniform(ev[0] - 1.0, ev[-1] + 1.0))
        if np.abs(ev - e).min() > margin * scale:
            out.append(e)
    return out


def test_03_green_function_consistency():
    rng = np.random.default_rng(303)
    worst_rel = 0.0
    checks = 0
    for _ in range(100):
        box, sample = _random_box_and_sample(rng, 1, 2, non_interactive=True,
                                             min_radius=2)
        g = float(rng.uniform(0.5, 10.0))
        op = assemble_two_particle(box, sample, INTER, g, "l1")
        op1, op2 = single_particle_factors(box, sample, g, "l1")
        sd1, sd2 = diagonalize(op1), diagonalize(op2)
        for e in _nonresonant_energies(op.eigenvalues(), 5, rng):
            col, _ = green_column(op, e)
            bidx = op.boundary_indices()
            y = Point2.of(*np.split(op.points[bidx[len(bidx) // 2]], 2))
            gs = green_spectral(sd1, sd2, e, box.center, y)
            gc = col[bidx[len(bidx) // 2]]
            rel = abs(gs - gc) / max(abs(gc), 1e-12)
            worst_rel = max(worst_rel, rel)
            checks += 1
    ok1 = worst_rel <= 1e-6 and checks == 500
    worst_abs = 0.0
    for _ in range(100):
        box, sample = _random_box_and_sample(rng, 1, 1, min_radius=1)
        g = float(rng.uniform(0.5, 10.0))
        op = assemble_two_particle(box, sample, INTER, g)
        e = _nonresonant_energies(op.eigenvalues(), 1, rng)[0]
        col, _ = green_column(op, e)
        i = op.center_index()
        for j in range(op.n):
            worst_abs = max(
                worst_abs, abs(col[j] - dense_inverse_green(op.matrix, e, i, j)))
    ok2 = worst_abs <= 1e-8
    _report(3, "green-function-consistency", ok1 and ok2,
            f"(spectral-vs-solve rel {worst_rel:.2e} on 500 energies; "
            f"solve-vs-inverse abs {worst_abs:.2e} on 100 operators)")


def test_04_boundary_recovery():
    worst = 0.0
    n_rec = 0
    failures = 0
    for seed in range(50):
        parent = Box2.of_origin(1, 4)
        sample = sample_potential(UNIFORM, 4000 + seed, 0,
                                  domain_for_boxes([parent]))
        g = 2.0
        pop = assemble_two_particle(parent, sample, INTER, g)
        sd = diagonalize(pop)
        for off in Box2.of_origin(1, 1).points():  # interior radius-2 boxes
            sub = Box2(Point2.of(off[:1], off[1:]), 2)
            sub_op = assemble_two_particle(sub, sample, INTER, g)
            ev = sub_op.eigenvalues()
            width = resonance_width(2, 0.5)
            keep = np.abs(ev[:, None] - sd.eigenvalues).min(axis=0) >= width
            res = boundary_recovery(sub_op, sd.eigenvalues[keep],
                                    sd.eigenvectors[:, keep], parent)
            rel = res.max_error / np.maximum(res.psi_sup, 1e-300)
            worst = max(worst, float(rel.max(initial=0.0)))
            n_rec += int(keep.sum())
            failures += int((rel > 1e-6).sum())
    _report(4, "boundary-recovery", failures == 0 and n_rec > 5000,
            f"({n_rec} reconstructions over 50 seeds, worst relative error "
            f"{worst:.2e}, {failures} failures)")


def test_05_projection_disjointness():
    rng = np.random.default_rng(505)
    r0 = INTER.r0
    total = 0
    bad = 0
    while total < 10_000:
        n = 4000
        d = int(rng.integers(1, 3))
        L = int(rng.integers(r0 + 1, 7))
        span = 40 * L
        u1 = rng.integers(-span, span, size=(n, d))
        u2 = u1 + rng.integers(-(2 * L + r0), 2 * L + r0 + 1, size=(n, d))
        v1 = rng.integers(-span, span, size=(n, d))
        v2 = v1 + rng.integers(-(2 * L + r0), 2 * L + r0 + 1, size=(n, d))
        u = np.hstack([u1, u2])
        v = np.hstack([v1, v2])
        su = np.hstack([u2, u1])
        direct_far = np.abs(u - v).max(axis=1) > 10 * L
        mirror_far = np.abs(su - v).max(axis=1) > 10 * L
        keep = direct_far & mirror_far
        uu, vv = u[keep], v[keep]
        total += len(uu)
        # all four cross projection gaps must exceed 2L
        for a in (0, 1):
            for b in (0, 1):
                gap = np.abs(
                    uu[:, a * d:(a + 1) * d] - vv[:, b * d:(b + 1) * d]
                ).max(axis=1) - 2 * L
                bad += int((gap <= 2 * L).sum())
    # spot-check through the box API on a small subsample
    for _ in range(100):
        d = int(rng.integers(1, 3))
        L = int(rng.integers(r0 + 1, 5))
        while True:
            c1 = random_point2(rng, d, 30 * L)
            u = Point2.of(c1.x1.coords,
                          tuple(x + int(rng.integers(-(2 * L + r0), 2 * L + r0 + 1))
                                for x in c1.x1.coords))
            c2 = random_point2(rng, d, 30 * L)
            v = Point2.of(c2.x1.coords,
                          tuple(x + int(rng.integers(-(2 * L + r0), 2 * L + r0 + 1))
                                for x in c2.x1.coords))
            bu, bv = Box2(u, L), Box2(v, L)
            if box_distance(bu, bv) > 8 * L and box_distance(bu.sigma(), bv) > 8 * L:
                break
        _, _, mu = projections(bu)
        _, _, mv = projections(bv)
        assert not ({tuple(p) for p in mu} & {tuple(p) for p in mv})
    _report(5, "projection-disjointness", bad == 0,
            f"({total} interactive well-separated pairs, {bad} counterexamples)")


def test_06_nt_to_ns_implication():
    rng = np.random.default_rng(606)
    g, L = 25.0, 9
    verified = 0
    failures = 0
    attempts = 0
    while verified < 1000 and attempts < 4000:
        attempts += 1
        off = int(rng.integers(2 * L + 2, 5 * L))
        box = Box2(Point2.of((0,), (off,)), L)
        sample = sample_potential(UNIFORM, 60000 + attempts, 0,
                                  domain_for_boxes([box]))
        _, w1 = is_nontunnelling(Box1(box.center.x1, L), sample, g, 1.0, "l1")
        _, w2 = is_nontunnelling(Box1(box.center.x2, L), sample, g, 1.0, "l1")
        m_hat = min(w1.cap, w2.cap) * (1.0 - 1e-9)
        if m_hat < 1.0:
            continue
        op1, op2 = single_particle_factors(box, sample, g, "l1")
        sums = np.sort(np.add.outer(op1.eigenvalues(), op2.eigenvalues()).ravel())
        gaps = np.diff(sums)
        j = int(np.argmax(gaps[5:-5])) + 5
        e = float(0.5 * (sums[j] + sums[j + 1]))
        rep = nt_to_ns_check(box, sample, INTER, g, e, m_hat, 0.5, "l1")
        if rep.skipped:
            continue
        verified += 1
        if not rep.ns_ok:
            failures += 1
    _report(6, "nt-to-ns-implication", failures == 0 and verified >= 1000,
            f"({verified} hypothesis-verified instances, {failures} failures)")


def test_07_inductive_ns_step():
    sched = desk_schedule(L0=3, m0=0.5, g=30.0)
    assert sched.L[1] >= 6 and sched.J == 9
    rng = np.random.default_rng(707)
    satisfied = 0
    failures = 0
    for seed in range(500):
        parent = Box2.of_origin(1, sched.L[1])
        sample = sample_potential(UNIFORM, 70000 + seed, 0,
                                  domain_for_boxes([parent]))
        e = float(rng.uniform(-2.0, 6.0))
        rep = inductive_ns_step(parent.center, 0, sched, sample, INTER,
                                sched.g, e, "l1")
        if rep.skipped:
            continue
        satisfied += 1
        if not rep.ns_ok:
            failures += 1
    _report(7, "inductive-ns-step", failures == 0 and satisfied >= 250,
            f"({satisfied}/500 hypothesis-satisfying instances, "
            f"{failures} failures)")


def test_08_exact_resonant_pair():
    rng = np.random.default_rng(808)
    disagreements = 0
    logged = []
    for i in range(200):
        L = int(rng.integers(2, 5))
        ev1 = np.sort(rng.uniform(-2, 2, size=9))
        ev2 = np.sort(rng.uniform(-2, 2, size=9))
        interval = (-1.0, 1.0)
        exact, _ = exists_resonant_pair(ev1, ev2, interval, L, 0.5)
        width = resonance_width(L, 0.5)
        spacing = width / 10.0
        brute = grid_resonant_pair(ev1, ev2, interval, L, 0.5, spacing)
        if exact != brute:
            lo = np.maximum(ev1[:, None], ev2[None, :]) - width
            hi = np.minimum(ev1[:, None], ev2[None, :]) + width
            wmax = float(np.clip(hi - lo, 0, None).max())
            ok_window = wmax < 2 * spacing or not exact
            logged.append((i, wmax, 2 * spacing))
            if not ok_window:
                disagreements += 1
    _report(8, "exact-resonant-pair", disagreements == 0,
            f"(200 spectra pairs, {len(logged)} narrow-window cases logged, "
            f"{disagreements} true disagreements)")


def test_09_counter_exactness():
    rng = np.random.default_rng(909)
    kept = 0
    mismatches = 0
    raw = 0
    g_cycle = [15.0, 20.0, 30.0]
    while kept < 500 and raw < 3000:
        g = g_cycle[raw % 3]
        sched = schedule(2, 3.5, 0.5, 1.0, 1, g=g, d=1)
        parent = Box2.of_origin(1, sched.L[1])
        sample = sample_potential(UNIFORM, 90000 + raw, 0,
                                  domain_for_boxes([parent]))
        e = float(rng.uniform(-1.0, 8.0))
        raw += 1
        rep = count_singular_subboxes(parent.center, 0, sched, sample, INTER,
                                      sched.g, e)
        n_sing = len(rep.singular_ni) + len(rep.singular_i)
        if n_sing > 12 or not rep.exact:
            continue
        kept += 1
        om = exhaustive_separated_subset(rep.singular_ni, rep.separation)
        on = exhaustive_separated_subset(rep.singular_i, rep.separation)
        ok = exhaustive_separated_subset(
            rep.singular_ni + rep.singular_i, rep.separation)
        if (rep.M, rep.N, rep.K) != (om, on, ok):
            mismatches += 1
    _report(9, "counter-exactness", mismatches == 0 and kept >= 500,
            f"({kept} instances with <= 12 singular candidates out of {raw}, "
            f"{mismatches} mismatches)")


def test_10_localization_trend():
    rows = localization_mass_sweep([1.0, 5.0, 20.0], 10, 50, seed=1010,
                                   adjacency="l1")
    m = {r["g"]: r["median_m_hat"] for r in rows}
    hw = {r["g"]: r["ci_half_width"] for r in rows}
    gap_5_1 = m[5.0] - m[1.0]
    gap_20_5 = m[20.0] - m[5.0]
    ok = (
        m[20.0] > m[5.0] > m[1.0]
        and gap_5_1 > hw[5.0] + hw[1.0]
        and gap_20_5 > hw[20.0] + hw[5.0]
    )
    _report(10, "localization-trend", ok,
            f"(medians {m[1.0]:.3f} < {m[5.0]:.3f} < {m[20.0]:.3f}, "
            f"CI half-widths {hw[1.0]:.3f}/{hw[5.0]:.3f}/{hw[20.0]:.3f})")


def test_11_wegner_trend():
    sched = desk_schedule(L0=2, m0=0.5, g=5.0)
    freq = {}
    intervals = {}
    for l in (2, 8):
        from anderson2p.experiment import schedule_with_scale

        s_l = schedule_with_scale(sched, l)
        rec = estimate_event(EventSpec("resonant_at_energy", energy=0.0),
                             s_l, 2000, 1111)
        freq[l] = rec.estimate
        intervals[l] = (rec.wilson_low, rec.wilson_high)
    ok = freq[8] < freq[2] and intervals[8][1] < intervals[2][0]
    _report(11, "wegner-trend", ok,
            f"(P[E-resonant] at l=2: {freq[2]:.3f} {intervals[2]}, "
            f"at l=8: {freq[8]:.3f} {intervals[8]})")


def test_12_schedule_arithmetic():
    ok = True
    details = []
    # the inductive step constant stays inside the mass-decay envelope
    ok &= (5 * 9 + 6) / math.sqrt(2) < 40
    rep = validate_parameters(asymptotic_schedule())
    ok &= check_passed(rep, "mass_step_consistency")
    # gamma=40 schedules with L1 <= 1600 are rejected
    from anderson2p.errors import InfeasibleScheduleError

    try:
        schedule(100, 1.5, 40.0, 1.0, 1)
        ok = False
        details.append("small-L1 schedule not rejected")
    except InfeasibleScheduleError as e:
        ok &= e.k == 1
    ok &= check_passed(rep, "p_large")  # 12d+9 = 21 < p = 22
    ok &= check_passed(rep, "q_vs_p")  # 4p+12d = 100 < q = 101
    ok &= rep.asymptotic_regime
    desk_rep = validate_parameters(desk_schedule())
    ok &= not desk_rep.asymptotic_regime
    _report(12, "schedule-arithmetic", ok, f"({'; '.join(details) or 'all held'})")


def test_13_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"trials": 6, "seed": 9}))
    args = [sys.executable, "-m", "anderson2p.cli", "mc-estimate",
            "--config", str(cfg), "--event", "single_box_singular"]
    r1 = subprocess.run([*args, "--out", str(tmp_path / "a")],
                        capture_output=True, text=True, env=cli_env())
    r2 = subprocess.run([*args, "--out", str(tmp_path / "b")],
                        capture_output=True, text=True, env=cli_env())
    ok = r1.returncode == 0 and r2.returncode == 0
    if ok:
        rec1 = next((tmp_path / "a").rglob("records.jsonl")).read_bytes()
        rec2 = next((tmp_path / "b").rglob("records.jsonl")).read_bytes()
        ok = rec1 == rec2 and len(rec1) > 0
    _report(13, "determinism", ok, "(repeated run byte-identical records)")
