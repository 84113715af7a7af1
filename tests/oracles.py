"""Reference implementations for the test suite.

Most oracles are independent brute-force versions that deliberately avoid
the library's numerical code paths (no factorized solves, no library
eigensolvers beyond what a specific oracle states, no shared kernels);
they share only scalar arithmetic with the modules they check.  Eight
oracles are exceptions.  The complete-non-resonance oracle
checks the batched sweep against the library's single-box assembly (itself
checked against ``two_particle_matrix``), one box at a time.  The counter
oracle checks the grid-wide counter sweep against the library's per-energy
singular sets and subset search.  The eigenvector-form singularity mask
is the one the package used before its pole-residue form: it divides each
centre entry by the energy shifts and multiplies by the boundary entries,
and shares only the solver guard ``resolvent.within_guard``.  The sub-box
mask oracle diagonalizes every candidate sub-box, with no reduction by
exchange symmetry, and applies the eigenvector-form mask.  The
non-tunnelling oracle takes the products of ``diagonalize``'s
eigenvectors, as ``is_nontunnelling`` did before it read residues.  The
counter-report oracle decides the single-energy counters through the
library's spectral mask (``subbox_spectra``) instead of solves.  The recovery-batch oracle repeats
the library's boundary-recovery arithmetic one eigenpair at a time on
dict-keyed eigenvectors, to pin the array path's records.  The one-box
Green's column oracle is the unstacked guarded solve that
``resolvent.green_column`` replaced, to pin its bits and its errors.

The last section holds reference code that no command needs, kept for the
tests that use it: the all-pairs hop matrix that ``kernels.adjacency_matrix``
replaced, the spectral norm of an operator, the density bound of a
disorder law, the domain-checked sample lookup, the status of one
parameter check, the factor-sum spectrum and exchange-conjugation check
of a box, the set distance of two boxes, and the typed reader of
``records.jsonl``.  It calls the library's assembly and record types.
Everything here is test-tree-only and never imported by the package.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


def gauss_jordan_inverse(matrix: np.ndarray) -> np.ndarray:
    """Explicit Gauss-Jordan elimination with partial pivoting."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if n > 400:
        raise ValueError("oracle restricted to dimension <= 400")
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-14:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def dense_inverse_green(matrix: np.ndarray, E: float, i: int, j: int) -> float:
    """Green's function entry via explicit inversion of (H - E)."""
    inv = gauss_jordan_inverse(matrix - E * np.eye(matrix.shape[0]))
    return float(inv[i, j])


def grid_resonant_pair(
    ev1: np.ndarray,
    ev2: np.ndarray,
    interval: tuple[float, float] | None,
    L: int,
    beta: float,
    spacing: float | None = None,
) -> bool:
    """Fine-grid scan for an energy resonant with both spectra."""
    width = math.exp(-float(L) ** beta)
    if spacing is None:
        spacing = width / 10.0
    assert spacing <= width / 10.0 + 1e-300
    if interval is None:
        lo = min(ev1.min(), ev2.min()) - 2 * width
        hi = max(ev1.max(), ev2.max()) + 2 * width
    else:
        lo, hi = interval
    n = int(math.ceil((hi - lo) / spacing)) + 1
    for t in range(n):
        e = lo + t * spacing
        if e > hi:
            break
        if (np.abs(ev1 - e).min() < width) and (np.abs(ev2 - e).min() < width):
            return True
    return False


def sep_metric(u: tuple, v: tuple) -> int:
    """Exchange-symmetrised sup distance between flat 2d-coordinate tuples."""
    d = len(u) // 2
    direct = max(abs(a - b) for a, b in zip(u, v))
    swapped_u = u[d:] + u[:d]
    swapped = max(abs(a - b) for a, b in zip(swapped_u, v))
    return min(direct, swapped)


def exhaustive_separated_subset(centers: list[tuple], min_separation: int) -> int:
    """Maximum size over all subsets with pairwise separation exceeding the
    threshold; feasible only for small candidate sets."""
    n = len(centers)
    if n > 20:
        raise ValueError("oracle refuses more than 20 centers")
    best = 0
    for r in range(n, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(n), r):
            ok = all(
                sep_metric(centers[a], centers[b]) > min_separation
                for a, b in itertools.combinations(combo, 2)
            )
            if ok:
                best = max(best, r)
                break
    return best


def boundary_by_neighbor_scan(points: np.ndarray, all_points: set) -> list:
    """Interior boundary via the literal rule: points with some neighbour
    (sup-distance 1) outside the set."""
    dim = points.shape[1]
    offsets = [
        off for off in itertools.product((-1, 0, 1), repeat=dim)
        if any(off)
    ]
    out = []
    for p in points:
        tp = tuple(int(c) for c in p)
        for off in offsets:
            q = tuple(a + b for a, b in zip(tp, off))
            if q not in all_points:
                out.append(tp)
                break
    return out


def path_graph_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 2*cos(k*pi/(n+1)) of the n-site path with unit hopping."""
    return np.array([2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)])


_MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix_uniform01(seed: int, trial: int, coords) -> np.ndarray:
    """Site-keyed uniforms in Python integers: the trial-salted seed, then
    one splitmix64 round per coordinate (read as two's complement), top 53
    bits scaled to [0, 1)."""
    out = []
    for row in coords:
        h = _splitmix64((seed & _MASK64) ^ ((_GOLD * (trial + 1)) & _MASK64))
        for i, c in enumerate(row):
            h = _splitmix64(h ^ ((int(c) + _GOLD * (i + 1)) & _MASK64))
        out.append((h >> 11) * 2.0 ** -53)
    return np.array(out, dtype=np.float64)


def lattice_dist(x, y, mode: str) -> int:
    """Sup (Chebyshev) or l1 (Manhattan) distance of two integer tuples."""
    diffs = [abs(int(a) - int(b)) for a, b in zip(x, y)]
    return sum(diffs) if mode == "l1" else max(diffs)


def pairwise_dist_loops(a, b, mode: str) -> np.ndarray:
    return np.array([[lattice_dist(x, y, mode) for y in b] for x in a],
                    dtype=np.int64).reshape(len(a), len(b))


def adjacency_loops(pts, mode: str) -> np.ndarray:
    return np.array([[1.0 if lattice_dist(x, y, mode) == 1 else 0.0 for y in pts]
                     for x in pts]).reshape(len(pts), len(pts))


def shell_max_loops(values, dists, nshells: int) -> np.ndarray:
    prof = [0.0] * nshells
    for v, s in zip(values, dists):
        prof[int(s)] = max(prof[int(s)], float(v))
    return np.array(prof)


def two_particle_matrix(center, radius, sample, interaction, g, mode) -> np.ndarray:
    """Box Hamiltonian entry by entry: configurations in lexicographic order,
    1 between configurations at lattice distance one, and
    ``U(x) + g (V(x1) + V(x2))`` on the diagonal."""
    d = len(center) // 2
    pts = list(itertools.product(*[range(int(c) - radius, int(c) + radius + 1)
                                   for c in center]))
    h = np.zeros((len(pts), len(pts)))
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if i != j and lattice_dist(x, y, mode) == 1:
                h[i, j] = 1.0
        sep = lattice_dist(x[:d], x[d:], "sup")
        u = interaction.profile[sep] if sep <= interaction.r0 else 0.0
        h[i, i] = u + g * (sample.values[x[:d]] + sample.values[x[d:]])
    return h


def cnr_probe_spectra(center, k, schedule, sample, interaction, g, adjacency,
                      exhaustive_limit, sample_budget):
    """The boxes the complete-non-resonance test probes, in probe order, with
    their spectra: each is assembled on its own (``assemble_two_particle``)
    and diagonalized by its own ``numpy.linalg.eigvalsh``.

    Returns ``(parent_spectrum, probes, n_candidates, exhaustive)`` where
    ``probes`` is a list of ``(radius, flat center, spectrum)``.  The layout
    is radii ``j * (L_k + 1) <= L_{k+1}`` for j = 1..J; past
    ``exhaustive_limit`` candidates each radius draws its share of
    ``sample_budget`` offsets from the trial's Philox stream.
    """
    from anderson2p.geometry import Box2, Point2
    from anderson2p.operators import assemble_two_particle

    def spectrum(c, radius):
        box = Box2(Point2.of(c[:d], c[d:]), radius)
        op = assemble_two_particle(box, sample, interaction, g, adjacency)
        return np.linalg.eigvalsh(op.matrix)

    d = center.d
    flat = tuple(int(c) for c in center.flat)
    L_k, L_next = schedule.L[k], schedule.L[k + 1]
    layout = [(j * (L_k + 1), L_next - j * (L_k + 1))
              for j in range(1, schedule.J + 1) if j * (L_k + 1) <= L_next]
    total = sum((2 * off + 1) ** (2 * d) for _, off in layout)
    exhaustive = total <= exhaustive_limit
    if not exhaustive:
        rng = np.random.Generator(np.random.Philox(key=np.array(
            [sample.seed & (2**64 - 1), (sample.trial << 1) ^ 0xC2B2],
            dtype=np.uint64)))
    probes = []
    for radius, off in layout:
        if exhaustive:
            offsets = list(itertools.product(range(-off, off + 1), repeat=2 * d))
        else:
            share = max(1, int(sample_budget * (2 * off + 1) ** (2 * d) / total))
            offsets = rng.integers(-off, off + 1, size=(share, 2 * d)).tolist()
        for o in offsets:
            c = tuple(a + int(b) for a, b in zip(flat, o))
            probes.append((radius, c, spectrum(c, radius)))
    return spectrum(flat, L_next), probes, total, exhaustive


def cnr_by_subbox(probe_spectra, center, k, schedule, E) -> dict:
    """Complete non-resonance at E decided one probed box at a time from
    ``cnr_probe_spectra`` output, stopping at the first resonant box; the
    fields of ``CnrReport`` as a dict."""
    parent_ev, probes, total, exhaustive = probe_spectra
    L_next = schedule.L[k + 1]
    gap = float(np.abs(parent_ev - E).min())
    out = dict(ok=True, parent_gap=gap, failed_center=None, failed_radius=None,
               failed_gap=None, n_candidates=total, n_checked=0,
               exhaustive=exhaustive)
    if gap < math.exp(-float(L_next) ** schedule.beta):
        # no sub-box is probed
        return dict(out, ok=False, failed_center=tuple(center.flat),
                    failed_radius=L_next, failed_gap=gap)
    for n, (radius, c, ev) in enumerate(probes, start=1):
        sgap = float(np.abs(ev - E).min())
        if sgap < math.exp(-float(radius) ** schedule.beta):
            return dict(out, ok=False, failed_center=c, failed_radius=radius,
                        failed_gap=sgap, n_checked=n)
    return dict(out, n_checked=len(probes))


def not_cnr_windows_by_subbox(center, k, schedule, sample, interaction, g,
                              adjacency) -> list[tuple[float, float]]:
    """Union of the open resonance windows ``(ev - w_r, ev + w_r)`` of the
    parent and of every probed box, merged from a sorted list."""
    parent_ev, probes, _, _ = cnr_probe_spectra(
        center, k, schedule, sample, interaction, g, adjacency, math.inf, 0)
    windows = []
    for radius, ev in [(schedule.L[k + 1], parent_ev)] + [(r, ev) for r, _, ev in probes]:
        w = math.exp(-float(radius) ** schedule.beta)
        windows += [(float(e) - w, float(e) + w) for e in ev]
    merged: list[list[float]] = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(w) for w in merged]


def counter_by_energy(spec, ctx, trial) -> tuple[bool, list]:
    """The counter event of ``experiment._eval_counter`` decided one grid
    energy at a time: the singular candidates at each energy as ``Point2``
    lists (``SubboxSpectra.singular_centers``, non-interactive first for K)
    and one ``max_separated_subset`` search per energy.  The count does not
    depend on the candidates' order; the order is kept so that a test can
    compare the sweep's searches with these.

    Returns the verdict and, per energy swept, the searched centers as flat
    tuples with the search's ``exact`` flag.
    """
    from anderson2p.classify import energy_grid
    from anderson2p.disorder import domain_for_boxes, sample_potential
    from anderson2p.geometry import Box2
    from anderson2p.msa import max_separated_subset, subbox_spectra

    sched, k = ctx.sched, spec.k
    L_k = sched.L[k]
    m = spec.mass if spec.mass is not None else sched.m[k]
    parent = Box2.of_origin(sched.d, sched.L[k + 1])
    sample = sample_potential(ctx.dist, ctx.seed, trial, domain_for_boxes([parent]))
    spectra = subbox_spectra(parent.center, k, sched, sample, ctx.interaction,
                             sched.g, spec.adjacency)
    which, threshold = {
        "ni_counter_at_least": ("M", max(2, spec.n)),
        "interactive_counter_at_least": ("N", 2 * spec.n),
        "total_counter_at_least": ("K", 2 * spec.n + 2),
    }[spec.kind]
    searched = []
    for E in energy_grid(spec.interval, L_k, sched.beta, spec.grid_spacing):
        sing_ni, sing_i = spectra.singular_centers(float(E), m)
        centers = {"M": sing_ni, "N": sing_i, "K": sing_ni + sing_i}[which]
        count, _, exact = max_separated_subset(centers, 8 * L_k)
        searched.append(([c.flat for c in centers], exact))
        if count >= threshold:
            return True, searched
    return False, searched


def singular_mask_by_eigenvectors(eigenvalues, eigenvectors, center_index,
                                  boundary_indices, radius, E, m) -> np.ndarray:
    """(E, m)-singularity of a stack of same-layout boxes from their whole
    eigendecompositions ``(ncand, n)`` and ``(ncand, n, n)``:
    ``sum_s psi_s(y) (psi_s(c) / (lambda_s - E))`` over the boundary
    points y, with energies within the solver guard counted as singular.
    A scalar ``E`` gives ``(ncand,)``, an energy array ``(nE, ncand)``."""
    from anderson2p.resolvent import within_guard

    energies = np.atleast_1d(np.asarray(E, dtype=np.float64))
    edge = np.maximum(np.abs(eigenvalues[:, 0]), np.abs(eigenvalues[:, -1]))
    center = eigenvectors[:, center_index, :, None]  # (ncand, n, 1)
    boundary = eigenvectors[:, boundary_indices, :]  # (ncand, nb, n)
    shift = eigenvalues[:, :, None] - energies  # (ncand, n, nE)
    mask = within_guard(np.abs(shift).min(axis=1), energies, edge[:, None])
    if len(boundary_indices):
        with np.errstate(divide="ignore", invalid="ignore"):
            cols = boundary @ (center / shift)  # (ncand, nb, nE)
        mask |= np.abs(cols).max(axis=1) > math.exp(-m * radius)
    return mask.T if np.ndim(E) else mask.T[0]


def nontunnelling_by_eigenvectors(box, sample, g, m_hat, adjacency="sup"):
    """``classify.is_nontunnelling`` of a single-particle box of positive
    radius from ``diagonalize``'s eigenvectors: the largest
    ``|psi_s(y) psi_s(c)|`` over boundary points y and states s."""
    from anderson2p.classify import NTWitness
    from anderson2p.operators import assemble_single_particle, diagonalize

    threshold = math.exp(-m_hat * box.radius)
    op = assemble_single_particle(box, sample, g, adjacency=adjacency)
    sd = diagonalize(op)
    bidx = box.boundary_indices()
    prod = np.abs(sd.eigenvectors[bidx] * sd.eigenvectors[box.center_index()])
    iy, s = np.unravel_index(int(np.argmax(prod)), prod.shape)
    value = float(prod[iy, s])
    cap = math.inf if value == 0.0 else -math.log(value) / box.radius
    return value <= threshold, NTWitness(
        value, int(s), tuple(int(c) for c in op.points[bidx[iy]]), threshold, cap)


def subbox_mask_all_boxes(center, k, schedule, sample, interaction, g, adjacency,
                          energies, m) -> np.ndarray:
    """``(len(energies), ncand)`` singularity mask of every scale-k sub-box
    of the scale-(k+1) box at ``center``: one stacked ``eigh`` over all
    candidates, then ``singular_mask_by_eigenvectors``."""
    from anderson2p.geometry import Box2
    from anderson2p.operators import box_family

    L_k = schedule.L[k]
    template = Box2.of_origin(center.d, L_k)
    centers = Box2(center, schedule.L[k + 1] - L_k).points()
    ev, q = np.linalg.eigh(box_family(centers, L_k, sample, interaction, g, adjacency))
    return singular_mask_by_eigenvectors(ev, q, template.center_index(),
                                         template.boundary_indices(), L_k, energies, m)


def counter_report_by_spectra(center, k, schedule, sample, interaction, g, E,
                              adjacency):
    """``msa.count_singular_subboxes`` through eigendecompositions: the
    singular sets from ``subbox_spectra(...).singular_centers`` (one
    ``eigh`` per exchange orbit, then the pole-residue mask
    ``singular_mask_at``) and one subset
    search per counter; returns the ``CounterReport``."""
    from anderson2p.msa import CounterReport, max_separated_subset, subbox_spectra

    L_k = schedule.L[k]
    spectra = subbox_spectra(center, k, schedule, sample, interaction, g, adjacency)
    sing_ni, sing_i = spectra.singular_centers(E, schedule.m[k])
    sep = 8 * L_k
    allc = sing_ni + sing_i
    M, wit_ni, _ = max_separated_subset(sing_ni, sep)
    N, wit_i, _ = max_separated_subset(sing_i, sep)
    K, wit_all, _ = max_separated_subset(allc, sep)
    return CounterReport(
        center=center.flat, k=k, energy=float(E), mass=float(schedule.m[k]),
        separation=sep, n_candidates=len(spectra.centers),
        singular_ni=[c.flat for c in sing_ni], singular_i=[c.flat for c in sing_i],
        M=M, N=N, K=K,
        witnesses_ni=[sing_ni[i].flat for i in wit_ni],
        witnesses_i=[sing_i[i].flat for i in wit_i],
        witnesses_all=[allc[i].flat for i in wit_all],
    )


def _boundary_recovery_by_dict(op, E, psi):
    """The dict-keyed boundary recovery of one eigenpair: ``psi`` maps site
    tuples to values; returns (max_error, psi_sup)."""
    from anderson2p.errors import ResonantEnergyError
    from anderson2p.geometry import exterior_boundary
    from anderson2p.kernels import pairwise_dist
    from anderson2p.resolvent import RESONANCE_GUARD, spectral_gap

    gap = spectral_gap(op, E)
    if gap <= RESONANCE_GUARD * max(1.0, abs(E), operator_norm2(op)):
        raise ResonantEnergyError("energy resonant with the box; recovery undefined")
    box = op.box
    ext = exterior_boundary(box)
    ext_vals = np.array([psi[tuple(int(c) for c in p)] for p in ext])
    bidx = op.boundary_indices()
    w = np.zeros(op.n)
    if len(ext):
        dist = pairwise_dist(op.points[bidx], ext, op.adjacency)
        w[bidx] = (dist == 1) @ ext_vals
    recon = -np.linalg.solve(op.matrix - E * np.eye(op.n), w)
    interior = box.interior_indices()
    psi_box = np.array(
        [psi[tuple(int(c) for c in p)] for p in op.points], dtype=np.float64
    )
    psi_sup = float(np.abs(np.concatenate([psi_box, ext_vals])).max()) if op.n else 0.0
    err = (
        float(np.abs(recon[interior] - psi_box[interior]).max())
        if len(interior)
        else 0.0
    )
    return err, psi_sup


def recovery_batch_by_dicts(cfg, sched, seed_trial, parent_radius, sub_radius):
    """``cli._recovery_batch`` one eigenpair at a time: every parent
    eigenvector becomes a dict keyed by site tuples, and each
    (sub-box, eigenpair) recovery rebuilds its own exterior shell and
    boundary coupling.  Uses the library's assembly, eigensolver and
    resonance width; returns the ``RecoveryRecord``."""
    from anderson2p.classify import resonance_width
    from anderson2p.disorder import domain_for_boxes, sample_potential
    from anderson2p.geometry import Box2, Point2
    from anderson2p.operators import assemble_two_particle, diagonalize
    from anderson2p.records import RecoveryRecord

    d = cfg.dimension
    interaction = cfg.interaction_spec()
    parent = Box2.of_origin(d, parent_radius)
    sample = sample_potential(cfg.distribution_spec(), cfg.seed, seed_trial,
                              domain_for_boxes([parent]))
    parent_op = assemble_two_particle(parent, sample, interaction, cfg.g,
                                      cfg.adjacency)
    sd = diagonalize(parent_op)
    psi_maps = [
        {tuple(int(c) for c in p): float(v)
         for p, v in zip(parent_op.points, sd.eigenvectors[:, s])}
        for s in range(sd.n)
    ]
    max_off = parent_radius - sub_radius - 1  # sub-box plus its exterior shell
    sub_centers = [
        Point2.of(off[:d], off[d:])
        for off in Box2.of_origin(d, max_off).points()
    ]
    n_rec = n_skip = 0
    max_err = 0.0
    for c in sub_centers:
        sub = Box2(c, sub_radius)
        sub_op = assemble_two_particle(sub, sample, interaction, cfg.g,
                                       cfg.adjacency)
        ev = sub_op.eigenvalues()
        width = resonance_width(sub_radius, sched.beta)
        for s in range(sd.n):
            E = float(sd.eigenvalues[s])
            if np.abs(ev - E).min() < width:
                n_skip += 1
                continue
            err, psi_sup = _boundary_recovery_by_dict(sub_op, E, psi_maps[s])
            rel = err / max(psi_sup, 1e-300)
            max_err = max(max_err, rel)
            n_rec += 1
    return RecoveryRecord(
        seed=seed_trial, parent_radius=parent_radius, sub_radius=sub_radius,
        n_eigenpairs=sd.n, n_reconstructions=n_rec,
        n_skipped_resonant=n_skip, max_rel_error=max_err,
    )


def green_column_one_box(op, E: float, x=None) -> tuple[np.ndarray, float]:
    """One Green's column as one unstacked ``np.linalg.solve`` with its own
    guard and residual check: ``(vector, residual)``, ``ResonantEnergyError``
    within the guard, ``NumericError`` past the residual bound."""
    from anderson2p.errors import NumericError, ResonantEnergyError
    from anderson2p.operators import SPECTRAL_RTOL
    from anderson2p.resolvent import RESONANCE_GUARD, spectral_gap

    gap = spectral_gap(op, E)
    if gap <= RESONANCE_GUARD * max(1.0, abs(E), operator_norm2(op)):
        raise ResonantEnergyError(f"energy {E} within {gap:.3e} of the spectrum")
    idx = x if isinstance(x, (int, np.integer)) else (
        op.center_index() if x is None else op.index_of(x)
    )
    rhs = np.zeros(op.n)
    rhs[idx] = 1.0
    vec = np.linalg.solve(op.matrix - E * np.eye(op.n), rhs)
    residual = float(np.linalg.norm((op.matrix @ vec) - E * vec - rhs))
    shifted_norm = float(np.abs(op.eigenvalues()[[0, -1]] - E).max())
    if residual > SPECTRAL_RTOL * max(1.0, shifted_norm * float(np.linalg.norm(vec))):
        raise NumericError(f"Green's column residual {residual:.3e} exceeds tolerance")
    return vec, residual


# ---------------------------------------------------------------------------
# reference code no command needs


def adjacency_all_pairs(pts, mode: str) -> np.ndarray:
    """0/1 hop matrix from all-pairs lattice distances, O(N^2 d) memory:
    the build ``kernels.adjacency_matrix`` had before its stencil."""
    from anderson2p.kernels import pairwise_dist

    return (pairwise_dist(pts, pts, mode) == 1).astype(np.float64)


def operator_norm2(op) -> float:
    """Spectral norm of a symmetric operator: its largest |eigenvalue|."""
    ev = op.eigenvalues()
    return float(max(abs(ev[0]), abs(ev[-1]))) if len(ev) else 0.0


def density_bound(spec) -> float:
    """Supremum of the density of the disorder law ``spec`` on [a, b]."""
    width = spec.b - spec.a
    if spec.kind == "uniform":
        return 1.0 / width
    if spec.kind == "truncated-gaussian":
        from scipy.special import ndtr

        lo, hi = (spec.a - spec.mu) / spec.sigma, (spec.b - spec.mu) / spec.sigma
        mass = ndtr(hi) - ndtr(lo)
        peak_z = min(max(0.0, lo), hi)
        phi = np.exp(-0.5 * peak_z**2) / np.sqrt(2 * np.pi)
        return float(phi / (spec.sigma * mass))
    return max(spec.weights) * len(spec.weights) / width


def values_at(sample, sites) -> np.ndarray:
    """``sample.values_at_unchecked`` after checking that every row of
    ``sites`` lies in the sampled domain."""
    from anderson2p.errors import OutOfDomainError

    sites = np.asarray(sites, dtype=np.int64)
    for row in sites:
        if tuple(int(c) for c in row) not in sample.domain:
            raise OutOfDomainError(f"site {tuple(row)} not in sampled domain")
    return sample.values_at_unchecked(sites)


def check_passed(report, name: str) -> bool:
    """Whether the check ``name`` of a ``ParameterReport`` passed."""
    for c in report.checks:
        if c.name == name:
            return c.status == "pass"
    raise KeyError(name)


def tensor_spectrum(box, sample, interaction, g, adjacency="l1") -> np.ndarray:
    """Spectrum of a non-interactive box as sorted pairwise sums of its
    single-particle factor spectra.

    Requires a non-interactive box (the interaction vanishes there).  The
    result equals the directly diagonalized spectrum under ``l1`` adjacency.
    """
    from anderson2p.errors import PreconditionError
    from anderson2p.geometry import is_interactive
    from anderson2p.operators import single_particle_factors

    if is_interactive(box, interaction.r0):
        raise PreconditionError("tensor_spectrum requires a non-interactive box")
    op1, op2 = single_particle_factors(box, sample, g, adjacency)
    sums = np.add.outer(op1.eigenvalues(), op2.eigenvalues()).ravel()
    return np.sort(sums)


def permutation_conjugate_check(box, sample, interaction, g, adjacency="sup") -> float:
    """Max elementwise gap between the sorted spectra of the box and of its
    particle-exchange image; zero up to roundoff for any sample."""
    from anderson2p.operators import assemble_two_particle

    op = assemble_two_particle(box, sample, interaction, g, adjacency)
    op_sigma = assemble_two_particle(box.sigma(), sample, interaction, g, adjacency)
    return float(np.abs(op.eigenvalues() - op_sigma.eigenvalues()).max())


def box_distance(b1, b2) -> int:
    """Sup-distance between the two boxes as point sets.

    For product boxes this is the max over coordinates of the per-axis
    interval gaps.
    """
    gaps = [
        max(0, abs(c1 - c2) - b1.radius - b2.radius)
        for c1, c2 in zip(b1.center.flat, b2.center.flat)
    ]
    return max(gaps)


def read_records(path) -> list[dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def _tupled(seq) -> tuple[int, ...]:
    return tuple(int(x) for x in seq)


def parse_record(rec: dict):
    """Parse one record dict back into its domain object.

    Unknown kinds raise; the CLI never emits kinds this function cannot
    parse.
    """
    from anderson2p.classify import ClassificationReport, NtToNsReport
    from anderson2p.errors import InvalidInputError
    from anderson2p.experiment import DecayFit, EstimateRecord, EventSpec
    from anderson2p.msa import CounterReport, InductiveStepReport
    from anderson2p.records import (
        GreenRecord,
        RecoveryRecord,
        SampleRecord,
        SpectrumRecord,
    )

    kind = rec.get("kind")
    if kind == "estimate":
        f = {k: v for k, v in rec.items()
             if k not in ("kind", "config_hash", "event")}
        event = dict(rec["event"])
        if event["interval"] is not None:
            event["interval"] = tuple(event["interval"])
        return EstimateRecord(spec=EventSpec(**event), **f)
    if kind == "classification":
        fields = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        fields["center"] = _tupled(fields["center"])
        if fields.get("gf_point") is not None:
            fields["gf_point"] = _tupled(fields["gf_point"])
        if fields.get("nt_point") is not None:
            fields["nt_point"] = _tupled(fields["nt_point"])
        return ClassificationReport(**fields)
    if kind == "counter_report":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        for key in ("singular_ni", "singular_i", "witnesses_ni", "witnesses_i",
                    "witnesses_all"):
            f[key] = [_tupled(c) for c in f[key]]
        f["center"] = _tupled(f["center"])
        return CounterReport(**f)
    if kind == "inductive_step":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        return InductiveStepReport(**f)
    if kind == "nt_to_ns":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        return NtToNsReport(**f)
    if kind == "decay_fit":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["loc_center"] = _tupled(f["loc_center"])
        return DecayFit(**f)
    if kind == "sample":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        return SampleRecord(**f)
    if kind == "spectrum":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        return SpectrumRecord(**f)
    if kind == "green_column":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        f["center"] = _tupled(f["center"])
        f["source"] = _tupled(f["source"])
        return GreenRecord(**f)
    if kind == "recovery":
        f = {k: v for k, v in rec.items() if k not in ("kind", "config_hash")}
        return RecoveryRecord(**f)
    if kind in ("parameter_report", "schedule", "initial_certificate",
                "wegner_row", "error", "localization_row", "g_trend_summary"):
        return rec
    raise InvalidInputError(f"cannot parse record of kind {kind!r}")


def sample_from_record(rec):
    """Rebuild the ``DisorderSample`` of a ``SampleRecord``; regenerated
    values must equal the recorded ones (the record is a pure function of
    its keys)."""
    from anderson2p.disorder import DistributionSpec, sample_potential
    from anderson2p.errors import InvalidInputError

    spec = DistributionSpec.from_dict(rec.distribution)
    sample = sample_potential(spec, rec.seed, rec.trial,
                              np.array(rec.sites, dtype=np.int64))
    for site, val in zip(rec.sites, rec.values):
        if sample.values[tuple(site)] != val:
            raise InvalidInputError("sample record inconsistent with its keys")
    return sample
