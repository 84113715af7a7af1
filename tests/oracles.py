"""Independent brute-force reference implementations for the test suite.

These deliberately avoid the library's numerical code paths (no factorized
solves, no library eigensolvers beyond what a specific oracle states, no
shared kernels); they share only scalar arithmetic with the modules they
check.  The exception is the complete-non-resonance oracle: it checks the
batched sweep against the library's single-box assembly, one box at a time.
They are test-tree-only and never imported by the package.
"""

from __future__ import annotations

import itertools
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
        # no sub-box is probed, and the report keeps its defaults
        return dict(out, ok=False, failed_center=tuple(center.flat),
                    failed_radius=L_next, failed_gap=gap, n_candidates=0,
                    exhaustive=True)
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
