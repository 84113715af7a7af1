"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of each ``anderson2p`` layer from the
outside, so no package file changes.  A wrapped function is replaced in
its defining module and at every place that bound it by ``from .x import
f``: every ``anderson2p`` module global that *is* the original function is
rebound to the wrapper.  ``numpy.linalg.eigh``/``eigvalsh`` are patched in
place on ``numpy.linalg``, which the package looks up at call time.

A span is ``[name, start, end, parent, attrs]``; spans live in memory and
are written once, when the traced process ends.  The layer of a span is
the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from pathlib import Path

#: layers, in the order the package stacks them
LAYERS = ("cli", "records", "experiment", "msa", "classify", "resolvent",
          "lapack", "operators", "kernels", "disorder")

#: upper edges of the LAPACK matrix-size histogram buckets (n of one matrix)
N_BUCKETS = ((32, "n_le_32"), (128, "n_33_128"), (512, "n_129_512"),
             (math.inf, "n_gt_512"))


def _matrix_attrs(args, kwargs, result):
    shape = args[0].shape
    batch = math.prod(shape[:-2]) if len(shape) > 2 else 1
    return {"n": int(shape[-1]), "batch": int(batch)}


def _lu_solve_attrs(args, kwargs, result):
    lu = args[0][0]
    b = args[1]
    return {"n": int(lu.shape[0]), "nrhs": int(b.shape[1]) if b.ndim > 1 else 1}


def _sample_attrs(args, kwargs, result):
    return {"sites": len(result.domain)}


def _cnr_attrs(args, kwargs, result):
    return {"checked": int(result.n_checked)}


def _subset_attrs(args, kwargs, result):
    return {"candidates": len(args[0]), "exact": bool(result[2])}


def _records_attrs(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


#: (module, attribute path, span name, attribute probe)
TARGETS = (
    ("anderson2p.disorder", "sample_potential", "disorder.sample_potential",
     _sample_attrs),
    ("anderson2p.kernels", "uniform01", "kernels.uniform01", None),
    ("anderson2p.kernels", "adjacency_matrix", "kernels.adjacency_matrix", None),
    ("anderson2p.kernels", "pairwise_dist", "kernels.pairwise_dist", None),
    ("anderson2p.kernels", "shell_max", "kernels.shell_max", None),
    ("anderson2p.operators", "assemble_two_particle", "operators.assemble", None),
    ("anderson2p.operators", "assemble_single_particle", "operators.assemble",
     None),
    ("anderson2p.operators", "diagonalize", "operators.diagonalize", None),
    ("anderson2p.operators", "FiniteOperator.eigenvalues",
     "operators.eigenvalues", None),
    ("anderson2p.operators", "single_particle_factors",
     "operators.single_particle_factors", None),
    ("numpy.linalg", "eigh", "lapack.eigh", _matrix_attrs),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh", _matrix_attrs),
    ("scipy.linalg", "lu_factor", "lapack.lu_factor", _matrix_attrs),
    ("scipy.linalg", "lu_solve", "lapack.lu_solve", _lu_solve_attrs),
    ("anderson2p.resolvent", "spectral_gap", "resolvent.spectral_gap", None),
    ("anderson2p.resolvent", "green_column", "resolvent.green_column", None),
    ("anderson2p.resolvent", "boundary_green_max",
     "resolvent.boundary_green_max", None),
    ("anderson2p.resolvent", "boundary_recovery",
     "resolvent.boundary_recovery", None),
    ("anderson2p.resolvent", "green_spectral", "resolvent.green_spectral", None),
    ("anderson2p.classify", "is_ns", "classify.is_ns", None),
    ("anderson2p.classify", "is_cnr", "classify.is_cnr", _cnr_attrs),
    ("anderson2p.classify", "is_resonant", "classify.is_resonant", None),
    ("anderson2p.classify", "exists_resonant_pair",
     "classify.exists_resonant_pair", None),
    ("anderson2p.classify", "singular_at_spectral",
     "classify.singular_at_spectral", None),
    ("anderson2p.classify", "singular_mask_at", "classify.singular_mask_at",
     None),
    ("anderson2p.classify", "is_nontunnelling", "classify.is_nontunnelling",
     None),
    ("anderson2p.classify", "nt_to_ns_check", "classify.nt_to_ns_check", None),
    ("anderson2p.msa", "subbox_spectra", "msa.subbox_spectra", None),
    ("anderson2p.msa", "SubboxSpectra.singular_centers",
     "msa.singular_centers", None),
    ("anderson2p.msa", "max_separated_subset", "msa.max_separated_subset",
     _subset_attrs),
    ("anderson2p.msa", "count_singular_subboxes",
     "msa.count_singular_subboxes", None),
    ("anderson2p.msa", "inductive_ns_step", "msa.inductive_ns_step", None),
    ("anderson2p.experiment", "estimate_event", "experiment.estimate_event",
     None),
    ("anderson2p.experiment", "evaluate_event", "experiment.evaluate_event",
     None),
    ("anderson2p.experiment", "wegner_sweep", "experiment.wegner_sweep", None),
    ("anderson2p.records", "write_records", "records.write_records",
     _records_attrs),
    ("anderson2p.records", "write_csv", "records.write_csv", None),
)


class Tracer:
    """Collects spans from wrapped functions of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, probe=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS):
        """Wrap every target and rebind each ``anderson2p`` module global
        that refers to the original function."""
        for module_name, path, name, probe in targets:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(name, original, probe)
            self._set(owner, attr, traced)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "anderson2p"
                                       or mod_name.startswith("anderson2p.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def span_cost_s(calls: int = 20000) -> float:
    """Wall time one span adds to a call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap("calibrate.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


# --------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover (children's intervals are merged and clipped to the parent)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (end - start) - covered))
    return out


def nominal_flop(name: str, attrs: dict) -> float:
    """Textbook flop count of one LAPACK call, computed from its sizes:
    eigenpairs 9n^3, eigenvalues only 4n^3/3, LU 2n^3/3, LU solve 2n^2
    per right-hand side."""
    n = attrs["n"]
    if name == "lapack.eigh":
        return 9.0 * n ** 3 * attrs["batch"]
    if name == "lapack.eigvalsh":
        return 4.0 / 3.0 * n ** 3 * attrs["batch"]
    if name == "lapack.lu_factor":
        return 2.0 / 3.0 * n ** 3 * attrs["batch"]
    return 2.0 * n ** 2 * attrs["nrhs"]


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: functions whose call count and inclusive time are reported
REPORTED_FUNCTIONS = (
    "lapack.eigh", "lapack.eigvalsh", "lapack.lu_factor", "lapack.lu_solve",
    "kernels.adjacency_matrix", "kernels.uniform01", "operators.assemble",
    "classify.is_cnr", "classify.is_ns", "classify.singular_mask_at",
    "classify.singular_at_spectral", "classify.is_nontunnelling",
    "msa.subbox_spectra", "msa.max_separated_subset",
)


#: metric-name suffixes that are not divided by the number of invocations
PER_RUN = ("gflops_achieved", "factorizations_per_solve", "subset_inexact_ratio",
           "subset_candidates_max", "trial_ms_p50", "trial_ms_p90")


def layer_metrics(runs) -> dict[str, float]:
    """Per-layer metrics over the traced invocations of one benchmark run.

    ``runs`` holds one ``(spans, span_cost_s)`` pair per invocation; each
    span list has a single root, the ``cli.main`` span.  Times, calls and
    sizes are means per invocation (one chunk of fixed work), so they do
    not grow with the number of chunks a run gets through; ratios,
    percentiles and maxima are taken over the whole run."""
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    trial_ms: list[float] = []
    flop = 0.0
    n_hist = {label: 0 for _, label in N_BUCKETS}
    counts = {"sites": 0, "cnr_checked": 0, "subset_inexact": 0,
              "subset_max": 0, "record_bytes": 0}
    root_s = 0.0
    overhead_s = 0.0
    for spans, cost in runs:
        overhead_s += cost * len(spans)
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, attrs = span
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += own
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                root_s += end - start
            # a nested span of the same name is already in its ancestor's time
            if not _inside_same_name(spans, span):
                incl[name] = incl.get(name, 0.0) + (end - start)
            if name == "experiment.evaluate_event":
                trial_ms.append(1000.0 * (end - start))
            if layer == "lapack":
                flop += nominal_flop(name, attrs)
                label = next(lab for edge, lab in N_BUCKETS if attrs["n"] <= edge)
                n_hist[label] += 1
            elif name == "disorder.sample_potential":
                counts["sites"] += attrs["sites"]
            elif name == "classify.is_cnr":
                counts["cnr_checked"] += attrs["checked"]
            elif name == "msa.max_separated_subset":
                counts["subset_inexact"] += not attrs["exact"]
                counts["subset_max"] = max(counts["subset_max"],
                                           attrs["candidates"])
            elif name == "records.write_records":
                counts["record_bytes"] += attrs["bytes"]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    for name in REPORTED_FUNCTIONS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
    lapack_s = sum(incl.get(f"lapack.{f}", 0.0)
                   for f in ("eigh", "eigvalsh", "lu_factor", "lu_solve"))
    out["lapack.gflop_computed"] = flop / 1e9
    out["lapack.gflops_achieved"] = flop / 1e9 / lapack_s if lapack_s else 0.0
    for label, count in n_hist.items():
        out[f"lapack.{label}.calls"] = count
    lu_solves = calls.get("lapack.lu_solve", 0)
    out["resolvent.green_column.calls"] = calls.get("resolvent.green_column", 0)
    out["resolvent.boundary_recovery.calls"] = calls.get(
        "resolvent.boundary_recovery", 0)
    out["resolvent.factorizations_per_solve"] = (
        calls.get("lapack.lu_factor", 0) / lu_solves if lu_solves else 0.0)
    out["classify.cnr_subboxes_checked"] = counts["cnr_checked"]
    subsets = calls.get("msa.max_separated_subset", 0)
    out["msa.subset_inexact_ratio"] = (
        counts["subset_inexact"] / subsets if subsets else 0.0)
    out["msa.subset_candidates_max"] = counts["subset_max"]
    out["experiment.trial_ms_p50"] = _percentile(trial_ms, 0.5)
    out["experiment.trial_ms_p90"] = _percentile(trial_ms, 0.9)
    out["disorder.calls"] = calls.get("disorder.sample_potential", 0)
    out["disorder.s"] = incl.get("disorder.sample_potential", 0.0)
    out["disorder.sites"] = counts["sites"]
    out["records.s"] = (incl.get("records.write_records", 0.0)
                        + incl.get("records.write_csv", 0.0))
    out["records.bytes"] = counts["record_bytes"]
    for name in out:
        if name.rsplit(".", 1)[-1] not in PER_RUN:
            out[name] /= max(1, len(runs))
    out["unaccounted_frac"] = self_by_layer["cli"] / root_s if root_s else 0.0
    out["trace_overhead_frac"] = overhead_s / root_s if root_s else 0.0
    return out


def unit_of(name: str) -> str:
    """Unit of a metric returned by :func:`layer_metrics`."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "sites", "cnr_subboxes_checked",
                "subset_candidates_max"):
        return "count"
    if last in ("s", "self_s"):
        return "s"
    return {"gflop_computed": "gflop", "gflops_achieved": "gflop/s",
            "trial_ms_p50": "ms", "trial_ms_p90": "ms",
            "bytes": "bytes"}.get(last, "ratio")


def _inside_same_name(spans, span) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == span[0]:
            return True
        parent = spans[parent][3]
    return False
