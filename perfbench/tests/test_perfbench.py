"""Tests of the benchmark's own code: span arithmetic, wrapper coverage,
the output check, and refusal to run without the package sources.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import importlib
import inspect
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import outputs
import spans

PERFBENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_merged_children():
    spans_ = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["msa.a", 1.0, 4.0, 0, None],
        ["lapack.eigh", 2.0, 3.0, 1, None],
        ["msa.b", 3.5, 6.0, 0, None],  # overlaps msa.a: covered once
    ]
    assert spans.self_times(spans_) == [5.0, 2.0, 1.0, 2.5]


def test_tracer_nesting_and_layer_totals():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("lapack.eigh", lambda: None,
                        lambda args, kwargs, result: {"n": 10, "batch": 2})
    middle = tracer.wrap("msa.subbox_spectra", lambda: (inner(), inner()))
    tracer.call("cli.main", lambda: middle())
    # clock reads: main 0, middle 1, inner 2-3, inner 4-5, middle 6, main 7
    assert [s[1:4] for s in tracer.spans] == [
        [0.0, 7.0, -1], [1.0, 6.0, 0], [2.0, 3.0, 1], [4.0, 5.0, 1]]
    metrics = spans.layer_metrics([(tracer.spans, 0.0)])
    assert metrics["cli.self_s"] == 2.0
    assert metrics["msa.self_s"] == 3.0
    assert metrics["lapack.self_s"] == 2.0
    assert metrics["lapack.eigh.calls"] == 2
    assert metrics["lapack.eigh.s"] == 2.0
    assert metrics["msa.subbox_spectra.s"] == 5.0
    assert metrics["lapack.gflop_computed"] == 2 * 9 * 10**3 * 2 / 1e9
    assert metrics["lapack.n_le_32.calls"] == 2


def _originals():
    """Code object of every traced function, by span name."""
    codes = {}
    for module, path, name, _ in spans.TARGETS:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part)
        codes[inspect.unwrap(obj).__code__] = name
    return codes


def test_wrappers_reach_every_call_site(tmp_path):
    from anderson2p import cli

    codes = _originals()
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    tiny = ["--set", "dimension=1", "--set", "seed=3", "--out", str(tmp_path)]
    commands = [
        ["msa-verify", "--check", "inductive-step", "--seeds", "2",
         "--set", "adjacency=l1", "--set", "g=30"],
        ["msa-verify", "--check", "boundary-recovery", "--seeds", "1",
         "--radius", "3", "--set", "adjacency=l1"],
        ["msa-verify", "--check", "nt-to-ns", "--seeds", "2", "--radius", "4"],
        ["mc-estimate", "--event", "total_counter_at_least",
         "--set", "g=5", "--set", "trials=2"],
        ["mc-estimate", "--event", "pair_singular",
         "--set", "g=5", "--set", "trials=2"],
        ["mc-estimate", "--event", "wegner", "--scales", "2,3", "--energy", "0",
         "--set", "g=5", "--set", "trials=2"],
        ["classify", "--energy", "0.3", "--radius", "3"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        for argv in commands:
            assert cli.main(argv + tiny) == 0, argv
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    traced = Counter(s[0] for s in tracer.spans)
    for name in set(codes.values()):
        assert traced[name] == profiled[name], name
    # every layer below the CLI was reached by this set of commands
    assert {s[0].split(".")[0] for s in tracer.spans} == set(spans.LAYERS) - {"cli"}
    # uninstall restores the original functions everywhere
    assert inspect.unwrap(cli.assemble_two_particle) is cli.assemble_two_particle


def test_output_check_tolerates_last_ulp_but_not_verdicts():
    want = [{"ns_ok": True, "K": 0, "max_boundary_gf": 6.026891388836056e-10,
             "kind": "inductive_step", "ns_margin": None}]
    ulp = [dict(want[0], max_boundary_gf=math.nextafter(6.026891388836056e-10, 1.0))]
    assert outputs.diff(ulp, want) == []
    flipped = [dict(want[0], ns_ok=False)]
    assert outputs.diff(flipped, want) != []
    assert outputs.diff([dict(want[0], K=1)], want) != []
    assert outputs.diff([dict(want[0], max_boundary_gf=6.1e-10)], want) != []
    assert outputs.diff([dict(want[0], K=True)], want) != []


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
