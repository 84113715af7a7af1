"""Cross-cutting integration checks: backend invariance of full
experiments, subsampled budget paths, third-party cross-validation, the
single LAPACK library, the BLAS thread policy, the worker threads, and the
modules the CLI loads."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

import anderson2p
from anderson2p import blas, experiment
from anderson2p.classify import is_cnr
from anderson2p.disorder import (
    DistributionSpec,
    InteractionSpec,
    domain_for_boxes,
    sample_potential,
)
from anderson2p.errors import PlacementError
from anderson2p.experiment import wilson_interval
from anderson2p.geometry import Box2
from anderson2p.msa import desk_schedule

from .conftest import cli_env


class TestWilsonVsScipy:
    def test_matches_scipy_wilson(self):
        for n in (7, 50, 200):
            for s in (0, 1, n // 3, n - 1, n):
                lo, hi = wilson_interval(s, n)
                ref = binomtest(s, n).proportion_ci(confidence_level=0.95,
                                                    method="wilson")
                assert lo == pytest.approx(ref.low, abs=1e-12)
                assert hi == pytest.approx(ref.high, abs=1e-12)


class TestCliEnvironment:
    def test_child_imports_package_under_test(self, tmp_path):
        """A child started with ``cli_env`` from another directory imports
        the same ``anderson2p`` as this session, not an installed or stale
        copy."""
        out = subprocess.run(
            [sys.executable, "-c",
             "import anderson2p; print(anderson2p.__file__)"],
            capture_output=True, text=True, env=cli_env(), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert (Path(out.stdout.strip()).resolve()
                == Path(anderson2p.__file__).resolve())


class TestDistributionPlumbing:
    def test_alternate_marginals_flow_through_estimates(self):
        from anderson2p.experiment import EventSpec, estimate_event

        sched = desk_schedule()
        spec = EventSpec("resonant_at_energy", energy=5.0)
        results = {}
        for name, dist in (
            ("uniform", DistributionSpec.uniform()),
            ("gauss", DistributionSpec.truncated_gaussian(0.5, 0.2, 0.0, 1.0)),
            ("piecewise", DistributionSpec.piecewise([1, 2, 1], 0.0, 1.0)),
        ):
            rec = estimate_event(spec, sched, 40, 3, dist=dist)
            results[name] = rec.estimate
            again = estimate_event(spec, sched, 40, 3, dist=dist)
            assert again.to_record() == rec.to_record()
        assert all(0 <= v <= 1 for v in results.values())

    def test_distribution_changes_config_hash(self):
        from anderson2p.config import ExperimentConfig

        a = ExperimentConfig.from_dict({})
        b = ExperimentConfig.from_dict({
            "distribution": {"kind": "truncated-gaussian", "mu": 0.5,
                             "sigma": 0.2, "support": [0.0, 1.0]}})
        assert a.config_hash() != b.config_hash()


class TestCnrSubsampling:
    def test_budgeted_path_deterministic_and_flagged(self):
        sched = desk_schedule()
        parent = Box2.of_origin(1, sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 3, 0,
                                  domain_for_boxes([parent]))
        inter = InteractionSpec.triangular()
        kw = dict(exhaustive_limit=10, sample_budget=12)
        a = is_cnr(parent.center, 0, sched, sample, inter, sched.g, -40.0, **kw)
        b = is_cnr(parent.center, 0, sched, sample, inter, sched.g, -40.0, **kw)
        assert not a.exhaustive
        assert a.n_checked <= 2 * 12  # budget respected (per-radius shares)
        assert (a.ok, a.n_checked) == (b.ok, b.n_checked)

    def test_subsample_agrees_with_exhaustive_far_energy(self):
        # far below the spectrum every sub-box is non-resonant, so both
        # paths must report completely non-resonant
        sched = desk_schedule()
        parent = Box2.of_origin(1, sched.L[1])
        sample = sample_potential(DistributionSpec.uniform(), 4, 0,
                                  domain_for_boxes([parent]))
        inter = InteractionSpec.triangular()
        full = is_cnr(parent.center, 0, sched, sample, inter, sched.g, -40.0)
        sub = is_cnr(parent.center, 0, sched, sample, inter, sched.g, -40.0,
                     exhaustive_limit=5, sample_budget=10)
        assert full.ok and sub.ok and full.exhaustive and not sub.exhaustive


class TestOneLapackLibrary:
    def test_no_scipy_linalg_import(self):
        # dense LAPACK goes through numpy.linalg only; scipy's OpenBLAS pool
        # contends with numpy's when the two alternate.  Beyond that the
        # package imports only the standard library and its declared
        # dependencies, so no kernel grows a second, optional backend.
        # No assert statement either: identities must be checked by code
        # that survives ``python -O``.
        allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
        offenders = []
        for path in sorted(Path(anderson2p.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assert):
                    offenders.append(f"{path.name}:{node.lineno} assert")
                    continue
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module] + [f"{node.module}.{a.name}"
                                             for a in node.names]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno}" for n in names
                              if n.split(".")[0] not in allowed
                              or n == "scipy.linalg" or n.startswith("scipy.linalg.")]
        assert offenders == []

    def test_one_eigensolve_with_eigenvectors(self):
        # numpy.linalg.eigh is named only inside operators.eigh_stack, so
        # every eigenvector the package reads has passed its finiteness,
        # residual and orthonormality checks
        offenders = []
        for path in sorted(Path(anderson2p.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                if (path.stem, getattr(top, "name", None)) == ("operators", "eigh_stack"):
                    continue
                for node in ast.walk(top):
                    if isinstance(node, ast.Attribute):
                        names = [node.attr]
                    elif isinstance(node, ast.Name):
                        names = [node.id]
                    elif isinstance(node, (ast.Import, ast.ImportFrom)):
                        names = [a.name.split(".")[-1] for a in node.names]
                    else:
                        continue
                    if "eigh" in names:
                        offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_no_scipy_import_at_module_load(self):
        # scipy costs about 1 s per CLI start; only function bodies (the
        # truncated-Gaussian marginal) may import it, on first use
        offenders = []
        for path in sorted(Path(anderson2p.__file__).parent.glob("*.py")):
            pending = list(ast.parse(path.read_text()).body)
            while pending:
                node = pending.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else []
                else:
                    pending.extend(ast.iter_child_nodes(node))
                    continue
                offenders += [f"{path.name}:{node.lineno} {n}" for n in names
                              if n.split(".")[0] == "scipy"]
        assert offenders == []


class TestCliImportPath:
    _CHILD = textwrap.dedent("""
        import json
        import sys

        def loaded():
            return {m for m in sys.modules
                    if m.split(".")[0] == "scipy" or m == "numpy.ma"
                    or m.startswith(("numpy.ma.", "numpy.random"))}

        from anderson2p import cli

        at_import = sorted(m for m in loaded() if m.split(".")[0] == "scipy")
        before = loaded()
        out = sys.argv[1]
        counter = cli.main([
            "mc-estimate", "--event", "total_counter_at_least",
            "--set", "dimension=1", "--set", "g=5",
            "--set", "interval=[-1.0,1.0]", "--set", "trials=2",
            "--out", out + "/counter"])
        inductive = cli.main([
            "msa-verify", "--check", "inductive-step", "--seeds", "2",
            "--set", "dimension=1", "--set", "adjacency=l1", "--set", "g=30",
            "--out", out + "/inductive"])
        print(json.dumps({"at_import": at_import,
                          "codes": [counter, inductive],
                          "during_runs": sorted(loaded() - before)}))
    """)

    def test_cli_runs_load_no_scipy(self, tmp_path):
        """Importing the CLI loads no scipy module, and a counter and an
        inductive-step run load none of scipy, ``numpy.ma`` and
        ``numpy.random`` (numpy imports the last two on first touch, which
        would land inside the first trial)."""
        out = subprocess.run(
            [sys.executable, "-c", self._CHILD, str(tmp_path)],
            capture_output=True, text=True, env=cli_env(), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["codes"] == [0, 0]
        assert report["at_import"] == []
        assert report["during_runs"] == []

    _DECAY_CHILD = textwrap.dedent("""
        import json
        import sys

        from anderson2p import cli

        before = set(sys.modules)
        code = cli.main(["decay-fit", "--radius", "4", "--samples", "3",
                         "--set", "dimension=1", "--out", sys.argv[1]])
        print(json.dumps({"code": code, "loaded": sorted(
            m for m in set(sys.modules) - before
            if m.split(".")[0] == "scipy" or m == "numpy.ma"
            or m.startswith("numpy.ma."))}))
    """)

    def test_decay_fit_loads_no_masked_arrays(self, tmp_path):
        """``np.median`` and ``np.quantile`` import ``numpy.ma`` on first
        use; the decay fit's medians and bootstrap interval avoid them."""
        out = subprocess.run(
            [sys.executable, "-c", self._DECAY_CHILD, str(tmp_path)],
            capture_output=True, text=True, env=cli_env(), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report == {"code": 0, "loaded": []}


def _load_perfbench(name: str):
    """A stdlib-only module of ``perfbench/``, imported from its file under
    a private name, so the benchmark's directory stays off ``sys.path``."""
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


class TestBenchmarkReferences:
    @pytest.mark.parametrize("workload", ["inductive", "counter"])
    @pytest.mark.parametrize("chunk", [0, 1, 2])
    def test_chunk_matches_stored_records(self, tmp_path, workload, chunk):
        """A chunk of a benchmark workload, run in process, gives the
        records stored under ``perfbench/reference`` (within the benchmark's
        own float tolerance) and keeps the workload's invariants."""
        from anderson2p import cli

        workloads = _load_perfbench("workloads")
        outputs = _load_perfbench("outputs")
        w = workloads.WORKLOADS[workload]
        reference = outputs.load_reference(
            Path(workloads.__file__).parent / "reference" / f"{workload}.jsonl")
        assert cli.main(w.argv(chunk) + ["--out", str(tmp_path)]) == 0
        (path,) = tmp_path.glob("*/records.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert outputs.diff(records, reference[chunk], "records") == []
        assert w.invariants(records) == []


class TestBlasThreadPolicy:
    @pytest.fixture
    def openblas(self):
        lib = blas.loaded_openblas()
        if lib is None:
            pytest.skip("numpy's OpenBLAS thread setter not found")
        return lib

    @pytest.mark.parametrize("workload", ["inductive", "counter"])
    def test_records_do_not_depend_on_thread_variables(self, tmp_path, openblas,
                                                        workload):
        """A chunk run as a CLI process gives the same ``records.jsonl``
        bytes with ``OPENBLAS_NUM_THREADS`` unset, 1 and 2, and its manifest
        shows the one pinned thread.  Unpinned, the first ``inductive``
        chunk differs between one and two threads in the last bits of
        ``max_boundary_gf``."""
        w = _load_perfbench("workloads").WORKLOADS[workload]
        records, policies = set(), []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            run = subprocess.run(
                [sys.executable, "-m", "anderson2p.cli", *w.argv(0),
                 "--out", str(out)],
                capture_output=True, text=True, cwd=tmp_path,
                env=cli_env(OPENBLAS_NUM_THREADS=threads))
            assert run.returncode == 0, run.stderr
            records.add(next(out.rglob("records.jsonl")).read_bytes())
            policies.append(json.loads(
                next(out.rglob("manifest.json")).read_text())["blas"])
        assert len(records) == 1
        assert policies == [{"library": openblas.name,
                             "config": openblas.config, "threads": 1}] * 3

    def test_main_restores_callers_count(self, tmp_path, openblas):
        from anderson2p import cli

        before = openblas.threads()
        openblas.set_threads(2)
        try:
            callers = openblas.threads()
            assert cli.main(["sample", "--radius", "1",
                             "--out", str(tmp_path)]) == 0
            assert openblas.threads() == callers
        finally:
            openblas.set_threads(before)
        manifest = json.loads(next(tmp_path.rglob("manifest.json")).read_text())
        assert manifest["blas"]["threads"] == 1


def _set_cpus(monkeypatch, count: int) -> None:
    """Let this process appear to run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestWorkerPool:
    """``blas.ordered_map`` spreads seeds and trials over one thread per
    CPU while ``one_thread`` holds the pin; records, exit codes and error
    records must not depend on how many there are."""

    @pytest.fixture(autouse=True)
    def openblas(self):
        if blas.loaded_openblas() is None:
            pytest.skip("numpy's OpenBLAS thread setter not found: one worker only")

    @staticmethod
    def _run(argv, out) -> tuple[int, bytes | None, dict | None]:
        from anderson2p import cli

        threads = threading.active_count()
        code = cli.main([*argv, "--out", str(out)])
        assert threading.active_count() == threads
        records = next(out.rglob("records.jsonl"), None)
        manifest = next(out.rglob("manifest.json"), None)
        return (code, records and records.read_bytes(),
                manifest and json.loads(manifest.read_text()))

    @pytest.mark.parametrize("argv", [
        *[("workload", name) for name in ("inductive", "counter", "wegner", "recovery")],
        *[("msa-verify", "--check", "nt-to-ns", "--seeds", "4", "--set", f"seed={seed}")
          for seed in (1, 2, 3)],
    ], ids=lambda argv: argv[1] if argv[0] == "workload" else f"nt-to-ns-{argv[-1]}")
    def test_records_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, argv):
        if argv[0] == "workload":
            argv = _load_perfbench("workloads").WORKLOADS[argv[1]].argv(0)
        runs = []
        for cpus in (1, 2):
            _set_cpus(monkeypatch, cpus)
            code, records, manifest = self._run(argv, tmp_path / str(cpus))
            assert code == 0 and manifest["workers"] == cpus
            runs.append(records)
        assert runs[0] == runs[1]

    def test_error_of_lowest_failing_trial(self, tmp_path, monkeypatch, capsys):
        """Trials 3 and 5 fail; trial 3 fails last, after trial 5 has
        failed on the other worker, and its error is the one reported."""
        evaluate = experiment.evaluate_event

        def failing(spec, ctx, trial):
            if trial == 3:
                time.sleep(0.3)
            if trial in (3, 5):
                raise PlacementError(f"trial {trial} could not be placed")
            return evaluate(spec, ctx, trial)

        monkeypatch.setattr(experiment, "evaluate_event", failing)
        argv = ["mc-estimate", "--event", "resonant_at_energy", "--energy", "0",
                "--set", "trials=8"]
        errors = []
        for cpus in (1, 2):
            _set_cpus(monkeypatch, cpus)
            code, records, _ = self._run(argv, tmp_path / str(cpus))
            assert code == 2 and records is None
            errors.append(json.loads(capsys.readouterr().err))
        assert errors[0] == errors[1] == {
            "kind": "error", "error": "PlacementError",
            "message": "trial 3 could not be placed"}

    def test_results_in_index_order_on_every_worker(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        callers = set()

        def square(i):
            callers.add(threading.get_ident())
            time.sleep(0.002 * (i % 3))
            return i * i

        with blas.one_thread():
            assert blas.workers() == 2
            assert blas.ordered_map(square, range(40)) == [i * i for i in range(40)]
        assert len(callers) == 2 and threading.get_ident() in callers

    def test_stress_more_workers_than_cores(self, monkeypatch):
        """Eight workers on a one-microsecond switch interval: every item
        runs exactly once and lands in its slot, and a failure is still
        the lowest failing index."""
        _set_cpus(monkeypatch, 8)
        calls = []

        def item(i):
            calls.append(i)
            if i in (700, 1500):
                raise PlacementError(str(i))
            return -i

        outcome = {}

        def run():
            outcome["ok"] = blas.ordered_map(item, range(600))
            try:
                blas.ordered_map(item, range(2000))
            except PlacementError as e:
                outcome["error"] = str(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert outcome["ok"] == [-i for i in range(600)]
        assert outcome["error"] == "700"
        assert sorted(calls[:600]) == list(range(600))
        assert sorted(set(calls[600:])) == sorted(calls[600:])
        assert set(range(701)) <= set(calls[600:])

    def test_helpers_run_under_the_callers_profile(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        calls = []

        def item(i):
            time.sleep(0.001)
            return i

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is item.__code__:
                calls.append(threading.get_ident())

        sys.setprofile(profile)
        try:
            blas.ordered_map(item, range(40))
        finally:
            sys.setprofile(None)
        assert len(calls) == 40 and len(set(calls)) == 2

    def test_no_thread_outside_the_pin(self, monkeypatch):
        """The test session runs inside ``one_thread`` (``conftest``); this
        test steps outside it, then checks that a block sets and restores
        the pin."""
        _set_cpus(monkeypatch, 2)
        monkeypatch.setattr(blas, "_pinned", False)
        threads = threading.active_count()
        seen = []

        def probe(i):
            seen.append((threading.get_ident(), threading.active_count()))
            return i

        assert blas.workers() == 1
        assert blas.ordered_map(probe, range(6)) == list(range(6))
        assert seen == [(threading.get_ident(), threads)] * 6
        with blas.one_thread():
            assert blas.workers() == 2
        assert blas.workers() == 1


    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor-fault counts of glibc's malloc")
    def test_workers_fault_in_no_fresh_pages(self, tmp_path):
        """With two workers, a second ``counter`` chunk in the same process
        reuses the memory the first one freed: glibc's default thresholds
        hand it back and fault it in again, about 500 pages per trial,
        which makes the kernel flush the other worker's CPU."""
        workloads = _load_perfbench("workloads")
        argv = workloads.WORKLOADS["counter"].argv(0)
        script = textwrap.dedent(f"""
            import contextlib, io, os, resource
            os.sched_getaffinity = lambda pid: {{0, 1}}
            from anderson2p import cli
            argv = {[*argv, "--out", str(tmp_path)]!r}
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert cli.main(argv) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=cli_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        if not blas.keep_freed_memory():
            pytest.skip("no glibc mallopt")
        assert int(out.stdout) < 20 * workloads.COUNTER_TRIALS


class TestCliClassifyScale:
    def test_k_forces_scale_radius(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g": 5.0}))
        out = subprocess.run(
            [sys.executable, "-m", "anderson2p.cli", "classify",
             "--config", str(cfg), "--energy", "0.0", "--k", "0",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=cli_env())
        assert out.returncode == 0, out.stderr
        rec = json.loads(
            next((tmp_path / "o").rglob("records.jsonl")).read_text())
        assert rec["radius"] == 6  # desk scale-1 length
        assert rec["cnr"] is not None

    def test_radius_conflict_rejected(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "anderson2p.cli", "classify",
             "--energy", "0.0", "--k", "0", "--radius", "3",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=cli_env())
        assert out.returncode == 2

    def test_env_output_dir(self, tmp_path):
        env = cli_env(ANDERSON2P_OUTDIR=str(tmp_path / "envout"))
        out = subprocess.run(
            [sys.executable, "-m", "anderson2p.cli", "spectrum",
             "--radius", "0"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert list((tmp_path / "envout").rglob("records.jsonl"))

    def test_resonant_green_energy_errors(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g": 0.0, "interaction": {"r0": 1, "u0": 0.0}}))
        # free operator at radius 0 has eigenvalue exactly 0
        out = subprocess.run(
            [sys.executable, "-m", "anderson2p.cli", "green",
             "--config", str(cfg), "--radius", "0", "--energy", "0.0",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=cli_env())
        assert out.returncode == 2
        err = json.loads(out.stderr.strip().splitlines()[-1])
        assert err["error"] == "ResonantEnergyError"
