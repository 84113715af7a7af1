"""End-to-end and per-layer benchmark of the ``anderson2p`` CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload inductive --seed 1 --seconds 55 --trace 0

One run executes chunks of the workload (``workloads.py``), each one CLI
invocation in a fresh process, until ``--seconds`` have passed.  Every
chunk's records are checked against ``perfbench/reference/`` and the
workload's invariants.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run whose layer functions are traced.  Earlier lines give
each invocation's figures and the environment.

The BLAS thread variables are removed from each invocation's environment,
so the program's own thread behaviour is what gets measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import spans  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, Workload  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INVOCATION_TIMEOUT_S = 150.0
WORK_DIR = ROOT / ".perfbench_work"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "inherited_thread_vars": {k: os.environ[k] for k in THREAD_VARS
                                  if k in os.environ},
    }


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage; kill it after ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def invoke(workload: Workload, chunk: int, trace: bool, tag: str) -> dict:
    """Run one chunk in a fresh process; return its figures and records."""
    work = WORK_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    timing_path = work / "timing.json"
    trace_path = work / "trace.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(timing_path),
            str(trace_path) if trace else "-",
            *workload.argv(chunk), "--out", str(work / "out")]
    try:
        with open(work / "stderr.txt", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            usage = _wait(proc, INVOCATION_TIMEOUT_S)
        result = {"chunk": chunk, "exit_code": proc.returncode,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if proc.returncode != 0:
            result["error"] = (work / "stderr.txt").read_text(errors="replace")[-2000:]
            return result
        try:
            timing = json.loads(timing_path.read_text())
            (records_path,) = (work / "out").glob("*/records.jsonl")
            raw = records_path.read_bytes()
            result.update(
                setup_s=timing["t_command_start"] - t_spawn,
                command_s=timing["t_command_end"] - timing["t_command_start"],
                cpu_command_s=timing["cpu_command_s"],
                numpy=timing["numpy"], scipy=timing["scipy"],
                blas_libraries=timing["blas_libraries"],
                records_sha256=hashlib.sha256(raw).hexdigest(),
                records=[json.loads(line) for line in raw.splitlines()],
            )
            if trace:
                data = json.loads(trace_path.read_text())
                result["trace"] = (data["spans"], data["span_cost_s"])
        except (OSError, ValueError, KeyError) as e:
            result["error"] = f"unreadable output: {e!r}"
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(workload: Workload, result: dict, reference: dict) -> list[str]:
    if "error" in result:
        return [f"exit code {result['exit_code']}: {result['error']}"]
    problems = outputs.diff(result["records"], reference[result["chunk"]],
                            "records")
    # records that match the reference have the keys the invariants read
    return problems or workload.invariants(result["records"])


def end_to_end(workload: Workload, measured: list[dict], attempted: int,
               failed: int) -> dict:
    """End-to-end metrics over the invocations that completed, checked or not."""
    def metric(value, unit):
        return {"value": value, "unit": unit}

    units = workload.units * len(measured)
    return {
        "trials_per_s": metric(units / sum(r["command_s"] for r in measured), "1/s"),
        "cpu_ms_per_trial": metric(
            1000.0 * sum(r["cpu_command_s"] for r in measured) / units, "ms"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in measured), "s"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in measured), "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(measured: list[dict]) -> dict:
    metrics = spans.layer_metrics([r["trace"] for r in measured])
    return {name: {"value": value, "unit": spans.unit_of(name)}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "anderson2p" / "cli.py").is_file():
        print(f"no anderson2p sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = outputs.load_reference(HERE / "reference" / f"{workload.name}.jsonl")

    order = list(range(POOL_SIZE))
    random.Random(args.seed).shuffle(order)
    results = []
    t_start = time.monotonic()
    t_end = t_start + args.seconds
    # start another chunk only while it is expected to end before
    # half a chunk past the deadline, so runs stay close to --seconds
    while not results or (time.monotonic()
                          + 0.5 * (time.monotonic() - t_start) / len(results)
                          < t_end):
        chunk = order[len(results) % len(order)]
        tag = f"{workload.name}-{os.getpid()}-{len(results)}"
        result = invoke(workload, chunk, bool(args.trace), tag)
        result["problems"] = check(workload, result, reference)
        results.append(result)
        line = {k: result.get(k) for k in (
            "chunk", "exit_code", "setup_s", "command_s", "cpu_command_s",
            "peak_rss_mb", "records_sha256")}
        print(json.dumps(dict(line, problems=result["problems"][:5])))
    if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
        WORK_DIR.rmdir()

    failed = sum(1 for r in results if r["problems"])
    measured = [r for r in results if "command_s" in r]
    env = environment()
    if measured:
        env.update(numpy=measured[0]["numpy"], scipy=measured[0]["scipy"],
                   blas_libraries=measured[0]["blas_libraries"])
    print(json.dumps({"environment": env}))
    if not measured:
        print("no invocation completed", file=sys.stderr)
        return 1
    metrics = (per_layer(measured) if args.trace
               else end_to_end(workload, measured, len(results), failed))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
