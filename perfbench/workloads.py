"""The benchmark's workloads: one ``anderson2p`` CLI configuration each.

A run of a workload executes a sequence of *chunks*.  Chunk ``j`` is one
CLI invocation, in a fresh process, with ``--set seed=<base_seed + j>``;
the chunks of a workload form a fixed pool of ``POOL_SIZE`` configurations
whose records are stored under ``reference/``, so every chunk a run picks
can be checked.  The benchmark seed only shuffles the order in which a run
draws chunks from the pool.

Why each workload exists, and which optimisation it exercises or bypasses,
is documented in ``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

POOL_SIZE = 24


def _check_inductive(records: list[dict]) -> list[str]:
    bad = [r["center"] for r in records
           if r["hypotheses_hold"] and r["ns_ok"] is not True]
    return [f"{len(bad)} verified inductive instances with ns_ok != true"] if bad else []


def _check_estimate(rec: dict, trials: int) -> list[str]:
    if rec["trials"] != trials or not 0 <= rec["successes"] <= rec["trials"]:
        return [f"estimate has successes={rec['successes']} of "
                f"trials={rec['trials']}, expected {trials} trials"]
    return []


def _check_counter(records: list[dict]) -> list[str]:
    if len(records) != 1:
        return [f"expected one estimate record, got {len(records)}"]
    return _check_estimate(records[0], COUNTER_TRIALS)


def _check_wegner(records: list[dict]) -> list[str]:
    if [r["scale"] for r in records] != list(WEGNER_SCALES):
        return [f"wegner rows for scales {[r['scale'] for r in records]}"]
    errors = []
    for r in records:
        errors += _check_estimate(r["single_box"], WEGNER_TRIALS)
        errors += _check_estimate(r["pair"], WEGNER_TRIALS)
    return errors


def _check_recovery(records: list[dict]) -> list[str]:
    return [f"seed {r['seed']}: max_rel_error {r['max_rel_error']:.3e} > 1e-6"
            for r in records if not r["max_rel_error"] <= 1e-6]


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    base_seed: int
    #: work units per chunk: seeds, trials, or trials x scales
    units: int
    #: invariants of one chunk's records; returns the violations found
    invariants: Callable[[list[dict]], list[str]]

    def argv(self, chunk: int) -> list[str]:
        return [*self.cli_args, "--set", f"seed={self.base_seed + chunk}"]


def _config(*pairs: str) -> tuple[str, ...]:
    out: list[str] = []
    for pair in pairs:
        out += ["--set", pair]
    return tuple(out)


INDUCTIVE_SEEDS = 16
COUNTER_TRIALS = 16
WEGNER_TRIALS = 4
WEGNER_SCALES = (8, 16)
RECOVERY_SEEDS = 16

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "inductive",
            ("msa-verify", "--check", "inductive-step",
             "--seeds", str(INDUCTIVE_SEEDS))
            + _config("dimension=1", "adjacency=l1", "g=30"),
            base_seed=7000, units=INDUCTIVE_SEEDS,
            invariants=_check_inductive,
        ),
        Workload(
            "counter",
            ("mc-estimate", "--event", "total_counter_at_least")
            + _config("dimension=1", "adjacency=sup", "g=5",
                      "interval=[-1.0,1.0]", f"trials={COUNTER_TRIALS}"),
            base_seed=9000, units=COUNTER_TRIALS,
            invariants=_check_counter,
        ),
        Workload(
            "wegner",
            ("mc-estimate", "--event", "wegner",
             "--scales", ",".join(map(str, WEGNER_SCALES)), "--energy", "0")
            + _config("dimension=1", "adjacency=sup", "g=5",
                      f"trials={WEGNER_TRIALS}"),
            base_seed=11000, units=WEGNER_TRIALS * len(WEGNER_SCALES),
            invariants=_check_wegner,
        ),
        Workload(
            "recovery",
            ("msa-verify", "--check", "boundary-recovery",
             "--seeds", str(RECOVERY_SEEDS))
            + _config("dimension=1", "adjacency=l1"),
            base_seed=4000, units=RECOVERY_SEEDS,
            invariants=_check_recovery,
        ),
    )
}
