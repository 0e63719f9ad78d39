"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload is a list of verification jobs run in one process with
``workers=1`` and no result cache, so a repeated run does the same work.
A job is either a *base* job or an *edited* job (a base model with one
edit applied); ``fill_s`` and ``reverify_s`` sum the time to outcome of
the two kinds.  Only ``edit-reverify`` attaches a summary store, so only
there can an edited job reuse what its base wrote; on ``suite-cold`` the
pair shows what the edits cost with nothing to reuse.

* ``suite-cold`` — the checked-in gallery and families suites (104 jobs)
  in a seed-permuted order, witnesses on.  Edited jobs are the gallery's
  fuzz grow mutants (scenario names ending in ``-m<k>``).
* ``edit-reverify`` — fuzz scenarios and their first ``add service``
  grow mutant: the base is verified cold against a fresh
  directory-backed summary store (writes), then the mutant warm against
  a new handle on the same directory (reads).  Each verify starts from
  empty process-wide memos, like a separate CLI invocation.  Witnesses
  off.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("suite-cold", "edit-reverify")

#: Fuzz campaigns and scenario counts of ``edit-reverify``.  The set is
#: fixed and the benchmark seed orders it: a different scenario set per
#: seed spread the total 38% (quartile distance over median, ten seeds,
#: 60 scenarios each), wider than any bound a regression gate can use.
#: Every job of these reaches a verdict within the KM budget (campaign 0
#: has scenarios that exhaust it, and a budget-boxed job reads a pruning
#: change as a slowdown).  Sixty pairs make a pass short enough that a
#: run holds several.
EDIT_CAMPAIGNS = ((1, 20), (2, 20), (3, 20))
EDIT_KM_BUDGET = 5_000

_MUTANT_NAME = re.compile(r"-m\d+$")


@dataclass
class Job:
    """What a pass records about one job."""

    name: str
    edited: bool
    status: str = ""
    km_nodes: int = 0
    seconds: float = 0.0
    witness: str | None = None
    summaries_reused: int = 0
    km_nodes_reused: int = 0


@dataclass
class PassResult:
    jobs: list[Job] = field(default_factory=list)
    wall_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    store_bytes: int = 0
    outcomes: list = field(default_factory=list)
    """(job, outcome) per timed job, for the checks."""


def _record(job, outcome, edited: bool) -> Job:
    stats = outcome.stats or {}
    return Job(
        name=job.name,
        edited=edited,
        status=outcome.status,
        km_nodes=outcome.km_nodes,
        seconds=outcome.total_seconds,
        witness=(outcome.witness_json or {}).get("status"),
        summaries_reused=stats.get("summaries_reused", 0),
        km_nodes_reused=stats.get("km_nodes_reused", 0),
    )


def _run_batch(jobs, edited) -> PassResult:
    from repro.service.runner import run_batch

    started = time.perf_counter()
    report = run_batch(jobs, workers=1)
    result = PassResult(wall_s=time.perf_counter() - started)
    result.outcomes = list(zip(jobs, report.outcomes))
    result.jobs = [_record(job, outcome, edited(job)) for job, outcome in result.outcomes]
    return result


def _check_verdicts(inputs, result: PassResult, reference: bool) -> None:
    """Each outcome must match its job's expected status, and a violated
    verdict must come with a replay-confirmed concrete witness."""
    for job, outcome in result.outcomes:
        if outcome.status == "error":
            result.failures.append(f"{job.name}: error {outcome.error}")
        elif outcome.as_expected is not True:
            result.failures.append(
                f"{job.name}: {outcome.status}, expected {job.expected_status}"
            )
        elif outcome.status == "violated":
            witness = (outcome.witness_json or {}).get("status")
            if witness != "confirmed":
                result.failures.append(
                    f"{job.name}: violated without a confirmed witness ({witness})"
                )


# ----------------------------------------------------------------------
# suite-cold
# ----------------------------------------------------------------------
def _suite_cold_setup(rng: random.Random):
    from repro.dsl import directory_jobs
    from repro.service.suites import gallery_dir
    from repro.verifier.config import VerifierConfig
    from repro.workloads.families import families_dir

    config = VerifierConfig(km_budget=60_000, time_limit_seconds=None)
    jobs = directory_jobs(gallery_dir(), default_config=config)
    jobs += directory_jobs(families_dir(), default_config=config)
    rng.shuffle(jobs)
    return jobs


def _suite_cold_run(jobs, scratch: Path) -> PassResult:
    return _run_batch(
        jobs, lambda job: bool(_MUTANT_NAME.search(job.name.split("::", 1)[0]))
    )


# ----------------------------------------------------------------------
# edit-reverify
# ----------------------------------------------------------------------
def _edit_reverify_setup(rng: random.Random):
    from repro.fuzz.gen import GenConfig, generate_scenario, grow_scenarios
    from repro.service.jobs import VerificationJob
    from repro.verifier.config import VerifierConfig

    config = VerifierConfig(
        km_budget=EDIT_KM_BUDGET,
        time_limit_seconds=None,
        concretize_witnesses=False,
    )
    shape = GenConfig(max_depth=3, max_children=2)
    pairs = []
    for campaign, count in EDIT_CAMPAIGNS:
        for index in range(count):
            base = generate_scenario(campaign, index, shape)
            mutant = next(
                m
                for m in grow_scenarios(base, limit=1_000)
                if m.mutations[-1].startswith("add service")
            )
            pairs.append(
                tuple(
                    VerificationJob(
                        has=s.has, prop=s.prop, config=config, name=s.name
                    )
                    for s in (base, mutant)
                )
            )
    rng.shuffle(pairs)
    return pairs


def _edit_reverify_run(pairs, scratch: Path) -> PassResult:
    from repro.arith.fm import clear_caches
    from repro.service.cache import SummaryStore
    from repro.service.runner import run_batch
    from repro.symbolic.store import clear_canonical_caches

    def verify(job, directory: Path):
        # each verify starts from empty process-wide memos, as a separate
        # CLI invocation would: the edited job may reuse only what the
        # store holds, and no job's time depends on the pairs before it
        clear_caches()
        clear_canonical_caches()
        return run_batch([job], summary_store=SummaryStore(directory)).outcomes[0]

    root = scratch / f"stores-{os.getpid()}"
    result = PassResult()
    try:
        started = time.perf_counter()
        for number, (base, mutant) in enumerate(pairs):
            directory = root / str(number)
            result.outcomes.append((base, verify(base, directory)))
            result.outcomes.append((mutant, verify(mutant, directory)))
        result.wall_s = time.perf_counter() - started
        result.store_bytes = sum(path.stat().st_size for path in root.rglob("*.json"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    result.jobs = [
        _record(job, outcome, edited=index % 2 == 1)
        for index, (job, outcome) in enumerate(result.outcomes)
    ]
    return result


def _check_edit_reverify(pairs, result: PassResult, reference: bool) -> None:
    """Every warm mutant outcome must equal (status, km_nodes) of a cold,
    store-less verify of the same mutant."""
    from repro.service.runner import run_batch

    for job, outcome in result.outcomes:
        if outcome.status == "error":
            result.failures.append(f"{job.name}: error {outcome.error}")
    if not reference:
        return
    mutants = [mutant for _, mutant in pairs]
    warm = [outcome for _, outcome in result.outcomes[1::2]]
    for job, hot, plain in zip(mutants, warm, run_batch(mutants).outcomes):
        if (hot.status, hot.km_nodes) != (plain.status, plain.km_nodes):
            result.failures.append(
                f"{job.name}: warm {hot.status}/{hot.km_nodes} "
                f"!= cold {plain.status}/{plain.km_nodes}"
            )


_SETUP = {
    "suite-cold": _suite_cold_setup,
    "edit-reverify": _edit_reverify_setup,
}
_RUN = {
    "suite-cold": _suite_cold_run,
    "edit-reverify": _edit_reverify_run,
}
_CHECK = {
    "suite-cold": _check_verdicts,
    "edit-reverify": _check_edit_reverify,
}


def setup(workload: str, seed: int, order: int):
    """The workload's inputs (imports and model building), in job order
    number ``order`` of ``seed``: each pass of a run gets its own order,
    so a run's median spans several orders."""
    return _SETUP[workload](random.Random(f"{seed}/{order}"))


def run(workload: str, inputs, scratch: Path) -> PassResult:
    """One timed pass over the inputs."""
    return _RUN[workload](inputs, scratch)


def check(workload: str, inputs, result: PassResult, reference: bool = True) -> None:
    """Append to ``result.failures`` every output that is wrong; runs
    after the timed region.  With ``reference``, ``edit-reverify``
    verifies every mutant again without a store; a later pass of the same
    run may skip that, since its job fingerprint must equal the checked
    pass's."""
    _CHECK[workload](inputs, result, reference)
