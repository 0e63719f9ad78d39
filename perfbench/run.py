"""Time-to-verdict benchmark of the repro verifier.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 45 --trace 0

Run from the repository root.  Each workload (see ``workloads.py``) runs
in fresh interpreters started by this script, one process per pass, with
``workers=1``, no result cache and ``src/`` on the path:

* ``--trace 0``: one warm-up and ``SETUP_PROBES`` set-up-only processes,
  then whole passes until their timed regions add up to ``--seconds``
  (at least one; see ``OVERSHOOT``).  Pass k runs the jobs in order
  number k of the seed.  Prints every end-to-end metric; each is the
  median over passes (``setup_s``: over every set-up sample).
* ``--trace 1``: one untraced and one traced pass, both in order 0.
  Prints every
  per-layer metric of the traced pass (calls and self time per layer
  entry point, hit rates, counts) and the tracing overhead, which is the
  traced minus the untraced ``wall_s``.  Spans are written under
  ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong output
makes ``failed`` non-zero and the exit code 1: an error, a verdict that
contradicts the job's known answer, a violated verdict without a
replay-confirmed witness (where witnesses are on), a warm re-verify that
differs from a cold one, or a job fingerprint (name, status, KM nodes)
that differs from an earlier pass of the same seed and source tree.
Pass k of the n-th run of a seed uses ``PYTHONHASHSEED`` (n + k) mod 2,
so repeated runs compare the two.  Layer call counts and cache counters
that differ between passes of the same order are reported, not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Set-up-only processes per untraced run, after one warm-up that also
#: compiles bytecode on a fresh checkout.
SETUP_PROBES = 5
#: A run starts another pass while its timed regions add up to less than
#: ``--seconds``, unless that pass, judged by the last one, would take
#: them past ``--seconds`` times this.
OVERSHOOT = 1.25
#: Wall-clock limit for the whole run; no pass starts that could not end
#: before it, judged by the previous pass.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("fill_s", "s"),
    ("reverify_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Cache hit rates: metric name -> ``repro.perf.counters`` cache name.
HIT_RATES = {
    "store.key_hit_rate": "store_key",
    "task_vass.succ_memo_hit_rate": "succ_memo",
    "engine.child_input_hit_rate": "child_input",
    "engine.summary_hit_rate": "summary",
    "fm.sat_hit_rate": "fm_sat",
    "fm.proj_hit_rate": "fm_proj",
    "cache.summary_store_hit_rate": "summary_store",
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.self_s", "s", "lower"))
    metrics.append(("pool.execute_payload.overhead_s", "s", "lower"))
    metrics += [(name, "ratio", "higher") for name in HIT_RATES]
    metrics += [
        ("karp_miller.km_nodes", "count", "lower"),
        ("engine.summary_misses", "count", "lower"),
        ("engine.summaries_reused", "count", "higher"),
        ("engine.km_nodes_reused", "count", "higher"),
        ("cache.summary_bytes", "bytes", "lower"),
        ("cache.flock_waits", "count", "lower"),
        ("witness.confirmed_rate", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return metrics


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _spawn(workload, seed, mode, deadline, order=0, trace=False, hash_seed=0,
           reference=True, trace_stem=None):
    """Start one worker; returns (seconds from start to ``ready``, the
    pass record or None)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline reached")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--order", str(order),
        "--mode", mode,
        "--trace", str(int(trace)),
        "--reference-check", str(int(reference)),
        "--scratch", str(OUT / "scratch"),
    ]
    if trace_stem is not None:
        command += ["--trace-stem", str(trace_stem)]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    watchdog = threading.Timer(remaining, process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        ready = time.perf_counter() - started
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"{mode} worker for {workload} exited with code {code}")
    if mode == "setup":
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class History:
    """Fingerprints of earlier passes with the same workload, seed and
    source tree, kept under ``.perfbench-out/fingerprints``.  Job
    fingerprints are order-free; counts depend on the job order, so they
    are kept per order number."""

    def __init__(self, workload: str, seed: int) -> None:
        self.path = OUT / "fingerprints" / f"{workload}-s{seed}-{_source_digest()}.json"
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {"runs": 0, "passes": 0, "hash_seeds": [], "counts": {}}

    def hash_seed(self, order: int) -> int:
        """Alternates by run, so order k meets both hash seeds."""
        return (self.data["runs"] + order) % 2

    def compare(self, record: dict, order: int, hash_seed: int, failures: list, notes: list) -> None:
        jobs = sorted([j["name"], j["status"], j["km_nodes"]] for j in record["jobs"])
        counts = {f"counter.{k}": v for k, v in record["counters"].items()}
        if "layers" in record:
            counts.update({f"{k}.calls": v["calls"] for k, v in record["layers"].items()})
        earlier = self.data.get("jobs")
        if earlier is None:
            self.data["jobs"] = jobs
        elif earlier != jobs:
            known = {row[0]: row for row in earlier}
            differing = [row for row in jobs if known.get(row[0]) != row][:5]
            failures.append(
                f"fingerprint differs from {self.data['passes']} earlier pass(es) "
                f"(hash seeds {sorted(set(self.data['hash_seeds']))}): {differing}"
            )
        stored = self.data["counts"].setdefault(str(order), {})
        for name, value in sorted(counts.items()):
            if name not in stored:
                stored[name] = value
            elif stored[name] != value:
                notes.append(
                    f"order {order} count {name}: {value} under hash seed {hash_seed} "
                    f"(earlier passes: {stored[name]})"
                )
        self.data["passes"] += 1
        self.data["hash_seeds"].append(hash_seed)

    def save(self) -> None:
        self.data["runs"] += 1
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.data))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def pass_metrics(record: dict) -> dict[str, float]:
    jobs = record["jobs"]
    times = [job["seconds"] for job in jobs]
    decided = sum(job["status"] in ("holds", "violated") for job in jobs)
    return {
        "wall_s": record["wall_s"],
        "fill_s": sum(job["seconds"] for job in jobs if not job["edited"]),
        "reverify_s": sum(job["seconds"] for job in jobs if job["edited"]),
        "job_p50_s": statistics.median(times),
        "job_p90_s": _p90(times),
        "decided_share": decided / len(jobs),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def _rate(counters: dict, cache: str) -> float:
    hits = counters.get(f"{cache}_hits", 0)
    total = hits + counters.get(f"{cache}_misses", 0)
    return hits / total if total else 0.0


def layer_metrics(traced: dict, untraced: dict, failures: list) -> dict[str, float]:
    layers, counters, jobs = traced["layers"], traced["counters"], traced["jobs"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
    metrics["pool.execute_payload.overhead_s"] = (
        layers["pool.execute_payload"]["total_s"]
        - layers["engine.verify"]["total_s"]
        - layers["witness.concretize"]["total_s"]
    )
    for name, cache in HIT_RATES.items():
        metrics[name] = _rate(counters, cache)
    concretized = layers["witness.concretize"]["calls"]
    confirmed = sum(job["witness"] == "confirmed" for job in jobs)
    metrics.update(
        {
            "karp_miller.km_nodes": sum(job["km_nodes"] for job in jobs),
            "engine.summary_misses": counters["summary_misses"],
            "engine.summaries_reused": sum(job["summaries_reused"] for job in jobs),
            "engine.km_nodes_reused": sum(job["km_nodes_reused"] for job in jobs),
            "cache.summary_bytes": traced["store_bytes"],
            "cache.flock_waits": counters["flock_waits"],
            "witness.confirmed_rate": confirmed / concretized if concretized else 0.0,
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
            "trace.overhead_share": traced["wall_s"] / untraced["wall_s"] - 1.0,
        }
    )
    keyed = counters["store_key_hits"] + counters["store_key_misses"]
    if layers["store.canonical_key"]["calls"] != keyed:
        failures.append(
            f"store.canonical_key.calls {layers['store.canonical_key']['calls']} "
            f"!= store_key hits+misses {keyed}: a bind site is not traced"
        )
    return metrics


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _box() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str], dict]:
    """(metrics, failures, details) of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    history = History(workload, seed)
    failures: list[str] = []
    notes: list[str] = []
    setups: list[float] = []
    passes: list[dict] = []
    hash_seeds: list[int] = []

    def one_pass(order: int, traced: bool = False) -> dict:
        hash_seed = history.hash_seed(order)
        stem = OUT / "traces" / f"{workload}-s{seed}" if traced else None
        ready, record = _spawn(
            workload, seed, "pass", deadline, order, traced, hash_seed,
            reference=not passes, trace_stem=stem,
        )
        setups.append(ready)
        history.compare(record, order, hash_seed, failures, notes)
        failures.extend(record["failures"])
        passes.append(record)
        hash_seeds.append(hash_seed)
        return record

    if trace:
        untraced = one_pass(0)
        metrics = layer_metrics(one_pass(0, traced=True), untraced, failures)
    else:
        _spawn(workload, seed, "setup", deadline)  # warm-up, not timed
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(workload, seed, "setup", deadline)[0])
        measured = 0.0
        while True:
            pass_started = time.monotonic()
            last = one_pass(len(passes))["wall_s"]
            measured += last
            if measured >= seconds or measured + last > seconds * OVERSHOOT:
                break
            now = time.monotonic()
            if now + (now - pass_started) > deadline:
                notes.append("stopped early: another pass would overrun the deadline")
                break
        per_pass = [pass_metrics(record) for record in passes]
        metrics = {"setup_s": statistics.median(setups)}
        for name, _unit in END_TO_END[1:]:
            metrics[name] = statistics.median(p[name] for p in per_pass)
    history.save()
    last = passes[-1]
    details = {
        "attempted": sum(len(record["jobs"]) for record in passes),
        "passes": len(passes),
        "pass_walls": [record["wall_s"] for record in passes],
        "hash_seeds": hash_seeds,
        "setup_samples": setups,
        "notes": notes,
        "jobs": last["jobs"],
        "counters": last["counters"],
    }
    if trace:
        details["layers"] = last["layers"]
        details["bind_sites"] = last["bind_sites"]
    return metrics, failures, details


def _report(workload, seed, trace, metrics, failures, details, box) -> None:
    jobs = details["jobs"]
    print(
        f"perfbench {workload} seed={seed} trace={int(trace)} "
        f"passes={details['passes']} hash_seeds={details['hash_seeds']}"
    )
    print("pass walls: " + " ".join(f"{wall:.3f}" for wall in details["pass_walls"]))
    print(
        f"box: nproc={box['nproc']} affinity={box['affinity']} "
        f"{box['implementation']} {box['python']} {box['platform']} "
        f"load before={box['load_before']} after={box['load_after']}"
    )
    statuses: dict[str, int] = {}
    for job in jobs:
        statuses[job["status"]] = statuses.get(job["status"], 0) + 1
    confirmed = sum(job["witness"] == "confirmed" for job in jobs)
    edited = sum(job["edited"] for job in jobs)
    print(
        f"jobs per pass: {len(jobs)} ({edited} edited) "
        f"{dict(sorted(statuses.items()))}, {confirmed} confirmed witnesses"
    )
    if trace:
        layers = details["layers"]
        print(f"{'layer':32} {'calls':>10} {'spans':>10} {'self_s':>10} {'total_s':>10}")
        for layer in LAYERS:
            row = layers[layer]
            print(
                f"{layer:32} {row['calls']:>10} {row['spans']:>10} "
                f"{row['self_s']:>10.4f} {row['total_s']:>10.4f}"
            )
        for name, unit, _ in per_layer_metrics():
            if not name.endswith((".calls", ".self_s")):
                print(f"{name:40} {metrics[name]:.6g} {unit}")
    else:
        times = [job["seconds"] for job in jobs]
        beyond = sum(t > _p90(times) for t in times)
        for name, unit in END_TO_END:
            extra = ""
            if name == "setup_s":
                extra = f"  (median of {len(details['setup_samples'])} samples)"
            elif name == "job_p50_s":
                extra = f"  (n={len(times)})"
            elif name == "job_p90_s":
                few = ": fewer than 10" if beyond < 10 else ""
                extra = f"  (n={len(times)}, {beyond} samples beyond{few})"
            print(f"{name:16} {metrics[name]:.6g} {unit}{extra}")
    attempted = details["attempted"]
    print(
        f"{'failed_share':16} {len(failures) / attempted:.6g} ratio "
        f"({len(failures)} failed checks over {attempted} jobs)"
    )
    for note in details["notes"]:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    box = {**_box(), "load_before": os.getloadavg()}
    try:
        metrics, failures, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    box["load_after"] = os.getloadavg()
    _report(args.workload, args.seed, bool(args.trace), metrics, failures, details, box)
    units = dict(END_TO_END)
    units.update({name: unit for name, unit, _ in per_layer_metrics()})
    result = {
        "correct": not failures,
        "attempted": details["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"box": box, "details": details, "failures": failures, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
