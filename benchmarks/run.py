"""Run one benchmark workload, check every answer, print the metrics.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --report [--seed N] [--seconds S]

Run from the root of a checkout; the library is imported from its
``src``.  One run starts SETUP_REPEATS set-up-only processes and one
measured process (``measure.py``), then regenerates every pass's inputs
from the seed and checks each answer with the workload's oracle, here,
outside the measured process.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``--report`` runs every workload untraced and traced and prints all
metrics by name with their units.  A record of each run, with the
machine, the answer digest and the known defects, is written under
``.bench_out/``.  See ``benchmarks/README.md`` for the reasons behind the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_REPEATS = 4
RUN_DEADLINE_S = 170.0
END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as handle:
            return next((ln.split()[0] for ln in handle if ln.rstrip().endswith(ref)), "unknown")
    except OSError:
        return "unknown"


def child(args, extra, deadline):
    """Run measure.py and return its JSON summary."""
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    spawned_at = monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("the measured process overran the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"the measured process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def verify(workload, seed, records, problems):
    """Check every answer; return (attempted, failed, known_defects, answer digest)."""
    import workloads

    kinds = workloads.kind_table(workload)
    timed = {index: answers for phase, index, answers, _ in records if phase == "timed"}
    attempted = failed = known = 0
    digest = hashlib.sha256()
    perturbed = set()
    for phase, index, answers, _ in records:
        queries = workloads.make_pass(workload, seed, index)
        for position, ((kind, raw), answer) in enumerate(zip(queries, answers)):
            attempted += 1
            if phase == "traced":
                if answer != timed[index][position]:
                    failed += 1
                    problems.append(f"{kind}: traced answer differs from the untraced one")
                continue
            if index == 0:
                digest.update(f"{kind}\t{answer!r}\n".encode())
            try:
                if isinstance(answer, workloads.Raised):
                    raise workloads.Mismatch(f"raised {answer.error}")
                kinds[kind].check(raw, answer, index == 0)
            except workloads.Mismatch as exc:
                if getattr(raw, "boundary", False):
                    known += 1
                else:
                    failed += 1
                    problems.append(f"pass {index} {kind}: {exc}")
                continue
            if kind not in perturbed:
                moved = workloads.perturb(answer)
                if moved is not None:
                    perturbed.add(kind)
                    try:
                        kinds[kind].check(raw, moved, False)
                        problems.append(f"self-check: oracle accepted a perturbed {kind} answer")
                    except workloads.Mismatch:
                        pass
    return attempted, failed, known, digest.hexdigest()


def run_once(args) -> dict:
    deadline = monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    answers_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-answers.pkl")
    setups = [child(args, ["--setup-only"], deadline) for _ in range(SETUP_REPEATS)]
    summary = child(args, ["--answers", answers_path], deadline)
    setups.append(summary)
    with open(answers_path, "rb") as handle:
        records = pickle.load(handle)

    import workloads
    from measure import input_digest

    problems: list[str] = []
    digests = {s["input_digest"] for s in setups} | {input_digest(workloads.make_pass(args.workload, args.seed, 0))}
    if len(digests) != 1:
        problems.append("self-check: the same seed gave different input digests")
    attempted, failed, known, answer_digest = verify(args.workload, args.seed, records, problems)

    latencies = [t for phase, _, _, lat in records if phase == "timed" for t in lat]
    timed_count = len(latencies)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "input_digest": digests.pop() if len(digests) == 1 else None,
        "answer_digest": answer_digest, "attempted": attempted, "failed": failed,
        "known_defects": known, "samples": timed_count, "passes": summary["passes"],
        "problems": problems, "kinds": kind_latencies(args.workload, args.seed, records),
    }
    if args.trace:
        layers = summary["layers"]
        # self times add up to the traced wall time, less what lies between queries
        if not math.isclose(summary["self_sum_s"], summary["root_s"], rel_tol=1e-6):
            problems.append("self-check: self times do not add up to the root spans")
        if not 0.9 <= layers["trace.coverage"] <= 1.0:
            problems.append(f"self-check: spans cover {layers['trace.coverage']:.3f} of the traced wall time")
        record["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        values = {
            "queries_per_s": (timed_count - failed - known) / summary["phase_wall"],
            "latency_p50_ms": 1000 * percentile(latencies, 0.5),
            "latency_p90_ms": 1000 * percentile(latencies, 0.9),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        record["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        record["failed_ratio"] = failed / attempted
        record["known_defect_ratio"] = known / attempted
    record["correct"] = failed == 0 and not problems
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def kind_latencies(workload, seed, records) -> dict:
    """Per query kind: sample count, median and maximum latency of the timed phase."""
    import workloads

    by_kind: dict[str, list] = {}
    for phase, index, _, latencies in records:
        if phase == "timed":
            for (kind, _), t in zip(workloads.make_pass(workload, seed, index), latencies):
                by_kind.setdefault(kind, []).append(t)
    return {
        kind: {"n": len(ts), "p50_ms": 1000 * statistics.median(ts), "max_ms": 1000 * max(ts)}
        for kind, ts in by_kind.items()
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace.") or name.endswith("_per_credal_set"):
        return "ratio"
    return "count"


def report(args) -> int:
    """Every workload, untraced then traced, printed metric by metric."""
    import workloads

    print(json.dumps(machine()))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_DEADLINE_S + 10)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return fail(f"{workload} trace={trace} exited with {proc.returncode}")
            with open(os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{trace}.json"), encoding="utf-8") as handle:
                record = json.load(handle)
            print(f"\n{workload} trace={trace} correct={record['correct']} attempted={record['attempted']} "
                  f"failed={record['failed']} known_defects={record['known_defects']} samples={record['samples']}")
            if not trace:
                print(f"  {'failed_ratio':40s} {record['failed_ratio']:.6g} ratio")
                print(f"  {'known_defect_ratio':40s} {record['known_defect_ratio']:.6g} ratio")
            for key, metric in record["metrics"].items():
                print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
            for problem in record["problems"]:
                print(f"  problem: {problem}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "lowprev", "__init__.py")):
        return fail("run from the root of a lowprev checkout: src/lowprev is missing")
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import lowprev

    if not os.path.abspath(lowprev.__file__).startswith(os.path.abspath("src") + os.sep):
        return fail(f"lowprev imported from {lowprev.__file__}, not from this checkout")
    import workloads

    if args.report:
        return report(args)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    try:
        record = run_once(args)
    except (RuntimeError, OSError) as exc:
        return fail(str(exc))
    for problem in record["problems"][:20]:
        print(f"benchmark: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
