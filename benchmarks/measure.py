"""One measured workload process: set-up, the timed closed loop, the trace.

Started by ``run.py``, never by hand.  A single client runs each pass's
queries one after another, with no extra threads.  Pass ``i`` has its own
inputs, drawn from the seed and ``i`` and generated between passes, so no
model is queried twice and a cache across queries has nothing to reuse.

Untraced: passes run until the timed phase has lasted ``--seconds`` and
at least MIN_QUERIES queries completed.  Traced: the first passes that
hold MIN_QUERIES queries run once untraced and once traced, and the ratio
of the two wall times is the tracing overhead.

Answers go to a pickle file for the harness to check; the last line of
standard output is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import sys
from time import monotonic, perf_counter

import workloads
from tracer import TARGETS, Tracer

MIN_QUERIES = 100
HARD_CAP_S = 100.0
OUT_DIR = ".bench_out"


def input_digest(queries) -> str:
    text = "\n".join(f"{kind}\t{workloads.canon(raw)}" for kind, raw in queries)
    return hashlib.sha256(text.encode()).hexdigest()


class Loop:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.kinds = workloads.kind_table(workload)
        self.cli = workload == "cli"

    def prepare(self, index: int):
        queries = workloads.make_pass(self.workload, self.seed, index)
        if self.cli:
            workloads.write_cli_docs(queries)
        return queries

    def run_pass(self, queries, tracer: Tracer | None, spans_path: str):
        answers, latencies = [], []
        start = perf_counter()
        for i, (kind, raw) in enumerate(queries):
            root = None
            if tracer is not None:
                tracer.query = (kind, i)
                root = tracer.open("query")
            t0 = perf_counter()
            try:
                if self.cli:
                    if tracer is not None and os.path.exists(spans_path):
                        os.remove(spans_path)
                    answer = workloads.run_cli(i, raw, spans_path if tracer else None)
                else:
                    answer = self.kinds[kind].run(raw)
            except Exception as exc:  # recorded as a failed query, checked by the harness
                answer = workloads.Raised(repr(exc))
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close(root)
                if self.cli and os.path.exists(spans_path):
                    with open(spans_path, encoding="utf-8") as handle:
                        tracer.adopt(json.load(handle), root)
            answers.append(answer)
        return answers, latencies, perf_counter() - start


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, calls, self_s, passes: int) -> dict:
    """Per-pass values of every per-layer metric."""
    out = {}
    for _, _, name, _ in TARGETS:
        built = name in ("previsions.CredalSet", "shift.Truncated")
        out[f"{name}.{'built' if built else 'calls'}"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("solver.solve_standard.cells", "solver.enumerate_vertices.vertices_out",
                 "solver.enumerate_vertices.bases_bound", "transforms.closure.elements"):
        out[name] = tracer.counts[name]
    out["jsonio.parse.calls"] = calls["jsonio.parse"]
    out["jsonio.parse.self_s"] = self_s["jsonio.parse"]
    imports = [e - s for n, s, e, _, _ in tracer.spans if n == "cli.import"]
    out["cli.import_s"] = sum(imports)
    out["cli.main.self_s"] = self_s["cli.main"]
    out["cli.process_s"] = self_s["query"] if imports else 0.0
    out = {k: v / passes for k, v in out.items()}
    built = calls["previsions.CredalSet"]
    out["previsions.lps_per_credal_set"] = calls["solver.solve_min"] / built if built else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--answers", default=None)
    args = parser.parse_args()

    loop = Loop(args.workload, args.seed)
    queries = loop.prepare(0)
    setup_s = monotonic() - args.spawned_at
    # the digest is the harness's own check, so it stays out of setup_s
    summary = {"setup_s": setup_s, "input_digest": input_digest(queries)}
    if args.setup_only:
        print(json.dumps(summary))
        return 0

    spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-child-spans.json")
    records = []  # (phase, pass index, answers, latencies)
    phase_wall, count, index = 0.0, 0, 0
    passes_needed = math.ceil(MIN_QUERIES / len(queries))
    while True:
        answers, latencies, wall = loop.run_pass(queries, None, spans_path)
        records.append(("timed", index, answers, latencies))
        phase_wall += wall
        count += len(answers)
        index += 1
        if args.trace:
            done = index >= passes_needed
        else:
            done = (phase_wall >= args.seconds and count >= MIN_QUERIES) or phase_wall >= HARD_CAP_S
        if done:
            break
        queries = loop.prepare(index)
    summary.update(peak_rss_mb=peak_rss_mb(loop.cli), phase_wall=phase_wall, passes=index)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_wall = 0.0
        try:
            for i in range(index):
                queries = loop.prepare(i)
                answers, latencies, wall = loop.run_pass(queries, tracer, spans_path)
                records.append(("traced", i, answers, latencies))
                traced_wall += wall
        finally:
            tracer.uninstall()
        calls, self_s = tracer.self_times()
        metrics = layer_metrics(tracer, calls, self_s, index)
        metrics["trace.overhead_ratio"] = traced_wall / phase_wall
        metrics["trace.coverage"] = tracer.root_time() / traced_wall
        summary.update(layers=metrics, self_sum_s=sum(self_s.values()),
                       root_s=tracer.root_time(), traced_wall=traced_wall)
        with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json"), "w") as handle:
            json.dump(tracer.spans, handle)

    with open(args.answers, "wb") as handle:
        pickle.dump(records, handle)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
