"""egyfrac benchmark: one workload, closed loop, one client, one process.

    python3 bench/run.py --workload window --seed 1 --seconds 30 --trace 0

Builds the workload's op list from the seed, warms up, then runs full
passes over the list until --seconds have gone by, checking every op's
output. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s       median over fresh interpreters (bench/probe.py) of the time
                from launch until the first timed op could start
  wall_s        time of one full pass: the sum over its ops of each op's
                best latency over the run's passes
  op_p50_ms     median over the ops of each op's best latency
  op_p90_ms     90th percentile of the same samples (one per op)
  peak_rss_mib  peak RSS of this process (getrusage)
  ok_frac       ops that completed correctly / ops attempted

--trace 1 reports the per-layer metrics: half the time runs untraced, half
with tracing.Tracer installed. Each per-layer time is its lowest over the
traced passes, each count that of any pass (they repeat), and
trace.overhead_frac compares the two halves' wall_s. The spans of the last
traced pass are written to bench/out/ at the end.

--workload all runs each workload in turn.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
IMPORT_PROBES = 3


def probe(workload: str, seed: int) -> tuple[float, float]:
    """(launch-to-ready seconds, import seconds) of one fresh interpreter."""
    argv = [sys.executable, str(BENCH / "probe.py"), "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed, json.loads(line)["import_s"]


class Tally:
    """Outcome counts over every op run in this process."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.failures: Counter = Counter()

    def add(self, op: workloads.Op, status: str, why: str) -> None:
        self.attempted += 1
        if status != workloads.OK:
            self.failed += 1
            self.wrong += status == workloads.WRONG
            self.failures[(status, op.label, why)] += 1


def meter(counts: Counter, op: workloads.Op, out) -> None:
    """Counters read from an op's output, outside the timed region."""
    if out is None:
        return
    if op.kind == "cli":
        rc, stdout, _ = out
        size = len(stdout.encode())
        counts["cli.stdout_bytes"] += size
        counts["cli.exit_nonzero"] += rc != 0
        if op.fmt == "json":
            counts["report.json_bytes"] += size
    elif op.kind in ("window", "lcm-class"):
        counts["report.json_bytes"] += len(out.encode())
        d = json.loads(out)
        counts["search.cells"] += 1
        counts["search.nodes"] += d["stats"]["nodes"]
        counts["search.witnesses"] += len(d["equality_witnesses"])


def run_passes(ops, seconds: float, tally: Tally, tracer: tracing.Tracer | None = None):
    """Full passes until `seconds` have gone by; at least one.

    Returns the op latencies of each pass (ns, in op order) and each pass's
    counters.
    """
    passes, pass_counts = [], []
    clock = time.perf_counter_ns
    op_span = tracer.name_id("op") if tracer else None
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    while True:
        # Passes alternate between this process's CPUs: other tenants load
        # one CPU or the other for seconds at a time, and an op's best
        # latency then comes from the quieter one.
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        gc.collect()
        if tracer:
            tracer.begin_pass()
            counts = tracer.counts
        else:
            counts = Counter()
        latencies = []
        for op in ops:
            span = tracer.open(op_span) if tracer else None
            t0 = clock()
            try:
                out, why = op.call(), ""
            except Exception as e:  # the op failed; the run goes on
                out, why = None, f"{type(e).__name__}: {e}"
            t1 = clock()
            if tracer:
                tracer.close(span)
            latencies.append(t1 - t0)
            if out is None:
                status = workloads.FAILED
            else:
                try:
                    status = op.check(out)
                except (ValueError, KeyError, TypeError) as e:
                    status, why = workloads.WRONG, f"unreadable output: {e}"
                if op.kind == "cli" and out[0] != 0:
                    why = out[2].strip().splitlines()[-1][:160] if out[2].strip() else ""
            meter(counts, op, out)
            tally.add(op, status, why)
        passes.append(latencies)
        pass_counts.append(counts)
        if time.perf_counter() >= deadline:
            os.sched_setaffinity(0, cpus)
            return passes, pass_counts


def best_latencies(passes) -> list[int]:
    """Each op's lowest latency over the passes (ns).

    The host's other tenants slow this process by up to 1.8x, for stretches
    of seconds to minutes; an op's best time over many passes is what stays
    put from run to run, and what a change to the code moves.
    """
    return [min(column) for column in zip(*passes)]


def end_to_end(workload: str, seed: int, ops, seconds: float, tally: Tally, names) -> dict:
    setup = statistics.median(probe(workload, seed)[0] for _ in range(SETUP_PROBES))
    passes, pass_counts = run_passes(ops, seconds, tally)
    best = best_latencies(passes)
    deciles = statistics.quantiles(best, n=10)
    c = pass_counts[0]
    summary = (f"passes={len(passes)} ops/pass={len(ops)} "
               f"(op samples: {len(best)}, {sum(x > deciles[8] for x in best)} above p90); "
               f"median pass as measured: {statistics.median(map(sum, passes)) / 1e9:.4f} s")
    if c["search.cells"]:
        summary += (f"; per pass: cells={c['search.cells']} nodes={c['search.nodes']} "
                    f"witnesses={c['search.witnesses']}")
    if c["cli.exit_nonzero"]:
        summary += f"; per pass: cli exits non-zero={c['cli.exit_nonzero']}"
    print(summary)
    return {
        "setup_s": setup,
        "wall_s": sum(best) / 1e9,
        "op_p50_ms": statistics.median(best) / 1e6,
        "op_p90_ms": deciles[8] / 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(workload: str, seed: int, ops, seconds: float, tally: Tally, names) -> dict:
    import_s = statistics.median(probe(workload, seed)[1] for _ in range(IMPORT_PROBES))
    plain, _ = run_passes(ops, seconds / 2, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run_passes(ops, seconds / 2, tally, tracer)
    finally:
        tracer.uninstall()
    rows = []
    for counts, self_s in tracer.pass_stats():
        row = Counter(counts)
        row.update({f"{name}.self_s": s for name, s in self_s.items()})
        nodes = counts["oracle.window_search.nodes"]
        walker = counts["egyptian.position_range.calls"]
        conclusions = (counts["majorization.sum_dominance_conclusion.calls"]
                       + counts["majorization.product_dominance_conclusion.calls"])
        row["oracle.window_search.useful_per_node"] = (
            counts["oracle.window_search.useful"] / nodes if nodes else 0.0)
        row["egyptian.iter_exact.yield_per_node"] = (
            counts["egyptian.iter_exact.yielded"] / walker if walker else 0.0)
        row["majorization.equality_frac"] = (
            counts["majorization.equality"] / conclusions if conclusions else 0.0)
        rows.append(row)
    # each time is its lowest over the traced passes, as for the end-to-end
    # times; counts are the same in every pass. A layer the workload never
    # reaches reads 0.
    out = {
        name: (min if name.endswith("_s") else statistics.median_low)(row[name] for row in rows)
        for name in names
    }
    out["setup.import_s"] = import_s
    out["trace.overhead_frac"] = sum(best_latencies(traced)) / sum(best_latencies(plain)) - 1
    spans = BENCH / "out" / f"spans-{workload}-seed{seed}.tsv"
    spans.parent.mkdir(exist_ok=True)
    tracer.write(spans)
    print(f"untraced passes={len(plain)} traced passes={len(traced)} "
          f"spans={len(tracer.span_name)} -> {spans.relative_to(ROOT)}")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ops = workloads.build(workload, seed)
    workloads.warm_up(workload)
    tally = Tally()
    print(f"egyfrac bench: workload={workload} seed={seed} trace={int(trace)} "
          f"python={platform.python_version()}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    measure = per_layer if trace else end_to_end
    values = measure(workload, seed, ops, seconds, tally, [m["name"] for m in wanted])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for (status, label, why), n in sorted(tally.failures.items()):
        print(f"{status} x{n}: {label}" + (f" ({why})" if why else ""), file=sys.stderr)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        result = run(workload, args.seed, args.seconds, bool(args.trace), spec)
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
