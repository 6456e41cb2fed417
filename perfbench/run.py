"""exactplane benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload scenes-small --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs each pool item once plainly and once with every layer
boundary wrapped, and reports the per-layer metrics.  The last line of
stdout is one JSON object; a fuller record (environment, sample counts,
failures, output digest) is written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
INTERP_START_RUNS = 10
TRACE_REPEATS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MODULE_LAYERS = ("double_projection", "axis_projection", "parallelogram", "parallelogram_axis")


def per_layer_units(property_names) -> Dict[str, str]:
    units = {
        "cli.interp_start_ms": "ms",
        "cli.import_ms": "ms",
        "cli.build_parser_ms": "ms",
        "cli.main_ms": "ms",
        "textio.calls": "count",
        "textio.self_us_per_op": "us",
        "kernel.calls": "count",
        "kernel.self_us_per_op": "us",
        "kernel.line_new_per_op": "count/op",
        "kernel.frame_inverse_per_op": "count/op",
        "kernel.fraction_new_per_op": "count/op",
        "kernel.fraction_arith_per_op": "count/op",
        "kernel.peak_bits": "bit",
    }
    for layer in MODULE_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_us_per_op"] = "us"
    units.update({
        "axis_projection.verify_p2_calls": "count",
        "axis_projection.verify_p2_us_per_op": "us",
        "linsolve.calls": "count",
        "linsolve.self_ms": "ms",
        "figures.calls": "count",
        "figures.self_us_per_op": "us",
        "figures.svg_bytes_per_op": "B/op",
        "checks.self_ms": "ms",
    })
    for name in property_names:
        units[f"checks.property_ms.{name}"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


# --------------------------------------------------------------- environment

def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for text in handle:
                if text.startswith("model name"):
                    cpu = text.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git; None where it is not a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for text in (git / "packed-refs").read_text().splitlines():
            if text.endswith(" " + ref):
                return text.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/**/*.py, so a result names its code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -------------------------------------------------------------------- passes

class Tally:
    """First outcome of every pool item, run counts and repeat mismatches."""

    def __init__(self, wl):
        self.wl = wl
        n = len(wl.pool)
        self.first = [None] * n
        self.runs = [0] * n
        self.mismatch = [0] * n

    def add(self, k: int, out) -> None:
        self.runs[k] += 1
        first = self.first[k]
        if first is None:
            self.first[k] = out
        elif out.output != first.output or out.code != first.code:
            self.mismatch[k] += 1

    def complete(self) -> None:
        """Run once, untimed, any pool item the timed loop did not reach."""
        for k, out in enumerate(self.first):
            if out is None:
                out = self.wl.run(k)
                self.wl.finish(k, out)
                self.first[k] = out

    def verdict(self):
        """(attempted ops, failed ops, failure messages, digest of first outputs)."""
        wl = self.wl
        attempted = failed = 0
        problems: List[str] = []
        for k, out in enumerate(self.first):
            ops = wl.ops_in(k)
            attempted += self.runs[k] * ops
            problem = wl.check(k, out)
            if problem is None and self.mismatch[k]:
                problem = f"pool item {k}: output changed between repetitions"
                failed += self.mismatch[k] * ops
            elif problem is not None:
                failed += self.runs[k] * wl.failed_in(k, out)
            if problem is not None:
                problems.append(problem)
        return attempted, failed, problems, wl_digest(self.first)


def wl_digest(outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        data = out.output + b"\0" + (out.code or "").encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def timed_loop(wl, seconds: float) -> dict:
    n = len(wl.pool)
    tally = Tally(wl)
    latencies: List[float] = []
    ops = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % n
        t0 = time.perf_counter()
        out = wl.run(k)
        latencies.append(time.perf_counter() - t0)
        wl.finish(k, out)
        tally.add(k, out)
        ops += wl.ops_in(k)
        i += 1
    tally.complete()
    attempted, failed, problems, digest = tally.verdict()
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "output_sha256": digest,
        "samples": len(latencies),
        "metrics": {
            "ops_per_s": ops / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * percentile(latencies, 0.9),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        },
    }


def percentile(values: List[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def traced_pass(wl) -> dict:
    """Each pool item once plainly, once with spans, once counting Fractions.

    Fraction counting wraps every arithmetic operator, which would swamp the
    span timings, so it gets a pass of its own; spans and counts come from
    the same inputs and both repeat exactly for a seed.
    """
    # In-process pools take well under a second, so the plain and the span
    # pass alternate a few times and the overhead ratio uses their medians;
    # spans and counts come from the first span pass.
    repeats = TRACE_REPEATS if wl.in_process else 1
    plain_times, span_times = [], []
    for r in range(repeats):
        t0 = time.perf_counter()
        plain = plain_pass(wl)
        plain_times.append(time.perf_counter() - t0)
        traced = traced_run(wl, False)
        span_times.append(traced[1])
        if r == 0:
            timed, _, summary, exports, import_ns = traced
    counted, _, fractions, _, _ = traced_run(wl, True)
    for tally in (timed, counted):
        for k, out in enumerate(tally.first):
            if out.output != plain.first[k].output or out.code != plain.first[k].code:
                tally.mismatch[k] += 1  # tracing must not change a single byte
    attempted, failed, problems, digest = timed.verdict()
    _, failed_counted, problems_counted, _ = counted.verdict()
    for key in ("fraction_new", "fraction_arith", "peak_bits"):
        summary[key] = fractions[key]
    n = len(wl.pool)
    ops = sum(wl.ops_in(k) for k in range(n))
    svg_bytes = sum(out.svg_bytes for out in timed.first)
    metrics = layer_metrics(wl, summary, ops, svg_bytes, import_ns)
    metrics["trace.overhead_ratio"] = statistics.median(span_times) / statistics.median(plain_times)
    return {
        "attempted": attempted,
        "failed": failed + failed_counted,
        "problems": problems + problems_counted,
        "output_sha256": digest,
        "samples": n,
        "metrics": metrics,
        "spans": exports,
        "summary": summary,
    }


def plain_pass(wl) -> Tally:
    tally = Tally(wl)
    for k in range(len(wl.pool)):
        out = wl.run(k)
        wl.finish(k, out)
        tally.add(k, out)
    return tally


def traced_run(wl, count_fractions: bool):
    """One traced pass over the pool: (tally, seconds, summary, span exports, import ns)."""
    n = len(wl.pool)
    tally = Tally(wl)
    exports: List[dict] = []
    import_ns: List[int] = []
    if not wl.in_process:
        wl.traced = "fractions" if count_fractions else "spans"
        summaries = []
        t0 = time.perf_counter()
        try:
            for k in range(n):
                out = wl.run(k)
                record = wl.finish(k, out)
                tally.add(k, out)
                if record is not None:
                    summaries.append(record["summary"])
                    exports.append(record["spans"])
                    import_ns.append(record["import_ns"])
        finally:
            wl.traced = None
        seconds = time.perf_counter() - t0
        return tally, seconds, spans.merge(summaries), exports, import_ns
    tracer = spans.Tracer()
    tracer.install(count_fractions=count_fractions)
    t0 = time.perf_counter()
    try:
        for k in range(n):
            tally.add(k, tracer.run_op(k, wl.run, k))
    finally:
        tracer.uninstall()
    seconds = time.perf_counter() - t0
    return tally, seconds, tracer.summary(), [tracer.export()], import_ns


def layer_metrics(wl, summary: dict, ops: int, svg_bytes: int, import_ns: List[int]) -> dict:
    layers, named, calls = summary["layers"], summary["spans"], summary["calls"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    def dur_ns(name):
        return named.get(name, {}).get("dur_ns", 0)

    mains = calls.get("cli.main", 0)
    m = {
        "cli.interp_start_ms": 0.0 if wl.in_process else interp_start_ms(),
        "cli.import_ms": statistics.fmean(import_ns) / 1e6 if import_ns else 0.0,
        "cli.build_parser_ms": dur_ns("cli.build_parser") / 1e6 / mains if mains else 0.0,
        "cli.main_ms": dur_ns("cli.main") / 1e6 / mains if mains else 0.0,
        "textio.calls": layer("textio", "calls"),
        "textio.self_us_per_op": layer("textio", "self_ns") / 1e3 / ops,
        "kernel.calls": layer("kernel", "calls"),
        "kernel.self_us_per_op": layer("kernel", "self_ns") / 1e3 / ops,
        "kernel.line_new_per_op": calls.get("kernel.Line.__init__", 0) / ops,
        "kernel.frame_inverse_per_op": calls.get("kernel.Frame.inverse", 0) / ops,
        "kernel.fraction_new_per_op": summary["fraction_new"] / ops,
        "kernel.fraction_arith_per_op": summary["fraction_arith"] / ops,
        "kernel.peak_bits": summary["peak_bits"],
    }
    for name in MODULE_LAYERS:
        m[f"{name}.calls"] = layer(name, "calls")
        m[f"{name}.self_us_per_op"] = layer(name, "self_ns") / 1e3 / ops
    m["axis_projection.verify_p2_calls"] = calls.get("axis_projection.verify_p2", 0)
    m["axis_projection.verify_p2_us_per_op"] = dur_ns("axis_projection.verify_p2") / 1e3 / ops
    m["linsolve.calls"] = layer("linsolve", "calls")
    m["linsolve.self_ms"] = layer("linsolve", "self_ns") / 1e6
    m["figures.calls"] = layer("figures", "calls")
    m["figures.self_us_per_op"] = layer("figures", "self_ns") / 1e3 / ops
    m["figures.svg_bytes_per_op"] = svg_bytes / ops
    m["checks.self_ms"] = layer("checks", "self_ns") / 1e6
    for name in wl.lib.checks.PROPERTY_NAMES:
        m[f"checks.property_ms.{name}"] = dur_ns(f"checks.property.{name}") / 1e6
    return m


def interp_start_ms() -> float:
    """Median wall time of a bare ``python -c pass``: the floor of every CLI call."""
    times = []
    for _ in range(INTERP_START_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


# ---------------------------------------------------------------------- run

def run(name: str, seed: int, seconds: float, trace: bool, size: Optional[int] = None) -> dict:
    """Set up ``SETUP_REPEATS`` times, then measure; returns the full record."""
    wl = WORKLOADS[name](seed, size)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    body = traced_pass(wl) if trace else timed_loop(wl, seconds)
    if trace:
        units = per_layer_units(wl.lib.checks.PROPERTY_NAMES)
    else:
        units = END_TO_END
        body["metrics"]["setup_s"] = statistics.median(setups)
    attempted, failed = body["attempted"], body["failed"]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "correct": failed == 0 and not body["problems"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": body["problems"][:20],
        "output_sha256": body["output_sha256"],
        "samples": {"operations_timed": body["samples"], "setup_runs": len(setups)},
        "setup_runs_s": setups,
        "metrics": {key: {"value": body["metrics"][key], "unit": unit} for key, unit in units.items()},
        "trace_summary": body.get("summary"),
        "spans": body.get("spans"),
    }


def write_record(record: dict) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans is not None:
        with open(out_dir / f"{stem}.spans.json", "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
        record["spans_file"] = f"{stem}.spans.json"
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exactplane" / "__init__.py").is_file():
        print(f"perfbench: no exactplane sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(record)
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for key, metric in record["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  operations timed: {record['samples']['operations_timed']}"
          f"  setups: {record['samples']['setup_runs']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}"
          f"  failed_ratio {record['failed_ratio']:.6g}")
    for problem in record["failures"]:
        print(f"  FAILURE: {problem}")
    print(f"  output_sha256 {record['output_sha256']}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
