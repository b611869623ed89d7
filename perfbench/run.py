#!/usr/bin/env python3
"""Benchmark for mub6: three seeded workloads against the public API and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-m6 --seed 1 --seconds 20 --trace 0

Workloads: scan-m6, structure, cli-cold (see perfbench/README.md).  With
--trace 0 the run measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it measures the per-layer ones from in-memory spans.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details of every run, with the machine and
environment, go to .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scan-m6", "structure", "cli-cold")
# Small 6x6 kernels: one BLAS/OpenMP thread is fastest and steadiest, and
# stays within nproc on any machine.  Children inherit the pins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
TAIL_BEYOND = 10
SETUP_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# Op loop

class Tally:
    """Latencies and check outcomes of a group of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures = collections.Counter()
        self.detail: dict[str, str] = {}

    def add(self, kind, latency, fails, detail=None):
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
            self.kinds.append(kind)
        if fails:
            self.failed += 1
            self.failures.update(fails)
            if detail:
                self.detail.setdefault(fails[0], detail)

    def merge(self, part) -> None:
        self.attempted += part.attempted
        self.failed += part.failed
        self.failures.update(part.failures)
        for k, v in part.detail.items():
            self.detail.setdefault(k, v)

    def ops_per_s(self) -> float:
        """Completed ops per second of time spent in the program."""
        return len(self.latencies) / sum(self.latencies)


def run_op(wl, kind, tally) -> None:
    """One op: the timed call, then its checks.  An exception from the
    program or a check counts as a failed op and the loop goes on."""
    tracer = wl.tracer
    seq = tally.attempted
    try:
        t0 = time.perf_counter()
        with tracer.span("op", kind=kind, seq=seq):
            out = wl.call(kind)
        latency = time.perf_counter() - t0
        with tracer.span("check", kind=kind, seq=seq):
            fails = wl.check(out)
    except Exception as exc:  # noqa: BLE001 - record and keep measuring
        tally.add(kind, None, [f"{wl.name}.{kind}.raised"],
                  "".join(traceback.format_exception_only(exc)).strip())
        return
    tally.add(kind, latency, fails)


def measure(wl, seconds, tally) -> None:
    """Closed loop, one client: whole cycles until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        for kind in wl.cycle:
            run_op(wl, kind, tally)
        if time.perf_counter() >= deadline:
            return


def make(name, seed, tracer):
    import workloads
    if name == "scan-m6":
        return workloads.ScanM6(seed, tracer)
    if name == "structure":
        return workloads.Structure(seed, tracer)
    return workloads.CliCold(seed, tracer, str(ROOT), str(OUT))


# ---------------------------------------------------------------------------
# Set-up time

def child_setups(args, tally) -> list[float]:
    """Wall time of fresh processes that import mub6, build the inputs and
    run one warm-up op, so every sample pays the import."""
    samples = []
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S, text=True)
        samples.append(time.perf_counter() - t0)
        tally.add("setup", None, [] if proc.returncode == 0 else ["setup.warm_up_failed"],
                  proc.stderr.strip()[-500:])
    return samples


def setup_only(args) -> int:
    from tracing import Tracer
    wl = make(args.workload, args.seed, Tracer())
    tally = Tally()
    try:
        run_op(wl, wl.cycle[0], tally)
    finally:
        wl.close()
    for name, text in tally.detail.items():
        print(f"{name}: {text}", file=sys.stderr)
    return 0 if tally.failed == 0 else 1


# ---------------------------------------------------------------------------
# Metrics

def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it, as
    (value, percentile, samples).  Below TAIL_BEYOND + 1 samples it falls
    back to the minimum."""
    xs = sorted(values)
    k = max(len(xs) - TAIL_BEYOND, 1)
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


def _dur(s):
    return s["end"] - s["start"]


def _named(*names, **attrs):
    return lambda s: s["name"] in names and all(s["attrs"].get(k) == v for k, v in attrs.items())


def _p50(pred, scale):
    def metric(spans):
        ds = [_dur(s) for s in spans if pred(s)]
        return (statistics.median(ds) * scale, len(ds)) if ds else None
    return metric


def _per_parent_p50(pred, scale):
    """Median over enclosing spans of the summed time of matching children."""
    def metric(spans):
        sums = collections.defaultdict(float)
        for s in spans:
            if pred(s) and s["parent"] is not None:
                sums[s["parent"]] += _dur(s)
        return (statistics.median(sums.values()) * scale, len(sums)) if sums else None
    return metric


def _find_share(spans):
    """find_mu_vectors time over the time of the scan points that called it."""
    find = [s for s in spans if s["name"] == "musearch.find_mu_vectors"]
    points = {s["parent"] for s in find}
    point_time = sum(_dur(s) for s in spans if s["id"] in points)
    return (sum(_dur(s) for s in find) / point_time, len(points)) if find else None


def _distinct_per_kstart(spans):
    find = [s["attrs"] for s in spans if s["name"] == "musearch.find_mu_vectors"]
    if not find:
        return None
    return 1000.0 * sum(a["distinct"] for a in find) / sum(a["starts"] for a in find), len(find)


LAYER_METRICS = {
    "musearch.find_mu_vectors_ms": _p50(_named("musearch.find_mu_vectors"), 1e3),
    "musearch.find_share": _find_share,
    "musearch.distinct_per_kstart": _distinct_per_kstart,
    "musearch.extract_bases_ms": _p50(_named("musearch.extract_bases"), 1e3),
    "musearch.verify_triple_us": _p50(_named("musearch.verify_triple"), 1e6),
    "families.m6_us": _p50(_named("families.m6"), 1e6),
    "families.construct_us": _p50(_named("families.fourier_f6", "families.b6", "families.s6"), 1e6),
    "analysis.analyze_ms": _per_parent_p50(_named("analysis.analyze"), 1e3),
    "analysis.real_ms": _p50(_named("analysis.analyze", section="real"), 1e3),
    "analysis.h2_ms": _p50(_named("analysis.analyze", section="h2"), 1e3),
    "analysis.unitary_ms": _p50(_named("analysis.analyze", section="unitary"), 1e3),
    "analysis.product_ms": _p50(_named("analysis.analyze", section="product"), 1e3),
    "equivalence.lemma_hit_ms": _p50(_named("equivalence.to_lemma_form", hit=True), 1e3),
    "equivalence.lemma_miss_ms": _p50(_named("equivalence.to_lemma_form", hit=False), 1e3),
    "equivalence.apply_us": _p50(_named("equivalence.apply"), 1e6),
    "equivalence.dephase_us": _p50(_named("equivalence.dephase"), 1e6),
    "refutation.counterexample_ms": _p50(_named("refutation.run_counterexample"), 1e3),
    "refutation.witness_ms": _p50(_named("refutation.third_column_witness"), 1e3),
    "core.is_hadamard_us": _p50(_named("core.is_hadamard"), 1e6),
    "core.json_roundtrip_ms": _per_parent_p50(
        _named("core.matrix_from_json", "core.matrix_to_json"), 1e3),
    "cli.import_s": _p50(_named("cli.import"), 1.0),
    "cli.main_inprocess_ms": _p50(_named("cli.main", mode="inprocess"), 1e3),
    **{f"cli.{cmd}_ms": _p50(_named("cli.main", cmd=cmd, mode="subprocess"), 1e3)
       for cmd in ("refute", "analyze", "normalize", "check", "show")},
}


def layer_metrics(spans):
    """Each metric from the run's own workload where it exercises the
    layer, otherwise from the probe ops borrowed from the other workloads.
    Returns {name: (value, calls, source)}."""
    own = [s for s in spans if s["phase"] == "workload"]
    probe = [s for s in spans if s["phase"] == "probe"]
    out = {}
    for name, metric in LAYER_METRICS.items():
        got = metric(own)
        source = "own"
        if got is None:
            got, source = metric(probe), "probe"
        if got is None:
            raise RuntimeError(f"no spans for per-layer metric {name}")
        out[name] = (got[0], got[1], source)
    return out


# ---------------------------------------------------------------------------
# Environment record

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Runs

def run_untraced(args, tally, info):
    from tracing import Tracer
    setup = child_setups(args, tally)
    wl = make(args.workload, args.seed, Tracer())
    try:
        run_op(wl, wl.cycle[0], tally)           # warm-up, not timed
        loop = Tally()
        measure(wl, args.seconds, loop)
        if args.workload == "scan-m6":
            counts = wl.mu_counts()
        else:
            # Canary: the oracle point t = pi, after the timed window, so
            # that the count metrics exist for this workload too.
            canary = make("scan-m6", args.seed, wl.tracer)
            run_op(canary, canary.cycle[0], tally)
            counts = canary.mu_counts()
        peak_kb = wl.peak_rss_kb()
        info["inputs_digest"] = wl.inputs_digest()
    finally:
        wl.close()
    tally.merge(loop)
    value, pct, n = tail(loop.latencies)
    info.update(setup_samples_s=setup, tail_percentile=pct, tail_samples=n,
                per_kind_p50_ms=per_kind_p50(loop))
    if args.workload == "scan-m6":
        info["point_counts"] = wl.point_counts()
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": statistics.median(loop.latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
        "mu_vectors_found": counts[0],
        "mu_bases_found": counts[1],
    }


def run_traced(args, tally, info):
    from tracing import Tracer
    tracer = Tracer(enabled=True)
    wl = make(args.workload, args.seed, tracer)   # set-up spans (families, apply)
    try:
        tracer.enabled = False
        run_op(wl, wl.cycle[0], tally)
        untraced, traced = Tally(), Tally()
        measure(wl, args.seconds / 2, untraced)
        tracer.enabled = True
        measure(wl, args.seconds / 2, traced)
        extras = wl.trace_extras()
        info["inputs_digest"] = wl.inputs_digest()
        if args.workload == "scan-m6":
            info.update(point_counts=wl.point_counts("traced"),
                        untraced_point_counts=wl.point_counts("untraced"))
    finally:
        wl.close()
    tracer.phase = "probe"
    for other in WORKLOADS:
        if other == args.workload:
            continue
        o = make(other, args.seed, tracer)
        try:
            for kind in itertools.islice(itertools.cycle(o.cycle), o.probe_ops):
                run_op(o, kind, tally)
            extras += o.trace_extras()
        finally:
            o.close()
    for fails in extras:
        tally.add("extra", None, fails)
    tally.merge(untraced)
    tally.merge(traced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write(spans_path)
    layers = layer_metrics(tracer.spans)
    info.update(spans_file=str(spans_path.relative_to(ROOT)),
                calls={k: c for k, (_, c, _) in layers.items()},
                source={k: src for k, (_, _, src) in layers.items()},
                untraced_ops_per_s=untraced.ops_per_s(), traced_ops_per_s=traced.ops_per_s())
    metrics = {k: v for k, (v, _, _) in layers.items()}
    metrics["trace.overhead_ratio"] = traced.ops_per_s() / untraced.ops_per_s()
    info["calls"]["trace.overhead_ratio"] = len(traced.latencies)
    info["source"]["trace.overhead_ratio"] = "own"
    return metrics


def per_kind_p50(tally):
    by = collections.defaultdict(list)
    for kind, lat in zip(tally.kinds, tally.latencies):
        by[kind].append(lat)
    return {k: statistics.median(v) * 1e3 for k, v in by.items()}


def report(spec, metrics, info, tally, args):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    env = info["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']!r}, threads pinned to 1, commit {env['commit'][:12]}")
    for m in spec:
        name = m["name"]
        note = ""
        if name == "op_tail_ms":
            note = f"p{info['tail_percentile']:.1f} of {info['tail_samples']} samples"
        elif name == "setup_s":
            note = "median of " + ", ".join(f"{s:.3f}" for s in info["setup_samples_s"])
        elif "calls" in info:
            note = f"calls {info['calls'][name]}" + (
                " (probe)" if info["source"][name] == "probe" else "")
        print(f"  {name:30s} {metrics[name]:>14.6g} {m['unit']:9s} {m['better']:6s} {note}")
    ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':30s} {ratio:>14.6g} {'1':9s} {'lower':6s} "
          f"{tally.failed} of {tally.attempted} ops")
    for name, n in sorted(tally.failures.items()):
        print(f"  FAILED CHECK {name}: {n} ops  {tally.detail.get(name, '')}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build inputs and run one warm-up op, then exit "
                        "(used to time set-up)")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mub6" / "__init__.py").is_file() or not (ROOT / "schemas").is_dir() \
            or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no mub6 source tree (src/mub6, schemas/, "
              "BENCHMARK.json); nothing to measure", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MUB6_TOL", None)      # the CLI must run at its defaults
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)

    spec = json.loads(spec_path.read_text())
    tally = Tally()
    info = {"env": environment(args)}
    if args.trace:
        metrics, wanted = run_traced(args, tally, info), spec["per_layer"]
    else:
        metrics, wanted = run_untraced(args, tally, info), spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    info.update(attempted=tally.attempted, failed=tally.failed,
                failures=dict(tally.failures), failure_detail=tally.detail, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, default=str))
    report(wanted, metrics, info, tally, args)
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
