"""Benchmark entry point for reciprodick.

    python3 perfbench/run.py --workload scan-z --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout: the library is imported from its
``src/`` directory.  One process runs one workload on one thread.  With
``--trace 0`` it measures set-up time in fresh child processes, then runs
whole passes over the workload within ``--seconds`` and reports
the end-to-end metrics.  Their times are scaled to a nominal machine speed,
gauged by a fixed reference task run between the library calls (see
``reference.py``); the raw times are kept in the record.  With ``--trace 1``
it runs one untraced pass, then traced passes, and reports the per-layer
metrics and the tracing overhead.  Every pass goes through the workload's
correctness gate.

Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, tail percentile,
sample counts, spans of the traced run) is written to ``perfbench/results/``.
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
from pathlib import Path
from typing import NoReturn

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

SETUP_PROBES = 7
TAIL_LADDER = (99.9, 99.8, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def _import_library():
    """Import reciprodick from this checkout's src/, never from elsewhere."""
    if not (SRC / "reciprodick" / "__init__.py").is_file():
        _fail(f"no library sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import reciprodick

    if Path(reciprodick.__file__).resolve().parent != (SRC / "reciprodick").resolve():
        _fail(f"imported reciprodick from {reciprodick.__file__}, not from {SRC}")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(calls_per_pass: int) -> float:
    """Highest ladder percentile with at least ten calls of one pass beyond it.

    Chosen from the per-pass call count, which is fixed by the workload, so
    the same percentile is reported however many passes fit in a run.
    """
    for q in TAIL_LADDER:
        if calls_per_pass * (100 - q) / 100 >= 10:
            return q
    return 50.0


def environment(args) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh interpreter until it is ready to time.

    The child imports the library and makes one warm-up call of each entry
    point the workload uses, then reports ready; that is what a pass's first
    timed call would wait for.  It then times the reference task, and the
    set-up time is scaled by that.  Returns the raw and the scaled times.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--size", args.size, "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = child.stdout.read().split()
            rc = child.wait(timeout=120)
        if rc != 0 or line.strip() != "ready" or len(rest) != 1:
            _fail(f"set-up probe exited with code {rc}")
        raw.append(elapsed)
        scaled.append(elapsed * reference.NOMINAL_S / float(rest[0]))
    return raw, scaled


def run_passes(workload, calls, seconds: float, tracer=None, at_least: int = 1, gauge=None) -> list:
    """Whole passes while another one is expected to end in time."""
    results = []
    start = time.perf_counter()
    while len(results) < at_least or (time.perf_counter() - start
                                      + statistics.median(r.wall_s for r in results) <= seconds):
        gc.collect()
        if tracer is None:
            results.append(workload.run_pass(calls, gauge))
        else:
            tracer.new_pass()
            with tracer.span(f"pass {len(results)}"):
                results.append(workload.run_pass(calls))
    return results


def scaled_latencies(res) -> list[float]:
    """A pass's call latencies at the reference task's nominal speed."""
    return [x * reference.NOMINAL_S / ref for x, ref in zip(res.latencies, res.ref_s)]


def end_to_end(passes: list, setup_raw: list[float], setup_times: list[float]) -> tuple[dict, dict]:
    per_pass = [scaled_latencies(r) for r in passes]
    walls = [sum(s) for s in per_pass]
    lat = sorted(x for s in per_pass for x in s)
    raw = sorted(x for r in passes for x in r.latencies)
    calls_per_pass = len(passes[0].latencies)
    q = tail_percentile(calls_per_pass)
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(walls),
        "checks_per_s": statistics.median(r.completed / w for r, w in zip(passes, walls)),
        "call_p50_ms": percentile(lat, 50) * 1e3,
        "call_tail_ms": percentile(lat, q) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "failed_frac": failed / attempted if attempted else 1.0,
        "passes": len(passes),
        "pass_s_all": walls,
        "pass_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3,
        "setup_s_all": setup_times,
        "raw_pass_wall_s_all": [r.wall_s for r in passes],
        "raw_setup_s_all": setup_raw,
        "raw_call_p50_ms": percentile(raw, 50) * 1e3,
        "reference_s_median": statistics.median(x for r in passes for x in r.ref_s),
        "reference_nominal_s": reference.NOMINAL_S,
        "checks_per_pass": passes[0].attempted,
        "calls_per_pass": calls_per_pass,
        "call_tail_percentile": q,
        "call_samples": len(lat),
        "call_samples_beyond_tail": sum(x > percentile(lat, q) for x in lat),
    }
    return metrics, detail


def profile_check(workload: str, layer: dict, pass_s: float) -> dict:
    """Compare the traced shares with the profiles measured when this benchmark was written.

    On scan-z the big-integer binomial should take the largest share; on
    field, Poly mul and divmod together with the codeword enumeration.  The
    result is reported, not gated: a later speed-up may rightly change it.
    """
    own = {name[:-len(".self_s")]: v for name, v in layer.items() if name.endswith(".self_s")}
    if workload == "scan-z":
        top = ("binomics.binomial",)
    elif workload == "field":
        top = ("ringpoly.Poly.mul", "ringpoly.Poly.divmod",
               "coterm_codes.verify_reversibility_by_enumeration")
    else:
        return {}
    share = sum(layer[f"{n}.s"] for n in top) / pass_s
    rival, rival_s = max(((n, v) for n, v in own.items() if n not in top), key=lambda kv: kv[1])
    return {"layers": list(top), "share": share, "largest_other": rival,
            "largest_other_share": rival_s / pass_s, "holds": share > rival_s / pass_s}


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, SIZES, WORKLOADS, load_pins  # noqa: E402 (needs sys.path)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="toy shrinks every range, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.size, load_pins())
    if args.setup_probe:
        workload.warmup()
        print("ready", flush=True)
        print(reference.median_sample(5))
        return 0

    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    setup_raw, setup_times = ([], []) if args.trace else measure_setup(args)
    workload.warmup()
    calls = workload.calls(args.seed)
    record = {"environment": environment(args)}

    if args.trace == 0:
        # two passes at least, so that a pass near the run length still gets a median
        passes = run_passes(workload, calls, args.seconds, at_least=2, gauge=reference.sample)
        metrics, detail = end_to_end(passes, setup_raw, setup_times)
        record["detail"] = detail
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        from tracing import Tracer

        passes = run_passes(workload, calls, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, calls, max(args.seconds - passes[0].wall_s, 0), tracer)
        finally:
            tracer.uninstall()
        traced_s = statistics.median(r.wall_s for r in traced)
        metrics = tracer.metrics(len(traced))
        metrics["cli.stdout_bytes"] = statistics.median(r.stdout_bytes for r in traced)
        metrics["trace.overhead_s"] = traced_s - passes[0].wall_s
        record["detail"] = {
            "untraced_pass_s": passes[0].wall_s,
            "traced_pass_s": traced_s,
            "traced_passes": len(traced),
            "missing_targets": tracer.missing,
            "profile_check": profile_check(args.workload, metrics, traced_s),
        }
        t0 = min((span[3] for span in tracer.spans), default=0.0)
        record["spans"] = {"fields": ["id", "parent", "name", "start_s", "end_s"],
                           "spans": [(i, p, n, a - t0, b - t0) for i, p, n, a, b in tracer.spans]}
        passes += traced
        wanted = [m["name"] for m in spec["per_layer"]]

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    errors = [e for r in passes for e in r.errors]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    record["result"] = result
    record["errors"] = errors[:20]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    for key, value in record["environment"].items():
        print(f"# {key}: {value}")
    for key, value in record["detail"].items():
        if not key.endswith("_all"):
            print(f"# {key}: {value}")
    print(f"failed_frac {failed / attempted if attempted else 1.0} fraction")
    for name in wanted:
        print(f"{name} {metrics[name]} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_library()
    sys.exit(main())
