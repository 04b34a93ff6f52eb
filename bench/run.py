"""Benchmark of the matchlearn pipeline, end to end and layer by layer.

    python3 bench/run.py --workload study --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  ``--trace 0``
measures the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs
half the time untraced and half traced and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (environment, sample
counts, digests, failed checks), also kept under ``.bench_out/``.
The exit code is nonzero when a correctness check fails.

Workloads, metrics and the baseline are described in README.md.
"""
import time

import calibrate

CAL0 = calibrate.kernel()  # machine speed just before set-up starts
T0 = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("study", "large_batch", "policy_study")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
MODULES = ("samplers", "estimator", "inference", "matmodel", "policy", "harness", "bench")


def pin_environment() -> None:
    """One BLAS thread and one study worker, set before numpy is imported.

    Only this process's environment changes; set-up child processes
    inherit it.  One thread keeps within any core count; on a shared
    2-core machine a second BLAS thread made the dense steps slower and
    noisier (README.md).
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MATCHLEARN_WORKERS"] = "1"


def import_package():
    src = ROOT / "src"
    if not (src / "matchlearn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no matchlearn sources under {src}")
    sys.path.insert(0, str(src))
    import matchlearn
    if Path(matchlearn.__file__).resolve().parent != (src / "matchlearn").resolve():
        raise SystemExit(f"bench: imported matchlearn from {matchlearn.__file__}")


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": cache_sizes(),
        "machine": platform.machine(),
        "seed": seed,
        "workers": 1,
    }


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11], "n": n}


def timing(values) -> dict:
    return {"median": statistics.median(values), "tail": tail(values), "n": len(values),
            "samples": values}


@dataclass
class Loop:
    """What one closed loop measured."""

    raw: list = field(default_factory=list)  # wall time of each operation
    kernel: list = field(default_factory=list)  # calibration before, between, after
    roots: list = field(default_factory=list)  # the operations' root spans, if traced
    attempted: int = 0
    failed: int = 0

    @property
    def adjusted(self) -> list:
        return [calibrate.adjust(t, self.kernel[i], self.kernel[i + 1])
                for i, t in enumerate(self.raw)]


def loop(wl, seconds, checks, tracer=None) -> Loop:
    """Closed loop of operations for ``seconds``; at least one operation."""
    out = Loop(kernel=[calibrate.kernel()])
    start = time.perf_counter()
    while not out.raw or time.perf_counter() - start < seconds:
        # Start every operation from the same heap state; not timed.
        gc.collect()
        if tracer is not None:
            out.roots.append(len(tracer.spans))
        with tracer.span("bench.op") if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = wl.op()
            out.raw.append(time.perf_counter() - t0)
        out.kernel.append(calibrate.kernel())
        a, f = wl.check_op(result, checks)
        out.attempted += a
        out.failed += f
    return out


def setup_child(workload, seed, size, workdir, checks):
    """Set the workload up again in a fresh interpreter; returns its time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--size", size, "--setup-child", str(workdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        checks.add("set-up child finished", False, "timeout")
        return None, None
    if not checks.add("set-up child finished", proc.returncode == 0, proc.stderr[-2000:]):
        return None, None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    checks.add("set-up child checks passed", not doc["failed_checks"],
               json.dumps(doc["failed_checks"]))
    return doc, doc["digests"]


def run_child(args) -> int:
    import workloads
    checks = workloads.Check()
    wl = workloads.build(args.workload, args.size, args.seed, Path(args.setup_child))
    wl.prepare()
    wl.warm_up(checks)
    setup_s = time.perf_counter() - T0
    print(json.dumps({
        "setup_s": calibrate.adjust(setup_s, CAL0, calibrate.kernel()),
        "raw_setup_s": setup_s,
        "digests": wl.digests(),
        "failed_checks": [c for c in checks if not c[1]],
    }))
    return 0


def run(workload, seed, seconds, trace, size="full", start=(CAL0, T0)):
    """One benchmark run; returns (result line, run record)."""
    import workloads
    from tracer import Tracer, layer_metrics

    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    checks = workloads.Check()
    wl = workloads.build(workload, size, seed, workdir)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "env": environment(seed)}
    try:
        if not trace:
            wl.prepare()
            attempted, failed = wl.warm_up(checks)
            raw = time.perf_counter() - start[1]
            setups = [{"setup_s": calibrate.adjust(raw, start[0], calibrate.kernel()),
                       "raw_setup_s": raw}]
            record["setup_checks"] = wl.check_setup(checks)
            reference = wl.digests()
            for k in range(SETUP_REPEATS - 1):
                child_dir = workdir / f"setup{k}"
                child, digests = setup_child(workload, seed, size, child_dir, checks)
                workloads.remove(child_dir)
                if child is not None:
                    setups.append({k: child[k] for k in ("setup_s", "raw_setup_s")})
                    checks.add("set-up outputs identical across processes",
                               digests == reference)
            measured = loop(wl, seconds, checks)
            attempted += measured.attempted
            failed += measured.failed
            record["setups"] = setups
            record["op_s"] = timing(measured.adjusted)
            record["raw_op_s"] = timing(measured.raw)
            record["kernel_s"] = measured.kernel
            metrics = {
                "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
                "op_s": (statistics.median(measured.adjusted), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
        else:
            tracer = Tracer()
            with tracer.patched(), tracer.span("bench.setup"):
                wl.prepare()
            setup_counts = dict(tracer.counts)
            attempted, failed = wl.warm_up(checks)
            record["setup_checks"] = wl.check_setup(checks)
            plain = loop(wl, seconds / 2, checks)
            with tracer.patched():
                traced = loop(wl, seconds / 2, checks, tracer)
            attempted += plain.attempted + traced.attempted
            failed += plain.failed + traced.failed
            op_counts = {k: v - setup_counts.get(k, 0) for k, v in tracer.counts.items()}
            roots = traced.roots
            metrics, rep_latency = layer_metrics(tracer, [0], roots, setup_counts, op_counts)
            traced_op = statistics.median(traced.adjusted)
            plain_op = statistics.median(plain.adjusted)
            root_s = [tracer.spans[r][2] - tracer.spans[r][1] for r in [0] + roots]
            metrics["trace.total_s"] = (root_s[0] + sum(root_s[1:]) / len(roots), "s")
            metrics["trace.op_s"] = (traced_op, "s")
            metrics["trace.untraced_op_s"] = (plain_op, "s")
            metrics["trace.overhead_pct"] = (100.0 * (traced_op - plain_op) / plain_op, "%")
            metrics["trace.ops"] = (len(roots), "count")
            record["op_s"] = {"untraced": timing(plain.adjusted),
                              "traced": timing(traced.adjusted)}
            record["raw_op_s"] = {"untraced": timing(plain.raw), "traced": timing(traced.raw)}
            record["replication_s"] = {k: timing(v) for k, v in rep_latency.items()}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload}-{size}-seed{seed}.jsonl.gz"
            tracer.write(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
        record.update(wl.record())
    finally:
        workloads.remove(workdir)

    failed += sum(1 for c in checks if not c[1])
    attempted += len(checks)
    record["checks"] = {"run": len(checks), "failed": [c for c in checks if not c[1]]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": int(v) if unit in ("count", "B") and float(v).is_integer()
                           else v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    return result, record


def declared_metrics() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
            1: {m["name"]: m["unit"] for m in doc["per_layer"]}}


def smoke() -> int:
    """Tiny run of every workload, untraced and traced, with assertions."""
    import tracer as tracing
    declared = declared_metrics()
    bindings = [(m, a) for m, a, _ in tracing.SPANNED + tracing.COUNTED]
    bindings += [(m, "svd_r") for m in tracing.SVD_BINDINGS]
    bindings += [(m, "observe") for m in tracing.OBSERVE_BINDINGS]
    originals = [getattr(m, a) for m, a in bindings]
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = (calibrate.kernel(), time.perf_counter())
            result, record = run(workload, 1, 0.2, trace, "smoke", start)
            where = f"{workload} --trace {trace}"
            metrics = result["metrics"]
            if not result["correct"]:
                problems.append(f"{where}: failed checks {record['checks']['failed']}")
            if set(metrics) != set(declared[trace]):
                problems.append(f"{where}: emitted {sorted(metrics)}")
            for name, m in metrics.items():
                if m["unit"] != declared[trace].get(name):
                    problems.append(f"{where}: {name} has unit {m['unit']!r}")
            if trace:
                self_sum = sum(metrics[f"{mod}.self_s"]["value"] for mod in MODULES)
                total = metrics["trace.total_s"]["value"]
                if not self_sum <= total * (1 + 1e-9):
                    problems.append(f"{where}: self times {self_sum} > traced {total}")
            if [getattr(m, a) for m, a in bindings] != originals:
                problems.append(f"{where}: traced bindings not restored")
            print(f"smoke {where}: {len(metrics)} metrics, correct={result['correct']}")
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload with self-checks")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    # Turn termination into an exception, so work files are removed and
    # a running set-up child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_environment()
    import_package()
    if args.setup_child:
        return run_child(args)
    if args.smoke:
        return smoke()
    result, record = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
