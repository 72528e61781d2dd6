"""Benchmark of the shrinkset library: four workloads, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The timed section repeats passes over the workload's operations for
--seconds.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; metric names
and units come from BENCHMARK.json.  With --trace 1, untraced and traced
passes alternate and the per-layer metrics are medians over the traced
passes.  The full result and the spans are written under perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# pinned before numpy loads its BLAS and OpenMP runtimes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3

# Host-speed normalization.  On a shared host the same work can take twice
# as long from one minute to the next.  Every timed interval is bracketed by
# a fixed calibration kernel, and its time is rescaled to a host on which
# the kernel takes its reference time.  Each workload names the kernel that
# resembles its work: "python" mixes small-array numpy calls with Python
# float arithmetic, as most of the library does; "memory" streams arrays
# larger than the caches, as the raster layer does.


def _python_kernel() -> None:
    a = np.arange(64.0)
    s = 0.0
    for i in range(400):
        s += math.sqrt(float((a * a).sum()) + i)
        np.array([i, 1.0])


@functools.cache
def _array() -> np.ndarray:
    return np.random.default_rng(0).random(1_000_000)


def _memory_kernel() -> None:
    a = _array()
    np.sqrt(a * a + 1.0).sum()


KERNELS = {"python": (_python_kernel, 1e-3), "memory": (_memory_kernel, 5e-3)}


def calibration_s(kernel) -> float:
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def timed(fn, calibration="python"):
    """Run fn; return (result or exception, raw seconds, normalized seconds)."""
    kernel, ref_s = KERNELS[calibration]
    before = calibration_s(kernel)
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # reported by the caller as a failed operation
        result = exc
    raw = time.perf_counter() - t0
    after = calibration_s(kernel)
    return result, raw, raw * ref_s / math.sqrt(before * after)


def import_library() -> float:
    """Import shrinkset from this checkout's src/; return the normalized
    import time (numpy, which the benchmark itself needs, is loaded first)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    def load():
        import shrinkset

        return shrinkset

    shrinkset, _, import_s = timed(load)
    if isinstance(shrinkset, Exception):
        sys.exit(f"error: cannot import shrinkset from {src}: {shrinkset}")
    if not Path(shrinkset.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: shrinkset was imported from {shrinkset.__file__}, not {src}")
    return import_s


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read BENCHMARK.json: {exc}")


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def trace_targets():
    """Where each layer is entered, as (owner, attribute, span name, timed,
    counter hook).  See perfbench/README.md for what each metric should move."""
    from shrinkset import (
        cli,
        evolution,
        geometry,
        isoperimetric,
        morphology,
        raster,
        serialize,
        threshold,
    )

    last_undetermined = {"M": None}

    def on_classify(counts, args, outcome):
        # critical_budget retries an Undetermined probe at the same budget
        if last_undetermined["M"] == args[1]:
            counts["threshold.retries"] += 1
        undetermined = outcome.kind == threshold.UNDETERMINED
        last_undetermined["M"] = args[1] if undetermined else None

    def add(key, amount):
        def hook(counts, args, result):
            counts[key] += amount(args, result)

        return hook

    return [
        (cli, "main", "cli.threshold", True, None),
        (threshold, "critical_budget", "threshold.critical_budget", True, None),
        (threshold, "ball_time_at_critical", "threshold.ball_time_at_critical", True, None),
        (threshold, "classify", "threshold.classify", True, on_classify),
        (evolution, "simulate", "evolution.simulate", True,
         add("evolution.samples", lambda a, r: len(r))),
        (evolution, "brentq", "evolution.brentq", True, None),
        (evolution, "reconstruct_set", "evolution.reconstruct_set", True, None),
        (evolution, "compute_cost", "evolution.compute_cost", True, None),
        (evolution, "check_admissible", "evolution.check_admissible", True, None),
        (isoperimetric._Scene, "query", "isoperimetric.query", False, None),
        (isoperimetric, "optimal_subset", "isoperimetric.optimal_subset", True, None),
        (isoperimetric, "perimeter_of_area", "isoperimetric.perimeter_of_area", True, None),
        (morphology.ErosionProfile, "__init__", "morphology.ErosionProfile", True,
         add("morphology.profile_pieces", lambda a, r: len(a[0].pieces))),
        (morphology, "opening", "morphology.opening", True, None),
        (morphology, "erode", "morphology.erode", True, None),
        (geometry.ConvexPolygon, "__init__", "geometry.ConvexPolygon", False, None),
        (geometry, "contains", "geometry.contains", True, None),
        (raster, "rasterize", "raster.rasterize", True,
         add("raster.cells", lambda a, r: r.occupancy.size)),
        (raster, "distance_transform_edt", "raster.edt", True, None),
        (serialize, "trace_to_csv", "serialize.trace_to_csv", True,
         add("serialize.csv_bytes", lambda a, r: len(r))),
    ]


class Pass:
    """One run over every operation: raw and normalized time per operation."""

    def __init__(self, ops, calibration, tracer, op_base, reported):
        self.tracer = tracer
        self.op_base = op_base
        self.raw, self.norm = [], []
        self.failures = 0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_base + i
            ok, raw, norm = timed(op.run, calibration)
            if isinstance(ok, Exception) and op.name not in reported:
                reported.add(op.name)
                print(f"operation {op.name} raised:", file=sys.stderr)
                traceback.print_exception(ok)
            self.raw.append(raw)
            self.norm.append(norm)
            self.failures += isinstance(ok, Exception) or not ok

    def layer_values(self, names) -> dict:
        """Per-layer metrics of a traced pass, span times normalized with
        the factor of the operation they belong to."""
        scale = [n / r if r > 0 else 1.0 for n, r in zip(self.norm, self.raw)]
        total: dict = {}
        self_time: dict = {}
        spans = self.tracer.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            d = (end - start) * scale[op - self.op_base]
            total[name] = total.get(name, 0.0) + d
            if parent >= 0:
                child[parent] += d
        for i, (name, start, end, _, op) in enumerate(spans):
            d = (end - start) * scale[op - self.op_base] - child[i]
            self_time[name] = self_time.get(name, 0.0) + d
        counts = self.tracer.counts
        values = {}
        for name in names:
            if name.endswith(".self_s"):
                values[name] = self_time.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                values[name] = counts.get(name, 0)
            elif name.endswith(".s"):
                values[name] = total.get(name[: -len(".s")], 0.0)
            else:
                values[name] = counts.get(name, 0)
        return values


def pass_time(passes, n_ops) -> tuple[float, list[float]]:
    """One pass's time with each operation at its median over the passes,
    and those per-operation medians."""
    per_op = [statistics.median(p.norm[i] for p in passes) for i in range(n_ops)]
    return sum(per_op), per_op


def run(workload, seed, seconds, trace, spec, import_s=0.0, small=False, perturb=False):
    import tracer as tracing
    from workloads import WORKLOADS, accuracy

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        workdir = Path(tmp)
        setup, calibration = WORKLOADS[workload]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            ops, _, norm = timed(lambda: setup(seed, workdir, small, perturb), calibration)
            if isinstance(ops, Exception):
                raise ops
            setup_times.append(norm)

        targets = trace_targets() if trace else []
        passes: list[Pass] = []
        reported: set = set()
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            op_base = len(passes) * len(ops)
            if traced:
                tracer = tracing.Tracer()
                with tracer.installed(targets):
                    passes.append(Pass(ops, calibration, tracer, op_base, reported))
            else:
                passes.append(Pass(ops, calibration, None, op_base, reported))
            # stop before a pass that would end after --seconds
            elapsed = time.perf_counter() - start
            if len(passes) >= (2 if trace else 1) and (
                elapsed * (len(passes) + 1) / len(passes) > seconds
            ):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = len(passes) * len(ops)
        failed = sum(p.failures for p in passes)
        correct = failed == 0
        traced = [p for p in passes if p.tracer is not None]
        wall_s, per_op = pass_time([p for p in passes if p.tracer is None], len(ops))
        values: dict = {}
        if trace:
            names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("tracing.")]
            per_pass = [p.layer_values(names) for p in traced]
            for name in names:
                values[name] = statistics.median(p[name] for p in per_pass)
            traced_wall, _ = pass_time(traced, len(ops))
            values["tracing.wall_s"] = traced_wall
            values["tracing.overhead_s"] = traced_wall - wall_s
        else:
            values.update(
                setup_s=import_s + statistics.median(setup_times),
                wall_s=wall_s,
                op_p50_s=statistics.median(per_op),
                peak_rss_mb=peak_rss_mb,
            )
            try:
                values.update(accuracy(workdir, small))
            except Exception:
                traceback.print_exc()
                correct = False

    group = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], float("nan")), "unit": m["unit"]}
        for m in group
    }
    result = {
        "correct": correct and all(math.isfinite(v["value"]) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_names": [op.name for op in ops],
        "env": environment(seed),
    }
    if not small:
        _write_outputs(info, result, passes, ops)
    return result, info


def _write_outputs(info, result, passes, ops) -> None:
    traced = any(p.tracer is not None for p in passes)
    stem = f"{info['workload']}-seed{info['env']['seed']}-trace{int(traced)}"
    detail = [
        {"traced": p.tracer is not None, "raw_s": p.raw, "normalized_s": p.norm}
        for p in passes
    ]
    doc = {**info, "result": result, "passes": detail}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    if not traced:
        return
    with open(OUT_DIR / f"{stem}.spans.csv", "w") as f:
        f.write("pass,id,parent,op,op_name,name,start_s,end_s\n")
        for k, p in enumerate(passes):
            if p.tracer is None:
                continue
            for i, (name, t0, t1, parent, op) in enumerate(p.tracer.spans):
                f.write(
                    f"{k},{i},{parent},{op},{ops[op % len(ops)].name},"
                    f"{name},{t0:.9f},{t1:.9f}\n"
                )


def report(result, info) -> None:
    env = info["env"]
    print(
        f"# workload={info['workload']} passes={info['passes']} "
        f"operations/pass={info['ops_per_pass']} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(
        f"{'fail_frac':<40} {frac:.6g} "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    print(json.dumps(result))


def self_check(spec, import_s) -> int:
    """Every workload at reduced size: all metrics emitted, no failures, and
    a perturbed reference value must make the correctness checks fail."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run(workload, 0, 0, trace, spec, import_s, small=True)
            # a metric the run did not produce reads NaN and fails `correct`
            unset = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            passed = result["correct"]
            print(
                f"{workload:<13} trace={trace}  {'PASS' if passed else 'FAIL'}"
                f"  unset={unset} failed={result['failed']}"
            )
            ok &= passed
        result, _ = run(workload, 0, 0, 0, spec, import_s, small=True, perturb=True)
        caught = result["failed"] > 0
        print(
            f"{workload:<13} perturbed  {'PASS' if caught else 'FAIL'}"
            f"  failed={result['failed']} of {result['attempted']}"
        )
        ok &= caught
    print(f"self-check {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["threshold", "trace", "large-kernel", "raster"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run every workload at reduced size and check the checks",
    )
    args = parser.parse_args()
    spec = load_spec()
    import_s = import_library()
    if args.self_check:
        return self_check(spec, import_s)
    if args.workload is None:
        parser.error("--workload is required")
    report(*run(args.workload, args.seed, args.seconds, args.trace, spec, import_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
