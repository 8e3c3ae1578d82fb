"""diskdraw benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload certify|raster|membership \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory.  The workload repeats whole passes over its seeded inputs
until S seconds have passed, checks every output, prints a report with every
metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, scaled to a reference speed of the
host; with --trace 1 passes alternate untraced and traced, and the metrics
are the per-layer ones, as measured.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, percentile
from workloads import CAL_REFERENCE_S, WORKLOADS, Calibration, Tally, median_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = HERE / "out"
SETUP_REPEATS = 7

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "geometry.lec": "certify: part2_s (verify_dissection_s), part1_s (verify_snake_s)",
    "obstruction.encircles": "certify: part2_s (verify_dissection_s), part1_s (verify_snake_s)",
    "obstruction.escape_radius": "certify: part2_s (verify_dissection_s), part1_s (verify_snake_s)",
    "obstruction.descent_verify": "certify: part2_s (verify_dissection_s), part1_s (verify_snake_s)",
    "obstruction.dissection_sample_check": "certify: part1_s (verify_snake_s), part3_s (verify_local_s)",
    "obstruction.wedge_checks": "certify: part2_s (verify_dissection_s)",
    "constructions": "raster: part1_s (render_snake_s); certify: part1_s (verify_snake_s)",
    "constructions.boundary_share": "none: a share of verdicts, which should stay constant",
    "canvas.eval_script": "raster: part2_s (render_sharp_s); membership: part2_s, rate_per_s "
                          "(queries_per_s); certify: part3_s (verify_local_s)",
    "canvas.stationary_number": "membership: part3_s, rate_per_s (queries_per_s)",
    "canvas.boundary": "none: a count of verdicts, which should stay constant",
    "render.render": "raster: part3_s (render_chess_s), rate_per_s (px_per_s)",
    "render.us_per_px": "raster: part3_s (render_chess_s), rate_per_s (px_per_s)",
    "render.pixels": "none: work done, constant for a seed",
    "render.spot_mismatches": "none: a correctness count, 0 when correct",
    "scene": "membership: part1_s (script_load_us)",
    "curvature": "certify: part3_s (verify_local_s), part1_s (verify_snake_s)",
    "cli.main": "certify and raster: wall_s",
    "bench": "none: the benchmark's own time inside its root spans",
    "trace": "none: the tracing's own accounting",
}

TRACED = (  # (module, attribute, layer name); the attribute is where callers look it up
    ("diskdraw.obstruction", "constrained_largest_empty_circle", "geometry.lec"),
    ("diskdraw.obstruction", "encircles", "obstruction.encircles"),
    ("diskdraw.obstruction", "escape_radius", "obstruction.escape_radius"),
    ("diskdraw.cli", "descent_verify", "obstruction.descent_verify"),
    ("diskdraw.cli", "dissection_sample_check", "obstruction.dissection_sample_check"),
    ("diskdraw.cli", "dissection_wedge_checks", "obstruction.wedge_checks"),
    ("diskdraw.constructions", "classify_against_path", "constructions.classify_against_path"),
    ("diskdraw.obstruction", "eval_script", "canvas.eval_script"),  # script_coloring
    ("diskdraw.render", "eval_script", "canvas.eval_script"),  # scripts rendered directly
    ("diskdraw.canvas", "eval_script", "canvas.eval_script"),  # membership queries
    ("diskdraw.canvas", "stationary_number", "canvas.stationary_number"),
    ("diskdraw.render", "render", "render.render"),
    ("diskdraw.scene", "parse_script", "scene.parse_script"),
    ("diskdraw.scene", "serialize_script", "scene.serialize_script"),
    ("diskdraw.cli", "rolling_disk_check", "curvature.rolling_disk_check"),
    ("diskdraw.cli", "main", "cli.main"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))
N24 = 24  # |S| of one n = 12 dissection or snake family, the ROADMAP baseline size


def load_package():
    """Import diskdraw afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "diskdraw" or m.startswith("diskdraw.")]:
        del sys.modules[name]
    dd = importlib.import_module("diskdraw")
    importlib.import_module("diskdraw.cli")
    if Path(dd.__file__).resolve().parent != ROOT / "src" / "diskdraw":
        raise ImportError(f"diskdraw was imported from {dd.__file__}, not from {ROOT / 'src'}")
    return dd


def make_tracer(dd):
    tracer = Tracer()
    shade_boundary = dd.Shade.BOUNDARY

    def lec(t, args, kwargs, result, dur):
        n = len(args[0])
        t.counters["lec.obstacles"] += n
        t.counters["lec.candidates"] += math.comb(n, 3) + math.comb(n, 2) + n + 1
        if args[2] < 1.0:
            t.counters["lec.inner"] += 1
        if n == N24:
            t.durations["geometry.lec.n24"].append(dur)

    def pair24(name):
        def observe(t, args, kwargs, result, dur):
            if len(args[0]) == N24 and len(args[1]) == N24:
                t.durations[name + ".n24"].append(dur)
        return observe

    def boundary(name):
        def observe(t, args, kwargs, result, dur):
            if result is shade_boundary:
                t.counters[name + ".boundary"] += 1
            if name == "canvas.eval_script":
                t.durations[name].append(dur)
        return observe

    def pixels(t, args, kwargs, result, dur):
        t.counters["render.pixels"] += len(result)

    def boundary_point(t, exc):
        if isinstance(exc, dd.BoundaryPoint):
            t.counters["canvas.boundary_point_raised"] += 1

    observers = {
        "geometry.lec": lec,
        "obstruction.encircles": pair24("obstruction.encircles"),
        "obstruction.escape_radius": pair24("obstruction.escape_radius"),
        "constructions.classify_against_path": boundary("constructions.classify_against_path"),
        "canvas.eval_script": boundary("canvas.eval_script"),
        "render.render": pixels,
    }
    for module, attr, name in TRACED:
        tracer.wrap(importlib.import_module(module), attr, name, observe=observers.get(name),
                    on_error=boundary_point if name == "canvas.stationary_number" else None)
    return tracer


def end_to_end_metrics(summary, setup_times) -> dict:
    """summary is (wall, parts, rate) over the untraced passes, at the reference speed."""
    wall, parts, rate = summary
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "part1_s": (parts[0], "s"),
        "part2_s": (parts[1], "s"),
        "part3_s": (parts[2], "s"),
        "rate_per_s": (rate, "1/s"),
    }


def layer_metrics(tracer, traced, plain, spot_mismatches) -> dict:
    """Per-layer metrics, per traced pass, as measured; counters are computed
    outside the program.  The tracing overhead compares passes at the
    reference speed."""
    traced_walls = [r.wall for r in traced]
    k = len(traced_walls)
    m = {}
    for name in LAYERS:
        calls = tracer.calls[name]
        m[f"{name}.calls"] = (calls / k, "count")
        m[f"{name}.self_s"] = (tracer.self_time[name] / k, "s")
        m[f"{name}.us_per_call"] = (1e6 * tracer.total[name] / calls if calls else 0.0, "us")
    c = tracer.counters
    lec_calls = tracer.calls["geometry.lec"]
    m["geometry.lec.obstacles_mean"] = (c["lec.obstacles"] / lec_calls if lec_calls else 0.0, "count")
    m["geometry.lec.candidates_computed"] = (c["lec.candidates"] / k, "count")
    anchors = lec_calls - c["lec.inner"]
    m["obstruction.encircles.inner_retry_ratio"] = (c["lec.inner"] / anchors if anchors else 0.0, "ratio")
    for name in ("geometry.lec", "obstruction.encircles", "obstruction.escape_radius"):
        d = tracer.durations[name + ".n24"]
        m[f"{name}.us_per_call_n24"] = (1e6 * statistics.fmean(d) if d else 0.0, "us")
    for name, share in (("constructions.classify_against_path", "constructions.boundary_share"),
                        ("canvas.eval_script", "canvas.boundary_share")):
        calls = tracer.calls[name]
        m[share] = (c[name + ".boundary"] / calls if calls else 0.0, "ratio")
    m["canvas.boundary_point_raised"] = (c["canvas.boundary_point_raised"] / k, "count")
    evals = tracer.durations["canvas.eval_script"]
    m["canvas.eval_script.p99_us"] = (1e6 * percentile(evals, 99), "us")
    px = c["render.pixels"]
    m["render.pixels"] = (px / k, "count")
    m["render.us_per_px"] = (1e6 * tracer.total["render.render"] / px if px else 0.0, "us")
    m["render.spot_mismatches"] = (spot_mismatches, "count")
    m["bench.op.self_s"] = (tracer.self_time["bench.op"] / k, "s")
    self_sum = sum(tracer.self_time.values())
    m["trace.self_sum_s"] = (self_sum / k, "s")
    m["trace.wall_s"] = (sum(traced_walls) / k, "s")
    m["trace.self_coverage"] = (self_sum / sum(traced_walls), "ratio")
    with_trace = statistics.median(r.wall * r.scale for r in traced)
    without = statistics.median(r.wall * r.scale for r in plain)
    m["trace.overhead_s"] = (with_trace - without, "s")
    m["trace.overhead_ratio"] = (with_trace / without - 1.0, "ratio")
    return m


def moves(metric: str) -> str:
    for prefix in sorted(MOVES, key=len, reverse=True):
        if metric.startswith(prefix):
            return MOVES[prefix]
    return "?"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["certify", "raster", "membership"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "diskdraw" / "__init__.py").is_file():
        print(f"perfbench: no diskdraw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUTDIR.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    calibration = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):  # fresh import, inputs and reference objects
        t0 = perf_counter()
        dd = load_package()
        workload = cls(dd, args.seed, str(OUTDIR))
        setup_times.append((perf_counter() - t0) * CAL_REFERENCE_S / calibration.burst())

    tracer = make_tracer(dd) if args.trace else None
    tally = Tally()
    plain, traced = [], []
    start = perf_counter()
    calibration.start()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        # Every pass starts from the same collector state, and the benchmark's
        # own inputs and results are not rescanned by the program's collections.
        gc.collect()
        gc.freeze()
        result = workload.run_pass(tally, calibration, tracer if use_tracer else None)
        result.kernel_s, result.part_kernel_s = calibration.take()
        (traced if use_tracer else plain).append(result)
        if perf_counter() - start >= args.seconds and (tracer is None or traced):
            break
    calibration.stop()
    workload.final_checks(tally)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; closed loop, 1 client, in-process")
    print(f"operations attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_ratio {tally.failed / max(1, tally.attempted):.6f}")
    for problem in tally.problems[:20]:
        print(f"  FAILED CHECK: {problem}")

    if args.trace:
        metrics = layer_metrics(tracer, traced, plain, workload.spot_mismatches)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}    moves -> {moves(name)}")
        spans = OUTDIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(median_summary(plain), setup_times)
        part_values = [metrics[f"part{i}_s"][0] for i in (1, 2, 3)]
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print("  per pass, as measured: wall [parts] kernel: " + "; ".join(
            f"{r.wall:.4f} [{', '.join(f'{x:.4f}' for x in r.parts)}] {1e6 * r.kernel_s:.1f}us" for r in plain))
        for name, value in zip(cls.part_names, part_values):
            print(f"  {name} = {value:.6g} s (one pass)")
        print(f"  {cls.rate_name[0]} = {metrics['rate_per_s'][0]:.6g} 1/s ({cls.rate_name[1]})")
        labels = workload.op_labels()
        complete = [r.op_walls for r in plain if len(r.op_walls) == len(labels)]
        for k, label in enumerate(labels if complete else []):
            print(f"  op {label}: median {statistics.median(w[k] for w in complete):.6g} s")
        if args.workload == "membership":
            per_script = 1e6 * metrics["part1_s"][0] / len(workload.scenes)
            print(f"  script_load_us = {per_script:.6g} us (parse + serialize + parse, per script)")
            print(f"  as measured: query_p50_us = {1e6 * statistics.median(r.latency_p50_p99[0] for r in plain):.6g} us, "
                  f"query_p99_us = {1e6 * statistics.median(r.latency_p50_p99[1] for r in plain):.6g} us "
                  f"(median over passes of {sum(map(len, workload.points))} queries each)")
            print(f"  stationary_number raised BoundaryPoint {workload.boundary_points} times per pass (counted, not failed)")

    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
