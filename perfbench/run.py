"""fusionkit benchmark: run one workload, or both, and print the metrics.

    python3 perfbench/run.py                      # both workloads, one table
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fusionkit is imported from its ``src``.
A workload has two parts (``workloads.WORKLOADS``).  In each pass every
part runs in its own fresh worker process (``worker.py``), so the product
cache starts cold and ``ru_maxrss`` belongs to that part.  Passes run one
at a time, closed loop, for about ``--seconds``; medians are reported.
With ``--trace 0`` the end-to-end metrics are printed: solve_s, setup_s,
peak_rss_mb and ok_share (1 - fail_share).  solve_s and setup_s are
scaled to a fixed host speed with the probes of ``hostspeed.py``, which
the workers take while they set up and while the calls run.  With ``--trace 1`` traced and
untraced passes alternate, and the per-layer metrics are printed with the
traced solve time and the tracing overhead; the spans are written to
``perfbench/out/``.  The last line of output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import combine  # noqa: E402

#: set-up is sampled in at least this many fresh processes per part
MIN_SETUP_SAMPLES = 5
MIN_PASSES = 2
#: a single worker process may not run longer than this
WORKER_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # one BLAS thread and a fixed hash seed keep runs repeatable; the
    # package's own thread pool stays at one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "FUSIONKIT_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def prepare(part: str, seed: int) -> str:
    """Write the seeded inputs and ring files; returns the work directory."""
    inputs = workloads.make_inputs(part, seed)
    workdir = os.path.join(HERE, "out", f"{part}-seed{seed}")
    os.makedirs(os.path.join(workdir, "rings"), exist_ok=True)
    for name, doc in inputs["rings"].items():
        with open(os.path.join(workdir, "rings", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, indent=1)
    return os.path.relpath(workdir, ROOT)


def run_worker(workdir: str, mode: str, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir,
           "--mode", mode, "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for about ``seconds``.

    Returns the work directory of each part, the passes as (traced,
    {part: worker record}) and, untraced, the worker records that give the
    set-up samples of each part.
    """
    parts = workloads.WORKLOADS[workload]
    workdirs = {part: prepare(part, seed) for part in parts}
    passes = []
    start = time.perf_counter()
    # at least two passes: a median of one is a single sample, and trace
    # mode alternates traced and untraced passes and needs one of each;
    # another pass starts while it is expected to end within ``seconds``
    while len(passes) < MIN_PASSES or \
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        traced = trace and len(passes) % 2 == 0
        passes.append((traced, {part: run_worker(workdirs[part], "solve", traced)
                                for part in parts}))
    setups = {}
    if not trace:
        for part in parts:
            setups[part] = [recs[part] for _, recs in passes]
            while len(setups[part]) < MIN_SETUP_SAMPLES:
                setups[part].append(run_worker(workdirs[part], "setup", False))
    return {"workdirs": workdirs, "passes": passes, "setups": setups}


def outcome(records: list) -> dict:
    """Op counts of worker records; ``correct`` is false if any op was off its oracle."""
    ops = [(rec["part"], op) for rec in records for op in rec["ops"]]
    failed = [(part, op) for part, op in ops if not op["ok"]]
    return {"attempted": len(ops), "failed": len(failed),
            "correct": all(op["correct"] for _, op in ops),
            "failures": sorted({f"{part}/{op['name']}: "
                                f"{op['error'].strip().splitlines()[-1]}"
                                for part, op in failed})}


def probe_s(run: dict) -> float:
    """Median over the run's solve workers of their median probe time."""
    return statistics.median(r["probe_s"] for _, recs in run["passes"]
                             for r in recs.values())


def times(run: dict, solve_key: str, setup_key: str) -> tuple:
    """(solve, set-up) seconds of a run: the wall or the scaled ones."""
    passes = [recs for _, recs in run["passes"]]
    solve = statistics.median(sum(r[solve_key] for r in recs.values()) for recs in passes)
    # a user running the workload sets up each part's process once
    setup = sum(statistics.median(r[setup_key] for r in recs)
                for recs in run["setups"].values())
    return solve, setup


def end_to_end(run: dict) -> dict:
    passes = [recs for _, recs in run["passes"]]
    out = outcome([rec for recs in passes for rec in recs.values()])
    solve, setup = times(run, "solve_scaled_s", "setup_scaled_s")
    return {
        "solve_s": solve,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in recs.values())
                                         for recs in passes),
        "ok_share": 1.0 - out["failed"] / out["attempted"],
    }


def per_layer(run: dict) -> dict:
    traced = [recs for t, recs in run["passes"] if t]
    plain = [recs for t, recs in run["passes"] if not t]
    per_pass = [combine([r["layers"] for r in recs.values()]) for recs in traced]
    layers = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}

    def solve(recs):
        return sum(r["solve_s"] for r in recs.values())

    layers["trace.solve_s"] = statistics.median(solve(recs) for recs in traced)
    layers["trace.overhead_ratio"] = layers["trace.solve_s"] / \
        statistics.median(solve(recs) for recs in plain)
    layers["trace.spans"] = statistics.median(
        sum(len(r["spans"]) for r in recs.values()) for recs in traced)
    layers["host.probe_s"] = probe_s(run)
    return layers


def write_spans(run: dict) -> list:
    paths = []
    traced = [recs for t, recs in run["passes"] if t]
    for part, workdir in run["workdirs"].items():
        path = os.path.join(ROOT, workdir, "spans.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"pass": i, "spans": recs[part]["spans"]}
                       for i, recs in enumerate(traced)], fh)
        paths.append(os.path.relpath(path, ROOT))
    return paths


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def part_rows(run: dict) -> list:
    """Per-part solve_s, setup_s, peak_rss_mb and fail_share of an untraced run."""
    rows = []
    for part in run["workdirs"]:
        recs = [recs[part] for _, recs in run["passes"]]
        out = outcome(recs)
        rows.append((part, statistics.median(r["solve_scaled_s"] for r in recs),
                     statistics.median(r["setup_scaled_s"] for r in run["setups"][part]),
                     statistics.median(r["peak_rss_mb"] for r in recs),
                     out["failed"] / out["attempted"]))
    return rows


def run_one(args) -> int:
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = outcome([rec for _, recs in run["passes"] for rec in recs.values()])
    print(f"workload {args.workload}  seed {args.seed}  passes {len(run['passes'])}  "
          f"trace {'on' if args.trace else 'off'}")
    units = declared_metrics(bool(args.trace))
    if args.trace:
        measured = per_layer(run)
        print("spans written to " + ", ".join(write_spans(run)))
    else:
        measured = end_to_end(run)
        solve, setup = times(run, "solve_s", "setup_s")
        print(f"  median probe {probe_s(run) * 1e3:.4f} ms (nominal "
              f"{hostspeed.NOMINAL_S * 1e3:.4f} ms); wall solve {solve:.4f} s, "
              f"wall set-up {setup:.4f} s")
        print(f"  fail_share {out['failed'] / out['attempted']!r} ratio  "
              f"({out['failed']} of {out['attempted']} ops failed)")
        for part, solve, setup, rss, fail in part_rows(run):
            print(f"  part {part}: solve_s {solve:.4f} s  setup_s {setup:.4f} s  "
                  f"peak_rss_mb {rss:.1f} MB  fail_share {fail:.4f}")
    if set(measured) != set(units):
        raise BenchmarkError(f"measured metrics {sorted(measured)} differ from the "
                             f"declared ones {sorted(units)}")
    metrics = {name: measured[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name} {value!r} {units[name]}")
    print("  solve_s per pass, scaled and wall: " + " ".join(
        f"{sum(r['solve_scaled_s'] for r in recs.values()):.4f}/"
        f"{sum(r['solve_s'] for r in recs.values()):.4f}" for _, recs in run["passes"]))
    for line in out["failures"]:
        print(f"  failed op {line}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    rows, correct = [], True
    for workload in workloads.WORKLOADS:
        run = measure(workload, args.seed, args.seconds, False)
        out = outcome([rec for _, recs in run["passes"] for rec in recs.values()])
        correct = correct and out["correct"]
        rows += [(workload, *row) for row in part_rows(run)]
        for line in out["failures"]:
            print(f"{workload}: failed op {line}")
    print(f"{'workload':9} {'part':15} {'solve_s [s]':>12} {'setup_s [s]':>12} "
          f"{'peak_rss_mb [MB]':>17} {'fail_share [ratio]':>19}")
    for workload, part, solve, setup, rss, fail in rows:
        print(f"{workload:9} {part:15} {solve:12.4f} {setup:12.4f} {rss:17.1f} {fail:19.4f}")
    print(f"all results on their oracles: {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fusionkit benchmark")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS) + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fusionkit", "__init__.py")):
        print(f"no fusionkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
