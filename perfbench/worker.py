"""One pass of one workload part in a fresh process; prints one JSON record.

    python3 perfbench/worker.py WORKDIR --mode solve|setup --trace 0|1

WORKDIR holds ``inputs.json`` (from ``workloads.make_inputs``) and the ring
files under ``rings/``.  The record has the set-up time (import fusionkit,
load the rings through ``load_ring``, build the measures, and make the
first LAPACK call), the solve time (the summed durations of the part's
public calls; oracle checks between calls are not timed), both times also
scaled to the nominal host speed with the probes of ``hostspeed.py`` taken
while they ran, the median probe time, ``ru_maxrss`` at the end, each op's
outcome, and, when traced, the spans and per-layer metrics.  The parent
puts ``src`` of the checkout on PYTHONPATH; a fusionkit imported from
anywhere else is refused.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import hostspeed  # fusionkit-free; sits next to this file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_ops(fk, workloads, ctx, inputs, rings_dir, tracer, sampler) -> tuple:
    """Run every op once; returns (summed call seconds, op records).

    ``sampler`` probes the host's speed during the calls only.
    """
    total = 0.0
    records = []
    for op in inputs["ops"]:
        call = workloads.make_call(fk, ctx, op, rings_dir)
        rec = {"name": op["name"], "ok": False, "correct": True}
        start = time.perf_counter()
        try:
            with sampler:
                result = call() if tracer is None else tracer.call("bench.op", call)
        except fk.FusionError as exc:
            # a typed failure: the op failed but returned nothing wrong
            rec["seconds"] = time.perf_counter() - start
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["summary"] = workloads.summarize_error(exc)
        except Exception as exc:
            rec["seconds"] = time.perf_counter() - start
            rec["correct"] = False
            rec["error"] = traceback.format_exc()
            rec["summary"] = workloads.summarize_error(exc)
        else:
            rec["seconds"] = time.perf_counter() - start
            rec["summary"] = workloads.summarize(op, result)
            mismatch = workloads.check(op, result)
            if mismatch is None:
                rec["ok"] = True
            else:
                rec["correct"] = False
                rec["error"] = f"off its oracle: {mismatch}"
        total += rec["seconds"]
        records.append(rec)
    return total, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir")
    parser.add_argument("--mode", choices=("solve", "setup"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(args.workdir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    rings_dir = os.path.join(args.workdir, "rings")
    ring_paths = {name: os.path.join(rings_dir, f"{name}.json") for name in inputs["rings"]}

    sampler = hostspeed.Sampler()
    start = time.perf_counter()
    with sampler:
        import fusionkit as fk
        import fusionkit.cli  # noqa: F401  (the cli ops call fk.cli.main)
        import numpy

        src = os.path.join(ROOT, "src") + os.sep
        if not os.path.abspath(fk.__file__).startswith(src):
            print(f"fusionkit was imported from {fk.__file__}, not from {src}",
                  file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install(fk)
        import workloads
        ctx = workloads.setup(fk, inputs, ring_paths)
        # the first LAPACK call of a process can take most of a second; it
        # is a per-process cost, so it is paid here and counted as set-up
        numpy.linalg.eigvalsh(numpy.eye(2))
        setup_s = time.perf_counter() - start
    probes = sampler.take()

    record = {"part": inputs["part"], "seed": inputs["seed"], "setup_s": setup_s,
              "setup_scaled_s": hostspeed.scaled(setup_s, probes)}
    if args.mode == "solve":
        solve_s, ops = run_ops(fk, workloads, ctx, inputs, rings_dir, tracer, sampler)
        probes = sampler.take()
        record["solve_s"] = solve_s
        record["solve_scaled_s"] = hostspeed.scaled(solve_s, probes)
        record["ops"] = ops
        if tracer is not None:
            record["layers"] = tracer.report()
            record["spans"] = tracer.span_records()
            tracer.uninstall()
    record["probe_s"] = statistics.median(probes)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
