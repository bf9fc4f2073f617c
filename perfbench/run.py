"""The repository's benchmark: one workload per run, answers checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload session-churn --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout the script sits in;
without it the run exits non-zero before printing a result.  Human-readable
detail (raw wall seconds and reference durations beside the compensated
numbers, sample counts, failed checks) goes to standard output first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: the independent estimator's seed: fixed, so ``spread`` repeats exactly
ESTIMATOR_SEED = 20200614


def import_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"error: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: repro was imported from {repro.__file__}, not {src}")


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker, if the shard runtime's
    shared memory started one, and wait for it to end: left alone, it
    outlives the benchmark process."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from checker import Checker, EdgeMirror
    from pss import PssSampler
    from refclock import NOMINAL_REF_S, RefClock
    from tracer import Tracer, install
    from workloads import SETUP_REPS, WORKLOADS, graph_mib

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    sampler = PssSampler().start()
    clock = RefClock(pss=sampler)
    checker = Checker(seed=ESTIMATOR_SEED)

    builds = []
    for _ in range(SETUP_REPS):
        graph = None  # drop the previous build before timing the next
        graph, sample = clock.timed(workload.build)
        builds.append(sample)
    src, dst, prob = graph.edges()
    mirror = EdgeMirror(graph.n, src.copy(), dst.copy(), prob.copy())
    workload.prepare(graph, mirror)

    # Whole rounds, as many as fill --seconds of timed operations on the
    # reference machine.  The count depends on --seconds alone, so every
    # run of a workload does the same operations.
    rounds = [
        workload.round(graph, mirror, clock, checker, tracer)
        for _ in range(max(1, round(args.seconds / workload.ROUND_S)))
    ]
    sampler.stop()
    stop_resource_tracker()
    if tracer is not None:
        tracer.uninstall()
    clock.compensate()

    correct = True
    counts = {r.counts() for r in rounds}
    if len(counts) != 1:
        correct = False
        print(f"work counts differ between identical rounds: {sorted(counts)}")
    rr_sets, edges_examined, spread = rounds[0].counts()

    starts = [s for r in rounds for s in r.starts]
    setup_comp = median([s.comp for s in builds]) + median([s.comp for s in starts])
    setup_raw = median([s.raw for s in builds]) + median([s.raw for s in starts])
    queries = [s for r in rounds for s in r.queries]
    run_comp = median([r.run_comp for r in rounds])
    run_raw = median([r.run_raw for r in rounds])
    q50_comp = median([s.comp for s in queries])
    q50_raw = median([s.raw for s in queries])

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(queries)} queries, {len(builds)} graph builds, "
          f"{len(starts)} daemon starts, cpus {os.cpu_count()}")
    print(f"reference unit: nominal {NOMINAL_REF_S * 1e3:.2f} ms, "
          f"measured median {clock.ref_median() * 1e3:.2f} ms "
          f"over {len(clock.refs)} readings")
    print(f"  setup_s      {setup_comp:10.4f} compensated  {setup_raw:10.4f} raw")
    print(f"  run_s        {run_comp:10.4f} compensated  {run_raw:10.4f} raw "
          f"(median of {len(rounds)} rounds)")
    print(f"  query_p50_s  {q50_comp:10.4f} compensated  {q50_raw:10.4f} raw "
          f"(median of {len(queries)} queries)")
    print(f"  rr_sets {rr_sets}  edges_examined {edges_examined}  spread {spread:.3f}")
    for problem in checker.problems:
        print(f"  FAILED {problem}")

    if not args.trace:
        metrics = {
            "setup_s": metric(setup_comp, "s"),
            "run_s": metric(run_comp, "s"),
            "query_p50_s": metric(q50_comp, "s"),
            "pss_peak_mib": metric(sampler.peak_mib, "MiB"),
            "rr_sets": metric(rr_sets, "sets"),
            "edges_examined": metric(edges_examined, "edges"),
            "spread": metric(spread, "nodes"),
        }
    else:
        metrics = layer_metrics(tracer, rounds, builds, graph_mib(graph),
                                NOMINAL_REF_S / clock.ref_median(), run_comp)
        write_spans(tracer, args.workload, args.seed)
        for name, value in metrics.items():
            print(f"  {name:28s} {value['value']:.6g} {value['unit']}")

    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer, rounds, builds, csr_mib, scale, run_comp):
    """Per-layer metrics per round; span times at the reference speed."""
    per = 1.0 / len(rounds)
    sums = tracer.sums

    def seconds(*cats):
        return tracer.total(cats) * per * scale

    def layer(name, default=0.0):
        return median([r.layer.get(name, default) for r in rounds])

    generate_s = seconds("generate")
    sets = sums["generated_sets"] * per
    pool_mib = layer("rrsets.pool_mib", sums["pool_bytes_max"] / 2**20)
    return {
        "graphs.build_s": metric(median([s.comp for s in builds]), "s"),
        "graphs.apply_delta_s": metric(seconds("graph"), "s"),
        "graphs.csr_mib": metric(csr_mib, "MiB"),
        "sampling.precompute_s": metric(seconds("precompute"), "s"),
        "rrsets.generate_s": metric(generate_s, "s"),
        "rrsets.sets_per_s": metric(sets / generate_s if generate_s else 0.0, "sets/s"),
        "rrsets.edges_per_s": metric(
            sums["generated_edges"] * per / generate_s if generate_s else 0.0, "edges/s"),
        "rrsets.avg_set_nodes": metric(
            sums["generated_nodes"] * per / sets if sets else 0.0, "nodes"),
        "rrsets.repair_s": metric(seconds("repair"), "s"),
        "rrsets.sets_repaired": metric(sums["sets_repaired"] * per, "sets"),
        "rrsets.reused_frac": metric(layer("rrsets.reused_frac"), "ratio"),
        "rrsets.pool_mib": metric(pool_mib, "MiB"),
        "rrsets.shard_wait_s": metric(seconds("shard"), "s"),
        "rrsets.shard_commands": metric(tracer.calls(("shard",)) * per, "count"),
        "coverage.select_s": metric(seconds("select"), "s"),
        "coverage.select_calls": metric(tracer.calls(("select",)) * per, "count"),
        "coverage.validate_s": metric(seconds("validate"), "s"),
        "engine.rounds": metric(sums["rounds"] * per, "count"),
        "engine.self_s": metric(tracer.engine_self() * per * scale, "s"),
        "runtime.rr_complete_calls": metric(
            tracer.counts["runtime.rr_complete_calls"] * per, "count"),
        "observability.inc_calls": metric(
            tracer.counts["observability.inc_calls"] * per, "count"),
        "serving.overhead_s": metric(layer("serving.overhead_s") * scale, "s"),
        "serving.delta_s": metric(layer("serving.delta_s") * scale, "s"),
        "trace.run_s": metric(run_comp, "s"),
    }


def write_spans(tracer, workload: str, seed: int) -> None:
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload}-seed{seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps({
                "name": span.name, "cat": span.cat, "start": span.start,
                "end": span.end, "parent": span.parent, "op": span.op,
            }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
