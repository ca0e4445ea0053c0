"""One workload in a fresh interpreter: passes for --seconds, then one JSON line.

Started by run.py.  With --setup-only it imports padicdyn, builds the first
pass's inputs, prints "ready" and exits, so the parent can time set-up.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _median(values):
    return statistics.median(values) if values else 0.0


def op_medians(passes: list) -> list[float]:
    """Each operation of the fixed list gets its median latency over the
    run's passes, so a slow spell of the machine during one pass is outvoted."""
    return [statistics.median(times) for times in
            zip(*[[t for _, t in p["latency"]] for p in passes])]


def end_to_end(passes: list, slots: tuple) -> dict:
    """pass_s sums the operations' medians; cmdN_ms averages them over one command."""
    ops = op_medians(passes)
    names = [slot for slot, _ in passes[0]["latency"]]
    metrics = {"pass_s": {"value": sum(ops), "unit": "s"}}
    for i, slot in enumerate(slots, start=1):
        mine = [t for name, t in zip(names, ops) if name == slot]
        metrics[f"cmd{i}_ms"] = {"value": 1000 * statistics.fmean(mine), "unit": "ms"}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
    return metrics


def per_layer(passes: list) -> dict:
    """Counts from the first pass, whose inputs depend on the seed alone; times
    as the median over passes, each scaled by its pass's speed factor."""
    first = passes[0]["trace"]["functions"]
    sites = passes[0]["trace"]["sites"]

    def fn(key):
        return first.get(key, {"calls": 0, "nested": 0, "passes": 0.0})

    def timed(pick):
        return _median([p["speed"] * pick(p["trace"]["functions"]) for p in passes])

    def incl(key):
        return timed(lambda f: f[key]["incl_s"] if key in f else 0.0)

    def self_of(test):
        return timed(lambda f: sum(s["self_s"] for k, s in f.items() if test(k, s)))

    ppk = fn("symbolic.RepellerGeometry.periodic_point_k")
    values = {
        "gibbs.exp_p.calls": (sites.get("gibbs.exp_p", 0), "count"),
        "padic.exp_p.calls": (fn("padic.exp_p")["calls"], "count"),
        "padic.exp_p.self_s": (self_of(lambda k, s: k == "padic.exp_p"), "s"),
        "gibbs.measure_weight.calls": (fn("gibbs.measure_weight")["calls"], "count"),
        "gibbs.partition_fn.s": (incl("gibbs.partition_fn"), "s"),
        "gibbs.check_compatibility.s": (incl("gibbs.check_compatibility"), "s"),
        "gibbs.solve_7_11.s": (incl("gibbs.solve_7_11"), "s"),
        "gibbs.field_equation_residual.s": (incl("gibbs.field_equation_residual"), "s"),
        "symbolic.inverse_branch.calls":
            (fn("symbolic.RepellerGeometry.inverse_branch")["calls"], "count"),
        "symbolic.inverse_branch.s": (incl("symbolic.RepellerGeometry.inverse_branch"), "s"),
        "symbolic.periodic_point_k.passes":
            (ppk["passes"] / ppk["calls"] if ppk["calls"] else 0.0, "count/point"),
        "symbolic.periodic_point_k.s": (incl("symbolic.RepellerGeometry.periodic_point_k"), "s"),
        "symbolic.julia_cylinders.s": (incl("symbolic.RepellerGeometry.julia_cylinders"), "s"),
        "symbolic.build.calls": (fn("symbolic.RepellerGeometry.build")["calls"], "count"),
        "symbolic.build.s": (incl("symbolic.RepellerGeometry.build"), "s"),
        "symbolic.basin_status.g_steps": (fn("symbolic.basin_status")["nested"], "count"),
        "fixedpoints.find_x0.calls": (fn("fixedpoints.find_x0")["calls"], "count"),
        "fixedpoints.find_x0.g_steps": (fn("fixedpoints.find_x0")["nested"], "count"),
        "fixedpoints.find_x0.s": (incl("fixedpoints.find_x0"), "s"),
        "fixedpoints.analyze.s": (incl("fixedpoints.analyze"), "s"),
        "maps.eval_g.calls": (fn("maps.eval_g")["calls"], "count"),
        "maps.eval_k.calls": (fn("maps.eval_k")["calls"], "count"),
        "padic.arith.calls": (sum(s["calls"] for s in first.values() if s["arith"]), "count"),
        "padic.arith.self_s": (self_of(lambda k, s: s["arith"]), "s"),
        "padic.from_rational.calls": (fn("padic.PrimeContext.from_rational")["calls"], "count"),
        "padic.sqrt_both.calls": (fn("padic.sqrt_both")["calls"], "count"),
        "padic.sqrt_both.self_s": (self_of(lambda k, s: k == "padic.sqrt_both"), "s"),
        "padic.diff_valuation.calls": (fn("padic.diff_valuation")["calls"], "count"),
        "cli.output_bytes": (passes[0]["output_bytes"], "bytes"),
        "trace.pass_s": (sum(op_medians(passes)), "s"),
    }
    for layer in ("padic", "maps", "fixedpoints", "symbolic", "gibbs", "cli"):
        values[f"{layer}.self_s"] = (self_of(lambda k, s, layer=layer: s["layer"] == layer), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from padicdyn import cli
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    plan = workload.plan(args.seed, 0)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    passes, errors, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        index = 0
        while True:
            op_pass = workloads.OpPass(cli.run)
            if tracer:
                tracer.reset()
            t0 = time.perf_counter()
            workload.run(op_pass, plan)
            wall = time.perf_counter() - t0
            latency = op_pass.latency()
            record = {"wall": wall, "latency": latency, "output_bytes": op_pass.output_bytes,
                      "speed": sum(t for _, t in latency) / sum(t for _, t in op_pass.raw)}
            if tracer:
                record["trace"] = tracer.snapshot()
            passes.append(record)
            attempted += op_pass.attempted
            failed += op_pass.failed
            failures += op_pass.failures
            errors += op_pass.run_checks()
            index += 1
            if time.perf_counter() - start + wall > args.seconds:
                break
            plan = workload.plan(args.seed, index)
    finally:
        if tracer:
            tracer.uninstall()

    for line in (errors + failures)[:20]:
        print(line, file=sys.stderr)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, workload.slots)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if tracer:
        result["functions"] = passes[0]["trace"]
    result["passes"] = len(passes)
    result["raw_pass_s"] = _median([p["wall"] for p in passes])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
