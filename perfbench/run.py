"""Benchmark for metricdim: end-to-end and per-layer metrics of four workloads.

Run from a checkout of the repository, with only the standard library:

    python3 perfbench/run.py --workload dim-families --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

One run builds its workload from the seed (see workloads.py), then drives
`metricdim.cli.main` in-process from a single closed-loop client: each
command is issued after the previous one has returned, with its standard
output captured. Whole passes over the workload's operations repeat while
another pass still fits in `--seconds`; there is always at least one. Every
output is checked by gate.py after the timed passes.

End-to-end metrics: setup_s is the first import of metricdim (median of
fresh interpreters) plus building the instances and writing their files
(median of repeated builds); wall_s is the median pass; op_p50_ms and
op_tail_ms are percentiles of the operations' latencies, each operation
taken at its median over the passes (see `latency`); peak_rss_mb is the
process's peak resident memory. A failed operation is one whose output the
gate rejects; fail_ratio, failed over attempted, is in the details line.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
untraced passes are followed by one traced pass (spans around the library's
layer functions, see tracing.py) and the metrics are the per-layer ones. The
last line of standard output is the result object; the line before it holds
the run's details. `--all` runs every workload in a fresh process of its own
and prints each metric by name and unit, together with `fail_ratio`.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("dim-families", "dim-large", "perturb-chains", "verify-suite")
SETUP_REPEATS = 5
IMPORT_REPEATS = 11
PREP_REPEATS = 3
# Below this many search nodes the search takes less time than the
# preparation timings vary by, so its time is not resolved (reported as 0).
SEARCH_MIN_NODES = 100_000
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import metricdim.cli; "
    "print(time.perf_counter() - start)"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def metric_key(instance: str) -> str:
    return instance.replace("+", "_")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    import workloads

    dims = [n for w in ("dim-families", "dim-large") for n in workloads.DIM_SETS[w][0]]
    units = {
        "resolving.search_s": "s",
        "resolving.nodes": "count",
        "resolving.nodes_per_s": "1/s",
        "resolving.prep_s": "s",
        "resolving.check_s": "s",
        "resolving.check_calls": "count",
    }
    units.update({f"resolving.nodes.{metric_key(n)}": "count" for n in dims})
    units.update({f"resolving.search_s.{metric_key(n)}": "s" for n in dims})
    units.update({f"resolving.prep_s.{metric_key(n)}": "s"
                  for n in dims + [workloads.CHECK_GRAPH[0]]})
    units.update({
        "graph.parse_s": "s",
        "graph.edit_s": "s",
        "graph.bfs_s": "s",
        "graph.vertices": "count",
        "graph.edges": "count",
        "perturb.transfer_s": "s",
        "perturb.steps": "count",
        "perturb.witness_initial": "count",
        "perturb.witness_final": "count",
        "perturb.witness_growth": "ratio",
    })
    units.update({f"claims.{c}_s": "s" for c in workloads.CLAIM_IDS})
    units.update({
        "claims.pass": "count",
        "claims.skipped": "count",
        "ternary.canonical_s": "s",
        "ternary.conflict_check_s": "s",
        "cli.self_s": "s",
        "families.build_s": "s",
        "generators.build_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def import_program() -> None:
    """Put the checkout's src/ first on sys.path and import metricdim from it."""
    if not (SRC / "metricdim" / "cli.py").is_file():
        raise FileNotFoundError(f"no metricdim source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import metricdim.cli

    if SRC.resolve() not in Path(metricdim.cli.__file__).resolve().parents:
        raise ImportError(f"metricdim imported from {metricdim.cli.__file__}, not {SRC}")


def first_import_s() -> float:
    """Median time of the first `import metricdim.cli` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def run_pass(ops, tracer=None, after=None):
    """Issue every operation once, in order; returns (wall, op times, outputs).

    `after(op)`, if given, is called after each operation, outside its time
    but inside the pass's wall time.
    """
    from metricdim.cli import main

    times, outputs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = main(list(op.argv))
            else:
                tracer.op = f"traced:{i}"
                rc = tracer.call("cli.main", main, list(op.argv))
        times.append(time.perf_counter() - began)
        outputs.append((rc, out.getvalue(), err.getvalue()))
        if after is not None:
            after(op)
    return time.perf_counter() - start, times, outputs


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """The p-th percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def latency(op_ms: list[float]) -> tuple[float, float, str, int]:
    """Median and tail of operation latencies, the tail's label and how many
    operations lie beyond it.

    The tail is the highest listed percentile with at least 10 operations
    beyond it. Below 20 operations no percentile can be estimated, and both
    figures are the mean operation latency.
    """
    op_ms = sorted(op_ms)
    for p in PERCENTILES:
        tail_ms, beyond = nearest_rank(op_ms, p)
        if beyond >= 10:
            return nearest_rank(op_ms, 50)[0], tail_ms, f"p{p:g}", beyond
    mean = statistics.fmean(op_ms)
    return mean, mean, "mean", 0


def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


def layer_metrics(setup, tracer, outputs, prep, untraced_wall, traced_wall, build_s) -> dict:
    """Per-layer metrics of one traced pass."""
    ids = [f"traced:{i}" for i in range(len(setup.ops))]
    totals = tracer.by_name(ids)

    def self_s(*names):
        return sum(totals.get(n, (0.0, 0))[0] for n in names)

    def calls(*names):
        return sum(totals.get(n, (0.0, 0))[1] for n in names)

    values = dict.fromkeys(per_layer_units(), 0)
    exact = tracer.durations("resolving.metric_dimension_exact")
    for name, samples in prep.items():
        values[f"resolving.prep_s.{metric_key(name)}"] = statistics.median(samples)
    searched_nodes = 0
    witness_initial = witness_final = steps = 0
    for op_id, op, (rc, out, _) in zip(ids, setup.ops, outputs):
        payload = _json_object(out)
        if op.kind == "dim" and "nodes_explored" in payload:
            key = metric_key(op.instance)
            samples = prep[op.instance]
            search = exact[op_id] - statistics.median(samples)
            # Below SEARCH_MIN_NODES, or within the spread of the preparation
            # timings, the difference says nothing about the search: it is
            # reported as 0 and left out of nodes_per_s.
            if payload["nodes_explored"] < SEARCH_MIN_NODES or search <= max(samples) - min(samples):
                search = 0.0
            else:
                searched_nodes += payload["nodes_explored"]
            values[f"resolving.nodes.{key}"] = payload["nodes_explored"]
            values[f"resolving.search_s.{key}"] = search
            values["resolving.nodes"] += payload["nodes_explored"]
            values["resolving.search_s"] += search
            values["resolving.prep_s"] += statistics.median(samples)
        elif op.kind == "perturb" and payload.get("trace"):
            steps += len(payload["trace"])
            witness_initial += len(op.expect["witness"])
            witness_final += payload["trace"][-1]["witness_size"]
        elif op.kind == "verify" and "reports" in payload:
            for report in payload["reports"]:
                values[f"claims.{report['claim_id']}_s"] = report["elapsed"]
                values["claims.pass"] += report["status"] == "PASS"
                values["claims.skipped"] += report["status"] == "SKIPPED"
    if values["resolving.search_s"] > 0:
        values["resolving.nodes_per_s"] = searched_nodes / values["resolving.search_s"]
    values.update({
        "resolving.check_s": self_s("resolving.is_resolving", "resolving.find_unresolved_pair"),
        "resolving.check_calls": calls("resolving.is_resolving", "resolving.find_unresolved_pair"),
        "graph.parse_s": self_s("graph.parse_edge_list"),
        "graph.edit_s": self_s("graph.add_edge", "graph.remove_edge"),
        "graph.bfs_s": self_s("graph.is_connected", "graph.bfs_distances"),
        "graph.vertices": sum(op.vertices for op in setup.ops),
        "graph.edges": sum(op.edges for op in setup.ops),
        "perturb.transfer_s": self_s("perturb.augment_addition", "perturb.augment_removal"),
        "perturb.steps": steps,
        "perturb.witness_initial": witness_initial,
        "perturb.witness_final": witness_final,
        "perturb.witness_growth": witness_final / witness_initial if witness_initial else 0,
        "ternary.canonical_s": self_s("ternary.canonical_conflict_free"),
        "ternary.conflict_check_s": self_s("ternary.is_conflict_free"),
        "cli.self_s": self_s("cli.main"),
        "families.build_s": build_s["families"],
        "generators.build_s": build_s["generators"],
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    return values


def _nodes(setup, outputs) -> dict[str, int]:
    found = {}
    for op, (_, out, _) in zip(setup.ops, outputs):
        payload = _json_object(out)
        if op.kind == "dim" and "nodes_explored" in payload:
            found[op.instance] = payload["nodes_explored"]
    return found


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, import_s: float = 0.0) -> tuple[dict, dict]:
    """Run one workload; returns (details, result) as printed by main."""
    import gate
    import workloads
    from metricdim import resolving
    from metricdim.errors import BudgetError
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            start = time.perf_counter()
            setup = workloads.build(workload, seed, workdir, tiny)
            builds.append((time.perf_counter() - start, setup.build_s))
        build_time, build_s = sorted(builds, key=lambda b: b[0])[len(builds) // 2]
        ops = setup.ops
        # The benchmark's own objects (inputs, expected answers) would make
        # every full collection inside the program slower than it is in a
        # fresh `metricdim` process; keep them out of the collector's way.
        gc.collect()
        gc.freeze()

        passes = []
        started = time.perf_counter()
        while True:
            gc.collect()
            passes.append(run_pass(ops))
            walls = [p[0] for p in passes]
            if time.perf_counter() - started + max(walls) > seconds:
                break
        wall = statistics.median(walls)

        gated = [outputs for _, _, outputs in passes]
        metrics: dict[str, dict] = {}
        details: dict = {}
        if trace:
            tracer = Tracer()
            prep: dict[str, list[float]] = {}

            def time_prep(op):
                # A node budget of 0 stops the search at its first node, so
                # this call takes the time spent before the search starts.
                # It runs right after the instance's first traced operation,
                # in the same state, a few times over.
                if op.instance not in setup.prep or op.instance in prep:
                    return
                tracer.op = f"prep:{op.instance}"
                prep[op.instance] = []
                for _ in range(PREP_REPEATS):
                    start = time.perf_counter()
                    try:
                        resolving.metric_dimension_exact(setup.prep[op.instance], node_budget=0)
                    except BudgetError:
                        pass
                    prep[op.instance].append(time.perf_counter() - start)

            with tracer.installed():
                gc.collect()
                _, traced_times, traced_out = run_pass(ops, tracer, time_prep)
            traced_wall = sum(traced_times)
            gated.append(traced_out)
            values = layer_metrics(setup, tracer, traced_out, prep, wall, traced_wall, build_s)
            units = per_layer_units()
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            trace_file = OUT / f"trace-{workload}-{seed}{'-tiny' if tiny else ''}.json"
            tracer.write(trace_file)
            details.update(
                trace_file=str(trace_file.relative_to(ROOT)),
                traced_wall_s=traced_wall,
                nodes_untraced=_nodes(setup, passes[0][2]),
                nodes_traced=_nodes(setup, traced_out),
            )
            details["nodes_match"] = details["nodes_untraced"] == details["nodes_traced"]
            details["prep_s"] = prep

        verdicts: dict = {}
        failures = []
        for outputs in gated:
            for i, (op, (rc, out, err)) in enumerate(zip(ops, outputs)):
                key = (i, rc, out)
                if key not in verdicts:
                    verdicts[key] = gate.judge(op.kind, op.expect, rc, out)
                if verdicts[key]:
                    failures.append(f"{op.instance}: {verdicts[key]} {err.strip()[:200]}")
        if trace and not details["nodes_match"]:
            failures.append(f"traced nodes_explored {details['nodes_traced']} differ from "
                            f"untraced {details['nodes_untraced']}")
        attempted = len(ops) * len(gated)

        # Each operation's latency is its median over the passes, so that the
        # percentiles describe the operations rather than which of them ran
        # while the machine was busy with something else.
        op_ms = [statistics.median(times[i] for _, times, _ in passes) * 1000
                 for i in range(len(ops))]
        p50_ms, tail_ms, tail_label, beyond = latency(op_ms)
        if not trace:
            values = {
                "setup_s": import_s + build_time,
                "wall_s": wall,
                "op_p50_ms": p50_ms,
                "op_tail_ms": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        details.update(
            workload=workload,
            seed=seed,
            seconds=seconds,
            trace=int(trace),
            python=platform.python_version(),
            nproc=os.cpu_count(),
            instances=setup.instances,
            ops_per_pass=len(ops),
            passes=len(passes),
            pass_wall_s=walls,
            import_s=import_s,
            setup_build_s=[b[0] for b in builds],
            op_tail=tail_label,
            op_tail_beyond=beyond,
            attempted=attempted,
            failed=len(failures),
            fail_ratio=len(failures) / attempted,
            failures=failures[:5],
        )
        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": metrics}
        return details, result
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process; prints each metric by name and unit."""
    ok = True
    print(f"{'workload':<16}{'metric':<40}{'value':>16}  unit")
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload:<16}failed with exit code {done.returncode}: {done.stderr.strip()[-500:]}")
            ok = False
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<16}{name:<40}{metric['value']:>16.6g}  {metric['unit']}")
        print(f"{workload:<16}{'fail_ratio':<40}{details['fail_ratio']:>16.6g}  "
              f"ratio ({details['failed']}/{details['attempted']})")
        for reason in details["failures"]:
            print(f"{workload:<16}  failure: {reason}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    try:
        import_program()
        import_s = first_import_s()
    except (OSError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: cannot load metricdim from this checkout: {exc}", file=sys.stderr)
        return 2
    details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              import_s=import_s)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
