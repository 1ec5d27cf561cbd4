#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

One workload, as the harness that consumes BENCHMARK.json runs it:

    python3 bench/suite/run.py --workload serve-hot --seed 3 --seconds 10 --trace 0

builds the driver if needed, runs it, and prints one JSON object as the last
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
taken from a traced run (plus trace.overhead, which needs an untraced one).

Commands for people:

    run.py build                       configure and build build/bench-suite/
    run.py run [--seed S] [--reps 3] [--trace] [--out FILE]
                                       every workload, reps interleaved;
                                       writes results.json, prints
                                       "<workload> <metric> <value> <unit>"
    run.py run --smoke                 self-test at tiny sizes (< 60 s)
    run.py compare A.json B.json       better/worse/unchanged/unresolved per
                                       end-to-end metric and workload

Standard library only. Everything is written under build/bench-suite/.
"""

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / "build" / "bench-suite"
DRIVER = BUILD / "ares_bench"
TIME_UNITS = {"s", "ms", "us", "ns"}
# A contract run must finish within 180 s; leave room for start-up.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 880.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; raises on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(SUITE), "-B", str(BUILD), *gen],
            check=True, stdout=sys.stderr, timeout=deadline - time.monotonic())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "ares_bench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=deadline - time.monotonic())


def run_driver(workload, seed, seconds, smoke=False, trace=None, timeout=None):
    """Runs one driver process; returns its parsed result (last stdout line)."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace", str(trace)]
    # Own session: on a timeout the whole group goes, including the node
    # processes a live deployment forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: driver printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        result["correct"] = False
    return result


def metric_specs(bench):
    """name -> (spec, kind) for every metric BENCHMARK.json lists."""
    specs = {m["name"]: (m, "end_to_end") for m in bench["end_to_end"]}
    specs.update({m["name"]: (m, "per_layer") for m in bench["per_layer"]})
    return specs


def check_names(bench, result):
    """Every metric the driver emits must be listed in BENCHMARK.json."""
    unknown = sorted(set(result["metrics"]) - set(metric_specs(bench)))
    if unknown:
        log(f"{result['workload']}: metrics missing from BENCHMARK.json: {unknown}")
        result["correct"] = False


def layer_metrics(bench, traced, untraced_cost):
    """Per-layer values of a traced run. A layer the workload does not
    exercise reports 0. trace.overhead is the traced run's cost per
    operation over the untraced one's."""
    out = {m["name"]: traced["metrics"].get(m["name"], 0.0) for m in bench["per_layer"]}
    cost = traced["metrics"].get("cost_us_per_op", 0.0)
    out["trace.overhead"] = cost / untraced_cost if untraced_cost else 0.0
    return out


def contract(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        p.error(f"unknown workload {args.workload}")
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_driver(args.workload, args.seed, args.seconds,
                          timeout=deadline - time.monotonic())
    check_names(bench, untraced)
    runs = [untraced]
    if args.trace:
        traced = run_driver(args.workload, args.seed, args.seconds,
                            trace=BUILD / f"TRACE_{args.workload}.json",
                            timeout=deadline - time.monotonic())
        check_names(bench, traced)
        runs.append(traced)
        values = layer_metrics(bench, traced, untraced["metrics"].get("cost_us_per_op"))
        specs = bench["per_layer"]
    else:
        values = untraced["metrics"]
        specs = bench["end_to_end"]
    metrics = {}
    correct = all(r["correct"] for r in runs)
    for m in specs:
        v = values.get(m["name"], 0.0)
        if not args.trace and not v > 0:
            log(f"{args.workload}: end-to-end metric {m['name']} missing or not positive")
            correct = False
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": untraced["attempted"],
                      "failed": max(r["failed"] for r in runs), "metrics": metrics}))
    return 0 if correct else 1


def summarize(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def run(args):
    """Runs every workload; returns (ok, results, raw driver results)."""
    bench = load_benchmark()
    build()
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    raw = {w: [] for w in workloads}
    ok = True
    # Reps interleave across workloads so slow drift on the machine spreads
    # over all of them instead of landing on one.
    for rep in range(args.reps):
        for w in workloads:
            log(f"[rep {rep + 1}/{args.reps}] {w}")
            r = run_driver(w, args.seed, seconds, smoke=args.smoke)
            check_names(bench, r)
            ok &= r["correct"]
            raw[w].append(r)
    traced = {}
    if args.trace:
        for w in workloads:
            log(f"[traced] {w}")
            traced[w] = run_driver(w, args.seed, seconds, smoke=args.smoke,
                                   trace=BUILD / f"TRACE_{w}.json")
            check_names(bench, traced[w])
            ok &= traced[w]["correct"]

    out = {"seed": args.seed, "reps": args.reps, "seconds": seconds,
           "smoke": args.smoke, "workloads": {}}
    for w in workloads:
        entry = {"correct": all(r["correct"] for r in raw[w]),
                 "attempted": raw[w][0]["attempted"],
                 "failed": max(r["failed"] for r in raw[w]), "metrics": {}}
        layers = {}
        if w in traced:
            cost = statistics.median(r["metrics"]["cost_us_per_op"] for r in raw[w])
            layers = layer_metrics(bench, traced[w], cost)
        for name, (spec, kind) in metric_specs(bench).items():
            if kind == "per_layer" and (spec["unit"] in TIME_UNITS
                                        or name == "trace.overhead"):
                # Times come only from the traced run.
                if name not in layers:
                    continue
                values = [layers[name]]
            else:
                values = [r["metrics"].get(name, 0.0) for r in raw[w]]
            entry["metrics"][name] = dict(summarize(values), unit=spec["unit"])
            print(f"{w} {name} {entry['metrics'][name]['median']:.6g} {spec['unit']}")
        out["workloads"][w] = entry
    dest = Path(args.out) if args.out else BUILD / "results.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(out, indent=1) + "\n")
    log(f"wrote {dest}")
    if not ok:
        log("FAIL: a workload failed its correctness check")
    return ok, out, raw


def smoke(args):
    """The suite's self-test: tiny sizes, a traced run, and compare() must
    flag a deliberately worsened copy of the results."""
    args.smoke, args.trace = True, True
    args.reps = 1
    args.seconds = args.seconds or 1
    args.out = args.out or str(BUILD / "smoke" / "results.json")
    ok, results, raw = run(args)
    bench = load_benchmark()
    problems = [] if ok else ["a workload failed its correctness check"]

    emitted = {name for runs in raw.values() for r in runs for name in r["metrics"]}
    for m in bench["per_layer"]:
        if m["name"] != "trace.overhead" and m["name"] not in emitted:
            problems.append(f"per-layer metric {m['name']} is emitted by no workload")
    for w in results["workloads"]:
        events = json.loads((BUILD / f"TRACE_{w}.json").read_text())["traceEvents"]
        if not events:
            problems.append(f"TRACE_{w}.json has no spans")

    same = io.StringIO()
    if compare(args.out, args.out, out=same) != 0:
        problems.append("compare flags a result set against itself")
    spec = next(m for m in bench["end_to_end"] if m["name"] == "cost_us_per_op")
    worsened = json.loads(json.dumps(results))
    cell = worsened["workloads"]["serve-hot"]["metrics"][spec["name"]]
    factor = 1 + 2 * spec["bound"]  # twice the bound, in the worse (higher) direction
    for key in ("median", "q1", "q3"):
        cell[key] *= factor
    cell["values"] = [v * factor for v in cell["values"]]
    worse_path = Path(args.out).with_name("worsened.json")
    worse_path.write_text(json.dumps(worsened))
    flagged = io.StringIO()
    if compare(args.out, worse_path, out=flagged) == 0:
        problems.append(f"compare missed a {2 * spec['bound']:.0%} worse {spec['name']}")
    log(flagged.getvalue().rstrip())

    for p in problems:
        log(f"smoke: FAIL: {p}")
    log("smoke: OK" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def verdict(a, b, spec):
    """Classifies B against A for one metric. A spread wider than the bound
    leaves the change unresolved rather than unchanged."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                 for s in (a, b))
    bound = spec["bound"]
    if spread > bound:
        # Unresolved unless every run of B beats every run of A.
        if spec["better"] == "lower":
            clear_win = max(b["values"]) < min(a["values"])
        else:
            clear_win = min(b["values"]) > max(a["values"])
        return ("better" if clear_win else "unresolved"), worse
    if worse > bound:
        return "worse", worse
    if worse < -bound:
        return "better", worse
    return "unchanged", worse


def compare(path_a, path_b, out=sys.stdout):
    bench = load_benchmark()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    width = max(len(n) for n in names) + 2
    print(f"A = {path_a}\nB = {path_b}\n"
          "each cell: verdict (B vs A, + = worse), bound from BENCHMARK.json",
          file=out)
    print(("workload".ljust(14) + "".join(n.ljust(width + 12) for n in names)).rstrip(),
          file=out)
    worse = 0
    for w, entry in a["workloads"].items():
        if w not in b["workloads"]:
            continue
        cells = []
        for spec in bench["end_to_end"]:
            ma = entry["metrics"].get(spec["name"])
            mb = b["workloads"][w]["metrics"].get(spec["name"])
            if ma is None or mb is None:
                cells.append("missing".ljust(width + 12))
                continue
            v, change = verdict(ma, mb, spec)
            worse += v == "worse"
            cells.append(f"{v} ({change:+.2%})".ljust(width + 12))
        print((w.ljust(14) + "".join(cells)).rstrip(), file=out)
    return 1 if worse else 0


def main(argv):
    if argv and argv[0].startswith("--"):
        return contract(argv)
    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("build")
    pr = sub.add_parser("run")
    pr.add_argument("--seed", type=int, default=1)
    pr.add_argument("--reps", type=int, default=3)
    pr.add_argument("--seconds", type=float, default=None)
    pr.add_argument("--trace", action="store_true")
    pr.add_argument("--smoke", action="store_true")
    pr.add_argument("--out", default=None)
    pc = sub.add_parser("compare")
    pc.add_argument("a")
    pc.add_argument("b")
    args = p.parse_args(argv)
    if args.cmd == "build":
        build()
        return 0
    if args.cmd == "compare":
        return compare(args.a, args.b)
    if args.smoke:
        return smoke(args)
    return 0 if run(args)[0] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            RuntimeError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
