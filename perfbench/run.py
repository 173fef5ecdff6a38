"""bmlab's benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 10 --trace 0

Every pass is a fresh `python3 perfbench/worker.py` process with
PYTHONHASHSEED=0, one at a time.  An untraced run (--trace 0) starts passes
of the workload while the next one is expected to end within --seconds (at
least one), plus set-up-only processes until there are SETUP_SAMPLES set-up
times, and prints the end-to-end metrics.  A traced run (--trace 1) makes
one untraced and one traced pass and prints the per-layer metrics; on
`structure` and `representations` it also checks the layer split, and a
split that does not hold is a failed unit.  Lines
before the last describe the run; the last line is the JSON result.  The
exit code is 1 when any unit fails, and 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import common
from metric_names import CLAIM_IDS, SUBCOMMANDS, per_layer
from workloads import NAMES

SETUP_SAMPLES = 5
TIME_LIMIT_S = 178


class BenchError(Exception):
    pass


class Pass:
    """One worker process: its set-up time and its result."""

    def __init__(self, workload, seed, deadline, trace=0, setup_only=False):
        workdir = os.path.join(common.OUT, "work-%d-%d" % (os.getpid(), time.monotonic_ns()))
        cmd = [sys.executable, os.path.join(common.HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--workdir", workdir,
               "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
                                text=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline().split()
            self.raw_setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            shutil.rmtree(workdir, ignore_errors=True)
        self.elapsed_s = time.perf_counter() - t0
        if proc.returncode != 0 or first[:1] != ["ready"]:
            raise BenchError("%s pass exited with %s%s" % (
                workload, proc.returncode,
                " (time limit)" if time.monotonic() >= deadline else ""))
        speed, kernel_s, self.catalog_s = (float(x) for x in first[1:4])
        self.setup_s = (self.raw_setup_s - kernel_s - self.catalog_s) * speed
        lines = rest.strip().splitlines()
        self.result = None if setup_only else json.loads(lines[-1])


def run_info(args, passes):
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(common.ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit, "src_sha256": common.src_digest(),
        "passes": len(passes), "sizes": passes[0].result["sizes"],
    }


def units_of(passes):
    return [u for p in passes for u in p.result["units"]]


def claim_seconds(units):
    return {name: s for kind, name, s, _ in units if kind == "claim"}


def subcommand_p50_ms(units):
    by_sub = defaultdict(list)
    for kind, name, s, _ in units:
        if kind == "request":
            by_sub[name].append(s)
    return {sub: statistics.median(xs) * 1e3 for sub, xs in sorted(by_sub.items())}


def untraced(args, deadline):
    setups = [Pass(args.workload, args.seed, deadline, setup_only=True)
              for _ in range(SETUP_SAMPLES - 1)]
    passes = []
    start = time.monotonic()
    while True:
        p = Pass(args.workload, args.seed, deadline)
        passes.append(p)
        setups.append(p)
        if time.monotonic() - start + p.elapsed_s > args.seconds:
            break
    units = units_of(passes)
    lat = common.latency_summary([u[2] for u in units])
    metrics = {
        "setup_s": (statistics.median(p.setup_s for p in setups), "s"),
        "wall_s": (statistics.median(p.result["wall_s"] for p in passes), "s"),
        "peak_rss_mib": (statistics.median(p.result["peak_rss_mib"] for p in passes), "MiB"),
        "unit_p50_ms": (lat["p50_ms"], "ms"),
        "unit_p99_ms": (lat["p99_ms"], "ms"),
    }
    details = {
        "setup_samples_s": [p.setup_s for p in setups],
        "raw_setup_samples_s": [p.raw_setup_s for p in setups],
        "raw_catalog_inputs_s": [p.catalog_s for p in setups],
        "wall_samples_s": [p.result["wall_s"] for p in passes],
        "raw_wall_samples_s": [p.result["raw_wall_s"] for p in passes],
        "mean_speed": [statistics.mean(p.result["speed"]) for p in passes],
        "unit_latency": lat,
        "raw_unit_latency": common.latency_summary(
            [s for p in passes for s in p.result["raw_unit_s"]]),
        "claim_s": claim_seconds(units),
        "subcommand_p50_ms": subcommand_p50_ms(units),
    }
    return passes, units, metrics, details


def layer_split(workload, shares):
    """The share of self time in the combinatorial and the algebraic layers,
    and the failure reason when the workload's own side does not hold more
    than half of it or the other side holds a tenth or more."""
    split = {
        "combinatorial": sum(shares[k] for k in ("catalog", "graph", "bias", "gains")),
        "algebraic": sum(shares[k] for k in ("matroid", "linalg", "canonical")),
    }
    own, other = {"structure": ("combinatorial", "algebraic"),
                  "representations": ("algebraic", "combinatorial")}.get(workload, (None, None))
    reason = None
    if own and not (split[own] > 0.5 and split[other] < 0.1):
        reason = "%s self time %.3f (needs > 0.5), %s %.3f (needs < 0.1)" % (
            own, split[own], other, split[other])
    return split, reason


def traced(args, deadline):
    plain = Pass(args.workload, args.seed, deadline)
    tr = Pass(args.workload, args.seed, deadline, trace=1)
    plain_units = plain.result["units"]
    values = dict(tr.result["layers"])
    claims = claim_seconds(plain_units)
    subs = subcommand_p50_ms(plain_units)
    for claim in CLAIM_IDS:
        values["verify.%s.s" % claim] = claims.get(claim, 0.0)
    for sub in SUBCOMMANDS:
        values["cli.%s.p50_ms" % sub] = subs.get(sub, 0.0)
    values["trace.overhead_ratio"] = tr.result["raw_wall_s"] / plain.result["raw_wall_s"]
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer()}
    shares = {k: v / tr.result["raw_wall_s"] for k, v in tr.result["layer_self_s"].items()}
    split, reason = layer_split(args.workload, shares)
    details = {
        "untraced_raw_wall_s": plain.result["raw_wall_s"],
        "traced_raw_wall_s": tr.result["raw_wall_s"],
        "answer_counts": tr.result["answer_counts"],
        "layer_self_share": shares,
        "layer_split": split,
        "trace_file": tr.result["trace_file"],
    }
    split_unit = ["trace", "layer-split", 0.0, reason]
    return [plain, tr], plain_units + tr.result["units"] + [split_unit], metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(common.SRC, "bmlab", "__init__.py")):
        print("no bmlab sources under %s" % common.SRC, file=sys.stderr)
        return 2
    os.makedirs(common.OUT, exist_ok=True)
    try:
        if args.trace:
            passes, units, metrics, details = traced(args, deadline)
        else:
            passes, units, metrics, details = untraced(args, deadline)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2

    failures = [u for u in units if u[3] is not None]
    info = run_info(args, passes)
    info["failed_ratio"] = len(failures) / len(units)
    info["failures"] = [{"kind": k, "name": n, "reason": r} for k, n, _, r in failures[:10]]
    print(json.dumps({"info": info}))
    print(json.dumps({"details": details}))
    if args.trace:
        print("self-time share by layer (%s):" % args.workload)
        for layer, share in details["layer_self_share"].items():
            print("  %-10s %6.1f%%" % (layer, 100 * share))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(units),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
