"""One pass of one workload, in a fresh process started by run.py.

Set-up (interpreter start, `import bmlab` and seeded input generation) ends
with the line "ready <speed> <kernel seconds> <catalog seconds>" on stdout;
run.py times set-up up to that line, takes out the kernels and the
seconds a workload's set-up spent on inputs made from the catalog (its
"catalog_s", which includes the catalog builds), and converts the rest to
reference seconds with the speed (see calib.py).  Then the timed phase
runs, traced or not, and the pass result is printed as one JSON line.
With --setup-only the process exits after "ready".  Untraced passes sample
the machine speed during the timed phase; traced passes do not, so no
kernel time lands in a span.

    python3 perfbench/worker.py --workload structure --seed 1 --workdir DIR [--trace 1]
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

import calib
import common
from workloads import NAMES

SETUP_KERNELS = 3


def main(argv=None):
    speedo = calib.Speedometer()
    for _ in range(SETUP_KERNELS):
        speedo.sample()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, common.SRC)
    import bmlab

    if not os.path.abspath(bmlab.__file__).startswith(common.SRC + os.sep):
        raise SystemExit("bmlab imported from %s, not from %s" % (bmlab.__file__, common.SRC))
    workload = importlib.import_module("workloads." + args.workload)
    expected = common.load_expected()
    inputs = workload.setup(args.seed, args.workdir, expected)
    for _ in range(SETUP_KERNELS):
        speedo.sample()
    print("ready %r %r %r" % (speedo.speed(), speedo.spent, inputs.get("catalog_s", 0.0)),
          flush=True)
    if args.setup_only:
        return 0

    speedo.samples.clear()
    units = common.Units(clock=speedo.work_clock)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(units)
        tracer.install()
    else:
        speedo.start()
    t0, w0 = time.perf_counter(), speedo.work_clock()
    info = workload.run(inputs, units, expected)
    raw_wall, work = time.perf_counter() - t0, speedo.work_clock() - w0
    speedo.stop()
    if not speedo.samples:
        speedo.sample()
    result = {
        "wall_s": work * speedo.speed(),
        "raw_wall_s": raw_wall,
        "speed": [s for _, s in speedo.samples],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": [[kind, name, s * speedo.speed(*win), reason]
                  for (kind, name, s, reason), win in zip(units.records, units.windows)],
        "raw_unit_s": [r[2] for r in units.records],
        "info": info,
        "sizes": workload.SIZES,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["answer_counts"] = tracer.answer_counts()
        result["layer_self_s"] = tracer.layer_self_s()
        path = os.path.join(common.OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
        result["trace_file"] = os.path.relpath(tracer.write(path), common.ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
