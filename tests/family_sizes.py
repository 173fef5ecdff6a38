"""The structure claims one size class beyond their defaults.

Runs `tangled-minor`, `tangled-subgraph` and `unique-balancing-subdivision`
at (5, 9), (6, 8), (6, 9) and (7, 9), each with explicit `max_vertices` and
`max_edges`.  For each size it first times `multigraphs_up_to_iso` and
checks its class count against the Burnside count of
`oracles.multigraph_classes_by_burnside` (and against `CLASSES` where the
size is pinned there).  Then it prints the tangled family's size, checked
against `MEMBERS` where the size is pinned there, and its cold build time,
which reads the multigraphs just timed from their shared build, and each
claim's status, counts and time; the two tangled claims run on the cached
family, so their times leave the build out.  From the repository root:

    python tests/family_sizes.py            # every size
    python tests/family_sizes.py 6 8        # one size

It takes minutes, so it is not part of the test suite.  The exit status is
1 when a claim does not pass or a class or member count is off.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bmlab import catalog, verify  # noqa: E402
from oracles import multigraph_classes_by_burnside  # noqa: E402

SIZES = [(5, 9), (6, 8), (6, 9), (7, 9)]
# isomorphism classes of connected loopless min-degree-2 multigraphs
CLASSES = {(6, 9): 880, (6, 10): 2399, (7, 9): 1024}
# tangled biased graphs up to isomorphism
MEMBERS = {(5, 9): 4193, (6, 8): 554, (6, 9): 4745, (7, 9): 4781, (6, 10): 40980}
CLAIMS = ["tangled-minor", "tangled-subgraph", "unique-balancing-subdivision"]


def run_size(max_vertices, max_edges):
    """Print one size's lines; return the number of claims that did not
    pass, plus 1 for each of the class and member counts that is off."""
    t0 = time.perf_counter()
    classes = len(catalog.multigraphs_up_to_iso(max_vertices, max_edges))
    seconds = time.perf_counter() - t0
    burnside = multigraph_classes_by_burnside(max_vertices, max_edges)
    pinned = CLASSES.get((max_vertices, max_edges), burnside)
    bad = not (classes == burnside == pinned)
    print("(%d, %d) multigraphs_up_to_iso: %d classes in %.2f s (Burnside %d)%s"
          % (max_vertices, max_edges, classes, seconds, burnside, "  MISMATCH" * bad),
          flush=True)
    t0 = time.perf_counter()
    family = catalog.tangled_family(max_vertices, max_edges)
    off = len(family) != MEMBERS.get((max_vertices, max_edges), len(family))
    print("(%d, %d) tangled family: %d members, built in %.2f s%s"
          % (max_vertices, max_edges, len(family), time.perf_counter() - t0, "  MISMATCH" * off),
          flush=True)
    bad += off
    for name in CLAIMS:
        report = verify.run_claim(name, max_vertices=max_vertices, max_edges=max_edges)
        print("  %-28s %-9s %6.2f s  %s"
              % (name, report.status, report.seconds, report.counts), flush=True)
        bad += report.status != "pass"
    return bad


def main(argv):
    sizes = [tuple(int(a) for a in argv)] if argv else SIZES
    bad = sum(run_size(*size) for size in sizes)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
