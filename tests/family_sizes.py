"""The structure claims one size class beyond their defaults.

Runs `tangled-minor`, `tangled-subgraph` and `unique-balancing-subdivision`
at (5, 9), (6, 8) and (6, 9), each with explicit `max_vertices` and
`max_edges`.  For each size it prints the tangled family's size and its
cold build time, then each claim's status, counts and time; the two
tangled claims run on the cached family, so their times leave the build
out.  From the repository root:

    python tests/family_sizes.py            # every size
    python tests/family_sizes.py 6 8        # one size

It takes minutes, so it is not part of the test suite.  The exit status is
1 when a claim does not pass.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bmlab import catalog, verify  # noqa: E402

SIZES = [(5, 9), (6, 8), (6, 9)]
CLAIMS = ["tangled-minor", "tangled-subgraph", "unique-balancing-subdivision"]


def run_size(max_vertices, max_edges):
    """Print one size's lines; return the number of claims that did not pass."""
    t0 = time.perf_counter()
    family = catalog.tangled_family(max_vertices, max_edges)
    print("(%d, %d) tangled family: %d members, built in %.2f s"
          % (max_vertices, max_edges, len(family), time.perf_counter() - t0), flush=True)
    bad = 0
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
