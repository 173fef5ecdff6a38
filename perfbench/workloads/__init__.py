"""The benchmark's workloads.  Each module has setup(seed, workdir,
expected) -> inputs, run(inputs, units, expected) -> info and SIZES."""

NAMES = ("structure", "representations", "requests")
