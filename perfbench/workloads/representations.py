"""The `representations` workload: the algebraic side of bmlab (fields,
linalg, matroid, canonical).

Timed phase: verify.run_claim for the 25 claims the `structure` workload
does not run, one unit per claim, with the workload seed passed to every
claim that takes one.  `q`, `fields` and `samples` are the size dials.
"""

from workloads.claims import reduced, run_claim_unit

CLAIMS = [
    ("allreps-2c3", {"q": 3}),
    ("allreps-t2prime-splits", {}),
    ("allreps-k4", {}),
    ("allreps-tube-frame", {}),
    ("allreps-tube-lift", {}),
    ("allreps-contracted-tube", {}),
    ("subdivision-classes", {"q": 3}),
    ("tangled-no-extend", {"fields": (4,)}),
    ("canonical-frame", {}),
    ("canonical-lift", {"samples": 100}),
    ("lemma-2c3-frame", {}),
    ("lemma-2c3-lift", {}),
    ("lemma-2c3-frame-vs-lift", {}),
    ("lemma-k4-frame", {}),
    ("lemma-k4-lift", {}),
    ("lemma-k4-frame-vs-lift", {}),
    ("lemma-tube-frame", {}),
    ("lemma-tube-lift", {}),
    ("u2-criterion", {}),
    ("u3-lift-criterion", {}),
    ("main2", {}),
    ("main3-roundtrip", {}),
    ("main4-samples", {}),
    ("deltawye-matroid", {}),
    ("rollup-frame", {}),
]

SIZES = {"reduced_claims": reduced(CLAIMS)}


def setup(seed, workdir, expected):
    return {"seed": seed}


def run(inputs, units, expected):
    for name, kwargs in CLAIMS:
        run_claim_unit(units, name, kwargs, inputs["seed"], expected["claims"])
    return {}
