"""Running registered claims as benchmark units."""

import inspect

from bmlab import verify

from common import jsonable

# count keys that depend on the seed (seeded random instances), left out of
# the recorded counts
SEED_DEPENDENT = {"unique-balancing-subdivision": ("hypothesis_instances",)}


def _params(name):
    return inspect.signature(verify.CLAIMS[name]).parameters


def claim_kwargs(name, kwargs, seed):
    """The benchmark's size dials plus the workload seed, when the claim
    takes one."""
    out = dict(kwargs)
    if "seed" in _params(name):
        out["seed"] = seed
    return out


def reduced(claims):
    """For each claim, the size dials this benchmark sets away from the
    claim's defaults, as {claim: {dial: (benchmark value, default)}}."""
    out = {}
    for name, kwargs in claims:
        params = _params(name)
        dials = {k: (v, params[k].default) for k, v in kwargs.items()
                 if k in params and params[k].default != v}
        if dials:
            out[name] = dials
    return out


def checked_counts(name, counts):
    drop = SEED_DEPENDENT.get(name, ())
    return {k: v for k, v in jsonable(counts).items() if k not in drop}


def run_claim_unit(units, name, kwargs, seed, expected):
    """One claim as one unit: it must pass and report the recorded counts."""
    kw = claim_kwargs(name, kwargs, seed)

    def go():
        rep = verify.run_claim(name, **kw)
        if rep.status != "pass":
            return "status %s" % rep.status
        got = checked_counts(name, rep.counts)
        if got != expected.get(name):
            return "counts %s, recorded %s" % (got, expected.get(name))
        return None

    return units.run("claim", name, go)
