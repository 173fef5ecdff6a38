"""Every functools cache in the bmlab modules is bounded: it sets maxsize,
or it is listed here with the finite set of keys it can ever hold.  A
cache is any module-level object with cache_info."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

from bmlab import catalog, fields
from bmlab.errors import BmlabError

SRC = Path(__file__).resolve().parent.parent / "src" / "bmlab"
# __main__ runs the command line when imported
MODULES = [importlib.import_module("bmlab." + p.stem)
           for p in sorted(SRC.glob("*.py")) if p.stem != "__main__"]

# the caches without maxsize, by their finite key spaces
NO_ARGUMENTS = [
    "catalog.base_graphs", "catalog.classify_2c3_proper", "catalog.classify_k4",
    "catalog.classify_tube_proper", "catalog.contracted_tubes", "catalog.u2", "catalog.u3",
]
# i in {1, 2, 3}, and q a prime power from 2 to 256: any other argument
# raises before anything is cached
OUT_OF_RANGE = [(catalog.t2_prime_split, 0), (catalog.t2_prime_split, 4),
                (fields.gf, 1), (fields.gf, 6), (fields.gf, 257)]
FINITE_KEYS = NO_ARGUMENTS + ["catalog.t2_prime_split", "fields.gf"]


def module_caches(modules):
    """Name -> cache for every cache the modules hold, named by the module
    that defines it."""
    return {"%s.%s" % (obj.__module__.rpartition(".")[2], obj.__qualname__): obj
            for module in modules for obj in vars(module).values()
            if hasattr(obj, "cache_info")}


def unbounded(caches):
    return sorted(name for name, fn in caches.items()
                  if fn.cache_parameters()["maxsize"] is None)


def test_every_unbounded_cache_has_a_finite_key_space():
    assert unbounded(module_caches(MODULES)) == sorted(FINITE_KEYS)


@pytest.mark.parametrize("name", NO_ARGUMENTS)
def test_listed_builders_take_no_arguments(name):
    assert not inspect.signature(module_caches(MODULES)[name]).parameters


@pytest.mark.parametrize("fn,arg", OUT_OF_RANGE, ids=lambda x: getattr(x, "__name__", str(x)))
def test_out_of_range_arguments_raise_and_cache_nothing(fn, arg):
    size = fn.cache_info().currsize
    with pytest.raises(BmlabError):
        fn(arg)
    assert fn.cache_info().currsize == size


def test_scanner_reports_an_unbounded_cache():
    fake = types.ModuleType("bmlab.fake")
    exec("import functools\n"
         "@functools.cache\ndef grows(x): return x\n"
         "@functools.lru_cache(maxsize=4)\ndef capped(x): return x\n", vars(fake))
    assert sorted(module_caches([fake])) == ["fake.capped", "fake.grows"]
    assert unbounded(module_caches([fake])) == ["fake.grows"]
