"""The mutant table stays applicable: each row's old text occurs exactly
once in its src file, so a change that moves the code must update the
row.  Running the mutants themselves is `python tests/mutants.py`."""

from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "bmlab"


@pytest.mark.parametrize("mutant", MUTANTS, ids=range(len(MUTANTS)))
def test_each_mutant_old_text_occurs_once(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests
