"""The mutant catalogue of ``mutants.py`` follows the source: a fragment
that no longer occurs exactly once in its file would leave its mutant
unapplied, or applied in the wrong place. Running the mutants themselves
takes minutes and stays a manual step."""

import pytest

from mutants import CATALOGUE


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_fragment_occurs_once(mutant):
    assert mutant.occurrences() == 1
