"""Every entry of the mutation catalogue (tests/mutants.py) still applies:
its old text occurs exactly once in its file, so a refactor cannot leave an
entry silently mutating nothing."""
import pytest

from mutants import CATALOGUE, ROOT


def test_names_are_unique():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_entry_applies_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / f).is_file() for f in mutant.tests)
