"""The mutation table alone, so it cannot rot unseen; ``python tests/mutants.py`` runs it."""

import pytest

from conftest import REPO_ROOT
from mutants import MUTANTS


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_test_files_that_exist(mutant):
    assert mutant.path.startswith("src/")
    assert (REPO_ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.killers
    for name in mutant.killers:
        assert (REPO_ROOT / name).is_file(), name
        assert name.startswith("tests/test_"), name
