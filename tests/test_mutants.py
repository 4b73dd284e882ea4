"""The mutant corpus stays applicable and matches the committed matrix.

Running every mutant against every checker takes minutes and is the
job of ``benchmarks/bench_oracle_mutants.py``; tier-1 only checks that
each rewrite still finds its one site in the current source (a
refactor that moves the code turns the mutant into a build error, not
a silent no-op) and that the committed kill matrix lists exactly the
corpus.
"""

from pathlib import Path

import pytest

from repro.analysis.check import small_config
from repro.analysis.explore import check_applied_order
from tests.mutants import MUTANTS, build, phase_inversion_log

TABLE = (Path(__file__).resolve().parent.parent / "benchmarks" / "results"
         / "oracle_mutants.txt")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_builds_against_current_source(mutant):
    owner, attr, mutated = build(mutant)
    assert callable(mutated)
    assert vars(owner)[attr] is not mutated


def test_corpus_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


def test_committed_matrix_lists_the_corpus():
    table = TABLE.read_text().split("\n\n")[0]
    assert [row.split()[0] for row in table.splitlines()[3:]] == \
        [mutant.name for mutant in MUTANTS]


def test_phase_inversion_epoch_merges_in_order():
    assert check_applied_order(
        phase_inversion_log(small_config("deco_sync", 2))) is None
