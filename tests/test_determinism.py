import subprocess
import sys

import pytest

from lkbrep.arrangement import build_facets, build_salvetti, salvetti_h1
from lkbrep.complexes import Chain, cell_A, sal_fn
from lkbrep.action import BraidWord, lkb_word
from lkbrep.linalg import Matrix
from lkbrep.ring import ONE


def run_cli(*argv):
    out = subprocess.run([sys.executable, "-m", "lkbrep.cli", *argv],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("argv", [
    ("homology", "--n", "3", "--format", "json"),
    ("rep", "--n", "4", "--word", "1 -2 3", "--format", "json"),
    ("complex", "--n", "3", "--format", "json"),
])
def test_cli_output_is_byte_identical_across_processes(argv):
    assert run_cli(*argv) == run_cli(*argv)


def test_twisted_complex_degree_guard():
    tc = sal_fn(2)
    with pytest.raises(ValueError):
        tc.differential(Chain(1))
    assert tc.differential(Chain(2, {cell_A(1, 2): ONE})) == tc.d_cols[cell_A(1, 2)]


def test_empty_arrangement_is_one_chamber():
    fc = build_facets([])
    assert (len(fc.vertices), len(fc.edges), len(fc.chambers)) == (0, 0, 1)
    sc = build_salvetti(fc)
    assert sc.counts() == (1, 0, 0)
    rank, torsion, relations = salvetti_h1(sc)
    assert (rank, torsion, relations) == (0, [], {})


def test_mixed_sign_words_cancel():
    for n in (3, 4):
        size = n * (n - 1) // 2
        w = lkb_word(BraidWord(n, (1, 2, -2, -1)))
        assert w == Matrix.identity(size, ONE)
        w = lkb_word(BraidWord(n, (-2, 1, -1, 2)))
        assert w == Matrix.identity(size, ONE)
