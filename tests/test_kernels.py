"""The exhaustive-search kernels."""

import random

import pytest

from qmlines import encoding, kernels
from qmlines.encoding import orbit
from qmlines.enumeration import canonical_classes


def test_canon_witness_sweeps_are_memoized():
    assert kernels.integer_canon_witnesses(3, 2) is kernels.integer_canon_witnesses(3, 2)
    assert kernels.digraph_canon_witnesses(3) is kernels.digraph_canon_witnesses(3)


def test_search_returns_the_witness_of_the_sweep_map():
    # the sweep map holds the lex-first witness of each class, and the
    # pruned search must return that same matrix for any relabeling
    rng = random.Random(4)
    classes = [canon for canon, _ in canonical_classes(4)]
    for kmax, step in [(2, 1), (3, 9)]:
        table = kernels.integer_canon_witnesses(4, kmax)
        for canon in classes[::step]:
            mask = rng.choice(orbit(4, canon))
            assert kernels.find_integer_witness(4, kmax, mask) == table.get(canon)


def test_search_over_the_cap_is_refused_before_the_orbit_table(monkeypatch):
    def no_table(n):
        raise AssertionError("the orbit table was built")

    monkeypatch.setattr(encoding, "_orbit_table", no_table)
    with pytest.raises(ValueError, match=f"= {3**20} matrices, over the cap of {2**24}"):
        kernels.find_integer_witness(5, 3, 0)
