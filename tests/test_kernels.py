"""The exhaustive-search kernels."""

import hashlib
import random

import pytest

from qmlines import encoding, kernels
from qmlines.encoding import orbit
from qmlines.enumeration import canonical_classes

from oracles import first_digraph_per_class

# SHA-256 of repr(sorted(digraph_canon_witnesses(5).items())): 5,048 classes,
# as computed by the walk over all 2^20 arc masks with no orbit skipping
DIGRAPH_MAP_5_SHA256 = "efd72904d3617b5b1cf880c40c83e0a73c897802223f96c33ff5a2dcaca4d1ee"


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


@pytest.mark.parametrize("n", [3, 4])
def test_digraph_sweep_keeps_the_first_arc_mask_of_each_class(n):
    assert kernels.digraph_canon_witnesses(n) == first_digraph_per_class(n)


def test_five_point_digraph_map_is_pinned():
    table = kernels.digraph_canon_witnesses(5)
    assert len(table) == 5048
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == DIGRAPH_MAP_5_SHA256


def test_digraph_sweep_over_the_cap_is_refused_before_the_orbit_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("the orbit table was built")

    monkeypatch.setattr(encoding, "_orbit_table", no_table)
    with pytest.raises(ValueError, match="n=6 exceeds the cap of 5"):
        kernels.digraph_canon_witnesses(6)
