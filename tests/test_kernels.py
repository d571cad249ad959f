"""The exhaustive-search kernels."""

import hashlib
import random

import pytest

from qmlines import encoding, kernels
from qmlines.core import Betweenness, betweenness_of
from qmlines.encoding import orbit, ordered_pairs
from qmlines.enumeration import canonical_classes
from qmlines.realizability import realize_bounded_integer

from oracles import first_digraph_per_class, first_integer_per_class


# SHA-256 of repr(sorted(integer_canon_witnesses(n, K).items())), keys and
# values, as computed by the integer walk that visited every valid matrix
# with no lex-leader pruning
INTEGER_MAP_SHA256 = {
    (4, 2): "6b6fd9f9689213380eb268df5dc8bcb8319bd9543174569d38c72e3830e44225",
    (4, 3): "c57d5755d0bb499462d8a1431b23380ef7a86d88e06cc51ca5ddd94a1bc64f61",
    (4, 4): "e8f8db34f3dd170549cb14f260e962e188a9c64f70e5467dfdde0b0b74f16d04",
    (5, 2): "56d11b41cc29b94b27d05e182ab4c115ac5e14a92233e8e42c9b53b3a2571f96",
}

# SHA-256 of repr(sorted(digraph_canon_witnesses(5).items())): 5,048 classes,
# as computed by the walk over all 2^20 arc masks with no orbit skipping
DIGRAPH_MAP_5_SHA256 = "efd72904d3617b5b1cf880c40c83e0a73c897802223f96c33ff5a2dcaca4d1ee"


def test_canon_witness_sweeps_are_memoized():
    assert kernels.integer_canon_witnesses(3, 2) is kernels.integer_canon_witnesses(3, 2)
    assert kernels.digraph_canon_witnesses(3) is kernels.digraph_canon_witnesses(3)


def test_search_returns_the_witness_of_the_sweep_map():
    # the sweep map holds the lex-first witness of each class, and a query
    # must return that same matrix for any relabeling
    rng = random.Random(4)
    classes = [canon for canon, _ in canonical_classes(4)]
    for kmax in (2, 3, 4):
        table = kernels.integer_canon_witnesses(4, kmax)
        for canon in classes:
            w = realize_bounded_integer(Betweenness(4, rng.choice(orbit(4, canon))), kmax)
            if w is None:
                assert canon not in table
                continue
            assert tuple(w.entries[i][j] for i, j in ordered_pairs(4)) == table[canon]
            assert min(orbit(4, betweenness_of(w).mask)) == canon


@pytest.mark.parametrize(
    ("n", "kmax", "classes"), [(4, 2, 102), (4, 3, 265), (4, 4, 273), (5, 2, 6669)]
)
def test_integer_maps_are_pinned(n, kmax, classes):
    table = kernels.integer_canon_witnesses(n, kmax)
    assert len(table) == classes
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == INTEGER_MAP_SHA256[(n, kmax)]


@pytest.mark.parametrize(("n", "kmax"), [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_integer_sweep_keeps_the_first_matrix_of_each_class(n, kmax):
    assert kernels.integer_canon_witnesses(n, kmax) == first_integer_per_class(n, kmax)


def test_integer_sweep_visits_one_matrix_per_orbit():
    # the walk over every valid matrix with entries <= 4 had 4,751,052
    # leaves; one per orbit of 24 relabelings is about 1/24 of that
    walk = kernels._integer_dfs(4, 4, kernels._triples_by_depth(4), kernels._pair_relabelings(4))
    leaves = sum(1 for _ in walk)
    assert leaves == 200_897
    assert leaves < 4_751_052 // 10


@pytest.mark.parametrize(
    "walk",
    [
        lambda: kernels.integer_canon_witnesses(9, 1),
        lambda: realize_bounded_integer(Betweenness(9, 0), 1),
    ],
    ids=["sweep", "search"],
)
def test_integer_walk_over_the_relabeling_cap_is_refused_at_once(monkeypatch, walk):
    def no_relabelings(*args):
        raise AssertionError("the relabelings were listed")

    def no_walk(*args):
        raise AssertionError("the integer walk started")

    monkeypatch.setattr(encoding, "permutations", no_relabelings)
    monkeypatch.setattr(kernels, "_integer_dfs", no_walk)
    with pytest.raises(ValueError, match=r"9! = 362880 relabelings, over the cap of 40320"):
        walk()


def test_search_over_the_cap_is_refused_before_the_orbit_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("the orbit table was built")

    monkeypatch.setattr(encoding, "_orbit_table", no_table)
    with pytest.raises(ValueError, match=f"= {3**20} matrices, over the cap of {2**24}"):
        realize_bounded_integer(Betweenness(5, 0), 3)


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
