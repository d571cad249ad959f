"""The exhaustive-search kernels."""

import hashlib
import random
from itertools import permutations
from math import factorial

import pytest

from qmlines import encoding, kernels
from qmlines.core import Betweenness, betweenness_of
from qmlines.encoding import orbit, ordered_pairs, ordered_triples
from qmlines.enumeration import canonical_classes
from qmlines.realizability import (
    Digraph,
    digraph_distances,
    realize_bounded_integer,
    realize_digraph,
)

from oracles import (
    classes_by_counting,
    first_digraph_per_class,
    first_integer_per_class,
    floyd_warshall_distances,
)


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


def test_consistent_class_counts_are_the_class_lists():
    # n=4 has none: an integer map there holds at most the 273
    # quasi-realizable of its 4,455 classes (the pinned K=4 map holds all
    # 273), so a stop could never fire
    assert kernels.CONSISTENT_CLASSES == {
        2: len(classes_by_counting(2)),
        3: len(canonical_classes(3)),
    }


class _AskedSeen:
    """Stands for the map's seen set in the walk, appending each answer to
    `answers`."""

    def __init__(self, seen, answers):
        self.seen, self.answers = seen, answers

    def __contains__(self, mask):
        self.answers.append(mask in self.seen)
        return self.answers[-1]


def _walk_asking(answers):
    """_integer_dfs whose seen set records its answers in `answers`."""
    dfs = kernels._integer_dfs

    def asked_dfs(n, kmax, seen):
        return dfs(n, kmax, _AskedSeen(seen, answers))

    return asked_dfs


@pytest.mark.parametrize(("n", "kmax"), [(2, 4096), (3, 2), (3, 3), (3, 4)])
def test_integer_sweep_stops_once_every_consistent_class_is_in(monkeypatch, n, kmax):
    # the map is the oracle's, yet the walk is left before its end: its seen
    # set is asked less often than that of a walk run to the end, which
    # fills seen the same way, on every yield
    full, seen = [], set()
    if n > 2:  # at n=2 the whole walk asks 4096 times per first entry
        for _, mask in _walk_asking(full)(n, kmax, seen):
            seen.add(mask)
    stopped = []
    monkeypatch.setattr(kernels, "_integer_dfs", _walk_asking(stopped))
    table = kernels.integer_canon_witnesses.__wrapped__(n, kmax)
    assert len(table) == kernels.CONSISTENT_CLASSES[n]
    if n == 2:
        assert table == {0: (1, 1)}
        assert len(stopped) == 1
    else:
        assert table == first_integer_per_class(n, kmax)
        assert len(stopped) < len(full)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_maps_move_each_arc_as_the_orbit_does(n):
    # relabeling r + 1 (r = 0 is the identity) sends arc k to arc maps[r][k]
    maps = kernels._pair_relabelings(n)
    assert len(maps) == factorial(n) - 1
    for k in range(n * (n - 1)):
        images = orbit(n, 1 << k, 2)
        assert images[0] == 1 << k
        assert list(images[1:]) == [1 << p[k] for p in maps]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bounds_file_each_triple_once_at_its_last_pair(n):
    # triple (x, y, z) reads d(x,z) <= d(x,y) + d(y,z), filed at the depth
    # of its last pair in lex order: a top v <= xy + yz iff that pair is xz,
    # else a floor v >= xz - (its other pair)
    pairs = ordered_pairs(n)
    expected = [(set(), set()) for _ in pairs]
    for pos, (x, y, z) in enumerate(ordered_triples(n)):
        xz, xy, yz = (pairs.index(p) for p in ((x, z), (x, y), (y, z)))
        if max(xz, xy, yz) == xz:
            expected[xz][0].add((xy, yz, 1 << pos))
        elif xy > yz:
            expected[xy][1].add((xz, yz, 1 << pos))
        else:
            expected[yz][1].add((xz, xy, 1 << pos))
    bounds = kernels._bounds_by_depth(n)
    assert [(set(tops), set(floors)) for tops, floors in bounds] == expected
    bits = [bit for tops, floors in bounds for (_, _, bit) in (*tops, *floors)]
    assert sorted(bits) == [1 << pos for pos in range(len(ordered_triples(n)))]


def test_integer_sweep_visits_one_matrix_per_orbit():
    # the walk over every valid matrix with entries <= 4 had 4,751,052
    # leaves; one per orbit of 24 relabelings is about 1/24 of that.  The
    # lex-leader comparisons cut branches only, so the leaves that pass them
    # are yielded too: 254,602, of which the 200,897 lex-least matrices
    # (the orbits) are a part
    leaves = sum(1 for _ in kernels._integer_dfs(4, 4, set()))
    assert leaves == 254_602
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
    # only the full permutations, with no length r, list relabelings;
    # ordered_tuples(n, k) calls permutations too, for the consistency
    # check's conflict table, and passes through
    def no_relabelings(iterable, r=None):
        if r is None:
            raise AssertionError("the relabelings were listed")
        return permutations(iterable, r)

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


def test_digraph_lookup_over_the_cap_is_refused_before_the_orbit_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("the orbit table was built")

    monkeypatch.setattr(encoding, "_orbit_table", no_table)
    with pytest.raises(ValueError, match="n=6 exceeds the cap of 5"):
        realize_digraph(Betweenness(6, 0))


@pytest.mark.parametrize(("n", "estimate"), [
    (6, "2\\^30 arc sets, one byte of marks each, 1 GiB"),
    (7, "2\\^42 arc sets, one byte of marks each, 4096 GiB"),
])
def test_digraph_cap_states_its_cost(n, estimate):
    with pytest.raises(ValueError, match=f"n={n} exceeds the cap of 5: {estimate}$"):
        kernels.digraph_canon_witnesses(n)


@pytest.mark.parametrize(("sweep", "args", "message"), [
    ("digraph", (121,), r"n=121 exceeds the cap of 5: 2\^14520 arc sets, .* 2\^14490 GiB$"),
    ("integer", (121, 2), r"n=121, K=2 means up to 2\^14520 matrices, over the cap"),
    ("digraph", (20,), r"2\^380 arc sets, one byte of marks each, 2\^350 GiB$"),
    ("digraph", (19,), f"2\\^342 arc sets, one byte of marks each, {2**312} GiB$"),
    ("integer", (10, 11), f"11\\^90 = {11**90} matrices, over the cap"),
])
def test_a_refusal_states_a_long_size_as_a_power(sweep, args, message):
    # Python prints no int of over 4,300 digits, as 2^14490 is; the
    # decimal is kept while it has under 100
    with pytest.raises(ValueError, match=message):
        getattr(kernels, f"{sweep}_canon_witnesses")(*args)


@pytest.mark.parametrize(("n", "kmax"), [(2, 0), (4, 0), (4, -1), (9, 0)])
def test_integer_bound_below_one_is_refused_before_any_table(monkeypatch, n, kmax):
    # ahead of both caps: n=9 alone would be over the relabeling cap
    def no_table(*args):
        raise AssertionError("a table was built")

    for name in ("_pair_relabelings", "_bounds_by_depth", "_integer_dfs"):
        monkeypatch.setattr(kernels, name, no_table)
    with pytest.raises(ValueError, match=f"^kmax must be at least 1, got {kmax}$"):
        kernels.integer_canon_witnesses(n, kmax)


@pytest.mark.parametrize("kmax", [2.5, "2"])
def test_integer_bound_must_be_an_integer(kmax):
    with pytest.raises(ValueError, match=f"^kmax must be an integer, got {kmax!r}$"):
        kernels.integer_canon_witnesses(4, kmax)


def test_integer_sweep_canonicalizes_only_unseen_masks(monkeypatch):
    # at (4, 3) the map's seen set is asked once per value of the last
    # entry, and each miss is yielded and canonicalized once, with no
    # lex-leader test of its own
    answers = []
    orbits = []
    orbit = kernels.orbit

    def counted(n, mask):
        orbits.append(mask)
        return orbit(n, mask)

    monkeypatch.setattr(kernels, "_integer_dfs", _walk_asking(answers))
    monkeypatch.setattr(kernels, "orbit", counted)
    table = kernels.integer_canon_witnesses.__wrapped__(4, 3)
    monkeypatch.undo()
    assert table == kernels.integer_canon_witnesses(4, 3)
    assert len(answers) == 14_553
    assert answers.count(False) == len(orbits) == len(set(orbits)) == 1_348


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shortest_paths_match_floyd_warshall_on_every_arc_set(n):
    pairs = ordered_pairs(n)
    connected = 0
    for arc_mask in range(1 << len(pairs)):
        arcs = [p for k, p in enumerate(pairs) if arc_mask >> k & 1]
        d = kernels.shortest_paths(n, arcs)
        assert d == floyd_warshall_distances(n, arcs)
        connected += d is not None
    assert connected == {2: 1, 3: 18, 4: 1606}[n]


NOT_STRONGLY_CONNECTED = "digraph is not strongly connected; distances would be infinite"


@pytest.mark.parametrize("n", [5, 6, 7])
def test_shortest_paths_match_floyd_warshall_on_random_digraphs(n):
    rng = random.Random(3000 + n)
    pairs = ordered_pairs(n)
    outcomes = set()
    for _ in range(150):
        density = rng.uniform(0.1, 0.6)
        arcs = [p for p in pairs if rng.random() < density]
        d = floyd_warshall_distances(n, arcs)
        assert kernels.shortest_paths(n, arcs) == d
        if d is None:
            with pytest.raises(ValueError, match=f"^{NOT_STRONGLY_CONNECTED}$"):
                digraph_distances(Digraph(n, arcs))
        else:
            assert digraph_distances(Digraph(n, arcs)).entries == tuple(map(tuple, d))
        outcomes.add(d is None)
    assert outcomes == {True, False}
