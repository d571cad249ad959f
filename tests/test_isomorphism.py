import copy
import hashlib
import pickle
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlines import encoding
from qmlines.core import Betweenness, consistency_check, line_set
from qmlines.encoding import (
    RELABELING_CAP,
    conflict_masks,
    orbit,
    orbit_class,
    ordered_tuples,
    triple_count,
)
from qmlines.fixtures import q4_betweenness
from qmlines.isomorphism import (
    Relabeling,
    apply_relabeling,
    canonical_form,
    isomorphism_witness,
)

from conftest import random_consistent
from oracles import consistent_masks, orbit_by_relabeling

# minimum encoding of Q4's betweenness class over all 24 relabelings,
# brute-forced by an independent script and frozen here
Q4_CANONICAL_ENCODING = 271392

# the two relations from the 4-point uniqueness argument, on points a,b,c,d
CASE_B_IN_L2 = [(0, 1, 2), (1, 0, 3), (2, 0, 1), (3, 1, 0)]  # abc, bad, cab, dba
CASE_B_IN_L3 = [(0, 1, 2), (1, 2, 0), (2, 1, 3), (3, 2, 1)]  # abc, bca, cbd, dcb


def perm_letters(mapping: str) -> Relabeling:
    # "qprs" means a->q, b->p, c->r, d->s in Q4's index order p,s,q,r
    order = {"p": 0, "s": 1, "q": 2, "r": 3}
    return Relabeling(tuple(order[ch] for ch in mapping))


class TestRelabeling:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Relabeling((0, 0, 1))

    # (0, 1, 2.0) sorts equal to [0, 1, 2], so a sorted-range check passes it
    @pytest.mark.parametrize("perm", [(0, 1, 2.0), (0.0, 1, 2), ("0", 1, 2)])
    def test_rejects_non_integer_images(self, perm):
        with pytest.raises(ValueError, match="^relabeling image must be an integer, got "):
            Relabeling(perm)

    @pytest.mark.parametrize(
        "point, message",
        [
            (-1, "point -1 out of range for n=3"),
            (3, "point 3 out of range for n=3"),
            (2.0, "point must be an integer, got 2.0"),
        ],
    )
    def test_call_refuses_bad_points(self, point, message):
        f = Relabeling((1, 0, 2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            f(point)
        assert [f(i) for i in range(3)] == [1, 0, 2]

    def test_identity_fixes_everything(self):
        b = q4_betweenness()
        assert apply_relabeling(b, Relabeling(tuple(range(4)))) == b

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            apply_relabeling(Betweenness(3, 0), Relabeling(tuple(range(4))))


class TestApplyRelabeling:
    def test_uniqueness_case_one_maps_onto_q4(self):
        # a->p, b->q, c->r, d->s
        b = Betweenness.from_triples(4, CASE_B_IN_L2)
        f = perm_letters("pqrs")
        assert apply_relabeling(b, f) == q4_betweenness()

    def test_uniqueness_case_two_maps_onto_q4(self):
        # b->p, c->q, a->r, d->s
        b = Betweenness.from_triples(4, CASE_B_IN_L3)
        f = perm_letters("rpqs")
        assert apply_relabeling(b, f) == q4_betweenness()

    def test_cardinality_preserved(self):
        b = Betweenness.from_triples(4, CASE_B_IN_L2)
        for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)]:
            assert len(apply_relabeling(b, Relabeling(perm))) == len(b)


class TestCanonicalForm:
    def test_q4_golden_encoding(self):
        canon, _ = canonical_form(q4_betweenness())
        assert canon.mask == Q4_CANONICAL_ENCODING

    def test_invariant_over_the_whole_orbit(self):
        b = q4_betweenness()
        for perm in permutations(range(4)):
            image = apply_relabeling(b, Relabeling(perm))
            assert canonical_form(image)[0].mask == Q4_CANONICAL_ENCODING

    def test_empty_relation_is_its_own_canonical_form(self):
        canon, f = canonical_form(Betweenness(4, 0))
        assert canon.mask == 0
        assert f.perm == (0, 1, 2, 3)

    def test_idempotent(self):
        canon, _ = canonical_form(q4_betweenness())
        again, f = canonical_form(canon)
        assert again == canon
        # the canonical form is reached by the lex-least minimizer
        assert apply_relabeling(canon, f) == canon

    def test_output_carries_its_own_mask_as_class_key(self):
        # set by canonical_form before any read, whatever the input's mask
        rng = random.Random(4)
        masks = rng.sample(list(consistent_masks(4)), 40)
        masks += [rng.getrandbits(triple_count(4)) for _ in range(10)]
        canons = [canonical_form(Betweenness(4, mask))[0] for mask in masks]
        assert all(canon._class_key == canon.mask for canon in canons)
        assert any(canon.mask != mask for canon, mask in zip(canons, masks))

    def test_achieving_relabeling_is_returned(self):
        b = q4_betweenness()
        canon, f = canonical_form(b)
        assert apply_relabeling(b, f) == canon


class TestIsomorphismWitness:
    def test_uniqueness_case_witness(self):
        b = Betweenness.from_triples(4, CASE_B_IN_L2)
        f = isomorphism_witness(b, q4_betweenness())
        assert f is not None
        assert apply_relabeling(b, f) == q4_betweenness()

    def test_different_cardinalities_not_isomorphic(self):
        b1 = Betweenness.from_triples(3, [(0, 1, 2)])
        b2 = Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)])
        assert isomorphism_witness(b1, b2) is None

    def test_self_witness_is_identity(self):
        b = q4_betweenness()
        f = isomorphism_witness(b, b)
        assert f is not None and f.perm == (0, 1, 2, 3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            isomorphism_witness(Betweenness(3, 0), Betweenness(4, 0))


def all_consistent_three_point_relations():
    return [Betweenness(3, m) for m in consistent_masks(3)]


# SHA-256 over "mask:canonical mask:relabeling" for all 18^4 raw consistent
# relations on 4 points; fixes the lex-first tie-break among minimizers,
# which the golden encoding alone does not
CANONICAL_FORMS_N4_SHA256 = "33b79d2322b471861471431e18fe93a2aa9e5a95e7e5b343e15629266704f8bc"


def test_canonical_forms_are_pinned():
    digest = hashlib.sha256()
    for mask in consistent_masks(4):
        canon, f = canonical_form(Betweenness(4, mask))
        digest.update(f"{mask}:{canon.mask}:{','.join(map(str, f.perm))}\n".encode())
    assert digest.hexdigest() == CANONICAL_FORMS_N4_SHA256


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_orbit_lists_every_relabeling_in_permutation_order(n):
    # apply_relabeling maps triples directly, so it checks orbit on its own
    rng = random.Random(n)
    mask = rng.getrandbits(triple_count(n))
    b = Betweenness(n, mask)
    perms = list(permutations(range(n)))
    images = [apply_relabeling(b, Relabeling(p)).mask for p in perms]
    assert orbit(n, mask) == images
    assert images[0] == mask
    assert list(encoding._relabelings(n)) == perms


# (k, n, lane of the orbit table): packed 4-byte ("I") and 8-byte ("Q")
# lanes, and None where no table is built and an orbit reads its members:
# past n=5 the rows would pass 2^24 bits, for triples and for pairs
ORBIT_TABLE_REGIMES = [(3, 3, "I"), (3, 4, "I"), (3, 5, "Q"), (3, 6, None)]
ORBIT_TABLE_REGIMES += [(2, n, "I") for n in range(3, 6)] + [(2, 6, None), (2, 7, None)]


@pytest.mark.parametrize("k, n, lane", ORBIT_TABLE_REGIMES)
def test_orbit_matches_relabeling_each_member(k, n, lane):
    # the top bit (n=5 triples: bit 59, n=6 pairs: bit 29) sits in the
    # highest lane bits a packed row uses
    table = encoding._orbit_table(n, k)
    assert (table[0] if table else None) == lane
    nbits = len(ordered_tuples(n, k))
    top = 1 << nbits - 1
    rng = random.Random(2900 + 10 * n + k)
    masks = [0, top, (1 << nbits) - 1]
    masks += [rng.getrandbits(nbits) for _ in range(3)]
    masks += [rng.getrandbits(nbits) | top for _ in range(2)]
    for mask in masks:
        assert orbit(n, mask, k) == orbit_by_relabeling(n, mask, k)


# the largest n the relabeling cap admits, with no table: the oracle relabels
# each member of a sparse mask under all 5,040 or 40,320 relabelings
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("k", [2, 3])
def test_orbit_past_the_packed_sizes_matches_relabeling_each_member(n, k):
    assert encoding._orbit_table(n, k) is None
    nbits = len(ordered_tuples(n, k))
    rng = random.Random(4900 + 10 * n + k)
    masks = [0, 1 << nbits - 1]
    masks += [sum(1 << i for i in rng.sample(range(nbits), members)) for members in (1, 2, 3)]
    for mask in masks:
        assert orbit(n, mask, k) == orbit_by_relabeling(n, mask, k)


def test_cold_orbit_at_eight_points_builds_no_table():
    # a table of every triple's 40,320 images held about 108 MB; the
    # relabelings and the one orbit take under a third of the limit
    encoding._orbit_table.cache_clear()
    encoding._relabelings.cache_clear()
    tracemalloc.start()
    try:
        images = orbit(8, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(images) == 40_320 and images[0] == 1
    assert peak < 32 * 2**20


# orbit_class reads the orbit size off the stabilizer count; a mask ORed
# with its image under a transposition is fixed by that transposition, so
# the draws meet stabilizers larger than the identity
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [3, 2])
def test_stabilizer_count_gives_the_orbit_size(n, k):
    rng = random.Random(100 * n + k)
    nbits = len(ordered_tuples(n, k))
    perms = list(permutations(range(n)))
    masks = [0, (1 << nbits) - 1]
    for _ in range(20):
        mask = rng.getrandbits(nbits)
        x, y = rng.sample(range(n), 2)
        swap = list(range(n))
        swap[x], swap[y] = y, x
        masks += [mask, mask | orbit(n, mask, k)[perms.index(tuple(swap))]]
    sizes = []
    for mask in masks:
        images = orbit(n, mask, k)
        assert orbit_class(images) == (min(images), len(set(images)))
        sizes.append(len(set(images)))
    assert min(sizes) == 1
    assert any(1 < size < len(perms) for size in sizes)


# a relation's class key is one orbit's least image, kept after the first
# read; the draws hold consistent and inconsistent relations, and n=6 reads
# the orbit of each relation's members, with no table
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_key_is_the_least_orbit_image(n):
    rng = random.Random(600 + n)
    clash = 1 | conflict_masks(n)[0]  # triple 0 with both its excluded companions
    relations = [random_consistent(n, rng) for _ in range(8)]
    relations += [Betweenness(n, rng.getrandbits(triple_count(n)) | clash) for _ in range(8)]
    assert {consistency_check(b) for b in relations} == {True, False}
    for b in relations:
        key = min(orbit(n, b.mask))
        assert b.class_key == key
        assert b._class_key == key


class TestUncheckedRelabelings:
    """canonical_form and isomorphism_witness build their Relabeling without
    __init__'s check, from the cached relabelings; it must be
    indistinguishable from a checked one."""

    @staticmethod
    def outputs():
        """(n, index of the relabeling in lex order, relabeling returned)."""
        rng = random.Random(2920)
        found = []
        for n in (3, 4, 5, 6):
            for _ in range(4):
                b = Betweenness(n, rng.getrandbits(triple_count(n)))
                images = orbit(n, b.mask)
                canon, f = canonical_form(b)
                found.append((n, images.index(canon.mask), f))
                other = apply_relabeling(b, Relabeling(tuple(rng.sample(range(n), n))))
                found.append((n, images.index(other.mask), isomorphism_witness(b, other)))
        return found

    def test_equal_to_the_checked_relabeling(self):
        for n, i, f in self.outputs():
            checked = Relabeling(encoding._relabelings(n)[i])
            assert f == checked
            assert hash(f) == hash(checked)
            assert repr(f) == repr(checked)
            assert type(f) is Relabeling and type(f.perm) is tuple and f.n == n

    def test_copies_and_pickles_go_through_the_checked_constructor(self, monkeypatch):
        found = self.outputs()
        calls = []
        init = Relabeling.__init__

        def counted(self, perm):
            calls.append(perm)
            init(self, perm)

        monkeypatch.setattr(Relabeling, "__init__", counted)
        for _, _, f in found:
            calls.clear()
            for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert copied == f and type(copied) is Relabeling
            assert calls == [f.perm] * 3


class TestRelabelingCap:
    # 9! = 362,880 relabelings: refused before any table is built
    def test_canonical_form_refuses_nine_points(self):
        message = f"9! = 362880 relabelings, over the cap of {RELABELING_CAP}"
        with pytest.raises(ValueError, match=message):
            canonical_form(Betweenness(9, 0))

    # 1600! has 4,437 digits, more than str() prints: the count is written
    # as a power of 2 past 99 digits
    def test_a_huge_count_is_stated_as_a_power(self):
        message = r"1600! = about 2\^14728.5 relabelings, over the cap of 40320 \(8!\)$"
        with pytest.raises(ValueError, match=message):
            encoding._relabelings(1600)

    # factorial(200000) took 0.44 s, and the orbit table computed it too:
    # past 69! the count's size comes from n
    @pytest.mark.parametrize(
        "refuse",
        [lambda: encoding._relabelings(200000), lambda: canonical_form(Betweenness(200000, 0))],
        ids=["relabelings", "canonical_form"],
    )
    def test_a_huge_count_is_not_computed(self, monkeypatch, refuse):
        monkeypatch.setattr(encoding, "factorial", lambda n: pytest.fail(f"{n}! was computed"))
        with pytest.raises(ValueError, match=r"200000! = about 2\^3233399.2 relabelings"):
            refuse()

    def test_isomorphism_witness_refuses_nine_points(self):
        with pytest.raises(ValueError, match="over the cap"):
            isomorphism_witness(Betweenness(9, 0), Betweenness(9, 0))

    def test_apply_relabeling_needs_no_table(self):
        b = Betweenness.from_triples(9, [(0, 1, 8)])
        image = apply_relabeling(b, Relabeling(tuple(range(8, -1, -1))))
        assert image.triples == ((8, 7, 0),)


def test_canonical_equality_iff_witness_exists_on_three_points():
    relations = all_consistent_three_point_relations()
    assert len(relations) == 18
    for b1 in relations:
        for b2 in relations:
            same_canon = canonical_form(b1)[0] == canonical_form(b2)[0]
            assert same_canon == (isomorphism_witness(b1, b2) is not None)


# n=4 and n=5 read the packed orbit table, n=6 each relation's members;
# deadline=None because the first example at each n builds the table or the
# relabelings
@settings(max_examples=60, deadline=None)
@given(st.sampled_from((4, 5, 6)), st.data())
def test_canonical_equality_iff_witness_exists_sampled_four_points(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << triple_count(n)) - 1))
    perm = data.draw(st.permutations(range(n)))
    b1 = Betweenness(n, mask)
    b2 = apply_relabeling(b1, Relabeling(tuple(perm)))
    assert canonical_form(b1)[0] == canonical_form(b2)[0]
    assert isomorphism_witness(b1, b2) is not None


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=(1 << 24) - 1),
    st.integers(min_value=0, max_value=(1 << 24) - 1),
)
def test_distinct_canonical_forms_mean_no_witness(mask1, mask2):
    b1, b2 = Betweenness(4, mask1), Betweenness(4, mask2)
    if canonical_form(b1)[0] != canonical_form(b2)[0]:
        assert isomorphism_witness(b1, b2) is None


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=(1 << 24) - 1), st.permutations(range(4)))
def test_relabeling_invariants(mask, perm):
    b = Betweenness(4, mask)
    image = apply_relabeling(b, Relabeling(tuple(perm)))
    assert len(image) == len(b)
    assert consistency_check(image) == consistency_check(b)
    assert line_set(image).line_count == line_set(b).line_count
    assert line_set(image).has_universal == line_set(b).has_universal


def test_mask_width_for_four_points():
    assert triple_count(4) == 24
