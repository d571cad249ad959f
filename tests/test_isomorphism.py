import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlines.core import Betweenness, consistency_check, line_set
from qmlines.encoding import RELABELING_CAP, nth_permutation, orbit, triple_count
from qmlines.fixtures import q4_betweenness
from qmlines.isomorphism import (
    Relabeling,
    apply_relabeling,
    canonical_form,
    isomorphism_witness,
)

from oracles import consistent_masks

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
    # apply_relabeling maps triples directly, so it checks the orbit table
    rng = random.Random(n)
    mask = rng.getrandbits(triple_count(n))
    b = Betweenness(n, mask)
    perms = list(permutations(range(n)))
    images = [apply_relabeling(b, Relabeling(p)).mask for p in perms]
    assert orbit(n, mask) == images
    assert images[0] == mask
    assert [nth_permutation(n, i) for i in range(len(perms))] == perms


class TestRelabelingCap:
    # 9! = 362,880 relabelings: refused before any table is built
    def test_canonical_form_refuses_nine_points(self):
        message = f"9! = 362880 relabelings, over the cap of {RELABELING_CAP}"
        with pytest.raises(ValueError, match=message):
            canonical_form(Betweenness(9, 0))

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


# n=4 and n=5 use the 8-bit orbit table, n=6 the 1-bit one; deadline=None
# because the first example at each n builds that table
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
