"""The semantics of the public record types, and the import cost they keep low.

Plain records are NamedTuples; the types that validate or derive fields are
slotted classes.  Either way a record is immutable, reads back as its
constructor call, and is compared and hashed by its constructor's fields
only.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qmlines
from qmlines.claims import Claim
from qmlines.core import (
    Betweenness,
    DistanceMatrix,
    LineSet,
    ValidationResult,
    Violation,
    line_set,
)
from qmlines.enumeration import ClassificationRecord, TheoremReport
from qmlines.fixtures import q4_betweenness
from qmlines.isomorphism import Relabeling, canonical_form
from qmlines.kernels import integer_canon_witnesses
from qmlines.realizability import (
    Digraph,
    FeasibilityOutcome,
    LinearSystem,
    _matrix_from_flat,
    realize,
    realize_bounded_integer,
)

# (record, a field to assign to, its repr), one row per public record type
RECORDS = [
    (
        Violation("diagonal", (0,), "d(a,a) = 1 != 0"),
        "kind",
        "Violation(kind='diagonal', points=(0,), detail='d(a,a) = 1 != 0')",
    ),
    (ValidationResult(True, ()), "ok", "ValidationResult(ok=True, violations=())"),
    (
        line_set(Betweenness(2, 0)),
        "lines",
        "LineSet(n=2, by_pair={(0, 1): frozenset({0, 1}), (1, 0): frozenset({0, 1})}, "
        "lines=frozenset({frozenset({0, 1})}))",
    ),
    (
        FeasibilityOutcome("feasible", Fraction(0), None),
        "status",
        "FeasibilityOutcome(status='feasible', optimal_slack=Fraction(0, 1), witness=None)",
    ),
    (
        ClassificationRecord(
            canonical=Betweenness(3, 0),
            class_size=1,
            line_count=3,
            has_universal=False,
            satisfies_dbe=True,
            realizable_quasi=True,
            realizable_metric=True,
            realizable_int={2: True},
            realizable_digraph=True,
            witness=None,
        ),
        "class_size",
        "ClassificationRecord(canonical=Betweenness(n=3, mask=0), class_size=1, line_count=3, "
        "has_universal=False, satisfies_dbe=True, realizable_quasi=True, "
        "realizable_metric=True, realizable_int={2: True}, realizable_digraph=True, "
        "witness=None)",
    ),
    (
        TheoremReport(4, (), False),
        "matches_q4",
        "TheoremReport(n=4, exceptional_classes=(), matches_q4=False)",
    ),
    (
        Claim("q4-lines", "Q4 line set", True, "ok"),
        "passed",
        "Claim(ident='q4-lines', description='Q4 line set', passed=True, detail='ok')",
    ),
    (Betweenness(3, 5), "mask", "Betweenness(n=3, mask=5)"),
    (
        DistanceMatrix(("a", "b"), ((0, 1), (Fraction(3, 2), 0))),
        "entries",
        "DistanceMatrix(labels=('a', 'b'), entries=((Fraction(0, 1), Fraction(1, 1)), "
        "(Fraction(3, 2), Fraction(0, 1))))",
    ),
    (Relabeling((1, 0)), "perm", "Relabeling(perm=(1, 0))"),
    (Digraph(2, [(0, 1)]), "arcs", "Digraph(n=2, arcs=frozenset({(0, 1)}))"),
    (
        LinearSystem(Betweenness(3, 0), "quasi"),
        "variant",
        "LinearSystem(relation=Betweenness(n=3, mask=0), variant='quasi')",
    ),
]


@pytest.mark.parametrize(
    "record, name, text", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS]
)
class TestRecordSemantics:
    def test_fields_and_new_attributes_are_read_only(self, record, name, text):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before

    def test_repr_is_the_constructor_call(self, record, name, text):
        assert repr(record) == text

    def test_a_pickled_copy_is_equal(self, record, name, text):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        if not isinstance(record, (LineSet, ClassificationRecord)):  # dict fields
            assert hash(copy) == hash(record)


@pytest.mark.parametrize(
    "make, derived",
    [
        (lambda: DistanceMatrix(("a", "b"), ((0, 1), (2, 0))), "_scaled"),
        (lambda: LinearSystem(Betweenness(3, 0), "metric"), "constraints"),
    ],
)
def test_equality_and_hash_ignore_derived_fields(make, derived):
    a, b = make(), make()
    object.__setattr__(b, derived, ())
    assert getattr(a, derived) != getattr(b, derived)
    assert a == b and hash(a) == hash(b)


def test_a_set_class_key_changes_no_comparison_repr_copy_or_pickle():
    keyed, _ = canonical_form(Betweenness(4, 6))
    read = Betweenness(4, 6)
    assert read.class_key == keyed.mask
    for b in (keyed, read):
        fresh = Betweenness(b.n, b.mask)
        assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
        assert pickle.dumps(b) == pickle.dumps(fresh)
        for c in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert c == b and hash(c) == hash(b) and repr(c) == repr(b)
            assert c.class_key == b.class_key


def test_integer_matrices_equal_the_same_matrices_given_as_fractions():
    # the int:K lookups and LP vertices build their witnesses from ints,
    # which take the one rational path of DistanceMatrix, as Fractions do
    witnesses = [realize_bounded_integer(canonical_form(q4_betweenness())[0], 3)]
    witnesses.append(realize(q4_betweenness()).witness)
    witnesses += [_matrix_from_flat(3, entries) for entries in integer_canon_witnesses(3, 4).values()]
    for fast in witnesses:
        general = DistanceMatrix(fast.labels, fast.entries)
        assert fast == general and hash(fast) == hash(general) and repr(fast) == repr(general)
        assert fast._scaled == general._scaled
        assert pickle.dumps(fast) == pickle.dumps(general)
        for c in (copy.copy(fast), copy.deepcopy(fast), pickle.loads(pickle.dumps(fast))):
            assert c == general and repr(c) == repr(general) and c._scaled == general._scaled


def test_validated_types_compare_by_type_too():
    assert Betweenness(3, 0) != Digraph(3, ())
    assert Betweenness(3, 0) != (3, 0)


def _after_fresh_import(expr: str) -> str:
    """What `print(expr)` writes in a fresh interpreter after `import qmlines`
    and `import qmlines.cli`.  Run without site, so that no installed .pth
    file loads a module first."""
    src = Path(qmlines.__file__).resolve().parents[1]
    code = f"import sys, qmlines, qmlines.cli; print({expr})"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def _loaded_by_fresh_import(names) -> str:
    """Which of `names` a fresh interpreter holds after the imports."""
    return _after_fresh_import(f"sorted({set(names)!r} & sys.modules.keys())")


def test_import_loads_neither_dataclasses_nor_inspect():
    """`import qmlines` and `import qmlines.cli` stay clear of dataclasses,
    which pulls in inspect, ast, dis and tokenize: three quarters of the
    import time of every fresh process."""
    assert _loaded_by_fresh_import({"dataclasses", "inspect"}) == "[]"


def test_import_loads_no_pathlib():
    """Each CLI command is a fresh process, and pathlib costs about a sixth
    of `import qmlines.cli`; the CLI reads its files with open()."""
    assert _loaded_by_fresh_import({"pathlib"}) == "[]"


def test_import_loads_no_string():
    """The string module cost about a tenth of `import qmlines` for the one
    alphabet that default labels read."""
    assert _loaded_by_fresh_import({"string"}) == "[]"


def test_import_builds_no_zero_slack_table():
    """The zero-slack check's rule instances and tight masks are built on
    the first 4-point quasi query, never by `import qmlines`."""
    r = "qmlines.realizability"
    sizes = f"{r}._rule_instances.cache_info().currsize, {r}._zero_tight_masks.cache_info().currsize"
    assert _after_fresh_import(sizes) == "0 0"
