"""Exact rational linear programming: two-phase simplex, Bland's rule.

A problem is a tuple of integer rows over free variables and an integer
cost per variable to maximize; this module knows no problem shape of its
own (the realization LP is built in `realizability`).  A row is
(coefficients, relation, rhs): a tuple of one integer per variable, "=" or
"<=", and an integer rhs >= 0.  The instances are small (tens of variables
and rows): dense rows, least-index pivoting, no scaling heuristics.
Arithmetic is exact and fraction-free.  The tableau is integer rows T over
one common denominator D > 0 (entry value T / D), updated by
integer-preserving pivots whose division by the previous pivot is exact; a
negative pivot negates its row so that D stays positive.  Every comparison
decides as it would on the rational tableau, so the pivot sequence, and so
every result, is that of the rational simplex.  Only the optimum is a
`fractions.Fraction`; the vertex is read out as integer numerators over D.

Free variables are split as x = x+ - x-, but x-'s column is always minus
x+'s, so the tableau stores one column per free variable, standing for
whichever of x+ and x- it was last oriented to (Chvatal 1983, Linear
Programming, ch. 8).  The column ids 2k and 2k+1 are kept, so Bland's
least-index order, and with it every pivot, is that of the tableau that
stores both.

Both entries return (status, value, point): `_simplex_max(rows, cost)` the
vertex its Bland path reaches on every row, `_optimum(rows, cost)` that of
the rows left after substituting out the "=" rows with rhs 0, with the
eliminated columns solved back.  Neither changes the rows, so a caller may
build them once and share them.
"""

from fractions import Fraction
from itertools import chain, count
from math import gcd


def _optimum(rows, cost):
    """(status, value, point) of `_simplex_max(rows, cost)`, after a presolve
    (Andersen & Andersen 1995) that substitutes out each "=" row with rhs 0.

    In row order, such a row e, reduced by the pivots before it, becomes a
    pivot on its least column j with no objective coefficient (e[j] > 0
    after a sign flip), if it has one.  Every other row r is then reduced
    once by all pivots in order, r <- e[j]*r - r[j]*e (e's rhs is 0, so r's
    stays >= 0), taken over its gcd and projected onto the columns left; a row
    that reduces to 0 is dropped, or decides infeasibility.  The eliminated
    variables are determined by the others, so status and value stay; the
    point solves each from its pivot row (optimal, not always `_simplex_max`'s
    vertex).  The simplex gets each distinct row once, first-seen in the
    caller's row order; only its pivots and the point depend on that order.
    """
    pivots = []  # (j, e[j], e's nonzero (column, entry) pairs), e zero on earlier j's

    def reduce(r, rhs):
        # r <- e[j]*r - r[j]*e, on a copy of the shared row, in place when e[j] is 1
        r = list(r)
        for j, p, nonzero in pivots:
            f = r[j]
            if f:
                if p != 1:
                    r, rhs = [p * a for a in r], p * rhs
                for k, b in nonzero:
                    r[k] -= f * b
        return r, rhs

    others = []
    for r, rel, rhs in rows:
        if rel == "=" and not rhs:
            e = reduce(r, 0)[0]
            j = next((j for j, a in enumerate(e) if a and not cost[j]), None)
            if j is not None:
                g = gcd(*e) if e[j] > 0 else -gcd(*e)
                pivots.append((j, e[j] // g, [(k, a // g) for k, a in enumerate(e) if a]))
                continue
        others.append((r, rel, rhs))
    dropped = {j for j, _, _ in pivots}
    keep = [k for k in range(len(cost)) if k not in dropped]
    reduced = {}
    for r, rel, rhs in others:
        r, rhs = reduce(r, rhs)
        # a list first: a tuple of unknown length would not reuse a free one
        r = tuple([r[k] for k in keep])
        if not any(r):
            # 0 <= rhs holds (rhs >= 0); 0 = rhs needs rhs = 0
            if rhs and rel == "=":
                return "infeasible", None, None
            continue
        g = gcd(*r, rhs)
        if g > 1:
            r, rhs = tuple([a // g for a in r]), rhs // g
        reduced[r, rel, rhs] = None
    status, value, point = _simplex_max(list(reduced), [cost[k] for k in keep])
    if point is None:
        return status, value, None
    nums, denom = iter(point[0]), point[1]
    x = [0 if k in dropped else next(nums) for k in range(len(cost))]
    # postsolve: each eliminated column from its row e . x = 0, last pivot
    # first, as e is zero on the earlier pivots' columns (and x[j] is 0 yet);
    # where p does not divide s, every numerator and D are scaled by p / gcd
    for j, p, nonzero in reversed(pivots):
        s = sum(x[k] * a for k, a in nonzero)
        m = p // gcd(s, p)
        if m > 1:
            x, denom, s = [m * v for v in x], m * denom, m * s
        x[j] = -s // p
    return status, value, (tuple(x), denom)


def _simplex_max(rows, cost):
    """Maximize cost . x subject to the integer rows (arr, relation, rhs),
    rhs >= 0, with x free; cost holds one integer per variable.

    Returns (status, value, point): status "optimal", "infeasible" or
    "unbounded"; when optimal, value is the Fraction optimum and point is
    (numerators, D), one integer per variable over the common denominator
    D > 0, else both are None.  Two-phase simplex on the split nonnegative
    form x = x+ - x- with Bland's least-index pivot rule (finite by
    anti-cycling).  Column ids are 2k (x+) and 2k+1 (x-) for variable k,
    then one slack per "<=" row, then one artificial per "=" row, each in
    row order; Bland's rule and the ratio test's tie-break compare these ids.

    The tableau is fraction-free: integer rows T and one common denominator
    D > 0, so that entry (i, j) stands for T[i][j] / D.  A row holds one
    entry per nonbasic slot (a basic column is D in its own row and 0
    elsewhere, so it is not stored), then its right-hand side.  One more
    integer row over the same D holds the reduced costs, and minus the
    objective value last.

    A free variable has one slot, whatever the basis: x-'s column is always
    minus x+'s, and pivots are linear in the columns, so one stored column
    stands for both, under the id of the one it holds.  A slot of variable k
    offers id 2k if x+'s reduced cost is positive and 2k+1 if it is
    negative; the least offer enters, and if it is the twin of the stored
    id the slot is negated first.  When x+ is basic, x-'s column is minus
    its unit column: reduced cost 0, so Bland's rule never enters it, and 0
    in every other row, so driving an artificial out never enters it either;
    it needs no slot (nor does x+ when x- is basic).  So every pivot is the
    one the tableau with both columns of each pair would take.

    A pivot on (r, c) with p = T[r][c] negates row r first if p < 0.  It
    then replaces every other row k by (p*T[k] - T[k][c]*T[r]) // D, keeps
    row r and sets D = p; slot c passes to the leaving variable, whose
    column entries follow from its old unit column by the same rule; an
    artificial that leaves the basis is dropped, as it may never enter.  The
    division is exact: every entry is, up to one common sign, a minor of the
    starting tableau, and D is the previous pivot (Edmonds 1967; Bareiss
    1968).  So when p == D, D divides T[k][c]*T[r] too, and the update is
    T[k] - T[k][c]*T[r] // D, which changes only the entries where T[r] is
    nonzero: the same integers with less work.  Since D > 0, each sign
    test, and each ratio comparison done by cross-multiplying (a/b < c/d
    iff a*d < c*b for b, d > 0), decides as on the rational tableau, so the
    pivot sequence is the rational simplex's, and the point is read off the
    final rows as they stand: variable k is x+ minus x-, over D.
    """
    nvars = len(cost)
    free_end = 2 * nvars  # ids below are x+/x- of a free variable

    first_art = free_end + sum(rel == "<=" for _, rel, _ in rows)
    end = free_end + len(rows)  # every row has a slack or an artificial
    # every row starts with its slack or artificial basic
    slacks, artificials = count(free_end), count(first_art)
    basis = [next(slacks if rel == "<=" else artificials) for _, rel, _ in rows]
    nonbasic = list(range(0, free_end, 2))
    tableau = [[*arr, rhs] for arr, _, rhs in rows]
    denom = 1

    def objective_row(by_id):
        obj = [denom * by_id[j] for j in nonbasic] + [0]
        for i, row in enumerate(tableau):
            cb = by_id[basis[i]]
            if cb:
                obj = [z - cb * v for z, v in zip(obj, row)]
        return obj

    def orient(s, j, obj):
        # let slot s hold column j: negate it if j is the twin of its id
        if nonbasic[s] != j:
            for row in tableau:
                row[s] = -row[s]
            obj[s] = -obj[s]
            nonbasic[s] = j

    def pivot(r, c, obj):
        nonlocal denom
        pivot_row = tableau[r]
        p = pivot_row[c]
        flip = p < 0
        if flip:
            tableau[r] = pivot_row = [-v for v in pivot_row]
            p = -p
        d = denom
        if p == d:
            # then d divides f*b, as it divides p*a - f*b, and the update is
            # a - f*b // d: only the entries where b != 0 change
            nonzero = [(k, b) for k, b in enumerate(pivot_row) if b]
        # not a (*tableau, obj) tuple: freed tuples of up to 20 items stay
        # on free lists, which raised the peak memory
        for row in chain(tableau, (obj,)):
            f = row[c]
            if f:
                if row is pivot_row:
                    continue
                if p == d:
                    for k, b in nonzero:
                        row[k] -= f * b // d
                else:
                    row[:] = [(p * a - f * b) // d for a, b in zip(row, pivot_row)]
                row[c] = f if flip else -f
            elif p != d:
                row[:] = [a * p // d for a in row]
        pivot_row[c] = -d if flip else d
        denom = p
        basis[r], nonbasic[c] = nonbasic[c], basis[r]
        if nonbasic[c] >= first_art:
            del nonbasic[c]
            for row in tableau:
                del row[c]
            del obj[c]

    def bland(obj):
        # pivot until optimal
        while True:
            # a free slot offers x- (its twin) when x+'s reduced cost is < 0
            offer = min(
                (
                    (j if z > 0 else j ^ 1, s)
                    for s, (j, z) in enumerate(zip(nonbasic, obj))
                    if z > 0 or (z and j < free_end)
                ),
                default=None,
            )
            if offer is None:
                return "optimal"
            j, enter = offer
            orient(enter, j, obj)
            leave = None
            for i, row in enumerate(tableau):
                t = row[enter]
                if t <= 0:
                    continue
                if leave is not None:
                    # row i leaves instead if row[-1] / t is smaller, or
                    # equal with a smaller basic column
                    lhs, rhs = row[-1] * den, num * t
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, num, den = i, row[-1], t
            if leave is None:
                return "unbounded"
            pivot(leave, enter, obj)

    if first_art < end:
        obj = objective_row([0] * first_art + [-1] * (end - first_art))
        bland(obj)
        if obj[-1] > 0:  # the phase-1 optimum -obj[-1] / D is negative
            return "infeasible", None, None
        # drive zero-level artificials out of the basis, entering the least
        # id with a nonzero entry (x+ of a free pair); drop redundant rows
        # (an artificial's starting column is a unit column, so D stays the
        # common denominator of the remaining rows)
        i = 0
        while i < len(tableau):
            if basis[i] >= first_art:
                row = tableau[i]
                offer = min(
                    ((j & ~1 if j < free_end else j, s) for s, j in enumerate(nonbasic) if row[s]),
                    default=None,
                )
                if offer is None:
                    del tableau[i]
                    del basis[i]
                    continue
                j, enter = offer
                orient(enter, j, obj)
                pivot(i, enter, obj)
            i += 1

    cost2 = [0] * first_art
    for k, c in enumerate(cost):
        cost2[2 * k] = c
        cost2[2 * k + 1] = -c
    obj = objective_row(cost2)
    if bland(obj) == "unbounded":
        return "unbounded", None, None
    col_value = {basis[i]: row[-1] for i, row in enumerate(tableau)}
    point = [col_value.get(2 * k, 0) - col_value.get(2 * k + 1, 0) for k in range(nvars)]
    return "optimal", Fraction(-obj[-1], denom), (tuple(point), denom)
