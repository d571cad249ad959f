"""A fixed pure-Python task that gauges the machine's speed during a run.

On a shared host the speed of a vCPU drifts by up to 2x for minutes at a
time, with no steal time to show for it (CPU time drifts exactly as wall time
does) and no hardware counters to count instructions instead.  A run of a few
tens of seconds cannot average that out, so the same code spreads by 0.2 to
0.4 of its median from run to run.  The benchmark therefore runs this task
between items throughout the timed loop and gates the loop's times in units
of the task's mean duration in the same run ("ref"); the seconds are printed
too.  Most of the drift slows the task and the program alike and cancels in
the ratio.

The task mixes, in about equal time, the two kinds of work qmlines does:
exact ``Fraction`` elimination, like the LP, and a pruned depth-first search
over small integers with bit masks, like the integer and digraph sweeps.  It
imports nothing from qmlines, so a change to qmlines cannot change it.  It
takes about 25 ms on a 2-vCPU Xeon VM.
"""

from fractions import Fraction
from time import perf_counter

SIZE = 9
ELIMINATIONS = 5  # so that Fraction work and integer work take about equal time
SEARCH_SIZE, SEARCH_TOP = 7, 3
_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(SIZE)) for i in range(SIZE)
)


def _eliminate() -> Fraction:
    """Determinant of the fixed matrix by Gaussian elimination."""
    a = [list(row) for row in _MATRIX]
    det = Fraction(1)
    for c in range(SIZE):
        p = next(i for i in range(c, SIZE) if a[i][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, SIZE):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _search() -> int:
    """Depth-first search over vectors of small integers, pruned by triangle
    checks, with a bit mask per leaf kept in a set."""
    checks = [
        (a, b, c)
        for a in range(SEARCH_SIZE)
        for b in range(SEARCH_SIZE)
        for c in range(b + 1, SEARCH_SIZE)
        if a != b and a != c
    ]
    by_depth = [[t for t in checks if max(t) == d] for d in range(SEARCH_SIZE)]
    vals = [0] * SEARCH_SIZE
    seen = set()
    depth = 0
    while depth >= 0:
        vals[depth] += 1
        if vals[depth] > SEARCH_TOP:
            vals[depth] = 0
            depth -= 1
            continue
        ok = True
        for a, b, c in by_depth[depth]:
            if vals[a] > vals[b] + vals[c]:
                ok = False
                break
        if not ok:
            continue
        if depth == SEARCH_SIZE - 1:
            mask = 0
            for bit, (a, b, c) in enumerate(checks):
                if vals[a] == vals[b] + vals[c]:
                    mask |= 1 << bit
            seen.add(mask)
        else:
            depth += 1
    return len(seen)


_EXPECTED = (_eliminate(), _search())


def run_once() -> float:
    """Run the task once; return its duration in seconds."""
    start = perf_counter()
    result = ([_eliminate() for _ in range(ELIMINATIONS)][-1], _search())
    seconds = perf_counter() - start
    if result != _EXPECTED:
        raise RuntimeError("reference task gave a different result")
    return seconds
