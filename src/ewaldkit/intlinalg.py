"""Exact integer and rational linear algebra for lattice computations.

Everything operates on plain tuples of Python ints (vectors) and tuples of
such tuples (matrices, row-major).  Rational results use fractions.Fraction.
No floating point anywhere.

Three routines do all the elimination over Q and over Z:

- _reduce, fraction-free Gauss-Jordan elimination (Bareiss), answers every
  question over Q: det, rank, solve_rational and fraction_free_solve, the
  inverses (scaled_inverse, inverse_unimodular), and in polytope.py the
  starting rows and rays of the double-description core and the particular
  solution of a face chart.  det and fraction_free_solve gate their rows
  and hand them to the ungated cores _det and _solve, which counting's
  volume and solve_rational call directly on rows they build from ints.
  The vertex cones of a simple polytope take none of it: a vertex chart
  reads its edge rays off its neighbours in the vertex masks, and the
  lattice search's frame off vertex 0's chart; smoothness is read off
  vertex 0's rays and the margins on each edge to an earlier vertex; a
  non-simple vertex cone takes one scaled_inverse.
- _extend_saturated adds one row to a saturated set by Euclid's algorithm on
  the functionals vanishing on the set; is_saturated and the unimodular-basis
  search of the Ewald checks are chains of it.
- hermite_normal_form applies each unimodular row operation once, to the
  rows of [m | I], and splits its transform U off the identity block at the
  end: _integer_solutions reads one Hermite form for a kernel basis and an
  integer solution together, and kernel_basis and every face chart read
  _integer_solutions.

Every argument that is lattice data (a matrix or vector of these routines,
a facet normal, a dimension, a displacement, a probe direction, a family
argument) passes one gate, _integer, which _as_mat and _as_vec apply to each
entry that is not an int already: an integral value of any numeric type
becomes an int, and any other value is refused, never truncated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

Vec = tuple  # tuple of ints
Mat = tuple  # tuple of Vec rows

__all__ = [
    "primitive_part",
    "det",
    "hermite_normal_form",
    "is_saturated",
    "kernel_basis",
    "solve_rational",
    "fraction_free_solve",
    "scaled_inverse",
    "inverse_unimodular",
    "mat_vec",
    "mat_mul",
    "scan_key",
    "transpose",
    "rank",
]


def _integer(x, what="value") -> int:
    """x as an int when it is integral (2, 2.0, Fraction(4, 2)); raise
    ValueError rather than truncate any other value."""
    n = int(x)
    if n != x:
        raise ValueError("%s is not an integer: %s" % (what, x))
    return n


def _as_mat(m) -> Mat:
    """The rows of m as tuples of ints, each entry through _integer, a
    refusal naming its row and entry; rows of ints are returned as they
    are."""
    m = tuple(map(tuple, m))
    if set(map(type, chain.from_iterable(m))) <= {int}:
        return m
    return tuple(_as_vec(row, "row %d, " % r) for r, row in enumerate(m))


def _as_vec(v, where="") -> Vec:
    """v as a tuple of ints, each entry through _integer, a refusal naming
    the entry after the prefix where."""
    v = tuple(v)
    if set(map(type, v)) <= {int}:
        return v
    return tuple(_integer(x, "%sentry %d" % (where, i)) for i, x in enumerate(v))


def mat_vec(m: Mat, v) -> Vec:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def primitive_part(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    v = _as_vec(v)
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero has no primitive part")
    return tuple(x // g for x in v)


def det(m) -> int:
    """Exact determinant of a square integer matrix, read off _reduce of a
    copy of its rows; a non-integral entry raises ValueError."""
    rows = list(map(list, _as_mat(m)))
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant requires a square matrix")
    return _det(rows)


def _det(rows) -> int:
    """det of square rows given as lists of ints, which _reduce consumes."""
    n = len(rows)
    piv, d, sign = _reduce(rows, n)
    return sign * d if len(piv) == n else 0


def hermite_normal_form(m) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ m, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced to [0, pivot).
    Zero rows of H sit at the bottom.  Each row operation acts once on the
    rows of [m | I], whose identity block ends as U.
    """
    m = _as_mat(m)
    if len({len(r) for r in m}) > 1:
        raise ValueError("rows of different lengths")  # U would take a row's overhang
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(r) + e for r, e in zip(m, _identity(rows))]  # [m | I], kept [H | U]
    pivot_row = 0
    for col in range(cols):
        for j in range(pivot_row + 1, rows):
            # replace rows pivot_row and j by unimodular combinations zeroing h[j][col]
            hi, hj = h[pivot_row], h[j]
            a, b = hi[col], hj[col]
            if b == 0:
                continue
            if a == 0:
                h[pivot_row], h[j] = hj, hi
                continue
            g, x, y = _xgcd(a, b)
            p, q = a // g, b // g
            h[pivot_row] = [x * s + y * t for s, t in zip(hi, hj)]
            h[j] = [p * t - q * s for s, t in zip(hi, hj)]
        if pivot_row < rows and h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
            p = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // p
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
            pivot_row += 1
            if pivot_row == rows:
                break
    return tuple(tuple(r[:cols]) for r in h), tuple(tuple(r[cols:]) for r in h)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # g, x, y with x*a + y*b == g > 0
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _extend_saturated(dual, v):
    """One step of the saturation echelon: the rows of `dual` are a basis of
    the integer functionals vanishing on some saturated rows R.  R + [v] is
    saturated iff the values f·v share the gcd 1; Euclid's algorithm on them
    then leaves, beside the one row with value ±1, a basis of the functionals
    vanishing on R + [v], which is returned.  Otherwise None, at once
    when every value is 0: v lies in the span of R.
    """
    vals = [sum(map(mul, f, v)) for f in dual]
    if not any(vals):
        return None
    rows = list(dual)
    for i in range(1, len(rows)):
        while vals[i]:
            q = vals[0] // vals[i]
            vals[0], vals[i] = vals[i], vals[0] - q * vals[i]
            rows[0], rows[i] = rows[i], [a - q * b for a, b in zip(rows[0], rows[i])]
    if vals[0] not in (1, -1):
        return None
    return rows[1:]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def is_saturated(rows) -> bool:
    """True iff the rows are independent and span a saturated sublattice.

    Equivalently, the rows extend to a basis of the full lattice: the gcd of
    their maximal minors is 1.  The rows are added one at a time by
    _extend_saturated, starting from the functionals of the standard basis;
    this is Euclid's algorithm down the columns of the transpose, by
    unimodular operations whose transform is kept only on the rows still
    unused.
    """
    m = _as_mat(rows)
    if len({len(v) for v in m}) > 1:
        raise ValueError("rows of different lengths")
    dual = _identity(len(m[0]) if m else 0)
    for v in m:
        dual = _extend_saturated(dual, v)
        if dual is None:
            return False
    return True


def _integer_solutions(a, b):
    """(x, basis) from one hermite_normal_form of a^T: one integer solution
    x of a @ x = b, or None if none exists, and a lattice basis of the
    kernel {y integer : a @ y = 0}, which is saturated.  a is a nonempty
    integer matrix."""
    n = len(a[0])
    h, u = hermite_normal_form(transpose(a))  # h = u @ a^T (n x k), rows of u index x
    basis = tuple(u[i] for i in range(n) if not any(h[i]))
    k = len(b)
    # want y with y @ h = b, then x = y @ u
    y = [0] * n
    rem = list(b)
    for i in range(n):
        lead = next((j for j in range(k) if h[i][j] != 0), None)
        if lead is None:
            continue
        if rem[lead] % h[i][lead] != 0:
            return None, basis
        q = rem[lead] // h[i][lead]
        y[i] = q
        for j in range(k):
            rem[j] -= q * h[i][j]
    if any(rem):
        return None, basis
    return tuple(sum(y[i] * u[i][c] for i in range(n)) for c in range(n)), basis


def kernel_basis(m) -> Mat:
    """Lattice basis of {y integer : m @ y = 0}; the kernel is saturated."""
    m = _as_mat(m)
    if not m:
        raise ValueError("kernel_basis needs at least one row")
    return _integer_solutions(m, (0,) * len(m))[1]


def _reduce(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of integer rows, in place, pivoting on the first `width` columns.

    Every entry stays a minor of the input, so each division by the previous
    pivot is exact and no Fraction is built.  Returns (piv, d, sign): piv
    lists the pivot columns, greedily the first independent ones, row i
    holding the pivot of column piv[i]; d is the last pivot, the value every
    pivot ends with, and sign is the parity (±1) of the row swaps, so that a
    square nonsingular input has determinant sign * d.  Pivot columns are not
    updated outside their pivot row (they would read 0); every other column
    is fully reduced.
    """
    piv, free = [], []
    prev, sign = 1, 1
    ncols = len(rows[0]) if rows else 0
    for col in range(width):
        r = len(piv)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            free.append(col)
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        pr = rows[r]
        a = pr[col]
        live = free + list(range(col + 1, ncols))
        for i, ri in enumerate(rows):
            if i != r:
                b = ri[col]
                for j in live:
                    ri[j] = (a * ri[j] - b * pr[j]) // prev
        prev = a
        piv.append(col)
    return piv, prev, sign


def rank(m) -> int:
    """Rank over Q of a matrix with integer or rational entries."""
    rows = [_integer_row(row) for row in m]
    return len(_reduce(rows, len(rows[0]) if rows else 0)[0])


def fraction_free_solve(aug):
    """Solve an integer augmented system [A | b] with square A by _reduce
    of a copy of its rows; a non-integral entry raises ValueError.

    Returns (d, y) with d = |det A| > 0 and A y = d b, or None if A is
    singular; the solution is y / d.
    """
    return _solve(list(map(list, _as_mat(aug))))


def _solve(aug):
    """fraction_free_solve of rows given as lists of ints, which _reduce
    consumes."""
    n = len(aug)
    piv, d, _ = _reduce(aug, n)
    if len(piv) < n:
        return None
    y = [row[n] for row in aug]
    if d < 0:
        return -d, [-v for v in y]
    return d, y


def _integer_row(row) -> list:
    # the same equation with integer coefficients: scale by the common denominator
    if all(isinstance(x, int) for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs]


def solve_rational(a, b):
    """Unique exact solution of a square system a @ x = b, or None if singular.

    Rational rows are scaled to integers first, by _integer_row, which
    builds a fresh list of ints per row; the elimination itself is _solve.
    """
    sol = _solve([_integer_row(tuple(row) + (bi,)) for row, bi in zip(a, b)])
    if sol is None:
        return None
    d, y = sol
    return tuple(Fraction(v, d) for v in y)


def scaled_inverse(m):
    """(d, e) with e = d · m^-1 an integer matrix, or None if m is singular.

    One _reduce of [m | I]: its row operations turn it into [d I | e], with d
    the last pivot, ± det m.
    """
    m = _as_mat(m)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    rows = [list(row) + e for row, e in zip(m, _identity(n))]
    piv, d, _ = _reduce(rows, n)
    if len(piv) < n:
        return None
    return d, tuple(tuple(row[n:]) for row in rows)


def inverse_unimodular(m) -> Mat:
    """Exact integer inverse of a matrix with determinant ±1."""
    inv = scaled_inverse(m)
    if inv is None or inv[0] not in (1, -1):
        raise ValueError("matrix is not unimodular")
    d, e = inv
    return tuple(tuple(d * x for x in row) for row in e)  # 1 / d == d


def scan_key(v):
    """The one scan order of ewaldkit's searches, as a sort key: max-norm
    ascending, then lexicographic.  It fixes which basis, witness and probe
    each search reports first."""
    return max((abs(x) for x in v), default=0), v


def _basis_search(cands, n: int):
    """Depth-first search for n of `cands`, distinct integer n-vectors
    already in scan order, forming a unimodular basis; the first found in
    that order, or None.

    A partial selection is pruned unless its span is a saturated sublattice
    (otherwise it cannot extend to a unimodular basis); a zero candidate is
    never accepted.  Each level carries the echelon of its prefix, so one
    more candidate costs one _extend_saturated step.
    """
    chosen: list[Vec] = []

    def extend(start: int, dual):
        if len(chosen) == n:
            return True
        for idx in range(start, len(cands)):
            rest = _extend_saturated(dual, cands[idx])
            if rest is not None:
                chosen.append(cands[idx])
                if extend(idx + 1, rest):
                    return True
                chosen.pop()
        return False

    if extend(0, _identity(n)):
        return tuple(chosen)
    return None
