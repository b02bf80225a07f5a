"""Exact integer and rational linear algebra for lattice computations.

Everything operates on plain tuples of Python ints (vectors) and tuples of
such tuples (matrices, row-major).  Rational results use fractions.Fraction.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

Vec = tuple  # tuple of ints
Mat = tuple  # tuple of Vec rows

__all__ = [
    "primitive_part",
    "det",
    "hermite_normal_form",
    "smith_diagonal",
    "is_saturated",
    "kernel_basis",
    "solve_integer",
    "solve_rational",
    "fraction_free_solve",
    "kernel_direction",
    "inverse_unimodular",
    "find_unimodular_basis",
    "mat_vec",
    "mat_mul",
    "transpose",
    "rank",
]


def _as_vec(v) -> Vec:
    return tuple(int(x) for x in v)


def _as_mat(m) -> Mat:
    return tuple(_as_vec(row) for row in m)


def mat_vec(m: Mat, v) -> Vec:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def primitive_part(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    v = _as_vec(v)
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero has no primitive part")
    return tuple(x // g for x in v)


def det(m) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(row) for row in m]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hermite_normal_form(m) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ m, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced to [0, pivot).
    Zero rows of H sit at the bottom.
    """
    m = _as_mat(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(r) for r in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def rowop_combine(i, j, col):
        # Replace rows i, j by unimodular combinations zeroing h[j][col].
        a, b = h[i][col], h[j][col]
        if b == 0:
            return
        if a == 0:
            h[i], h[j] = h[j], h[i]
            u[i], u[j] = u[j], u[i]
            return
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        hi, hj = h[i], h[j]
        h[i] = [x * hi[c] + y * hj[c] for c in range(cols)]
        h[j] = [-q * hi[c] + p * hj[c] for c in range(cols)]
        ui, uj = u[i], u[j]
        u[i] = [x * ui[c] + y * uj[c] for c in range(rows)]
        u[j] = [-q * ui[c] + p * uj[c] for c in range(rows)]

    pivot_row = 0
    for col in range(cols):
        for i in range(pivot_row + 1, rows):
            rowop_combine(pivot_row, i, col)
        if pivot_row < rows and h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            p = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // p
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
            pivot_row += 1
            if pivot_row == rows:
                break
    return tuple(tuple(r) for r in h), tuple(tuple(r) for r in u)


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


def smith_diagonal(m) -> tuple[int, ...]:
    """Nonzero elementary divisors of an integer matrix, in divisibility order."""
    m = [list(row) for row in _as_mat(m)]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    divisors = []
    top = 0
    while top < rows and top < cols:
        # find a nonzero pivot
        piv = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        m[top], m[i] = m[i], m[top]
        for r in range(rows):
            m[r][top], m[r][j] = m[r][j], m[r][top]
        # alternate row/column clearing until both are clear
        while True:
            dirty = False
            for i in range(top + 1, rows):
                a, b = m[top][top], m[i][top]
                if b == 0:
                    continue
                if b % a == 0:
                    q = b // a
                    m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                else:
                    g, x, y = _xgcd(a, b)
                    p, q = a // g, b // g
                    rt, ri = m[top], m[i]
                    m[top] = [x * s + y * t for s, t in zip(rt, ri)]
                    m[i] = [-q * s + p * t for s, t in zip(rt, ri)]
                    dirty = True
            for j in range(top + 1, cols):
                a, b = m[top][top], m[top][j]
                if b == 0:
                    continue
                if b % a == 0:
                    q = b // a
                    for r in range(rows):
                        m[r][j] -= q * m[r][top]
                else:
                    g, x, y = _xgcd(a, b)
                    p, q = a // g, b // g
                    for r in range(rows):
                        s, t = m[r][top], m[r][j]
                        m[r][top] = x * s + y * t
                        m[r][j] = -q * s + p * t
                    dirty = True
            if not dirty:
                break
        divisors.append(abs(m[top][top]))
        top += 1
    # enforce divisibility chain
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a * b // g
    return tuple(divisors)


def is_saturated(rows) -> bool:
    """True iff the rows are independent and span a saturated sublattice.

    Equivalently, the rows extend to a basis of the full lattice: all
    elementary divisors equal 1.
    """
    rows = _as_mat(rows)
    if not rows:
        return True
    d = smith_diagonal(rows)
    return len(d) == len(rows) and all(x == 1 for x in d)


def kernel_basis(m) -> Mat:
    """Lattice basis of {y integer : m @ y = 0}; the kernel is saturated."""
    m = _as_mat(m)
    if not m:
        raise ValueError("kernel_basis needs at least one row")
    n = len(m[0])
    h, u = hermite_normal_form(transpose(m))  # h = u @ m^T, rows of u index y
    basis = tuple(u[i] for i in range(n) if not any(h[i]))
    return basis


def solve_integer(a, b):
    """One integer solution x of a @ x = b, or None if none exists."""
    a = _as_mat(a)
    b = _as_vec(b)
    if not a:
        raise ValueError("empty system")
    n = len(a[0])
    h, u = hermite_normal_form(transpose(a))  # h = u @ a^T  (n x k)
    k = len(b)
    # want y with y @ h = b, then x = y @ u
    y = [0] * n
    rem = list(b)
    for i in range(n):
        lead = next((j for j in range(k) if h[i][j] != 0), None)
        if lead is None:
            continue
        if rem[lead] % h[i][lead] != 0:
            return None
        q = rem[lead] // h[i][lead]
        y[i] = q
        for j in range(k):
            rem[j] -= q * h[i][j]
    if any(rem):
        return None
    return tuple(sum(y[i] * u[i][c] for i in range(n)) for c in range(n))


def _reduce(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of integer rows, in place, pivoting on the first `width` columns.

    Every entry stays a minor of the input, so each division by the previous
    pivot is exact and no Fraction is built.  Returns (piv, d): piv lists the
    pivot columns, row i holding the pivot of column piv[i], and d is the
    last pivot, the value every pivot ends with.  Pivot columns are not
    updated outside their pivot row (they would read 0); every other column
    is fully reduced.
    """
    piv, free = [], []
    prev = 1
    ncols = len(rows[0]) if rows else 0
    for col in range(width):
        r = len(piv)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            free.append(col)
            continue
        rows[r], rows[k] = rows[k], rows[r]
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
    return piv, prev


def rank(m) -> int:
    """Rank over Q of a matrix with integer or rational entries."""
    rows = [_integer_row(row) for row in m]
    return len(_reduce(rows, len(rows[0]) if rows else 0)[0])


def fraction_free_solve(aug):
    """Solve an integer augmented system [A | b] with square A, in place.

    Returns (d, y) with d = |det A| > 0 and A y = d b, or None if A is
    singular; the solution is y / d.
    """
    n = len(aug)
    piv, d = _reduce(aug, n)
    if len(piv) < n:
        return None
    y = [row[n] for row in aug]
    if d < 0:
        return -d, [-v for v in y]
    return d, y


def kernel_direction(rows):
    """A nonzero integer vector spanning the kernel of integer rows whose
    rank is one less than their length, or None when the rank is lower."""
    rows = [list(row) for row in rows]
    n = len(rows[0])
    piv, d = _reduce(rows, n)
    if len(piv) != n - 1:
        return None
    (f,) = set(range(n)) - set(piv)
    x = [0] * n
    x[f] = d
    for row, col in zip(rows, piv):
        x[col] = -row[f]
    return tuple(x)


def _integer_row(row) -> list:
    # the same equation with integer coefficients: scale by the common denominator
    if all(isinstance(x, int) for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs]


def solve_rational(a, b):
    """Unique exact solution of a square system a @ x = b, or None if singular.

    Rational rows are scaled to integers first; the elimination itself is
    fraction_free_solve.
    """
    sol = fraction_free_solve([_integer_row(tuple(row) + (bi,)) for row, bi in zip(a, b)])
    if sol is None:
        return None
    d, y = sol
    return tuple(Fraction(v, d) for v in y)


def inverse_unimodular(m) -> Mat:
    """Exact integer inverse of a matrix with determinant ±1."""
    m = _as_mat(m)
    n = len(m)
    d = det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # adjugate via cofactors; n stays small here
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = det(minor) * (-1 if (i + j) % 2 else 1)
            row.append(cof * d)
        inv.append(tuple(row))
    return tuple(inv)


def find_unimodular_basis(points, n: int):
    """Search a subset of `points` forming a determinant-±1 basis of Z^n.

    Depth-first over candidates sorted by max-norm then lexicographically;
    a partial selection is pruned unless its span is a saturated sublattice
    (otherwise it cannot extend to a unimodular basis).  Returns a tuple of
    n points or None.
    """
    if n <= 0:
        raise ValueError("dimension must be positive")
    cands = sorted(
        {tuple(int(x) for x in p) for p in points if any(p)},
        key=lambda p: (max(abs(x) for x in p), p),
    )
    cands = [p for p in cands if len(p) == n]
    chosen: list[Vec] = []

    def extend(start: int):
        if len(chosen) == n:
            return True
        for idx in range(start, len(cands)):
            chosen.append(cands[idx])
            if is_saturated(chosen) and extend(idx + 1):
                return True
            chosen.pop()
        return False

    if extend(0):
        return tuple(chosen)
    return None
