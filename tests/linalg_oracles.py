"""Slow reference routines that the library no longer carries.

Each was once part of ewaldkit and was replaced by a single elimination
(see ewaldkit.intlinalg): the Smith normal form and the saturation test read
from it, the kernel direction of a corank-one system, the column-subset scan
for a rational particular solution, and the row-by-row rank loop that picked
the starting rows of the double-description core.  The transform-free
saturation echelon and the unimodular-basis search that re-ran it on every
partial basis were replaced by one echelon carried down the search.  The
Hermite form that wrote every row operation twice, once on H and once on U,
was replaced by one pass over the rows of [m | I].  They serve only as
oracles in the differential tests, beside a determinant and inverse by
elimination over Fraction.

Three entry points moved here from the library, which never called them:
find_unimodular_basis, the sorted front of the basis search that
weak_ewald runs on E(P) in scan order, solve_integer, the integer
solution that face charts read off _integer_solutions beside the kernel,
and solve_rational, the unique rational solution of a square system by
the fraction-free elimination _solve.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from ewaldkit.intlinalg import (
    _as_mat,
    _as_vec,
    _basis_search,
    _integer_row,
    _integer_solutions,
    _reduce,
    _solve,
    _xgcd,
    rank,
    scan_key,
)
from ewaldkit.polytope import _point


def smith_diagonal(m) -> tuple[int, ...]:
    """Nonzero elementary divisors of an integer matrix, in divisibility order."""
    m = [[int(x) for x in row] for row in m]
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


def smith_saturated(rows) -> bool:
    """The rows extend to a lattice basis: all elementary divisors are 1."""
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        return True
    d = smith_diagonal(rows)
    return len(d) == len(rows) and all(x == 1 for x in d)


def transpose_saturated(rows) -> bool:
    """Saturation by Euclid down each column of the transpose, from scratch:
    the rows extend to a lattice basis iff every pivot is ±1."""
    m = [tuple(int(x) for x in row) for row in rows]
    k = len(m)
    t = [list(col) for col in zip(*m)]
    if k > len(t):
        return False
    for c in range(k):
        for i in range(c + 1, len(t)):
            while t[i][c]:
                q = t[c][c] // t[i][c]
                t[c], t[i] = t[i], [a - q * b for a, b in zip(t[c], t[i])]
        if t[c][c] not in (1, -1):
            return False
    return True


def find_unimodular_basis(points, n: int):
    """Search a subset of `points` forming a determinant-±1 basis of Z^n.

    The candidates are sorted by max-norm then lexicographically and
    searched by _basis_search.  Returns a tuple of n points or None.
    """
    if n <= 0:
        raise ValueError("dimension must be positive")
    cands = sorted(set(_as_mat(filter(any, points))), key=scan_key)
    return _basis_search([p for p in cands if len(p) == n], n)


def solve_integer(a, b):
    """One integer solution x of a @ x = b, or None if none exists."""
    a, b = _as_mat(a), _as_vec(b)
    if not a:
        raise ValueError("empty system")
    return _integer_solutions(a, b)[0]


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


def per_step_basis_search(points, n):
    """find_unimodular_basis with a fresh saturation test of every partial
    basis: the same candidate order, depth first."""
    cands = sorted(
        {tuple(int(x) for x in p) for p in points if any(p)},
        key=lambda p: (max(abs(x) for x in p), p),
    )
    cands = [p for p in cands if len(p) == n]
    chosen = []

    def extend(start):
        if len(chosen) == n:
            return True
        for idx in range(start, len(cands)):
            chosen.append(cands[idx])
            if transpose_saturated(chosen) and extend(idx + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if extend(0) else None


def kernel_direction(rows):
    """A nonzero integer vector spanning the kernel of integer rows whose
    rank is one less than their length, or None when the rank is lower."""
    rows = [list(row) for row in rows]
    n = len(rows[0])
    piv, d, _ = _reduce(rows, n)
    if len(piv) != n - 1:
        return None
    (f,) = set(range(n)) - set(piv)
    x = [0] * n
    x[f] = d
    for row, col in zip(rows, piv):
        x[col] = -row[f]
    return tuple(x)


def subset_particular(rows, targets):
    """Rational solution of rows @ x = targets supported on the first column
    subset, in lexicographic order, whose square system is nonsingular."""
    k = len(rows)
    n = len(rows[0])
    for cols in combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        x = solve_rational(sub, targets)
        if x is not None:
            full = [Fraction(0)] * n
            for c, val in zip(cols, x):
                full[c] = val
            return _point(full)
    raise ValueError("inconsistent slice system")


def first_independent_rows(rows, d):
    """Indices of the first d rows that raise the rank, one rank call per row."""
    basis = []
    for i, r in enumerate(rows):
        if len(basis) < d and rank([rows[j] for j in basis] + [r]) > len(basis):
            basis.append(i)
    return basis


def hermite_two_tables(m):
    """Row-style Hermite normal form (H, U), H = U @ m, keeping H and U as
    two tables and applying every row operation to each."""
    m = tuple(tuple(r) for r in m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(r) for r in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def rowop_combine(i, j, col):
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


def fraction_det_inverse(m):
    """(det m, m^-1) of a square matrix by Gauss-Jordan elimination over
    Fraction, dividing each pivot row by its pivot; (0, None) when m is
    singular."""
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    d = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            d = -d
        d *= rows[col][col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return d, tuple(tuple(row[n:]) for row in rows)
