import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from ewaldkit.intlinalg import (
    det,
    hermite_normal_form,
    inverse_unimodular,
    is_saturated,
    kernel_basis,
    mat_mul,
    mat_vec,
    primitive_part,
    rank,
    solve_rational,
)
from linalg_oracles import find_unimodular_basis, kernel_direction, smith_diagonal, solve_integer


def brute_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def test_primitive_part_examples():
    assert primitive_part((2, 4, -6)) == (1, 2, -3)
    assert primitive_part((1, 0)) == (1, 0)
    assert primitive_part((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        primitive_part((0, 0, 0))


def test_primitive_part_idempotent():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 5)
        v = tuple(rng.randint(-20, 20) for _ in range(n))
        if not any(v):
            continue
        p = primitive_part(v)
        assert primitive_part(p) == p


def test_det_examples():
    assert det(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
    assert det(((1, 1), (0, 1))) == 1
    assert det(((2, 0), (0, 3))) == 6
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))


def test_det_against_permutation_expansion():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        assert det(m) == brute_det(m)


def test_hnf_identity_and_examples():
    i3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    h, u = hermite_normal_form(i3)
    assert h == i3 and u == i3
    h, u = hermite_normal_form(((2, 4), (1, 3)))
    assert abs(det(h)) == 2
    assert mat_mul(u, ((2, 4), (1, 3))) == h
    h, u = hermite_normal_form(((2, 4, 6),))
    assert h == ((2, 4, 6),)


def test_hnf_random_invariants():
    rng = random.Random(3)
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r))
        h, u = hermite_normal_form(m)
        assert det(u) in (1, -1)
        assert mat_mul(u, m) == h
        leads = [next((j for j, x in enumerate(row) if x), None) for row in h]
        nz = [l for l in leads if l is not None]
        assert nz == sorted(nz) and len(set(nz)) == len(nz)
        assert all(l is None for l in leads[len(nz):])
        for i, l in enumerate(nz):
            assert h[i][l] > 0
            for i2 in range(i):
                assert 0 <= h[i2][l] < h[i][l]


def test_smith_and_saturation():
    assert smith_diagonal(((2, 0), (0, 2))) == (2, 2)
    assert smith_diagonal(((2, 4, 4),)) == (2,)
    assert is_saturated(((1, 2, 3),))
    assert not is_saturated(((2, 4, 6),))
    assert not is_saturated(((1, 0), (1, 0)))
    assert is_saturated(())


def test_is_saturated_refuses_rows_of_different_lengths():
    # zip would truncate (0, 1, 5) to (0, 1) and answer True
    for rows in (((1, 0), (0, 1, 5)), ((1, 0, 0), (0, 1))):
        with pytest.raises(ValueError, match="lengths"):
            is_saturated(rows)


def test_hermite_form_refuses_rows_of_different_lengths():
    # [m | I] would pass a long row's overhang into U, or cut a short one
    for rows in (((1, 0), (0, 1, 5)), ((1, 0, 0), (0, 1)), ((1, 2), (3,))):
        with pytest.raises(ValueError, match="lengths"):
            hermite_normal_form(rows)


def test_kernel_and_solve():
    rng = random.Random(4)
    for _ in range(200):
        r, c = rng.randint(1, 3), rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(c)) for _ in range(r))
        kb = kernel_basis(m)
        assert len(kb) == c - rank(m)
        for v in kb:
            assert all(x == 0 for x in mat_vec(m, v))
        if kb:
            assert is_saturated(kb)
        x0 = tuple(rng.randint(-3, 3) for _ in range(c))
        b = mat_vec(m, x0)
        x = solve_integer(m, b)
        assert x is not None and mat_vec(m, x) == b
    assert solve_integer(((2, 0), (0, 2)), (1, 0)) is None


def gauss_jordan_oracle(a, b):
    # elimination over Fraction, dividing each pivot row by its pivot
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return tuple(m[i][n] for i in range(n))


def rank_oracle(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col] / m[r][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_system(rng, rows, cols):
    """Integer rows with planted dependencies, zero columns and rational rows."""
    m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.4:
        i, j = rng.sample(range(rows), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if rows and rng.random() < 0.2:
        col = rng.randrange(cols)
        for row in m:
            row[col] = 0
    if rows and rng.random() < 0.3:
        m[rng.randrange(rows)] = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
    return m


def test_solve_rational_matches_fraction_oracle():
    rng = random.Random(11)
    singular = 0
    for _ in range(1500):
        n = rng.randint(0, 6)
        a = random_system(rng, n, max(n, 1))[:n] if n else []
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        x = solve_rational(a, b)
        assert x == gauss_jordan_oracle(a, b)
        singular += x is None
    assert 100 < singular < 1400


def test_rank_and_kernel_direction_match_oracles():
    rng = random.Random(12)
    for _ in range(1500):
        cols = rng.randint(1, 6)
        m = random_system(rng, rng.randint(0, 7), cols)
        assert rank(m) == rank_oracle(m)
        if cols >= 2 and all(isinstance(x, int) for row in m for x in row):
            sub = (m + [[0] * cols] * cols)[: cols - 1]
            d = kernel_direction(sub)
            if rank_oracle(sub) == cols - 1:
                assert any(d) and not any(mat_vec(sub, d))
            else:
                assert d is None


def test_solve_rational_and_inverse():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        b = tuple(rng.randint(-5, 5) for _ in range(n))
        x = solve_rational(m, b)
        if det(m) == 0:
            assert x is None
        else:
            assert all(
                sum(a * xx for a, xx in zip(row, x)) == bb for row, bb in zip(m, b)
            )
    u = ((1, 2), (1, 3))
    assert mat_mul(u, inverse_unimodular(u)) == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        inverse_unimodular(((2, 0), (0, 1)))


def test_basis_search_examples():
    assert find_unimodular_basis([(1, 0), (0, 1), (-1, 0), (0, -1)], 2) is not None
    assert find_unimodular_basis([(2, 0), (0, 2), (2, 2)], 2) is None
    with pytest.raises(ValueError):
        find_unimodular_basis([(1,)], 0)


def test_basis_search_against_exhaustive_oracle():
    # spec invariant: agree with brute force for |S| <= 12, n <= 3
    rng = random.Random(6)
    for _ in range(250):
        n = rng.randint(1, 3)
        pts = {
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(1, 12))
        }
        got = find_unimodular_basis(pts, n)
        nonzero = [p for p in pts if any(p)]
        brute = any(
            abs(det(s)) == 1 for s in combinations(nonzero, n)
        )
        assert (got is not None) == brute
        if got is not None:
            assert abs(det(got)) == 1
            assert set(got) <= set(pts)


def test_basis_search_deterministic_order():
    pts = [(0, 1), (1, 0), (0, -1), (-1, 0), (1, 1)]
    assert find_unimodular_basis(pts, 2) == find_unimodular_basis(reversed(pts), 2)
