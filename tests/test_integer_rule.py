"""One integer rule for lattice data: every argument that must be an integer
(a matrix or vector of intlinalg, a facet normal, a dimension, a
displacement, a probe direction, a twist row, a family argument) passes
intlinalg's gate.  An integral value of any numeric type is taken as that
int; any other value raises ValueError and is never truncated.  The gate
fronts the elimination routines too, which must agree with elimination over
Fraction, and the Hermite form that applies each row operation once to
[m | I] must give the two-table form's (H, U)."""

import random
from fractions import Fraction

import pytest

from ewaldkit import intlinalg
from ewaldkit.bundles import BundleSpec, cube, generate, member_dim, monotone_simplex, segment
from ewaldkit.counting import emin_upper_bound, volume
from ewaldkit.displace import displace
from ewaldkit.intlinalg import (
    det,
    fraction_free_solve,
    hermite_normal_form,
    inverse_unimodular,
    is_saturated,
    kernel_basis,
    mat_vec,
    primitive_part,
    scaled_inverse,
)
from ewaldkit.polytope import HPolytope
from ewaldkit.probes import is_integrally_transverse
from linalg_oracles import find_unimodular_basis, fraction_det_inverse, hermite_two_tables, solve_integer, solve_rational

IDENTITY = ((1, 0), (0, 1))

# each entry point on a non-integral input it used to truncate to an answer
REFUSED = {
    "kernel_basis": lambda: kernel_basis([[1 / 2, 1]]),
    "solve_integer": lambda: solve_integer(IDENTITY, (3 / 2, 1)),
    "scaled_inverse": lambda: scaled_inverse([[1 / 2, 0], [0, 1]]),
    "inverse_unimodular": lambda: inverse_unimodular([[1, Fraction(1, 2)], [0, 1]]),
    "det": lambda: det([[1 / 2, 0], [0, 3]]),
    "fraction_free_solve": lambda: fraction_free_solve([[Fraction(3, 2), 0, 1], [0, 1, 1]]),
    "primitive_part": lambda: primitive_part((1, 2.5)),
    "hermite_normal_form": lambda: hermite_normal_form([[2, 1.5]]),
    "is_saturated": lambda: is_saturated([[1 / 2, 1]]),
    "find_unimodular_basis": lambda: find_unimodular_basis([(3 / 2, 0), (0, 1)], 2),
    "is_integrally_transverse": lambda: is_integrally_transverse((1 / 2, 1), (0, 1)),
    "transform": lambda: cube(2).transform([[3 / 2, 0], [0, 1]]),
    "HPolytope dimension": lambda: HPolytope(2.9, [(1, 0), (0, 1), (-1, -1)], (1, 1, 1)),
    "HPolytope normals": lambda: HPolytope(2, [(1, 0), (0.5, 1), (-1, -1)], (1, 1, 1)),
    "BundleSpec twist": lambda: BundleSpec(
        base=segment(), fiber=monotone_simplex(2), twist=((0,), (Fraction(1, 2),), (0,)), shifts=(0, 0, 0)
    ),
    "member_dim": lambda: member_dim("cube", (2.7,)),
    "generate": lambda: generate("cube", (2.7,)),
    "emin_upper_bound": lambda: emin_upper_bound(7.5),
    "displace": lambda: displace(cube(2), (0, 0, 0.5, 0)),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_non_integral_argument_is_refused(name):
    with pytest.raises(ValueError, match="is not an integer"):
        REFUSED[name]()


def test_the_refusal_names_the_entry():
    with pytest.raises(ValueError, match=r"^entry 2 is not an integer: 0\.5$"):
        primitive_part((1, 0, 0.5))
    with pytest.raises(ValueError, match=r"^row 1, entry 1 is not an integer: 1/2$"):
        is_saturated([(1, 0), (0, Fraction(1, 2))])
    with pytest.raises(ValueError, match=r"^row 1, entry 1 is not an integer: 0\.5$"):
        HPolytope(2, [(1, 0), (1, 0.5), (-1, -1)], (1, 1, 1))
    with pytest.raises(ValueError, match=r"^dimension is not an integer: 2\.9$"):
        REFUSED["HPolytope dimension"]()


def test_rows_built_of_ints_pass_no_gate(monkeypatch):
    # volume's simplices and solve_rational's scaled rows are lists of ints
    # the library builds itself: they go to the ungated cores, and the gate
    # runs only where a caller's matrix enters
    calls = []
    gate = intlinalg._as_mat
    monkeypatch.setattr(intlinalg, "_as_mat", lambda m: calls.append(m) or gate(m))
    assert volume(cube(4)) == 16
    assert solve_rational([[1, 2], [3, Fraction(1, 2)]], [5, 6]) == (Fraction(19, 11), Fraction(18, 11))
    assert calls == []
    assert det([[2, 1], [2, 3]]) == 4 and fraction_free_solve([[2, 0, 1], [0, 1, 2]]) == (2, [1, 4])
    assert len(calls) == 2


def test_integral_values_of_other_types_give_the_int_result():
    tri = HPolytope(2, [(2, 1), (-1, 0), (0, -1)], (2, 0, 0))
    same = HPolytope(2.0, [(2.0, 1), (Fraction(-1), 0), (0, Fraction(-4, 4))], (2, 0, 0))
    assert same == tri
    assert {type(x) for row in same.normals for x in row} == {int} and type(same.dim) is int
    assert generate("cube", (Fraction(3),)) == cube(3)
    assert member_dim("cube", (3.0,)) == 3
    assert emin_upper_bound(7.0) == emin_upper_bound(Fraction(7)) == emin_upper_bound(7) == 243
    assert det([[2.0, 1], [Fraction(4, 2), 3]]) == det([[2, 1], [2, 3]]) == 4
    assert kernel_basis([[1.0, 1]]) == kernel_basis([[1, 1]])
    assert solve_integer(IDENTITY, (Fraction(6, 2), 1.0)) == (3, 1)
    assert fraction_free_solve([[2.0, 0, 1], [0, 1, Fraction(2)]]) == (2, [1, 4])
    assert hermite_normal_form([[2.0, 4]]) == hermite_normal_form([[2, 4]])
    assert find_unimodular_basis([(1.0, 0), (0, Fraction(1))], 2) == ((0, 1), (1, 0))
    assert is_integrally_transverse((1.0, 5), (1, 0))
    assert cube(2).transform([[1.0, 1], [0, Fraction(1)]]) == cube(2).transform([[1, 1], [0, 1]])
    assert displace(cube(2), (Fraction(2), 1.0, 0, -1)).b == (2, 1, 0, -1)
    spec = BundleSpec(base=segment(), fiber=monotone_simplex(2), twist=((0.0,), (Fraction(1),), (0,)), shifts=(0, 0, 0))
    assert spec.twist == ((0,), (1,), (0,))


def _random_square(rng, n):
    """An integer n x n matrix, singular about a third of the time by a
    planted dependent row or a zero column."""
    m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    roll = rng.random()
    if n >= 2 and roll < 0.2:
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    elif n and roll < 0.3:
        col = rng.randrange(n)
        for row in m:
            row[col] = 0
    return m


def test_elimination_matches_fraction_oracle():
    rng = random.Random(49)
    singular = 0
    for _ in range(1200):
        n = rng.randint(0, 6)
        m = _random_square(rng, n)
        b = [rng.randint(-9, 9) for _ in range(n)]
        d, inv = fraction_det_inverse(m)
        assert det(m) == d
        scaled = scaled_inverse(m)
        aug = [row + [bi] for row, bi in zip(m, b)]
        solved = fraction_free_solve(aug)
        assert aug == [row + [bi] for row, bi in zip(m, b)]  # the rows are copied
        if inv is None:
            assert scaled is None and solved is None
            singular += 1
            continue
        q, e = scaled
        assert tuple(tuple(Fraction(x, q) for x in row) for row in e) == inv
        q, y = solved
        assert q == abs(d) and [Fraction(v, q) for v in y] == list(mat_vec(inv, b))
    assert 150 < singular < 900


def _random_integer_matrix(rng):
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.3:
        i, j = rng.sample(range(rows), 2)
        m[i] = [rng.randint(-2, 2) * b for b in m[j]]  # a dependent or zero row
    if rows and rng.random() < 0.2:
        m[rng.randrange(rows)] = [0] * cols
    return m


def test_hermite_form_matches_two_table_oracle():
    rng = random.Random(4949)
    for _ in range(3000):
        m = _random_integer_matrix(rng)
        assert hermite_normal_form(m) == hermite_two_tables(m), m
    for m in ([], [[]], [[], [], []], [[0, 0], [0, 0]], [[0], [3], [-6]]):
        assert hermite_normal_form(m) == hermite_two_tables(m), m
