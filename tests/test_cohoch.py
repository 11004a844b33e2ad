from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qspair.errors import DomainError, ParameterError
from qspair.cohoch import (
    build_complex,
    cocycle_is_coboundary,
    cohomology_dims,
    euler_characteristic_check,
    make_lie_data,
    monomials,
    primitive_cocycle,
    rank_of_columns,
    sl2_data,
    sl3_data,
)


def test_monomials_count():
    assert len(monomials(3, 2)) == 6
    assert monomials(0, 0) == [()]
    assert monomials(0, 1) == []


def test_rank_of_columns():
    cols = [{"a": Fraction(1), "b": Fraction(2)},
            {"a": Fraction(2), "b": Fraction(4)},
            {"c": Fraction(1)}]
    assert rank_of_columns(cols) == 2
    assert rank_of_columns([]) == 0
    assert rank_of_columns([{}]) == 0


def test_sl2_structure_constants():
    lie = sl2_data("zero")       # basis (e, h, f)
    assert lie.ad(1, 0) == {0: Fraction(2)}      # [h, e] = 2e
    assert lie.ad(0, 2) == {1: Fraction(1)}      # [e, f] = h
    assert lie.ad(1, 2) == {2: Fraction(-2)}     # [h, f] = -2f


def test_non_subalgebra_rejected():
    from qspair.cohoch import _E
    e, f = _E(2, 0, 1), _E(2, 1, 0)
    hh = tuple(
        tuple(Fraction(1) if i == j == 0 else
              (Fraction(-1) if i == j == 1 else Fraction(0))
              for j in range(2)) for i in range(2))
    with pytest.raises(DomainError):
        make_lie_data([e, f, hh], 2)   # span{e, f} is not closed


def test_bidegree_dimensions():
    cc = build_complex(sl2_data("zero"), 3, 4)
    assert len(cc.basis(1, 1)) == 3           # V itself
    assert len(cc.basis(0, 0)) == 1
    assert len(cc.basis(0, 1)) == 0           # W = 0 carries no weight
    assert len(cc.basis(2, 1)) == 6           # X in either leg


@pytest.mark.parametrize("n,w", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
def test_d_squared_zero_sl2(n, w):
    cc = build_complex(sl2_data("zero"), 3, 4)
    assert cc.check_d_squared(n, w)


@pytest.mark.parametrize("n,w", [(0, 2), (1, 2), (2, 2)])
def test_d_squared_zero_sl2_cartan(n, w):
    cc = build_complex(sl2_data("cartan"), 3, 4)
    assert cc.check_d_squared(n, w)


@given(st.integers(min_value=0, max_value=1), st.integers(min_value=1, max_value=3))
@settings(max_examples=8, deadline=None)
def test_d_squared_zero_sl3_random_bidegree(n, w):
    cc = build_complex(sl3_data("cartan"), 2, 3)
    assert cc.check_d_squared(n, w)


def test_sl2_full_cohomology_table():
    cc = build_complex(sl2_data("zero"), 3, 4)
    dims = cohomology_dims(cc)
    expected_diag = {0: 1, 1: 3, 2: 3, 3: 1}
    for n in range(4):
        for w in range(5):
            expect = expected_diag[n] if n == w else 0
            assert dims[(n, w)] == expect, (n, w, dims[(n, w)])


def test_sl2_cartan_invariant_cohomology():
    cc = build_complex(sl2_data("cartan"), 3, 4)
    dims = cohomology_dims(cc, invariant=True)
    assert dims[(0, 0)] == 1
    assert sum(dims[(1, w)] for w in range(5)) == 0
    assert sum(dims[(2, w)] for w in range(5)) == 1
    assert dims[(2, 2)] == 1
    assert sum(dims[(3, w)] for w in range(5)) == 0


def test_sl3_so3_invariant_h2_vanishes():
    # non-Hermitian pair: (wedge^2 m)^k = 0
    cc = build_complex(sl3_data("so3"), 2, 2)
    dims = cohomology_dims(cc, invariant=True)
    assert dims[(0, 0)] == 1
    assert sum(dims[(1, w)] for w in range(3)) == 0
    assert sum(dims[(2, w)] for w in range(3)) == 0


def test_sl3_full_low_degrees():
    cc = build_complex(sl3_data("zero"), 2, 2)
    dims = cohomology_dims(cc)
    assert dims[(1, 1)] == 8                  # g itself
    assert dims[(2, 2)] == 28                 # wedge^2 of an 8-dim space


def test_euler_characteristic():
    cc = build_complex(sl2_data("zero"), 3, 4)
    for w in range(5):
        assert euler_characteristic_check(cc, w)
    cci = build_complex(sl2_data("cartan"), 3, 3)
    for w in range(4):
        assert euler_characteristic_check(cci, w, invariant=True)


def test_primitive_cocycle_class():
    cc = build_complex(sl2_data("zero"), 3, 4)
    # 1 (x) e (x) f is a cocycle whose class e ^ f is nonzero
    elt = primitive_cocycle(cc, (0, 2))
    idx = {e: i for i, e in enumerate(cc.basis(2, 2))}
    img = cc.differential(2, 2)[idx[elt]]
    assert all(v == 0 for v in img.values())
    assert not cocycle_is_coboundary(cc, 2, 2, {elt: Fraction(1)})
    # 1 (x) e (x) e has wedge e ^ e = 0: its class must die
    elt2 = primitive_cocycle(cc, (0, 0))
    img2 = cc.differential(2, 2)[idx[elt2]]
    assert all(v == 0 for v in img2.values())
    assert cocycle_is_coboundary(cc, 2, 2, {elt2: Fraction(1)})


def test_h0_always_counit_line():
    for lie in (sl2_data("zero"), sl2_data("cartan"), sl3_data("cartan")):
        cc = build_complex(lie, 1, 2)
        dims = cohomology_dims(cc)
        assert dims[(0, 0)] == 1
        assert dims[(0, 1)] == 0
        assert dims[(0, 2)] == 0


def test_build_complex_validation():
    with pytest.raises(ParameterError):
        build_complex(sl2_data("zero"), 0, 3)
    with pytest.raises(ParameterError):
        sl2_data("so3")
    with pytest.raises(ParameterError):
        sl3_data("bogus")


# An HKR-type oracle, independent of the complex: H^{n,w} is
# (Lambda^n(g/h))^h on the diagonal w = n and zero elsewhere, counted from the
# torus weights of g/h.  For h = 0 that is C(dim g, n); for sl3/cartan it is
# the number of n-subsets of the roots (simple-root coordinates) summing to 0.
SL3_ROOTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


def hkr_zero(dim, n, w):
    return comb(dim, n) if n == w else 0


def hkr_sl3_cartan(n, w):
    if n != w:
        return 0
    return sum(1 for c in combinations(SL3_ROOTS, n)
               if sum(a for a, _ in c) == sum(b for _, b in c) == 0)


def test_sl3_zero_matches_hkr_at_default_bounds():
    dims = cohomology_dims(build_complex(sl3_data("zero"), 3, 4))
    assert dims == {(n, w): hkr_zero(8, n, w)
                    for n in range(4) for w in range(5)}


def test_sl3_cartan_invariant_matches_hkr_at_default_bounds():
    dims = cohomology_dims(build_complex(sl3_data("cartan"), 3, 4),
                           invariant=True)
    assert dims == {(n, w): hkr_sl3_cartan(n, w)
                    for n in range(4) for w in range(5)}


@pytest.mark.parametrize("sub", ["zero", "cartan"])
def test_blocked_rank_equals_unblocked_sl2(sub):
    cc = build_complex(sl2_data(sub), 3, 4)
    for n in range(4):
        for w in range(5):
            assert cc.rank(n, w) == rank_of_columns(cc.differential(n, w))


def _h_kernel_dim(cc, n, w):
    """dim of the kernel of the h action on C^{n,w}: #cols - rank."""
    cols = [cc._h_column(elt) for elt in cc.basis(n, w)]
    return len(cols) - rank_of_columns(cols)


@pytest.mark.parametrize("lie,d,w", [(sl2_data("cartan"), 3, 4),
                                     (sl3_data("cartan"), 2, 2)])
def test_weight_zero_invariants_are_the_h_kernel(lie, d, w):
    cc = build_complex(lie, d, w)
    for n in range(d + 1):
        for k in range(w + 1):
            assert len(cc.invariant_basis(n, k)) == _h_kernel_dim(cc, n, k)


def test_make_lie_data_rejects_bracket_outside_span():
    from qspair.cohoch import _E
    with pytest.raises(DomainError, match="not in the span"):
        make_lie_data([_E(2, 0, 1), _E(2, 1, 0)], 0)   # [e, f] = h


def hkr_sl3_so3(n, w):
    """g/h is the spin-2 so3 module, weights -2..2: by sl2 theory the
    invariants of Lambda^n number mult(0) - mult(1) of its weights."""
    if n != w:
        return 0
    sums = [sum(c) for c in combinations(range(-2, 3), n)]
    return sums.count(0) - sums.count(1)


@pytest.mark.parametrize("d,w", [(2, 3), (3, 3)])
def test_sl3_so3_invariant_matches_hkr(d, w):
    dims = cohomology_dims(build_complex(sl3_data("so3"), d, w),
                           invariant=True)
    assert dims == {(n, k): hkr_sl3_so3(n, k)
                    for n in range(d + 1) for k in range(w + 1)}


@pytest.mark.parametrize("n,w", [(1, 2), (2, 2), (2, 3)])
def test_so3_invariants_are_the_h_kernel(n, w):
    cc = build_complex(sl3_data("so3"), 2, 3)
    inv = cc.invariant_basis(n, w)
    for vec in inv:
        acc = {}
        for elt, coeff in vec.items():
            for key, c in cc._h_column(elt).items():
                acc[key] = acc.get(key, 0) + coeff * c
        assert not any(acc.values())
    assert rank_of_columns(inv) == len(inv)
    assert len(inv) == _h_kernel_dim(cc, n, w) > 0
