import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qspair import cohoch
from qspair.errors import DomainError, ParameterError
from qspair.cohoch import (
    _E,
    _content,
    _eliminate,
    _madd,
    _splits,
    _subtract,
    build_complex,
    cocycle_is_coboundary,
    cohomology_dims,
    make_lie_data,
    monomials,
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
    e, f = _E(2, 0, 1), _E(2, 1, 0)
    hh = tuple(
        tuple(Fraction(1) if i == j == 0 else
              (Fraction(-1) if i == j == 1 else Fraction(0))
              for j in range(2)) for i in range(2))
    with pytest.raises(DomainError):
        make_lie_data([e, f, hh], 2)   # span{e, f} is not closed


def test_bidegree_dimensions():
    cc = build_complex(sl2_data("zero"), 3, 4)
    assert cc.dim(1, 1) == 3                  # V itself
    assert cc.dim(0, 0) == 1
    assert cc.dim(0, 1) == 0                  # W = 0 carries no weight
    assert cc.dim(2, 1) == 6                  # X in either leg


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
    # In the window n <= T the cohomology's Euler characteristic is
    # chi(C) - (-1)^T rank d^T; by HKR it is (-1)^w C(3, w) for w <= T and 0
    # above.  Both sides come from the oracle basis and the oracle rank.
    top = 3
    cc = build_complex(sl2_data("zero"), top, 4)
    for w in range(5):
        chi_c = sum((-1) ** n * len(oracle_basis(cc, n, w))
                    for n in range(top + 1))
        rank_top, _ = _eliminate_oracle(
            [cc._column(elt) for elt in oracle_basis(cc, top, w)])
        hkr = (-1) ** w * comb(3, w) if w <= top else 0
        assert chi_c - (-1) ** top * rank_top == hkr, w


def primitive_cocycle(cc, letters):
    """The cochain 1 (x) X_{i1} (x) ... (x) X_{in} as a sparse vector index."""
    d = cc.lie.dim
    m0 = (0,) * cc.lie.dim_h
    legs = []
    for i in letters:
        m = [0] * d
        m[i] = 1
        legs.append(tuple(m))
    return (m0,) + tuple(legs)


def test_primitive_cocycle_class():
    cc = build_complex(sl2_data("zero"), 3, 4)
    # 1 (x) e (x) f is a cocycle whose class e ^ f is nonzero
    elt = primitive_cocycle(cc, (0, 2))
    assert cc._column(elt) == {}
    assert not cocycle_is_coboundary(cc, 2, {elt: Fraction(1)})
    # 1 (x) e (x) e has wedge e ^ e = 0: its class must die
    elt2 = primitive_cocycle(cc, (0, 0))
    assert cc._column(elt2) == {}
    assert cocycle_is_coboundary(cc, 2, {elt2: Fraction(1)})


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


def test_sl3_cartan_invariant_matches_hkr_at_4_4():
    dims = cohomology_dims(build_complex(sl3_data("cartan"), 4, 4),
                           invariant=True)
    assert dims == {(n, w): hkr_sl3_cartan(n, w)
                    for n in range(5) for w in range(5)}


def per_content_count(cc, n, w, invariant, per_block):
    """Sum of per_block(n, content) over every content of weight w, each
    with the sign of the shift its torus weight equals: how the tables were
    counted before they ran over orbits."""
    total = 0
    for content in monomials(cc.lie.dim, w):
        sign = 1
        if invariant:
            weight = cc.lie.weight(content)
            sign = sum(s for s, shift in cc.lie.shifts if shift == weight)
        if sign:
            total += sign * per_block(n, content)
    return total


@pytest.mark.parametrize("lie", [sl2_data("zero"), sl2_data("cartan"),
                                 sl3_data("zero"), sl3_data("cartan"),
                                 sl3_data("so3")],
                         ids=["sl2-zero", "sl2-cartan", "sl3-zero",
                              "sl3-cartan", "sl3-so3"])
def test_orbit_counts_match_the_per_content_sum(lie):
    cc = build_complex(lie, 3, 4)
    for invariant in (False, True):
        for n in range(4):
            for w in range(5):
                assert cc.dim(n, w, invariant) == per_content_count(
                    cc, n, w, invariant, cc.block_size), (invariant, n, w)
                assert cc.rank(n, w, invariant) == per_content_count(
                    cc, n, w, invariant, cc.block_rank), (invariant, n, w)
    assert cc._splits_cache
    for m, splits in cc._splits_cache.items():
        assert splits == tuple(_splits(m))
        assert cc._splits(m) is splits


@pytest.mark.parametrize("sub", ["zero", "cartan"])
def test_blocked_rank_equals_unblocked_sl2(sub):
    cc = build_complex(sl2_data(sub), 3, 4)
    for n in range(4):
        for w in range(5):
            assert cc.rank(n, w) == _eliminate_oracle(
                [cc._column(elt) for elt in oracle_basis(cc, n, w)])[0]


@pytest.mark.parametrize("lie,d,w", [(sl2_data("cartan"), 3, 4),
                                     (sl3_data("cartan"), 2, 2)])
def test_weight_zero_invariants_are_the_h_kernel(lie, d, w):
    cc = build_complex(lie, d, w)
    for n in range(d + 1):
        for k in range(w + 1):
            assert cc.dim(n, k, invariant=True) == len(
                oracle_invariants(cc, n, k))


def test_make_lie_data_rejects_bracket_outside_span():
    with pytest.raises(DomainError, match="not in the span"):
        make_lie_data([_E(2, 0, 1), _E(2, 1, 0)], 0)   # [e, f] = h


def hkr_sl3_so3(n, w):
    """g/h is the spin-2 so3 module, weights -2..2: by sl2 theory the
    invariants of Lambda^n number mult(0) - mult(1) of its weights."""
    if n != w:
        return 0
    sums = [sum(c) for c in combinations(range(-2, 3), n)]
    return sums.count(0) - sums.count(1)


@pytest.mark.parametrize("d,w", [(2, 3), (3, 3), (3, 4), (4, 4)])
def test_sl3_so3_invariant_matches_hkr(d, w):
    dims = cohomology_dims(build_complex(sl3_data("so3"), d, w),
                           invariant=True)
    assert dims == {(n, k): hkr_sl3_so3(n, k)
                    for n in range(d + 1) for k in range(w + 1)}


@pytest.mark.parametrize("n,w", [(1, 2), (2, 2), (2, 3)])
def test_so3_invariants_are_the_h_kernel(n, w):
    # the oracle's kernel on the antisymmetric basis is annihilated by h,
    # independent, and as large as the count on the principal basis
    cc = build_complex(antisymmetric_so3(), 2, 3)
    inv = oracle_invariants(cc, n, w)
    for vec in inv:
        acc = {}
        for elt, coeff in vec.items():
            _subtract(acc, -coeff, _h_column(cc.lie, elt))
        assert not acc
    assert rank_of_columns(inv) == len(inv)
    counted = build_complex(sl3_data("so3"), 2, 3)
    assert len(inv) == counted.dim(n, w, invariant=True) > 0


@pytest.mark.parametrize("d,w", [(2, 3), (3, 3)])
def test_so3_invariant_counts_match_the_kernel_oracle(d, w):
    counted = build_complex(sl3_data("so3"), d, w)
    oracle = build_complex(antisymmetric_so3(), d, w)
    for n in range(d + 1):
        for k in range(w + 1):
            assert counted.dim(n, k, invariant=True) == len(
                oracle_invariants(oracle, n, k)), (n, k)
            assert counted.rank(n, k, invariant=True) == \
                oracle_invariant_rank(oracle, n, k), (n, k)


@pytest.mark.parametrize("sub", ["zero", "cartan", "so3"])
def test_block_sizes_match_the_enumerated_basis(sub):
    cc = build_complex(sl3_data(sub), 3, 3)
    for n in range(4):
        for w in range(4):
            basis = oracle_basis(cc, n, w)
            groups = {}
            for elt in basis:
                groups.setdefault(_content(elt, cc.lie.dim), set()).add(elt)
            for content in monomials(cc.lie.dim, w):
                block = cc.block(n, content)
                assert cc.block_size(n, content) == len(block)
                assert set(block) == groups.get(content, set())
            assert cc.dim(n, w) == len(basis)


def test_torus_acting_off_diagonally_is_rejected():
    # ad(E01 - E10) mixes the basis vectors E_ij +- E_ji
    with pytest.raises(DomainError, match="diagonally"):
        antisymmetric_so3(torus=(0,))


# ---------------------------------------------------------------------------
# Reference oracle: the full basis of C^{n,w}, and the h-invariants as the
# kernel of the h action on it, one kernel per leg-degree shape.  This is how
# cohoch computed them before the tables were counted from block sizes and
# torus weights, kept here on the antisymmetric so3 basis, where no torus
# acts diagonally.

def oracle_basis(cc, n, w):
    """Basis of C^{n,w}: tuples (m0, m1, ..., mn) of exponent tuples."""
    d, dh = cc.lie.dim, cc.lie.dim_h
    out = []
    for w0 in range(w + 1):
        for m0 in monomials(dh, w0):
            for rest_w in monomials(n, w - w0):
                for rest in product(*[monomials(d, k) for k in rest_w]):
                    out.append((m0,) + rest)
    return out


def _h_column(lie, elt):
    """The adjoint action of h on one basis element of a cochain space, as a
    sparse dict (c, target) -> Fraction for basis vector c of h."""
    col = {}
    for c in range(lie.dim_h):
        for leg, m in enumerate(elt):
            for i, exp in enumerate(m):
                if exp == 0:
                    continue
                for t, coeff in lie.ad(c, i).items():
                    assert leg > 0 or t < lie.dim_h   # h is a subalgebra
                    lowered = list(m)
                    lowered[i] -= 1
                    lowered[t] += 1
                    key = (c, elt[:leg] + (tuple(lowered),) + elt[leg + 1:])
                    col[key] = col.get(key, 0) + exp * coeff
    return col


def oracle_invariants(cc, n, w):
    """Rational basis of the h-invariants in C^{n,w}, as sparse vectors."""
    shapes = {}
    for elt in oracle_basis(cc, n, w):
        shapes.setdefault(tuple(map(sum, elt)), []).append(elt)
    kernel = []
    for elts in shapes.values():
        _, vanishing = _eliminate_oracle(
            [_h_column(cc.lie, e) for e in elts], record=True)
        kernel += [{elts[i]: c for i, c in combo.items()}
                   for combo in vanishing.values()]
    return kernel


def oracle_invariant_rank(cc, n, w):
    """rank of d^{n,w} on the oracle's h-invariants."""
    images = []
    for vec in oracle_invariants(cc, n, w):
        acc = {}
        for elt, coeff in vec.items():
            _subtract(acc, -coeff, cc._column(elt))
        images.append(acc)
    return _eliminate_oracle(images)[0]


def antisymmetric_so3(torus=()):
    """so3 < sl3 spanned by E_ij - E_ji, completed by E_ij + E_ji (i < j)
    and the Cartan.  By default with no torus: the oracle does not use
    cohoch's counted invariants on it."""
    one = Fraction(1)
    pairs = ((0, 1), (0, 2), (1, 2))
    anti = [_madd((one, _E(3, i, j)), (-one, _E(3, j, i))) for i, j in pairs]
    sym = [_madd((one, _E(3, i, j)), (one, _E(3, j, i))) for i, j in pairs]
    hs = [_madd((one, _E(3, i, i)), (-one, _E(3, i + 1, i + 1)))
          for i in range(2)]
    return make_lie_data(anti + sym + hs, 3, torus=torus)


# ---------------------------------------------------------------------------
# Reference oracle for the elimination: cohoch._eliminate as it was before it
# ran fraction-free, a Fraction elimination that scans every earlier pivot.

def _eliminate_oracle(cols, record=False):
    """Sparse column-by-column elimination over Q.

    Each column (a dict rowkey -> int or Fraction) is reduced against the
    pivots of the columns before it; what remains becomes a new pivot,
    normalized at its first row key.  Returns the rank and, with record, the
    kernel: for each column j that reduces to zero, the vanishing combination
    of input columns as a dict index -> Fraction (1 at j, the rest at earlier
    pivot columns).  Without record the kernel is empty.
    """
    pivots = []  # (rowkey, normalized column, its combination of inputs)
    kernel = {}
    for j, col in enumerate(cols):
        col = {k: v for k, v in col.items() if v}
        combo = {j: Fraction(1)} if record else None
        for rowkey, pcol, pcombo in pivots:
            c = col.get(rowkey)
            if c:
                _subtract(col, c, pcol)
                if record:
                    _subtract(combo, c, pcombo)
        if col:
            rowkey = next(iter(col))
            inv = 1 / Fraction(col[rowkey])
            pcombo = {k: v * inv for k, v in combo.items()} if record else None
            pivots.append((rowkey, {k: v * inv for k, v in col.items()},
                           pcombo))
        elif record:
            kernel[j] = combo
    return len(pivots), kernel


def random_columns(rng):
    """Sparse columns with int and Fraction entries over a few row keys:
    some empty, some combinations of earlier columns, so that many sets are
    rank-deficient."""
    rows = rng.randint(1, 10)
    cols = []
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        col = {}
        if kind < 0.1:
            pass
        elif kind < 0.4 and cols:
            for other in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
                m = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
                for k, v in other.items():
                    col[k] = col.get(k, 0) + m * v
        else:
            for _ in range(rng.randint(1, 5)):
                col[rng.randrange(rows)] = rng.choice(
                    [rng.randint(-6, 6),
                     Fraction(rng.randint(-6, 6), rng.randint(1, 7))])
        cols.append(col)
    return cols


@pytest.mark.parametrize("seed", range(6))
def test_eliminate_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(100):
        cols = random_columns(rng)
        assert _eliminate(cols) == _eliminate_oracle(cols)
        assert _eliminate(cols, record=True) == _eliminate_oracle(
            cols, record=True)


def test_eliminate_kernel_is_exact_over_q():
    # 2 * (1/2, 1/3) - (1, 2/3) = 0, and 3 * col0 + col2 = 0 at key "b"
    cols = [{"a": Fraction(1, 2), "b": Fraction(1, 3)},
            {"a": 1, "b": Fraction(2, 3)},
            {"a": Fraction(-3, 2), "b": -1}]
    rank, kernel = _eliminate(cols, record=True)
    assert rank == 1
    assert kernel == {1: {1: 1, 0: -2}, 2: {2: 1, 0: 3}}
    assert all(isinstance(v, Fraction) for c in kernel.values()
               for v in c.values())


@pytest.mark.parametrize("g,sub", [("sl2", "zero"), ("sl2", "cartan"),
                                   ("sl3", "zero"), ("sl3", "cartan"),
                                   ("sl3", "so3")])
def test_make_lie_data_int_and_fraction_matrices_agree(monkeypatch, g, sub):
    calls = []

    def spy(matrices, *args, **kwargs):
        calls.append((matrices, args, kwargs))
        return make_lie_data(matrices, *args, **kwargs)

    monkeypatch.setattr(cohoch, "make_lie_data", spy)
    lie = getattr(cohoch, f"{g}_data")(sub)
    (matrices, args, kwargs), = calls
    assert all(type(x) is int for m in matrices for row in m for x in row)
    as_fractions = [[[Fraction(x) for x in row] for row in m]
                    for m in matrices]
    other = make_lie_data(as_fractions, *args, **kwargs)
    assert lie.bracket == other.bracket
    assert lie.weights == other.weights
    assert all(type(x) is int for wt in lie.weights for x in wt)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
def test_make_lie_data_rejects_inexact_entries(bad):
    e, f = _E(2, 0, 1), _E(2, 1, 0)
    h = ((bad, 0), (0, -1))
    with pytest.raises(ParameterError, match="exact rationals"):
        make_lie_data([e, h, f], 0)
