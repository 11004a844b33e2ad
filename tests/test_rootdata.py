from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qspair.errors import ParameterError, ShapeError
from qspair import rootdata
from qspair.rootdata import (
    build_type_a,
    pairing,
    standard_order_type_a,
)


def test_type_a_n2_single_root_norm():
    rs = build_type_a(2)
    assert len(rs.positive_roots) == 1
    a1 = rs.simple_roots[0]
    assert pairing(rs, a1, a1) == 2


def test_type_a_n3_form_values():
    rs = build_type_a(3)
    assert len(rs.positive_roots) == 3
    L1 = (1, 0, 0)
    L2 = (0, 1, 0)
    assert pairing(rs, L1, L1) == Fraction(2, 3)
    assert pairing(rs, L1, L2) == Fraction(-1, 3)


def test_type_a_n4_derived_values():
    # frozen from expanding (L_i, L_j) = delta_ij - 1/4
    rs = build_type_a(4)
    assert len(rs.positive_roots) == 6
    a1, a2 = rs.simple_roots[0], rs.simple_roots[1]
    assert pairing(rs, a1, a2) == -1
    L14 = (1, 0, 0, -1)
    L23 = (0, 1, -1, 0)
    assert pairing(rs, L14, L23) == 0


def test_invalid_dimension():
    with pytest.raises(ParameterError):
        build_type_a(1)


def test_pairing_shape_error():
    rs = build_type_a(3)
    with pytest.raises(ShapeError):
        pairing(rs, (1, 0), (0, 1, 0))


def coroot(rs, alpha):
    """alpha^vee = 2 alpha / (alpha, alpha)."""
    norm2 = pairing(rs, alpha, alpha)
    return tuple(2 * a / norm2 for a in alpha)


def test_coroot_normalization():
    rs = build_type_a(5)
    for a in rs.simple_roots:
        assert pairing(rs, a, coroot(rs, a)) == 2


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_cartan_consistency_and_count(N):
    rs = build_type_a(N)
    for i, ai in enumerate(rs.simple_roots):
        for j, aj in enumerate(rs.simple_roots):
            assert 2 * pairing(rs, ai, aj) / pairing(rs, ai, ai) == rs.cartan[i][j]
    # positive definiteness on the root span: Gram of simple roots
    gram = [
        [pairing(rs, a, b) for b in rs.simple_roots] for a in rs.simple_roots
    ]
    # leading principal minors via exact fraction-free expansion
    n = len(gram)
    for k in range(1, n + 1):
        sub = [row[:k] for row in gram[:k]]
        assert _det(sub) > 0
    assert 2 * len(rs.positive_roots) == N * (N - 1)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _symmetrizer(cartan):
    """Positive rationals d with d_i a_{ij} = d_j a_{ji}, minimum entry 1."""
    rank = len(cartan)
    d = [None] * rank
    for start in range(rank):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(rank):
                if cartan[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    stack.append(j)
    lo = min(d)
    return tuple(x / lo for x in d)


def build_from_cartan(cartan):
    """Root system of a finite-type Cartan matrix in simple-root coordinates:
    the Gram matrix (alpha_i, alpha_j) = d_i a_ij, short roots of square
    length 2, and the positive roots generated height by height from root
    strings.  An independent construction to cross-check type A against."""
    rank = len(cartan)
    d = _symmetrizer(cartan)
    form = tuple(tuple(d[i] * cartan[i][j] for j in range(rank))
                 for i in range(rank))
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                # q - p = -<beta, alpha_i^vee>; beta + alpha_i is a root iff q > 0
                r = sum(beta[j] * cartan[i][j] for j in range(rank))
                p, cur = 0, beta
                while True:
                    cur = tuple(x - y for x, y in zip(cur, simple[i]))
                    if cur not in roots:
                        break
                    p += 1
                cand = tuple(x + y for x, y in zip(beta, simple[i]))
                if p - r > 0 and cand not in roots:
                    roots.add(cand)
                    new.append(cand)
        frontier = new
    return SimpleNamespace(form=form, simple_roots=tuple(simple),
                           positive_roots=tuple(sorted(roots)))


def test_generic_cartan_matches_type_a():
    # a root sum c_i alpha_i in simple-root coordinates is sum c_i
    # (L_i - L_{i+1}) in L coordinates; both realizations give the same roots
    # and the same form
    for N in range(2, 6):
        rs = build_type_a(N)
        gen = build_from_cartan(rs.cartan)

        def to_l(c):
            return tuple(sum(ci * a[k] for ci, a in zip(c, rs.simple_roots))
                         for k in range(N))

        assert {to_l(r) for r in gen.positive_roots} == set(rs.positive_roots)
        for a in gen.positive_roots:
            for b in gen.positive_roots:
                assert _gram_pairing(gen, a, b) == pairing(rs, to_l(a),
                                                           to_l(b))


def test_generic_cartan_b2():
    # B2: roots of two lengths; short roots have square length 2
    b2 = build_from_cartan([[2, -2], [-1, 2]])
    assert len(b2.positive_roots) == 4
    lengths = sorted(set(_gram_pairing(b2, r, r) for r in b2.positive_roots))
    assert lengths == [2, 4]


@given(
    st.lists(st.fractions(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.lists(st.fractions(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.fractions(min_value=-2, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_pairing_bilinear_symmetric(u, v, c):
    rs = build_type_a(4)
    assert pairing(rs, u, v) == pairing(rs, v, u)
    cu = [c * x for x in u]
    assert pairing(rs, cu, v) == c * pairing(rs, u, v)
    zero = (0, 0, 0, 0)
    assert pairing(rs, u, zero) == 0


def _gram_pairing(rs, lam, mu):
    """The double sum over the Gram matrix: the oracle for pairing."""
    total = Fraction(0)
    for i, a in enumerate(lam):
        for j, b in enumerate(mu):
            total += Fraction(a) * rs.form[i][j] * Fraction(b)
    return total


_half_integers = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-7, max_value=7).map(lambda k: Fraction(k, 2)),
)


@st.composite
def _weight_pairs(draw):
    N = draw(st.integers(min_value=2, max_value=12))
    weight = st.lists(_half_integers, min_size=N, max_size=N)
    return N, draw(weight), draw(weight)


@given(_weight_pairs())
@settings(max_examples=80, deadline=None)
def test_pairing_closed_form_matches_gram_double_sum(case):
    N, lam, mu = case
    rs = build_type_a(N)
    value = pairing(rs, lam, mu)
    assert type(value) is Fraction
    assert value == _gram_pairing(rs, lam, mu)


def test_type_a_roots_have_int_coordinates():
    rs = build_type_a(6)
    for r in rs.simple_roots + rs.positive_roots:
        assert all(type(c) is int for c in r)
    assert type(pairing(rs, rs.simple_roots[0], rs.simple_roots[0])) is Fraction


def _fraction_key(z):
    """The sort key on Fractions: -iZ_nu, then e_1..e_{N-1}, unscaled."""
    N = len(z)
    vecs = [tuple(Fraction(x) for x in z)] + [
        tuple(Fraction(int(i == j)) for i in range(N)) for j in range(N - 1)]

    def key(root):
        support = [(i, Fraction(c)) for i, c in enumerate(root) if c]
        return tuple(sum(c * v[i] for i, c in support) for v in vecs)
    return key


@pytest.mark.parametrize("N", range(2, 17))
def test_int_sort_keys_order_roots_as_fraction_keys(N):
    rs = build_type_a(N)
    for p in range(1, N // 2 + 1):
        z = tuple(Fraction(N - p, N) if i < p else Fraction(-p, N)
                  for i in range(N))
        order = standard_order_type_a(z)
        keys = order.check_regular(rs.positive_roots)
        assert all(type(x) is int for k in keys for x in k)
        expect = sorted(rs.positive_roots, key=_fraction_key(z))
        assert order.sort(rs.positive_roots) == expect


def test_lex_order_noncompact_above_compact():
    # AIII (4, 2): noncompact roots cross the block boundary
    z = (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))
    order = standard_order_type_a(z)
    rs = build_type_a(4)
    noncompact = [r for r in rs.positive_roots
                  if sum(Fraction(c) * zz for c, zz in zip(r, z)) != 0]
    compact = [r for r in rs.positive_roots if r not in noncompact]
    for nc in noncompact:
        for co in compact:
            assert order.key(nc) > order.key(co)


def test_order_rejects_duplicates():
    order = rootdata.RootOrder(first_vector=(Fraction(0), Fraction(0)))
    with pytest.raises(ParameterError):
        order.check_regular([(1, 0), (0, 1)])
