from dataclasses import replace
from fractions import Fraction

import pytest

from qspair.errors import DomainError, ParameterError
from qspair.rootdata import build_type_a, pairing, standard_order_type_a
from qspair.satake import (
    build_aiii,
    dim_m,
    longest_element_wx,
    normalization_constants,
    partition_roots,
    restricted_half_root,
    _apply_matrix,
    _is_root,
    cascade,
    theta_weight,
)


def L(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def test_build_aiii_s_type():
    sd = build_aiii(4, 2)
    assert sd.hermitian_tag == "S"
    assert sd.X == frozenset()
    assert sd.distinguished == {2}
    assert sd.tau == {1: 3, 2: 2, 3: 1}


def test_build_aiii_n3_c_type_empty_x():
    # X = {p+1, ..., N-p-1} evaluates to the empty set at N=3, p=1
    sd = build_aiii(3, 1)
    assert sd.hermitian_tag == "C"
    assert sd.X == frozenset()
    assert sd.distinguished == {1, 2}


def test_build_aiii_n5_black_vertices():
    sd = build_aiii(5, 1)
    assert sd.X == frozenset({2, 3})
    assert sd.distinguished == {1, 4}


def test_build_aiii_rejects_bad_p():
    with pytest.raises(ParameterError):
        build_aiii(4, 3)
    with pytest.raises(ParameterError):
        build_aiii(4, 0)


def test_theta_fixes_x_roots_and_is_involution():
    for N, p in [(4, 2), (3, 1), (5, 1), (6, 2), (5, 2)]:
        sd = build_aiii(N, p)
        for i in sd.X:
            a = sd.simple_root(i)
            assert theta_weight(sd, a) == a
        for a in sd.root_system.simple_roots:
            assert theta_weight(sd, theta_weight(sd, a)) == a


def test_theta_concrete_aiii_values():
    # S-type: Theta(L_i) = L_{N+1-i}; C-type fixes the middle block
    sd = build_aiii(4, 2)
    assert theta_weight(sd, L(1, 0, 0, 0)) == L(0, 0, 0, 1)
    sd = build_aiii(5, 1)
    assert theta_weight(sd, L(0, 1, 0, 0, 0)) == L(0, 1, 0, 0, 0)
    assert theta_weight(sd, L(1, 0, 0, 0, 0)) == L(0, 0, 0, 0, 1)


def test_roots_restricting_to_zero_are_exactly_zpix():
    for N, p in [(5, 1), (6, 2), (5, 2)]:
        sd = build_aiii(N, p)
        for alpha in sd.root_system.positive_roots:
            fixed = theta_weight(sd, alpha) == alpha
            in_zpix = all(
                c == 0
                for i, c in enumerate(_simple_coords(sd, alpha))
                if (i + 1) not in sd.X
            )
            # Phi+ cap Theta(Phi+) = Phi+ cap Z Pi_X; on Phi+ the fixed roots
            # of Theta are exactly the X-span ones
            if in_zpix:
                assert fixed


def _simple_coords(sd, alpha):
    # type A: alpha = sum c_i alpha_i with c_i = partial sums of L coefficients
    coeffs = []
    acc = Fraction(0)
    for c in alpha[:-1]:
        acc += c
        coeffs.append(acc)
    return coeffs


def test_cascade_values():
    assert build_aiii(2, 1).cascade == (L(1, -1),)
    assert build_aiii(3, 1).cascade == (L(1, 0, -1),)
    assert build_aiii(4, 2).cascade == (L(1, 0, 0, -1), L(0, 1, -1, 0))
    assert build_aiii(6, 3).cascade == (
        L(1, 0, 0, 0, 0, -1), L(0, 1, 0, 0, -1, 0), L(0, 0, 1, -1, 0, 0),
    )


def test_cascade_noncompact_and_strongly_orthogonal():
    for N, p in [(4, 2), (5, 2), (6, 3), (6, 2), (5, 1)]:
        sd = build_aiii(N, p)
        roots = set(sd.root_system.positive_roots)
        for g in sd.cascade:
            assert not sd.is_compact(g)
        for a in sd.cascade:
            for b in sd.cascade:
                if a != b:
                    assert tuple(x + y for x, y in zip(a, b)) not in roots
                    assert tuple(x - y for x, y in zip(a, b)) not in roots
                    diff = tuple(y - x for x, y in zip(a, b))
                    assert diff not in roots


def test_cascade_length_equals_rank_of_restricted_system():
    # s = p for AIII
    for N, p in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 2)]:
        assert len(build_aiii(N, p).cascade) == p


def test_partition_4_2():
    sd = build_aiii(4, 2)
    part = partition_roots(sd)
    assert set(part.P0) == set(sd.cascade)
    assert len(part.Cij[(1, 2)]) == 2
    assert len(part.Pij[(1, 2)]) == 2
    assert part.C0 == ()
    assert all(len(v) == 0 for v in part.Pi.values())
    assert all(len(v) == 0 for v in part.Ci.values())


def test_partition_2_1_trivial():
    part = partition_roots(build_aiii(2, 1))
    assert part.P0 == (L(1, -1),)
    assert part.C0 == ()


def test_partition_3_1_compactness_split():
    sd = build_aiii(3, 1)
    part = partition_roots(sd)
    assert part.P0 == (L(1, 0, -1),)
    # L1-L2 is noncompact (crosses the block), L2-L3 compact
    assert part.Pi[1] == (L(1, -1, 0),)
    assert part.Ci[1] == (L(0, 1, -1),)


def test_partition_all_accounted():
    for N, p in [(4, 1), (5, 2), (6, 3), (6, 1)]:
        sd = build_aiii(N, p)
        part = partition_roots(sd)
        total = (len(part.P0) + len(part.C0)
                 + sum(map(len, part.Pi.values()))
                 + sum(map(len, part.Ci.values()))
                 + sum(map(len, part.Pij.values()))
                 + sum(map(len, part.Cij.values())))
        assert total == len(sd.root_system.positive_roots)
        # every C0 root is strongly orthogonal to the whole cascade
        roots = set(sd.root_system.positive_roots)
        for alpha in part.C0:
            for g in sd.cascade:
                for sgn in (1, -1):
                    cand = tuple(x + sgn * y for x, y in zip(alpha, g))
                    assert cand not in roots and tuple(-c for c in cand) not in roots


def test_restricted_basis_matches_cascade_pattern():
    # basis of restricted system: (gamma_i - gamma_{i+1})/2 plus gamma_s (S)
    # or gamma_s / 2 (C), indexed by tau-orbits of white vertices
    for N, p in [(4, 2), (6, 3), (3, 1), (5, 1), (6, 2)]:
        sd = build_aiii(N, p)
        white = [i for i in range(1, N) if i not in sd.X]
        orbits = set()
        for i in white:
            orbits.add(frozenset({i, sd.tau[i]}))
        restrictions = set()
        for orb in orbits:
            i = min(orb)
            restrictions.add(restricted_half_root(sd, i))
        g = sd.cascade
        s = len(g)
        expected = set()
        for i in range(s - 1):
            expected.add(tuple((a - b) / 2 for a, b in zip(g[i], g[i + 1])))
        if sd.hermitian_tag == "S":
            expected.add(g[s - 1])
        else:
            expected.add(tuple(a / 2 for a in g[s - 1]))
        assert restrictions == expected


def test_cascade_roots_same_length():
    for N, p in [(4, 2), (6, 3), (6, 2), (5, 2)]:
        sd = build_aiii(N, p)
        rs = sd.root_system
        from qspair.rootdata import pairing
        lengths = {pairing(rs, g, g) for g in sd.cascade}
        assert len(lengths) == 1


def test_normalization_constants():
    out = normalization_constants(build_aiii(2, 1))
    assert out["dim_m"] == 2
    assert abs(out["a_sigma"] - 2 ** 0.5) < 1e-15
    out = normalization_constants(build_aiii(4, 2))
    assert out["a_sigma_squared"] == 1
    assert abs(out["a_nu_from_cascade"] - 1.0) < 1e-15
    out = normalization_constants(build_aiii(6, 3))
    assert out["a_sigma_squared"] == Fraction(2, 3)
    assert abs(out["a_nu_from_cascade"] - (2 / 3) ** 0.5) < 1e-15


def test_normalization_requires_hermitian():
    sd = build_aiii(4, 2)
    object.__setattr__(sd, "hermitian_tag", "nonHermitian")
    with pytest.raises(DomainError):
        normalization_constants(sd)


def test_dim_m():
    assert dim_m(build_aiii(2, 1)) == 2
    assert dim_m(build_aiii(3, 1)) == 4
    assert dim_m(build_aiii(4, 2)) == 8


def _closed_form_cascade(N, p):
    """gamma_k = L_k - L_{N+1-k} for k = 1..p."""
    gammas = []
    for k in range(p):
        v = [Fraction(0)] * N
        v[k], v[N - 1 - k] = Fraction(1), Fraction(-1)
        gammas.append(tuple(v))
    return tuple(gammas)


@pytest.mark.parametrize(
    "N, p",
    [(N, p) for N in range(2, 13) for p in range(1, N // 2 + 1)]
    + [(24, 12), (32, 16), (48, 24), (64, 32)])
def test_cascade_matches_closed_form(N, p):
    assert build_aiii(N, p).cascade == _closed_form_cascade(N, p)


@pytest.mark.parametrize("N", range(2, 13))
def test_longest_element_wx_reverses_the_black_block(N):
    rs = build_type_a(N)
    positive = set(rs.positive_roots)
    for p in range(1, N // 2 + 1):
        w = longest_element_wx(N, p)
        moved = {i for i in range(N) if w[i][i] != 1}
        assert moved <= set(range(p, N - p))     # coordinates p+1..N-p
        assert all(sorted(row) == [0] * (N - 1) + [1] for row in w)
        assert all(sorted(col) == [0] * (N - 1) + [1] for col in zip(*w))
        for j in range(p + 1, N - p):
            image = _apply_matrix(w, rs.simple_roots[j - 1])
            assert tuple(-x for x in image) in positive


def _pairing_cascade(sd):
    """The cascade with its central roots filtered by pairing(rs, root,
    gamma) == 0, as it was before the filter compared root supports."""
    rs = sd.root_system
    keys = standard_order_type_a(sd.z_nu).check_regular(rs.positive_roots)
    central = [(k, r, sd.is_compact(r))
               for k, r in zip(keys, rs.positive_roots)]
    gammas = []
    while central and not all(compact for _, _, compact in central):
        _, gamma, compact = max(central, key=lambda entry: entry[0])
        assert not compact
        gammas.append(gamma)
        central = [entry for entry in central
                   if pairing(rs, entry[1], gamma) == 0]
    return tuple(gammas)


@pytest.mark.parametrize("N", list(range(2, 15)) + [20, 25])
def test_support_filter_matches_the_pairing_filter(N):
    for p in range(1, N // 2 + 1):
        sd = build_aiii(N, p)
        oracle = _pairing_cascade(sd)
        assert cascade(sd) == sd.cascade == oracle
        assert repr(sd) == repr(replace(sd, cascade=oracle))


@pytest.mark.parametrize("N", range(2, 8))
def test_sparse_root_test_matches_the_root_set(N):
    # the strong-orthogonality check tests gamma_i +- gamma_j on their
    # supports; against membership in the set of all roots
    pos = build_type_a(N).positive_roots
    roots = set(pos) | {tuple(-x for x in r) for r in pos}
    for a in pos:
        for b in pos:
            for sign in (1, -1):
                vec = tuple(x + sign * y for x, y in zip(a, b))
                # zeros kept at the odd coordinates must not count
                sparse = {i: x for i, x in enumerate(vec) if x or i % 2}
                assert _is_root(sparse) == (vec in roots), (a, b, sign)
