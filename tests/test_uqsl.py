import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qspair.errors import (
    ComparisonError,
    DomainError,
    ParameterError,
    StructuralError,
)
from qspair import satake
from qspair.rootdata import pairing
from qspair.satake import (
    build_aiii,
    cascade,
    normalization_constants,
    restricted_half_root,
    theta_weight,
)
from qspair.sln import (
    _eij,
    casimir_matrix,
    realize,
)
from qspair.uqsl import (
    QUASI_K_ATOL,
    _full_commutator_system,
    _mudrov_support,
    _mudrov_system,
    _null_vector,
    _qpow,
    closed_form_kmatrix,
    closed_form_s,
    closed_form_s_plus_mu,
    coideal_generators,
    cross_route_scalar,
    fundamental,
    infer_s_mu_from_eigs,
    kz_side_eigenvalue_data,
    lusztig_w0,
    lusztig_wX,
    make_params,
    quasi_k_in_rep,
    r_matrix,
    reflection_residual,
    sl2_spherical,
    solve_kmatrix,
    universal_r_scalar,
)

Q = float(np.exp(0.1))


def qp(expo):
    return Q ** float(expo)


def defining_relation_residual(uq):
    """Max residual of the U_q(sl_N) relations in the fundamental rep."""
    N, q = uq.N, uq.q
    worst = 0.0
    for i in range(N - 1):
        for j in range(N - 1):
            comm = uq.E[i] @ uq.F[j] - uq.F[j] @ uq.E[i]
            target = np.zeros((N, N), dtype=complex)
            if i == j:
                target = (uq.K[i] - np.linalg.inv(uq.K[i])) / (q - 1 / q)
            worst = max(worst, float(np.max(np.abs(comm - target))))
            # K E K^{-1} = q^{a_ij} E
            a = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            lhs = uq.K[i] @ uq.E[j] @ np.linalg.inv(uq.K[i])
            worst = max(worst, float(np.max(np.abs(lhs - q ** a * uq.E[j]))))
            if i != j:
                # quantum Serre at |i-j| = 1 (higher distances commute)
                if abs(i - j) == 1:
                    two = q + 1 / q
                    serre_e = (uq.E[i] @ uq.E[i] @ uq.E[j]
                               - two * uq.E[i] @ uq.E[j] @ uq.E[i]
                               + uq.E[j] @ uq.E[i] @ uq.E[i])
                    serre_f = (uq.F[i] @ uq.F[i] @ uq.F[j]
                               - two * uq.F[i] @ uq.F[j] @ uq.F[i]
                               + uq.F[j] @ uq.F[i] @ uq.F[i])
                else:
                    serre_e = uq.E[i] @ uq.E[j] - uq.E[j] @ uq.E[i]
                    serre_f = uq.F[i] @ uq.F[j] - uq.F[j] @ uq.F[i]
                worst = max(worst, float(np.max(np.abs(serre_e))))
                worst = max(worst, float(np.max(np.abs(serre_f))))
    return worst


STANDARD_ATOL = 1e-14   # |s_p| or |c_p^(0) - 1| up to this: the standard point


def is_standard(t):
    """Whether t is the standard point s_p = 0 / c_p = q^{-1/2}."""
    if t.tag == "S":
        return abs(t.s0[t.p]) < STANDARD_ATOL
    return (abs(t.c0[t.p] - 1) < STANDARD_ATOL
            and t.c_qexp[t.p] == Fraction(-1, 2))


# ---------------------------------------------------------------------------
# fundamental representation and R-matrix

def test_fundamental_matrices():
    uq = fundamental(3, Q)
    assert np.max(np.abs(uq.E[0] - qp(0.5) * np.diag([1, 0], k=1)[:3, :3])) < 1e-15
    assert abs(uq.F[1][2, 1] - qp(-0.5)) < 1e-15
    assert np.allclose(np.diag(uq.K[0]), [Q, 1 / Q, 1])


def test_defining_relations():
    for N in (2, 3, 4):
        assert defining_relation_residual(fundamental(N, Q)) < 1e-12


def test_r_matrix_n2_closed_form():
    R = r_matrix(2, Q)
    expected = np.diag([1 / Q, 1.0, 1.0, 1 / Q]).astype(complex)
    expected[1, 2] = 1 / Q - Q
    assert np.max(np.abs(R - expected)) < 1e-15


def test_r_matrix_q_one_identity():
    assert np.max(np.abs(r_matrix(3, 1.0) - np.eye(9))) < 1e-15


@pytest.mark.parametrize("N", [2, 3])
def test_yang_baxter(N):
    R = r_matrix(N, Q)
    sig = np.zeros((N * N, N * N))
    for i in range(N):
        for j in range(N):
            sig[j * N + i, i * N + j] = 1
    Rh = sig @ R
    A, B = np.kron(Rh, np.eye(N)), np.kron(np.eye(N), Rh)
    assert np.linalg.norm(A @ B @ A - B @ A @ B) < 1e-12


def test_r_matrix_rejects_bad_q():
    with pytest.raises(ParameterError):
        r_matrix(2, -1.0)


def test_universal_scalar():
    assert abs(universal_r_scalar(2, Q) - qp(0.5)) < 1e-15


# ---------------------------------------------------------------------------
# Lusztig elements

def test_lusztig_w0_n2():
    m = lusztig_w0(2, Q)
    assert np.max(np.abs(m - qp(0.5) * np.array([[0, 1], [-1, 0]]))) < 1e-14


def test_lusztig_wx_n3():
    m = lusztig_wX(3, 1, Q)
    # middle block is q^{(N-1)/2 - p} A_1 = q^0 * 1
    assert np.max(np.abs(m - np.eye(3))) < 1e-14


def test_lusztig_wx_n5():
    m = lusztig_wX(5, 1, Q)
    assert np.max(np.abs(m[0, 0] - 1)) < 1e-15
    inner = m[1:4, 1:4]
    expect = qp(1.0) * np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert np.max(np.abs(inner - expect)) < 1e-13


# ---------------------------------------------------------------------------
# parameters

def test_make_params_validation():
    with pytest.raises(ParameterError):
        make_params(4, 2, s_p=0.3)          # S-type needs imaginary s_p
    with pytest.raises(ParameterError):
        make_params(4, 2, c_p0=1.0)         # S-type has no c parameter
    with pytest.raises(ParameterError):
        make_params(3, 1, c_p0=-2.0)        # C-type needs c > 0
    with pytest.raises(ParameterError):
        make_params(3, 1, s_p=0.1j)         # C-type has no s parameter


def test_make_params_complex_extension():
    t = make_params(4, 2, s_p=0.1 + 0.2j, complex_ok=True)
    assert t.s_value(2) == 0.1 + 0.2j
    with pytest.raises(ParameterError):
        make_params(4, 2, s_p=1.0, complex_ok=True)   # excluded value
    t = make_params(3, 1, c_p0=0.5 + 0.1j, complex_ok=True)
    assert abs(t.c_value(1, Q) * t.c_value(2, Q) - 1 / Q) < 1e-14


def test_make_params_c_constraint():
    t = make_params(3, 1, c_p0=1.7)
    # c_p c_{tau(p)} = q^{-2 (a_p^-, a_p^-)} = q^{-1}
    prod = t.c_value(1, Q) * t.c_value(2, Q)
    assert abs(prod - 1 / Q) < 1e-14


def test_standard_params():
    t = make_params(2, 1)
    assert is_standard(t)
    assert abs(t.c_value(1, Q) - qp(-2)) < 1e-15     # (a^-, a^-) = 2 at p
    t = make_params(3, 1)
    assert is_standard(t)
    assert abs(t.c_value(1, Q) - qp(Fraction(-1, 2))) < 1e-15


@pytest.mark.parametrize("N", range(2, 9))
def test_satake_halves_and_exponents_stay_exact(N):
    for p in range(1, N // 2 + 1):
        t = make_params(N, p)
        sd = t.sd
        values = list(t.c_qexp.values())
        for i in range(1, N):
            values.extend(restricted_half_root(sd, i))
        if N == 2 * p:
            values.extend(normalization_constants(sd)["Z_formula"])
        assert all(isinstance(x, (int, Fraction)) for x in values), (N, p)
        # the exponents from the Fraction half roots alpha_i^-
        norm2 = {i: pairing(sd.root_system, restricted_half_root(sd, i),
                            restricted_half_root(sd, i)) for i in t.c_qexp}
        expect = {i: -norm2[i] for i in t.c_qexp}
        if N > 2 * p:
            expect[p] = Fraction(-1, 2)
            expect[N - p] = -2 * norm2[p] - expect[p]
        assert t.c_qexp == expect, (N, p)
        assert [type(x) for x in t.c_qexp.values()] == \
            [type(x) for x in expect.values()], (N, p)


def test_one_satake_build_per_solve(monkeypatch):
    calls = []

    def counting(sd):
        calls.append((sd.N, sd.p))
        return cascade(sd)

    monkeypatch.setattr(satake, "cascade", counting)
    for N, p, kw in [(4, 2, {"s_p": 0.2j}), (5, 2, {"c_p0": 1.3})]:
        calls.clear()
        solve_kmatrix(N, p, make_params(N, p, **kw), Q)
        assert calls == [(N, p)]


# ---------------------------------------------------------------------------
# coideal generators

def test_b1_n2_closed_form():
    t = make_params(2, 1)
    B1 = coideal_generators(2, 1, t, Q)["B"][1]
    expect = qp(-0.5) * np.array([[0, -1], [1, 0]])
    assert np.max(np.abs(B1 - expect)) < 1e-14


def test_bp_ctype_closed_form():
    # pi_V(B_p) = q^{-1/2} e_{p+1,p} - q^{N/2-p} c_p e_{p+1,N-p+1}
    for N, p in [(3, 1), (5, 2), (4, 1)]:
        t = make_params(N, p, c_p0=0.9)
        Bp = coideal_generators(N, p, t, Q)["B"][p]
        c_p = t.c_value(p, Q)
        expect = np.zeros((N, N), dtype=complex)
        expect[p, p - 1] = qp(-0.5)
        expect[p, N - p] = -qp(Fraction(N, 2) - p) * c_p
        assert np.max(np.abs(Bp - expect)) < 1e-13, (N, p)


def test_bi_below_p():
    # pi_V(B_i) = q^{-1/2}(e_{i+1,i} - e_{N-i,N-i+1}) for i < p
    N, p = 5, 2
    t = make_params(N, p)
    B1 = coideal_generators(N, p, t, Q)["B"][1]
    expect = np.zeros((N, N), dtype=complex)
    expect[1, 0] = qp(-0.5)
    expect[3, 4] = -qp(-0.5)
    assert np.max(np.abs(B1 - expect)) < 1e-13


def test_classical_limit_of_generators():
    # q -> 1 at t = 0: B_i tends to X_{-alpha_i} + theta(X_{-alpha_i}) with
    # theta = Ad of the explicit Satake-form matrix
    from test_sln import theta_matrix
    eps = 1e-6
    for N, p in [(2, 1), (4, 2), (3, 1), (5, 2)]:
        t = make_params(N, p)
        M = theta_matrix(N, p)
        Mi = np.linalg.inv(M)
        gens = coideal_generators(N, p, t, 1.0 + eps)
        for i, Bi in gens["B"].items():
            F = np.zeros((N, N), dtype=complex)
            F[i, i - 1] = 1
            classical = F + M @ F @ Mi
            gap = np.max(np.abs(Bi - classical))
            assert gap < 100 * eps, (N, p, i, gap)


def test_generator_param_mismatch():
    for (N, p), t in [((3, 1), make_params(2, 1)),
                      ((4, 2), make_params(4, 1, c_p0=0.9))]:
        with pytest.raises(ParameterError):
            coideal_generators(N, p, t, Q)


# ---------------------------------------------------------------------------
# K-matrices

def test_kmatrix_n2_standard():
    kr = solve_kmatrix(2, 1, make_params(2, 1), Q)
    expect = qp(-0.5) * np.array([[0, -1], [1, 0]])
    assert np.max(np.abs(kr.K - expect)) < 1e-12
    assert kr.residuals["reflection"] < 1e-12
    assert abs(kr.inferred_s_plus_mu) < 1e-10
    assert abs(kr.fitted_g - 1) < 1e-12


def test_kmatrix_s_type_sweep():
    for s_p in (0.0, 0.2j, 0.3j, -0.25j):
        t = make_params(4, 2, s_p=s_p)
        kr = solve_kmatrix(4, 2, t, Q)
        closed = closed_form_kmatrix(4, 2, t, Q)
        assert np.max(np.abs(kr.K - closed)) < 1e-10
        assert kr.residuals["reflection"] < 1e-10
        assert kr.residuals["commutant"] < 1e-10
        assert abs(kr.inferred_s_plus_mu - kr.closed_form_s_plus_mu) < 1e-9
        assert abs(kr.fitted_g + 1) < 1e-12      # (-1)^(p-1) at p = 2


def test_kmatrix_c_type_values():
    t = make_params(3, 1)
    kr = solve_kmatrix(3, 1, t, Q)
    lam = np.exp(-1j * np.pi / 3) * qp(Fraction(1, 3) - 2)
    mu = -np.exp(-1j * np.pi / 3) * qp(Fraction(1, 3) - 1)
    assert abs(kr.mudrov["lambda"] - lam) < 1e-12
    assert abs(kr.mudrov["mu_M"] - mu) < 1e-12
    assert abs(kr.inferred_s_plus_mu) < 1e-10


def test_kmatrix_c_type_sweep():
    for c in (0.6, 1.0, 1.4, 2.0):
        t = make_params(3, 1, c_p0=c)
        kr = solve_kmatrix(3, 1, t, Q)
        closed = closed_form_kmatrix(3, 1, t, Q)
        assert np.max(np.abs(kr.K - closed)) < 1e-10
        expected_x = 2 / np.pi * np.log(c) + 0.1 / np.pi
        assert abs(kr.inferred_s_plus_mu - expected_x) < 1e-9
        assert abs(kr.inferred_s - 2 / np.pi * np.log(c)) < 1e-12


def test_kmatrix_nonempty_black_vertices():
    # N - 2p >= 2 turns on the T_{wX} factors and the U_q(g_X) commutant
    # constraints; the closed forms must still be hit
    for N, p, c in [(5, 1, None), (5, 1, 1.4), (6, 2, 0.8), (7, 3, 1.2)]:
        t = make_params(N, p) if c is None else make_params(N, p, c_p0=c)
        kr = solve_kmatrix(N, p, t, Q)
        closed = closed_form_kmatrix(N, p, t, Q)
        assert np.max(np.abs(kr.K - closed)) < 1e-10, (N, p, c)
        assert kr.residuals["reflection"] < 1e-10
        assert abs(kr.inferred_s_plus_mu - kr.closed_form_s_plus_mu) < 1e-9
        assert abs(kr.fitted_g - 1) < 1e-12


def test_mudrov_constraint_holds():
    for args in [(4, 2, make_params(4, 2, s_p=0.3j)),
                 (3, 1, make_params(3, 1, c_p0=1.3)),
                 (5, 2, make_params(5, 2, c_p0=0.8))]:
        N, p, t = args
        kr = solve_kmatrix(N, p, t, Q)
        lam, mu = kr.mudrov["lambda"], kr.mudrov["mu_M"]
        y = kr.mudrov["y"]
        for i in range(p):
            assert abs(y[i] * y[2 * p - 1 - i] + lam * mu) < 1e-10
        # eigenvalue moduli match the KZ-side reflection operator
        eigs = np.sort(np.abs(kr.eigenvalues))
        h = 0.1
        cp, cm, zp, zm = kz_side_eigenvalue_data(N, p, h)
        x = kr.inferred_s_plus_mu.real
        model = sorted([np.exp(-h * cp + np.pi * x * zp)] * p
                       + [np.exp(-h * cm + np.pi * x * zm)] * (N - p))
        assert np.max(np.abs(eigs - model)) < 1e-9


def _reflection_residual_oracle(K, q):
    """The column-loop reflection residual: Rh and K_1 = K (x) 1 act on N
    columns at a time, held as (N, N, N) arrays v[c, d, column]."""
    N = K.shape[0]
    swap = np.where(np.eye(N, dtype=bool), 1 / q, 1.0)[:, :, None]
    keep = np.tril(np.full((N, N), 1 / q - q), -1)[:, :, None]

    def rh(v):
        return swap * v.transpose(1, 0, 2) + keep * v

    def k1(v):
        return np.tensordot(K, v, axes=1)

    diff2 = rhs2 = 0.0
    cols = np.arange(N)
    for a in range(N):
        # the columns e_a (x) e_b, b = 0..N-1, of the identity
        block = np.zeros((N, N, N), dtype=complex)
        block[a, cols, cols] = 1.0
        rhs = rh(k1(rh(k1(block))))
        diff = k1(rh(k1(rh(block)))) - rhs
        diff2 += np.vdot(diff, diff).real
        rhs2 += np.vdot(rhs, rhs).real
    return float(np.sqrt(diff2) / max(np.sqrt(rhs2), 1e-300))


def _random_mudrov_k(rng, N, p):
    """Random complex entries on the Mudrov support, zero elsewhere."""
    K = np.zeros((N, N), dtype=complex)
    for a, b in _mudrov_support(N, p):
        K[a, b] = rng.normal() + 1j * rng.normal()
    return K


def _assert_matches_column_loop(K, q):
    """Relative agreement where the residual is O(1); where K solves the
    reflection equation both are at roundoff."""
    new, oracle = reflection_residual(K, q), _reflection_residual_oracle(K, q)
    if oracle > 1e-8:
        assert abs(new - oracle) <= 1e-12 * oracle
    else:
        assert new <= 1e-14 and oracle <= 1e-14


@pytest.mark.parametrize("q", [Q, 0.83])
def test_reflection_residual_matches_column_loop(q):
    rng = np.random.default_rng(7)
    for N in range(1, 9):
        _assert_matches_column_loop(
            rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), q)
    # on the Mudrov support; at N = 2 every such K solves the equation
    for N in range(2, 17):
        for p in range(1, N // 2 + 1):
            _assert_matches_column_loop(_random_mudrov_k(rng, N, p), q)


@pytest.mark.parametrize("N", [2, 3, 5, 8, 12, 16])
def test_reflection_residual_of_solved_k_matches_column_loop(N):
    for p in range(1, N // 2 + 1):
        kw = {"s_p": 0.3j} if N == 2 * p else {"c_p0": 1.4}
        K = solve_kmatrix(N, p, make_params(N, p, **kw), Q).K
        assert reflection_residual(K, Q) <= 1e-14, (N, p)
        assert _reflection_residual_oracle(K, Q) <= 1e-14, (N, p)


def test_reflection_residual_negative_control():
    K = np.array([[1.0, 0.3], [0.0, 2.0]], dtype=complex)
    assert reflection_residual(K, Q) > 1e-3


def _flip(d):
    """Sigma(v (x) w) = w (x) v on C^d (x) C^d as a permutation matrix."""
    out = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            out[j * d + i, i * d + j] = 1.0
    return out


@pytest.mark.parametrize("q", [Q, 0.83])
@pytest.mark.parametrize("N", [2, 3, 4, 5] + list(range(6, 13)))
def test_reflection_residual_matches_dense_formula(N, q):
    rng = np.random.default_rng(N)
    if N < 6:
        Ks = [rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))]
    else:
        Ks = [_random_mudrov_k(rng, N, p) for p in range(1, N // 2 + 1)]
    Rh = _flip(N) @ r_matrix(N, q)
    for K in Ks:
        K1 = np.kron(K, np.eye(N))
        lhs = K1 @ Rh @ K1 @ Rh
        rhs = Rh @ K1 @ Rh @ K1
        dense = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert abs(reflection_residual(K, q) - dense) <= 1e-12 * dense


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_r_matrix_equals_kronecker_sum(N):
    q = 1.23
    ref = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N):
        for j in range(N):
            ref += (1 / q if i == j else 1.0) * np.kron(_eij(N, i, i),
                                                        _eij(N, j, j))
    for i in range(N):
        for j in range(i + 1, N):
            ref += (1 / q - q) * np.kron(_eij(N, i, j), _eij(N, j, i))
    R = r_matrix(N, q)
    assert np.array_equal(R, ref)
    assert np.array_equal(np.signbit(R.real), np.signbit(ref.real))
    assert np.array_equal(np.signbit(R.imag), np.signbit(ref.imag))


@pytest.mark.parametrize("N", range(2, 11))
def test_kz_side_eigenvalues_equal_casimir_diagonal(N):
    for p in range(1, N // 2 + 1):
        ck = casimir_matrix(realize(N, p), "k")
        c_plus, c_minus, _, _ = kz_side_eigenvalue_data(N, p, 0.1)
        assert c_plus == ck[0, 0].real
        assert c_minus == ck[N - 1, N - 1].real


def test_nullity_is_scale_free():
    N, p = 5, 2
    gens = coideal_generators(N, p, make_params(N, p, c_p0=0.8), Q)["all"]
    A, _ = _mudrov_system(N, p, gens)
    vec, gap = _null_vector(A)
    # an extra unknown no equation reaches makes the null space 2-dimensional
    wide = np.hstack([A, np.zeros((A.shape[0], 1))])
    for scale in (1e-12, 1.0, 1e6):
        scaled, scaled_gap = _null_vector(scale * A)
        assert abs(np.vdot(scaled, vec)) == pytest.approx(1)
        assert scaled_gap["sigma_kept_min_rel"] == pytest.approx(
            gap["sigma_kept_min_rel"])
        with pytest.raises(StructuralError, match="2-dimensional"):
            _null_vector(scale * wide)
    # fewer equations than unknowns: the null singular value is implicit
    short, short_gap = _null_vector(np.array([[1.0, -1.0]]))
    assert np.allclose(np.abs(short), [2 ** -0.5, 2 ** -0.5])
    assert short_gap == {"sigma_kept_min_rel": 1.0, "sigma_null_max_rel": 0.0}


def test_solve_kmatrix_n32_matches_closed_form():
    t = make_params(32, 16, s_p=0.2j)
    kr = solve_kmatrix(32, 16, t, Q)
    assert np.max(np.abs(kr.K - closed_form_kmatrix(32, 16, t, Q))) < 1e-10
    assert kr.residuals["reflection"] < 1e-10


@pytest.mark.parametrize("N,p,kw", [(64, 32, {"s_p": 0.2j}),
                                    (64, 21, {"c_p0": 1.3})])
def test_solve_kmatrix_n64_matches_closed_form(N, p, kw):
    t = make_params(N, p, **kw)
    kr = solve_kmatrix(N, p, t, Q)
    assert np.max(np.abs(kr.K - closed_form_kmatrix(N, p, t, Q))) < 1e-10
    assert kr.residuals["reflection"] < 1e-10


def _commutator_system_oracle(g, positions):
    """Matrix of M -> [M, g] for M supported on positions, one dense
    (N, N, nvar) array per generator.

    Row a N + b holds the coefficients of [M, g]_{ab}; column k those of the
    entry M_{positions[k]}.
    """
    N, nvar = g.shape[0], len(positions)
    c, d = np.array(positions, dtype=int).reshape(nvar, 2).T
    k = np.arange(nvar)
    A = np.zeros((N, N, nvar), dtype=complex)
    # [e_cd, g]_{ab} = delta_ac g_db - g_ac delta_db
    A[c, :, k] += g[d, :]
    A[:, d, k] -= g[:, c]
    return A.reshape(N * N, nvar)


def _mudrov_system_oracle(N, p, gens):
    """_mudrov_system from the per-generator dense systems."""
    support = sorted(_mudrov_support(N, p))
    pos_index = {pos: k for k, pos in enumerate(support)}
    nvar = len(support)

    rows = []
    for g in gens:
        # drop the zero rows (entries of [K, g] no support position reaches):
        # they carry no equation
        A = _commutator_system_oracle(g, support)
        rows.extend(A[np.any(A != 0, axis=1)])
    # diagonal equality constraints
    for a in range(1, p):
        row = np.zeros(nvar, dtype=complex)
        row[pos_index[(0, 0)]] = 1
        row[pos_index[(a, a)]] = -1
        rows.append(row)
    for a in range(p + 1, N - p):
        row = np.zeros(nvar, dtype=complex)
        row[pos_index[(p, p)]] = 1
        row[pos_index[(a, a)]] = -1
        rows.append(row)
    return np.array(rows), support


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


@pytest.mark.parametrize("N", range(2, 13))
def test_mudrov_system_matches_per_generator_oracle(N):
    for p in range(1, N // 2 + 1):
        points = ([{"s_p": 0.0}, {"s_p": 0.3j}] if N == 2 * p
                  else [{}, {"c_p0": 1.7}])
        for kw, q in itertools.product(points, (Q, 1.01)):
            gens = coideal_generators(N, p, make_params(N, p, **kw), q)["all"]
            A, support = _mudrov_system(N, p, gens)
            ref, ref_support = _mudrov_system_oracle(N, p, gens)
            assert support == ref_support
            _assert_bitwise_equal(A, ref)


@pytest.mark.parametrize("N", range(2, 9))
def test_full_commutator_system_matches_per_generator_oracle(N):
    F = fundamental(N, Q).F
    off = [(a, b) for a in range(N) for b in range(N) if a != b]
    # the weight spaces quasi_k_in_rep solves on, and a wider support
    for positions in [[]] + [[pos] for pos in off] + [off]:
        full = _full_commutator_system(F, positions)
        ref = np.vstack([_commutator_system_oracle(g, positions) for g in F])
        _assert_bitwise_equal(full, ref)
        # quasi_k_in_rep negates the system, zero rows included
        _assert_bitwise_equal(-full, np.vstack(
            [-_commutator_system_oracle(g, positions) for g in F]))


def test_solve_kmatrix_forms_no_n2_by_n2_array():
    N, p = 24, 12
    t = make_params(N, p)
    solve_kmatrix(4, 2, make_params(4, 2), Q)   # first-call imports
    tracemalloc.start()
    try:
        solve_kmatrix(N, p, t, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (N * N) ** 2 * np.dtype(complex).itemsize


def test_infer_rejects_alien_eigenvalues():
    t = make_params(2, 1)
    with pytest.raises(ComparisonError):
        infer_s_mu_from_eigs(np.array([2.0, 3.0]), 2, 1, 0.1, t)


# ---------------------------------------------------------------------------
# quasi-K route

def _quasi_k_monoid_oracle(N, p, q):
    """quasi_k_in_rep as it solved every weight of the monoid generated by the
    2 alpha_i^- up to the End(V) height N - 1, sorted by the sum of the
    positive L-coordinates: the reference for the frontier recursion.

    Split (S-type) case only: X is empty, so T_{wX} = 1 and the bar
    involution fixes the X_i = -E_{tau(i)} appearing in the recursion.
    """
    if N != 2 * p:
        raise DomainError("quasi-K route implemented for the split case N = 2p")
    sd = build_aiii(N, p)
    rs = sd.root_system
    uq = fundamental(N, q)

    # c'_i = q^{(alpha_i, Theta(alpha_i))/2} (rho_X = 0 here)
    cprime_exp = {}
    theta_pair = {}
    for i in range(1, N):
        a = sd.simple_root(i)
        ta = theta_weight(sd, a)
        theta_pair[i] = pairing(rs, a, ta)
        cprime_exp[i] = theta_pair[i] / 2

    # weight-mu subspaces of End(V): mu = L_a - L_b
    def weight_positions(mu):
        out = []
        for a in range(N):
            for b in range(N):
                vec = [Fraction(0)] * N
                vec[a] += 1
                vec[b] -= 1
                if tuple(vec) == tuple(mu) and a != b:
                    out.append((a, b))
        return out

    # the monoid generated by 2 alpha_i^- up to the maximal End(V) height
    gens_mu = []
    for i in range(1, N):
        hr = restricted_half_root(sd, i)
        gens_mu.append(tuple(2 * x for x in hr))
    max_height = N - 1
    frontier = {tuple(Fraction(0) for _ in range(N))}
    reachable = set(frontier)
    while frontier:
        new = set()
        for mu in frontier:
            for g in gens_mu:
                cand = tuple(a + b for a, b in zip(mu, g))
                ht = sum(c for c in cand if c > 0)
                if ht <= max_height and cand not in reachable:
                    new.add(cand)
        reachable |= new
        frontier = new

    zero_mu = tuple(Fraction(0) for _ in range(N))
    M = {zero_mu: np.eye(N, dtype=complex)}
    order = sorted(reachable, key=lambda mu: sum(c for c in mu if c > 0))
    worst_residual = 0.0
    for mu in order:
        if mu == zero_mu:
            continue
        positions = weight_positions(mu)
        rhs = []
        for i in range(1, N):
            hr = restricted_half_root(sd, i)
            prev_mu = tuple(a - 2 * b for a, b in zip(mu, hr))
            M_prev = M.get(prev_mu)
            if M_prev is None:
                M_prev = np.zeros((N, N), dtype=complex)
            j = sd.tau[i]
            # X_i = -E_j; bar(c'_i X_i) K_i and q^{-(a_i,Th a_i)} K_i^{-1} c'_i X_i
            cp = _qpow(q, cprime_exp[i])
            cp_bar = _qpow(q, -cprime_exp[i])
            right = M_prev @ (-cp_bar * uq.E[j - 1] @ uq.K[i - 1])
            left = (-_qpow(q, -theta_pair[i]) * cp
                    * np.linalg.inv(uq.K[i - 1]) @ uq.E[j - 1]) @ M_prev
            target = right - left
            rhs.append(target.ravel())
        # [F_i, M] = -[M, F_i]; the zero rows stay, the residual reads them
        A = -_full_commutator_system(uq.F, positions)
        bvec = np.concatenate(rhs)
        if positions:
            sol, *_ = np.linalg.lstsq(A, bvec, rcond=None)
            resid = float(np.linalg.norm(A @ sol - bvec))
        else:
            sol = np.zeros(0)
            resid = float(np.linalg.norm(bvec))
        worst_residual = max(worst_residual, resid)
        if resid > QUASI_K_ATOL:
            raise StructuralError(
                f"quasi-K recursion inconsistent at weight {mu}: {resid:.2e}")
        Mmu = np.zeros((N, N), dtype=complex)
        for k, (a, b) in enumerate(positions):
            Mmu[a, b] = sol[k]
        M[mu] = Mmu

    # omega_0 pairing values (omega_0, alpha_i) for the Ad K_{omega_0} scalars
    omega0_pair = {}
    for i in range(1, N):
        a = sd.simple_root(i)
        ti = sd.tau[i]
        term = theta_weight(sd, sd.simple_root(ti))
        val = (pairing(rs, term, a)
               - pairing(rs, sd.simple_root(ti), a)
               - pairing(rs, theta_weight(sd, a), a)) / 4
        omega0_pair[i] = val

    def omega0_dot(mu):
        # expand mu in simple roots: type A partial sums
        coeffs = []
        acc = Fraction(0)
        for c in mu[:-1]:
            acc += c
            coeffs.append(acc)
        return sum(coeffs[i - 1] * omega0_pair[i] for i in range(1, N))

    X_rep = np.zeros((N, N), dtype=complex)
    for mu, Mmu in M.items():
        X_rep = X_rep + _qpow(q, omega0_dot(mu)) * Mmu

    # xi' is scalar in the split case: q^{-(L_i^+, L_i^+)} with value
    # independent of i
    Lplus_sq = None
    xi_diag = []
    for i in range(N):
        L = [Fraction(0)] * N
        L[i] = Fraction(1)
        tL = theta_weight(sd, tuple(L))
        Lp = tuple((a + b) / 2 for a, b in zip(L, tL))
        xi_diag.append(_qpow(q, -pairing(rs, Lp, Lp)))
    xi = np.diag(xi_diag).astype(complex)

    K = X_rep @ xi @ np.linalg.inv(lusztig_wX(N, p, q)) \
        @ np.linalg.inv(lusztig_w0(N, q))
    return X_rep, K


@pytest.mark.parametrize("q", [Q, 1.01])
@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_quasi_k_frontier_matches_monoid_oracle(N, q):
    X, K = quasi_k_in_rep(N, N // 2, q)
    X_ref, K_ref = _quasi_k_monoid_oracle(N, N // 2, q)
    assert np.array_equal(X, X_ref)
    assert np.array_equal(K, K_ref)


def test_quasi_k_x_is_identity_in_fundamental():
    X, _ = quasi_k_in_rep(2, 1, Q)
    assert np.max(np.abs(X - np.eye(2))) < 1e-12
    X, _ = quasi_k_in_rep(4, 2, Q)
    assert np.max(np.abs(X - np.eye(4))) < 1e-12


def test_quasi_k_assembled_n2():
    _, K = quasi_k_in_rep(2, 1, Q)
    expect = qp(-0.5) * np.array([[0, -1], [1, 0]])
    assert np.max(np.abs(K - expect)) < 1e-12


def test_quasi_k_rejects_c_type():
    with pytest.raises(DomainError):
        quasi_k_in_rep(3, 1, Q)


@pytest.mark.parametrize("N,p", [(2 * p, p) for p in range(1, 17)])
def test_cross_route_agreement(N, p):
    scalar, gap = cross_route_scalar(N, p, Q)
    assert abs(abs(scalar) - 1) < 1e-9
    assert gap < 1e-9


# ---------------------------------------------------------------------------
# closed-form parameter maps

def test_closed_form_s_plus_mu_limits():
    # S-type at q -> 1 reduces to the log((1+c^2)^{1/2} + c) rule
    t = make_params(4, 2, s_p=0.3j)
    x1 = closed_form_s_plus_mu(4, 2, t, 1.0 + 1e-9)
    c = 0.3
    assert abs(x1 - 2 / np.pi * np.log(np.sqrt(1 + c * c) + c)) < 1e-6
    assert abs(closed_form_s(4, 2, t)
               - 2 / np.pi * np.log(np.sqrt(1 + c * c) + c)) < 1e-12


# ---------------------------------------------------------------------------
# spherical vectors

def test_sl2_spherical_n0():
    v = sl2_spherical(0, 1.0 + 0j, 0.5, Q)
    assert v.shape == (1,)
    assert abs(v[0] - 1) < 1e-15


def test_sl2_spherical_n1_lemma_coefficients():
    c, s = 0.7 + 0.2j, 0.3 - 0.1j
    v = sl2_spherical(1, c, s, Q)
    two = Q + 1 / Q
    expect = np.array([
        1.0,
        s * (1 - Q ** 2) / (c * Q ** 2 * two),
        1.0 / (c * Q ** 2 * two),
    ])
    assert np.max(np.abs(v - expect)) < 1e-12


def test_sl2_spherical_n2_kernel():
    c, s = 1.3, 0.2 + 0.4j
    v = sl2_spherical(2, c, s, Q)
    assert v.shape == (5,)
    # rebuild B and verify the kernel property independently
    q = Q
    d = 5
    qn = lambda k: (q ** k - q ** (-k)) / (q - 1 / q)
    F = np.zeros((d, d), dtype=complex)
    E = np.zeros((d, d), dtype=complex)
    Kinv = np.zeros((d, d), dtype=complex)
    for k in range(d):
        Kinv[k, k] = q ** (2 * k - 4)
        if k + 1 < d:
            F[k + 1, k] = 1
        if k >= 1:
            E[k - 1, k] = qn(k) * qn(4 - k + 1)
    B = F - c * E @ Kinv + s * (Kinv - np.eye(d))
    assert np.linalg.norm(B @ v) / np.linalg.norm(v) < 1e-12


def test_sl2_spherical_validation():
    with pytest.raises(ParameterError):
        sl2_spherical(-1, 1.0, 0.0, Q)
    with pytest.raises(ParameterError):
        sl2_spherical(1, 0.0, 0.0, Q)
