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
from qspair.satake import cascade, normalization_constants, restricted_half_root
from qspair.sln import (
    _eij,
    casimir_matrix,
    realize,
)
from qspair.uqsl import (
    _mudrov_system,
    _null_vector,
    closed_form_kmatrix,
    closed_form_s,
    closed_form_s_plus_mu,
    coideal_generators,
    cross_route_scalar,
    defining_relation_residual,
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
    assert t.is_standard
    assert abs(t.c_value(1, Q) - qp(-2)) < 1e-15     # (a^-, a^-) = 2 at p
    t = make_params(3, 1)
    assert t.is_standard
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
    from qspair.sln import theta_matrix
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
@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_reflection_residual_matches_dense_formula(N, q):
    rng = np.random.default_rng(N)
    K = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    Rh = _flip(N) @ r_matrix(N, q)
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


@pytest.mark.parametrize("N,p", [(2, 1), (4, 2), (6, 3)])
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
