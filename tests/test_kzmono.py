from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from qspair.errors import (
    ParameterError,
    ResonanceError,
    ShapeError,
    TruncationError,
)
from qspair.kzmono import (
    EIG_COND_LIMIT,
    RESONANCE_CHUNK,
    RESONANCE_THRESHOLD,
    KZProblem,
    central_scalar_matrix,
    check_resonances,
    first_order_oracle,
    frobenius_monodromy,
    identity_residuals,
    phi_kz,
    psi_kz,
    r_kz,
    ribbon_kz,
)
from qspair.sln import (
    build_leg_tensor,
    fundamental_rep,
    realize,
    tensor_rep,
    trivial_rep,
    weyl_orbit_map,
)


@pytest.fixture(scope="module")
def pr2():
    return realize(2, 1)


F2 = fundamental_rep(2)


# ---------------------------------------------------------------------------
# the dense engine, kept as the oracle of the blocked one: the whole D x D
# problem, one Sylvester solver per series and the O(K^2) convolution

class _DenseSylvester:
    """Solver for (k - ad Lambda) X = R, k = 1, 2, ...

    Diagonalizes Lambda once; if the eigenbasis is ill conditioned, falls
    back to an LU solve of the Kronecker form per order k.
    """

    def __init__(self, Lambda):
        self.Lambda = Lambda
        self.n = Lambda.shape[0]
        vals, vecs = np.linalg.eig(Lambda)
        cond = np.linalg.cond(vecs)
        self.diag_ok = np.isfinite(cond) and cond < EIG_COND_LIMIT
        self.eigdiff = vals[:, None] - vals[None, :]
        if self.diag_ok:
            self.V = vecs
            self.Vinv = np.linalg.inv(vecs)

    def solve(self, k, R):
        if self.diag_ok:
            Rt = self.Vinv @ R @ self.V
            Xt = Rt / (k - self.eigdiff)
            return self.V @ Xt @ self.Vinv
        n = self.n
        eye = np.eye(n)
        op = k * np.eye(n * n) - (np.kron(self.Lambda, eye)
                                  - np.kron(eye, self.Lambda.T))
        return np.linalg.solve(op, R.reshape(-1)).reshape(n, n)


def _dense_series_sum_at_half(Lambda, b_coeff, tol, max_order):
    n = Lambda.shape[0]
    syl = _DenseSylvester(Lambda)
    H = [np.eye(n, dtype=complex)]
    total = np.eye(n, dtype=complex)
    w = 0.5
    below = 0
    for k in range(max_order):
        rhs = np.zeros((n, n), dtype=complex)
        for m in range(k + 1):
            rhs += b_coeff(m) @ H[k - m]
        Hk1 = syl.solve(k + 1, rhs)
        H.append(Hk1)
        contrib = Hk1 * w ** (k + 1)
        total += contrib
        c = float(np.linalg.norm(contrib))
        if c < tol / 10:
            below += 1
            if below >= 3:
                return total, k + 1
        else:
            below = 0
    raise AssertionError("dense series did not converge")


def _dense_monodromy(prob):
    """(Psi, order_used) of the problem, all of it as dense arrays."""
    Am1, A0, A1 = (np.asarray(sparse.csr_array(m).toarray(), dtype=complex)
                   for m in (prob.A_minus1, prob.A_0, prob.A_1))

    def b0(m):
        return ((-1) ** m) * Am1 - A1

    def b1(m):
        return -Am1 * (0.5 ** (m + 1)) - A0

    H0, k0 = _dense_series_sum_at_half(A0, b0, prob.tol, prob.max_order)
    H1, k1 = _dense_series_sum_at_half(A1, b1, prob.tol, prob.max_order)
    G0 = H0 @ expm(np.log(0.5) * A0)
    G1 = H1 @ expm(np.log(0.5) * A1)
    return np.linalg.solve(G1, G0), max(k0, k1)


def _assert_matches_dense(prob):
    res = frobenius_monodromy(prob)
    psi, order = _dense_monodromy(prob)
    err = np.linalg.norm(res.psi.toarray() - psi) / np.linalg.norm(psi)
    assert err <= 1e-13
    assert res.order_used == order


def _random_block(rng, b, scale):
    return scale * (rng.standard_normal((b, b))
                    + 1j * rng.standard_normal((b, b)))


@pytest.mark.parametrize("seed", range(4))
def test_blocked_engine_matches_dense_one_block(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    prob = KZProblem(*(_random_block(rng, d, 0.15) for _ in range(3)))
    _assert_matches_dense(prob)


def test_blocked_engine_matches_dense_permuted_blocks():
    # blocks of sizes 1, 2, 2, 3, 3 and 4 under a random permutation: five
    # size classes, two of them with two blocks
    rng = np.random.default_rng(5)
    sizes = (3, 1, 2, 4, 2, 3)
    n = sum(sizes)
    mats = [np.zeros((n, n), dtype=complex) for _ in range(3)]
    start = 0
    for b in sizes:
        for m in mats:
            m[start:start + b, start:start + b] = _random_block(rng, b, 0.15)
        start += b
    perm = rng.permutation(n)
    prob = KZProblem(*(m[perm][:, perm] for m in mats))
    _assert_matches_dense(prob)


def _psi_problem(pr, reps, s, h):
    """The KZProblem psi_kz solves, built as psi_kz builds it."""
    import qspair.kzmono as kz
    hb = kz._hbar(h)
    leg = lambda sym, legs: build_leg_tensor(pr, sym, reps, legs)
    return KZProblem(
        A_minus1=hb * (leg("t_k", (1, 2))
                       - (leg("t_mplus", (1, 2)) + leg("t_mminus", (1, 2)))),
        A_0=hb * (2 * leg("t_k", (0, 1)) + leg("casimir_k", (1,)))
        + s * leg("Z", (1,)),
        A_1=hb * leg("t_u", (1, 2)),
        orbit_map=weyl_orbit_map(pr.N, pr.p, sum(r.legs for r in reps)))


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("merged", [False, True])
def test_blocked_engine_matches_dense_psi_kz(N, merged):
    pr = realize(N, N // 2)
    f = fundamental_rep(N)
    reps = (tensor_rep(f, f) if merged else f, f, f)
    prob = _psi_problem(pr, reps, 0.3, 0.05)
    _assert_matches_dense(prob)
    psi = psi_kz(pr, reps, 0.3, 0.0, 0.05)
    assert (psi != frobenius_monodromy(prob).psi).nnz == 0


# ---------------------------------------------------------------------------
# the orbit engine: one series per Weyl orbit of blocks, against the direct
# engine (no orbit map), which integrates every block

def _phi_problem(pr, reps, h):
    """The KZProblem phi_kz solves, built as phi_kz builds it."""
    import qspair.kzmono as kz
    hb = kz._hbar(h)
    t12 = build_leg_tensor(pr, "t_u", reps, (0, 1))
    return KZProblem(
        A_minus1=sparse.csr_array(t12.shape, dtype=complex),
        A_0=hb * t12,
        A_1=hb * build_leg_tensor(pr, "t_u", reps, (1, 2)),
        orbit_map=weyl_orbit_map(pr.N, pr.p, sum(r.legs for r in reps)))


def _orbit_and_direct(prob):
    return (frobenius_monodromy(prob),
            frobenius_monodromy(replace(prob, orbit_map=None)))


@pytest.mark.parametrize("N", range(3, 9))
def test_orbit_engine_matches_direct(N):
    f = fundamental_rep(N)
    for p in range(1, N // 2 + 1):
        pr = realize(N, p)
        probs = [_psi_problem(pr, (m, f, f), 0.3, 0.05)
                 for m in (tensor_rep(f, f), f)]
        probs.append(_phi_problem(pr, (f, f, f), 0.05))
        for prob in probs:
            orbit, direct = _orbit_and_direct(prob)
            err = (np.linalg.norm((orbit.psi - direct.psi).data)
                   / np.linalg.norm(direct.psi.data))
            assert err <= 1e-14, (N, p, err)
            assert orbit.order_used == direct.order_used
        assert np.array_equal(psi_kz(pr, (f, f, f), 0.3, 0.0, 0.05).toarray(),
                              frobenius_monodromy(probs[1]).psi.toarray())


def test_orbit_engine_bitwise_at_trivial_group(pr2):
    # S_1 x S_1 is trivial: every block is its own representative
    reps = (tensor_rep(F2, F2), F2, F2)
    assert np.array_equal(weyl_orbit_map(2, 1, 4), np.arange(16))
    for prob in (_psi_problem(pr2, reps, 0.4, 0.05),
                 _psi_problem(pr2, (F2, F2, F2), 0.4, 0.05),
                 _phi_problem(pr2, (F2, F2, F2), 0.05)):
        orbit, direct = _orbit_and_direct(prob)
        assert np.array_equal(orbit.psi.toarray(), direct.psi.toarray())
        assert (orbit.order_used, orbit.tail_estimate) == (
            direct.order_used, direct.tail_estimate)


def _weyl_transpositions(N, p, legs):
    """Basis permutations of V^{(x) legs} by each adjacent transposition of
    values within [0, p) and within [p, N), on every leg at once."""
    digits = np.unravel_index(np.arange(N ** legs), (N,) * legs)
    for a in [*range(p - 1), *range(p, N - 1)]:
        sigma = np.arange(N)
        sigma[[a, a + 1]] = a + 1, a
        yield np.ravel_multi_index(tuple(sigma[d] for d in digits),
                                   (N,) * legs)


@pytest.mark.parametrize("N, p, s, h", [
    (N, p, s, h) for N in range(3, 9) for p in range(1, N // 2 + 1)
    for s, h in ((0.4, 0.05), (-0.7, 0.1))])
def test_psi_commutes_with_weyl_group(N, p, s, h):
    pr = realize(N, p)
    f = fundamental_rep(N)
    psi = psi_kz(pr, (tensor_rep(f, f), f, f), s, 0.0, h)
    for perm in _weyl_transpositions(N, p, 4):
        assert abs(psi[perm][:, perm] - psi).max() <= 1e-13


def _two_orbit_problem(a0_diag, a0_extra=()):
    """A 6 x 6 problem with blocks {0, 1}, {2, 3}, {4, 5} (A_1 couples each
    pair) and the orbit map sending {0, 1} onto {4, 5}; A_0 is diagonal
    plus the given (row, col, value) entries."""
    A0 = np.diag(np.asarray(a0_diag, dtype=complex))
    for r, c, v in a0_extra:
        A0[r, c] = v
    A1 = np.kron(np.eye(3), [[0.0, 0.1], [0.1, 0.0]]).astype(complex)
    return KZProblem(np.zeros((6, 6), dtype=complex), A0, A1,
                     orbit_map=np.array([4, 5, 2, 3, 4, 5]))


def test_orbit_map_must_fit_coefficients():
    x, y = (0.1, 0.25), (0.6, 0.3)
    frobenius_monodromy(_two_orbit_problem(x + y + x))
    frobenius_monodromy(_two_orbit_problem(
        x + y + x, [(0, 1, 0.01), (4, 5, 0.01)]))
    bad = [
        _two_orbit_problem(x + y + (0.1, 0.25 + 1e-9)),  # a value off
        _two_orbit_problem(x + y + x, [(4, 5, 0.01)]),   # only the rep's
        _two_orbit_problem(x + y + x, [(0, 1, 0.01)]),   # only the other's
    ]
    # the psi_kz problem with one entry of A_0 moved off the symmetry
    pr = realize(4, 2)
    f = fundamental_rep(4)
    prob = _psi_problem(pr, (tensor_rep(f, f), f, f), 0.3, 0.05)
    i = np.ravel_multi_index((1, 1, 1, 1), (4,) * 4)
    assert prob.orbit_map[i] != i
    A0 = prob.A_0.tolil()
    A0[i, i] *= 1 + 1e-9
    bad.append(replace(prob, A_0=A0.tocsr()))
    # maps that do not send blocks onto blocks of their size
    bad.append(replace(prob, orbit_map=np.zeros(256, dtype=int)))
    bad.append(replace(prob, orbit_map=np.arange(255)))
    bad.append(replace(prob, orbit_map=np.arange(256.0)))
    for prob in bad:
        with pytest.raises(ParameterError):
            frobenius_monodromy(prob)


def test_resonance_screen_between_threshold_and_twice_it():
    # y_0 - x_0 = 1 + 1.5e-8 across orbits: the screen on the
    # representatives hits, the whole spectrum is clean, so no error
    diag = (0.1, 0.25, 1.1 + 1.5e-8, 0.6, 0.1, 0.25)
    assert _resonance_by_loop(np.array(diag, dtype=complex), 200) is None
    assert _check_message(np.array(diag[2:], dtype=complex), 200,
                          2 * RESONANCE_THRESHOLD) is not None
    frobenius_monodromy(_two_orbit_problem(diag))


def test_resonance_screen_reports_the_whole_spectrum_offender():
    # the whole spectrum (0.1, 2.35 | 1.1, 0.35 | 0.1, 2.35) first offends
    # in row 2.35: 2.35 - 0.35 = 2; the representatives' spectrum
    # (1.1, 0.35 | 0.1, 2.35) first in row 1.1: 1.1 - 0.1 = 1
    diag = np.array((0.1, 2.35, 1.1, 0.35, 0.1, 2.35), dtype=complex)
    want = _resonance_by_loop(diag, 200)
    assert want is not None and want != _resonance_by_loop(diag[2:], 200)
    with pytest.raises(ResonanceError) as exc:
        frobenius_monodromy(_two_orbit_problem(diag))
    assert str(exc.value) == want
    assert exc.value.k == 2


def test_resonance_screen_defers_to_whole_spectrum_when_ill_conditioned():
    # the representative {4, 5} of A_0 is a Jordan block with eigenvalue
    # 0.1; its orbit member {0, 1} differs by 1e-14, within the symmetry
    # tolerance, which splits its eigenvalue into 0.1 +- 1e-7.  The whole
    # spectrum resonates, 1.1 + 1e-7 - (0.1 + 1e-7) = 1, the
    # representatives' does not (1 + 1e-7); the defective representative
    # makes the screen untrustworthy, so the whole spectrum is scanned
    jordan = [(0, 1, 1.0), (4, 5, 1.0), (1, 0, 1e-14), (2, 3, 0.01)]
    prob = _two_orbit_problem((0.1, 0.1, 1.1 + 1e-7, 0.6, 0.1, 0.1), jordan)
    whole = np.concatenate([np.linalg.eig(prob.A_0[b][:, b])[0]
                            for b in ([0, 1], [2, 3], [4, 5])])
    want = _resonance_by_loop(whole, 200)
    assert want is not None
    assert _resonance_by_loop(whole[2:], 200) is None
    with pytest.raises(ResonanceError) as exc:
        frobenius_monodromy(prob)
    assert str(exc.value) == want


# ---------------------------------------------------------------------------
# the series engine

def test_zero_problem_identity():
    z = np.zeros((3, 3))
    res = frobenius_monodromy(KZProblem(z, z, z))
    assert np.max(np.abs(res.psi - np.eye(3))) < 1e-14


def test_a0_only_identity():
    A0 = np.array([[0.3, 0.1], [0.0, -0.25]], dtype=complex)
    z = np.zeros((2, 2))
    res = frobenius_monodromy(KZProblem(z, A0, z))
    assert np.max(np.abs(res.psi - np.eye(2))) < 1e-13


def test_scalar_closed_form():
    # G(w) = (1+w)^a (1-w)^b solves the scalar problem; both normalizations
    # leave Psi = 2^a
    for a, b in [(0.3 + 0.1j, -0.2 + 0.05j), (0.7, 0.4), (-0.3j, 0.2j)]:
        res = frobenius_monodromy(
            KZProblem(np.array([[a]]), np.array([[0j]]), np.array([[b]]))
        )
        assert abs(res.psi[0, 0] - 2 ** a) < 1e-12
        assert res.tail_estimate <= 1e-12


def test_resonance_error_names_k():
    A0 = np.diag([0.0, 1.0]).astype(complex)
    z = np.zeros((2, 2))
    with pytest.raises(ResonanceError) as exc:
        frobenius_monodromy(KZProblem(z, A0, z))
    assert exc.value.k == 1
    # the same resonance in the series at 1 is reported after the series
    # at 0 has converged
    with pytest.raises(ResonanceError) as exc:
        frobenius_monodromy(KZProblem(z, z, A0))
    assert exc.value.k == 1


def test_resonance_error_names_first_offender():
    # eigenvalue differences 3 at (1, 0), 1 at (2, 0) and 2 at (1, 2): the
    # first resonance in row-major order of the differences is reported
    vals = np.array([0.0, 3.0, 1.0], dtype=complex)
    with pytest.raises(ResonanceError) as exc:
        check_resonances(vals, 10)
    assert exc.value.k == 3
    with pytest.raises(ResonanceError) as exc:
        check_resonances(vals, 2)
    assert exc.value.k == 2
    check_resonances(vals, 0)


def test_resonance_between_uncoupled_blocks():
    # two coupled 2 x 2 blocks, each free of resonances, whose spectra
    # differ by 2: the global check still finds k = 2
    rng = np.random.default_rng(2)
    A0 = np.zeros((4, 4), dtype=complex)
    for start, vals in ((0, (0.1, 0.4)), (2, (2.1, 2.35))):
        T = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        A0[start:start + 2, start:start + 2] = T @ np.diag(vals) @ np.linalg.inv(T)
    perm = rng.permutation(4)
    A0 = A0[perm][:, perm]
    z = np.zeros((4, 4))
    with pytest.raises(ResonanceError) as exc:
        frobenius_monodromy(KZProblem(z, A0, z))
    assert exc.value.k == 2


def _resonance_by_loop(vals, max_order):
    """Reference: the scalar loop over the differences, row-major; the
    message of the error it would raise, or None."""
    for d in (vals[:, None] - vals[None, :]).ravel():
        k = int(round(d.real))
        if 1 <= k <= max_order and abs(k - d) < RESONANCE_THRESHOLD:
            return str(ResonanceError(k, f"eigenvalue difference {d:.3e}"))
    return None


def _check_message(vals, max_order, threshold=RESONANCE_THRESHOLD):
    try:
        check_resonances(vals, max_order, threshold)
    except ResonanceError as exc:
        return str(exc)
    return None


def test_check_resonances_matches_scalar_loop():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        vals = (rng.integers(-3, 4, size=n)
                + rng.choice([0, 0.5, 1e-9, 2e-8, 0.3], size=n)
                + 1j * rng.choice([0, 1e-9, 0.1], size=n))
        max_order = int(rng.integers(0, 5))
        want = _resonance_by_loop(vals, max_order)
        assert _check_message(vals, max_order) == want
        hits += want is not None
    assert hits > 50


def test_check_resonances_spans_chunks():
    # a spectrum whose difference table spans several chunks, with one
    # resonance planted past the first chunk, then none at all
    n = 2 * int(np.sqrt(RESONANCE_CHUNK))
    vals = np.arange(n) * 0.37 % 0.9 + 1j * np.arange(n)
    assert _check_message(vals, 3) is None
    row = RESONANCE_CHUNK // n + 10
    vals[row] = vals[7] + 2 + 1e-10
    want = _resonance_by_loop(vals, 3)
    assert want is not None
    assert _check_message(vals, 3) == want


def test_truncation_error():
    A = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.zeros((2, 2))
    with pytest.raises(TruncationError):
        frobenius_monodromy(KZProblem(A, z, A, tol=1e-14, max_order=4))


def test_shape_mismatch():
    with pytest.raises(ParameterError):
        KZProblem(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))


def test_series_assembly_against_ode_integrator():
    # independent cross-check of the two-disk matching: run an adaptive ODE
    # integrator from w = 1/2 (seeded by the left series) to w = 0.9 and
    # compare with the right series through G_0(w) = H_1(1-w) (1-w)^{A_1} Psi
    rng = np.random.default_rng(11)
    Am1, A0, A1 = (_random_block(rng, 3, scale) for scale in (0.15, 0.2, 0.15))
    _check_against_ode(Am1, A0, A1)


def test_sylvester_fallback_against_ode_integrator():
    # A_0 is a Jordan block plus one more eigenvalue, coupled through
    # A_{-1} into one block: its eigenbasis is degenerate, so the series at
    # 0 takes the Kronecker-form fallback, while the series at 1 in the same
    # stack stays in its eigenbasis
    rng = np.random.default_rng(11)
    Am1, _, A1 = (_random_block(rng, 3, 0.15) for _ in range(3))
    A0 = np.array([[0.2, 1.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, -0.1]],
                  dtype=complex)
    assert not np.linalg.cond(np.linalg.eig(A0)[1]) < EIG_COND_LIMIT
    _check_against_ode(Am1, A0, A1)


def _check_against_ode(Am1, A0, A1):
    from scipy.integrate import solve_ivp
    d = A0.shape[0]
    prob = KZProblem(Am1, A0, A1, tol=1e-13)
    res = frobenius_monodromy(prob)

    G0_half = _g0_at(prob, 0.5)

    def rhs(w, y):
        G = y.reshape(d, d)
        out = (Am1 / (w + 1) + A1 / (w - 1) + A0 / w) @ G
        return out.reshape(-1)

    sol = solve_ivp(rhs, (0.5, 0.9), G0_half.reshape(-1), rtol=1e-12,
                    atol=1e-14, method="DOP853")
    G0_09_ivp = sol.y[:, -1].reshape(d, d)

    # right-disk value of the same solution branch
    u = 0.1
    def b1(m):
        return -Am1 * (0.5 ** (m + 1)) - A0
    # evaluate H_1 at u = 0.1 by re-deriving its series sum at that point
    H1_u = _series_eval(A1, b1, u, 1e-13)
    G0_09_series = H1_u @ expm(np.log(u) * A1) @ res.psi.toarray()
    assert np.max(np.abs(G0_09_ivp - G0_09_series)) < 1e-9


def _g0_at(prob, w):
    def b0(m):
        return ((-1) ** m) * prob.A_minus1 - prob.A_1
    H0 = _series_eval(prob.A_0, b0, w, prob.tol)
    return H0 @ expm(np.log(w) * prob.A_0)


def _series_eval(Lambda, b_coeff, w, tol, max_order=300):
    # plain recomputation of the series sum at an arbitrary |w| < 1
    n = Lambda.shape[0]
    syl = _DenseSylvester(Lambda)
    H = [np.eye(n, dtype=complex)]
    total = np.eye(n, dtype=complex)
    below = 0
    for k in range(max_order):
        rhs = np.zeros((n, n), dtype=complex)
        for m in range(k + 1):
            rhs += b_coeff(m) @ H[k - m]
        Hk1 = syl.solve(k + 1, rhs)
        H.append(Hk1)
        contrib = Hk1 * w ** (k + 1)
        total += contrib
        if np.linalg.norm(contrib) < tol / 10:
            below += 1
            if below >= 3:
                return total
        else:
            below = 0
    raise AssertionError("test series did not converge")


def test_series_tail_below_tol(pr2):
    reps = (F2, F2, F2)
    import qspair.kzmono as kz
    hb = kz._hbar(0.05)
    tu = build_leg_tensor(pr2, "t_u", reps, (1, 2))
    res = frobenius_monodromy(KZProblem(0 * tu, 0 * tu, hb * tu, tol=1e-12))
    assert res.tail_estimate <= 1e-12


# ---------------------------------------------------------------------------
# Psi_{KZ,s;mu}

def test_psi_small_h_linear(pr2):
    reps = (F2, F2, F2)
    n1 = np.linalg.norm(psi_kz(pr2, reps, 0.3, 0, 0.02) - np.eye(8))
    n2 = np.linalg.norm(psi_kz(pr2, reps, 0.3, 0, 0.01) - np.eye(8))
    assert 1.5 < n1 / n2 < 2.5


def test_psi_unitary_real_s(pr2):
    reps = (F2, F2, F2)
    psi = psi_kz(pr2, reps, 0.4, 0.0, 0.05)
    assert np.max(np.abs(psi @ psi.conj().T - np.eye(8))) < 1e-10


def test_parameter_shift_bit_identical(pr2):
    reps = (F2, F2, F2)
    a = psi_kz(pr2, reps, 0.3, 0.1, 0.05)
    b = psi_kz(pr2, reps, 0.4, 0.0, 0.05)
    assert np.array_equal(a.toarray(), b.toarray())


def test_counit_normalization(pr2):
    t = trivial_rep()
    psi = psi_kz(pr2, (F2, t, F2), 0.4, 0, 0.05)
    assert np.max(np.abs(psi - np.eye(4))) < 1e-12
    psi = psi_kz(pr2, (F2, F2, t), 0.4, 0, 0.05)
    assert np.max(np.abs(psi - np.eye(4))) < 1e-12


def test_psi_rejects_large_h(pr2):
    for h in (0.11, -0.11, 0.5):
        with pytest.raises(ParameterError, match="exceeds max_h = 0.1"):
            psi_kz(pr2, (F2, F2, F2), 0.0, 0.0, h=h)


def test_psi_rejects_modules_of_another_rank(pr2):
    f3 = fundamental_rep(3)
    with pytest.raises(ShapeError):
        psi_kz(pr2, (f3, f3, f3), 0.0)


def test_psi_resonant_s_rejected(pr2):
    # s = i lands ad(s Z) exactly on the integer 1 (the numeric shadow of
    # the s not-in iQ* restriction); at h = 0 the shift is exact
    with pytest.raises(ResonanceError):
        psi_kz(pr2, (F2, F2, F2), 1j, 0.0, h=0.0)


def test_ribbon_variant_relation(pr2):
    # E_plain = E_sigma exp(pi Z)_1 (the central shift between the braid
    # normalizations)
    Es = ribbon_kz(pr2, (F2, F2), 0.3, 0.1, h=0.05, variant="sigma")
    Ep = ribbon_kz(pr2, (F2, F2), 0.3, 0.1, h=0.05, variant="plain")
    shift = np.kron(np.eye(2), expm(np.pi * pr2.Znu))
    assert np.max(np.abs(Ep - Es @ shift)) < 1e-12


@pytest.mark.parametrize("s", [0.0, 0.4])
def test_first_order_oracle_convergence(pr2, s):
    reps = (F2, F2, F2)
    oracle = first_order_oracle(pr2, reps, s)
    errs = {}
    for h in (1e-2, 1e-3):
        psi = psi_kz(pr2, reps, s, 0.0, h)
        errs[h] = np.linalg.norm((psi - np.eye(8)) / h - oracle)
    assert 5 <= errs[1e-2] / errs[1e-3] <= 20
    assert errs[1e-3] <= 10 * 1e-3


def test_oracle_symmetric_at_s_zero(pr2):
    # at s = 0 the m+ and m- coefficients coincide
    reps = (F2, F2, F2)
    oracle = first_order_oracle(pr2, reps, 0.0)
    tp = build_leg_tensor(pr2, "t_mplus", reps, (1, 2))
    tm = build_leg_tensor(pr2, "t_mminus", reps, (1, 2))
    tu = build_leg_tensor(pr2, "t_u", reps, (1, 2))
    # psi(1/2) = -gamma - 2 log 2
    coeff = -2 * np.log(2.0)
    expected = (np.log(2.0) * tu + coeff * (tp + tm)) / (np.pi * 1j)
    assert np.max(np.abs(oracle - expected)) < 1e-12


def test_oracle_pole_rejected(pr2):
    from qspair.errors import DomainError
    with pytest.raises(DomainError):
        first_order_oracle(pr2, (F2, F2, F2), -1j)


def first_order_oracle_s_derivative(pr, reps, s):
    """d/ds of the order-h coefficient, via trigamma and sech^2:

    (1/4 pi)(psi'(1/2 + is/2) - psi'(1/2 - is/2)) t^m_12
      - (pi/4) sech^2(pi s / 2) (t^{m+}_12 - t^{m-}_12).
    """
    import mpmath
    tp = build_leg_tensor(pr, "t_mplus", reps, (1, 2))
    tm = build_leg_tensor(pr, "t_mminus", reps, (1, 2))
    s = complex(s)
    tri = lambda z: complex(mpmath.polygamma(1, mpmath.mpc(z)))
    coeff_m = (tri(0.5 + 0.5j * s) - tri(0.5 - 0.5j * s)) / (4 * np.pi)
    sech2 = 1.0 / np.cosh(np.pi * s / 2) ** 2
    return (coeff_m * (tp + tm) - (np.pi / 4) * sech2 * (tp - tm)).toarray()


def test_oracle_s_derivative_matches_finite_difference(pr2):
    reps = (F2, F2, F2)
    s, eps = 0.3, 1e-5
    num = (first_order_oracle(pr2, reps, s + eps)
           - first_order_oracle(pr2, reps, s - eps)) / (2 * eps)
    ana = first_order_oracle_s_derivative(pr2, reps, s)
    assert np.max(np.abs(num - ana)) < 1e-8


# ---------------------------------------------------------------------------
# Phi, R, ribbon braids

def test_phi_is_one_plus_h_squared(pr2):
    reps = (F2, F2, F2)
    n1 = np.linalg.norm(phi_kz(pr2, reps, 0.05) - np.eye(8))
    n2 = np.linalg.norm(phi_kz(pr2, reps, 0.025) - np.eye(8))
    assert n1 < 0.01
    assert 3 < n1 / n2 < 5


def test_phi_invertible(pr2):
    phi = phi_kz(pr2, (F2, F2, F2), 0.05).toarray()
    assert np.max(np.abs(phi @ np.linalg.inv(phi) - np.eye(8))) < 1e-12


def test_r_kz_at_zero(pr2):
    assert np.max(np.abs(r_kz(pr2, (F2, F2), 0.0) - np.eye(4))) < 1e-15


def test_ribbon_plain_at_zero_parameters(pr2):
    E = ribbon_kz(pr2, (F2, F2), 0, 0, h=0.0, variant="plain")
    expect = np.kron(np.eye(2), expm(np.pi * pr2.Znu))
    assert np.max(np.abs(E - expect)) < 1e-13


def test_ribbon_nonhermitian_at_zero(pr2):
    E = ribbon_kz(pr2, (F2, F2), 0, 0, h=0.0, variant="nonhermitian",
                  central_g=-1.0)
    assert np.max(np.abs(E + np.eye(4))) < 1e-13


def test_ribbon_selfadjoint_up_to_center(pr2):
    # the Casimir part of the exponent is Hermitian and -pi i (s+mu) Z is
    # Hermitian for real s+mu, so E_sigma is Hermitian (not unitary), and the
    # extra exp(pi Z) factor makes E_plain self-adjoint up to e^{2 pi i p/N}
    E = ribbon_kz(pr2, (F2, F2), 0.4, 0.0, h=0.05, variant="sigma")
    assert np.max(np.abs(E - E.conj().T)) < 1e-12
    E = ribbon_kz(pr2, (F2, F2), 0.4, 0.0, h=0.05, variant="plain")
    phase = np.exp(2j * np.pi * pr2.p / pr2.N)
    assert np.max(np.abs(E.conj().T - phase * E)) < 1e-12


def test_ribbon_variant_validation(pr2):
    with pytest.raises(ParameterError):
        ribbon_kz(pr2, (F2, F2), 0, 0, variant="bogus")


def test_central_scalar_matrix(pr2):
    m = central_scalar_matrix(pr2, F2, -1.0)
    assert np.max(np.abs(m + np.eye(2))) < 1e-12
    with pytest.raises(ParameterError):
        central_scalar_matrix(pr2, F2, 1j + 0.2)


# ---------------------------------------------------------------------------
# identity residuals

def test_identity_residuals_n2(pr2):
    res = identity_residuals(pr2, (F2, F2), s=0.4, mu=0.0, h=0.05)
    for name, val in res.items():
        assert val <= 1e-8, f"{name} = {val}"


def test_identity_residuals_vanish_at_h_zero(pr2):
    res = identity_residuals(pr2, (F2, F2), s=0.0, mu=0.0, h=0.0)
    assert max(res.values()) < 1e-14


def test_identity_residuals_n3():
    pr = realize(3, 1)
    f = fundamental_rep(3)
    res = identity_residuals(pr, (f, f), s=0.2, mu=0.0, h=0.04)
    for name, val in res.items():
        assert val <= 1e-8, f"{name} = {val}"


def test_pentagon_negative_control(pr2):
    # a wrong parameter on one side must blow up the pentagon residual
    f = F2
    ff = tensor_rep(f, f)
    tf = tensor_rep(f, f)
    h = 0.05
    psi_good = psi_kz(pr2, (f, f, f), 0.4, 0, h).toarray()
    psi_bad_0_12_3 = psi_kz(pr2, (f, ff, f), 0.9, 0, h).toarray()   # wrong s
    psi_0_1_23 = psi_kz(pr2, (f, f, ff), 0.4, 0, h).toarray()
    psi_01_2_3 = psi_kz(pr2, (tf, f, f), 0.4, 0, h).toarray()
    phi = phi_kz(pr2, (f, f, f), h).toarray()
    lhs = np.kron(np.eye(2), phi) @ psi_bad_0_12_3 @ np.kron(psi_good, np.eye(2))
    rhs = psi_0_1_23 @ psi_01_2_3
    assert np.linalg.norm(lhs - rhs) > 1e-4
