import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from qspair.errors import DomainError, ParameterError, ShapeError
from qspair import sln
from qspair.sln import (
    Representation,
    a_antidiag,
    build_leg_tensor,
    cayley,
    coisotropy_residual,
    fix_theta_generator_residual,
    fundamental_rep,
    k_phi_basis,
    omega_pairing,
    r_rotation_residual,
    realize,
    subspace_distance,
    tensor_rep,
    theta_matrix,
    theta_prime_operator,
    trivial_rep,
)


def comm(a, b):
    return a @ b - b @ a


@pytest.fixture(scope="module", params=[(2, 1), (3, 1), (4, 2)])
def pr(request):
    return realize(*request.param)


def test_basis_duality(pr):
    n = len(pr.basis_g)
    gram = np.array([
        [np.trace(pr.basis_g[a] @ pr.dual_g[b]) for b in range(n)]
        for a in range(n)
    ])
    assert np.max(np.abs(gram - np.eye(n))) < 1e-13


def test_projector_completeness(pr):
    for X in pr.basis_g:
        total = pr.proj_k(X) + pr.proj_mplus(X) + pr.proj_mminus(X)
        assert np.max(np.abs(total - X)) < 1e-13


def test_ad_znu_cubed(pr):
    Z = pr.Znu
    for X in pr.basis_g:
        ad1 = comm(Z, X)
        ad3 = comm(Z, comm(Z, ad1))
        assert np.max(np.abs(ad3 + ad1)) < 1e-12


def test_znu_normalization(pr):
    val = np.trace(pr.Znu @ pr.Znu)
    assert abs(val + 1 / float(Fraction(pr.N, pr.p * (pr.N - pr.p)))) < 1e-13


def test_split_tensor_sum(pr):
    N = pr.N
    total = np.zeros((N, N, N, N), dtype=complex)
    for pairs, sgn in [(pr.t_k, 1), (pr.t_mplus, 1), (pr.t_mminus, 1), (pr.t_u, -1)]:
        for A, B in pairs:
            total += sgn * np.einsum("ab,cd->abcd", A, B)
    assert np.max(np.abs(total)) < 1e-12


def test_interaction_z_tm(pr):
    Z = pr.Znu
    for pairs, sign in [(pr.t_mplus, 1), (pr.t_mminus, -1)]:
        acc = np.zeros((pr.N,) * 4, dtype=complex)
        for A, B in pairs:
            acc += np.einsum("ab,cd->abcd", comm(Z, A) - sign * 1j * A, B)
        assert np.max(np.abs(acc)) < 1e-12
        # second leg carries the opposite eigenvalue
        acc = np.zeros((pr.N,) * 4, dtype=complex)
        for A, B in pairs:
            acc += np.einsum("ab,cd->abcd", A, comm(Z, B) + sign * 1j * B)
        assert np.max(np.abs(acc)) < 1e-12


def test_t_u_ad_invariant(pr):
    for X in pr.basis_g[:6]:
        acc = np.zeros((pr.N,) * 4, dtype=complex)
        for A, B in pr.t_u:
            acc += np.einsum("ab,cd->abcd", comm(X, A), B)
            acc += np.einsum("ab,cd->abcd", A, comm(X, B))
        assert np.max(np.abs(acc)) < 1e-12


def test_r_antisymmetric(pr):
    acc = np.zeros((pr.N,) * 4, dtype=complex)
    for A, B in pr.r:
        acc += np.einsum("ab,cd->abcd", A, B)
        acc += np.einsum("ab,cd->abcd", B, A)
    assert np.max(np.abs(acc)) < 1e-12


def test_ir_equals_tm_split_mod_k(pr):
    # i r = t^{m+} - t^{m-} modulo g^nu (x) g^nu
    acc = np.zeros((pr.N,) * 4, dtype=complex)
    for A, B in pr.r:
        acc += 1j * np.einsum("ab,cd->abcd", A, B)
    for A, B in pr.t_mplus:
        acc -= np.einsum("ab,cd->abcd", A, B)
    for A, B in pr.t_mminus:
        acc += np.einsum("ab,cd->abcd", A, B)
    proj_m = lambda X: pr.proj_mplus(X) + pr.proj_mminus(X)
    assert sln._tensor_norm(sln._project_tensor(acc, proj_m, proj_m)) < 1e-12


def test_root_vector_normalization(pr):
    for a, b in pr.cascade_roots:
        X = sln._eij(pr.N, a, b)
        H = comm(X, X.conj().T)
        expected = sln._eij(pr.N, a, a) - sln._eij(pr.N, b, b)
        assert np.max(np.abs(H - expected)) < 1e-14


def test_cayley_phi_zero_identity(pr):
    assert np.max(np.abs(cayley(pr, 0.0) - np.eye(pr.N))) < 1e-14


def test_cayley_unitary(pr):
    g = cayley(pr, 0.63)
    assert np.max(np.abs(g @ g.conj().T - np.eye(pr.N))) < 1e-12


def test_cayley_lemma_p0_action():
    # (Ad g_1)(i H_gamma) = X_gamma - X_{-gamma} for N = 2
    pr = realize(2, 1)
    g1 = cayley(pr, 1.0)
    H = np.diag([1.0, -1.0]).astype(complex)
    lhs = g1 @ (1j * H) @ np.linalg.inv(g1)
    rhs = sln._eij(2, 0, 1) - sln._eij(2, 1, 0)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cayley_rotation_of_y_and_h(pr):
    # Lemma P_0 closed forms for each cascade root at a generic phi
    phi = 0.37
    g = cayley(pr, phi)
    gi = np.linalg.inv(g)
    c, s = np.cos(np.pi * phi / 2), np.sin(np.pi * phi / 2)
    for a, b in pr.cascade_roots:
        X = sln._eij(pr.N, a, b)
        Y = sln._eij(pr.N, b, a)
        x_i = -1j * (X + Y)      # x_i = e_gamma + e_{-gamma}, e = -iX
        y_i = -1j * (X - Y)
        H = sln._eij(pr.N, a, a) - sln._eij(pr.N, b, b)
        assert np.max(np.abs(g @ x_i @ gi - x_i)) < 1e-12
        assert np.max(np.abs(g @ y_i @ gi - (c * y_i - s * H))) < 1e-12
        assert np.max(np.abs(g @ H @ gi - (s * y_i + c * H))) < 1e-12


def test_cayley_phi2_reverses_z_s_type():
    pr = realize(4, 2)
    g2 = cayley(pr, 2.0)
    lhs = g2 @ pr.Znu @ np.linalg.inv(g2)
    assert np.max(np.abs(lhs + pr.Znu)) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.3, 0.7, 1.0])
def test_r_rotation_residual(pr, phi):
    assert r_rotation_residual(pr, phi) < 1e-12


@pytest.mark.parametrize("phi", [0.3, 0.7, 1.0])
def test_coisotropy_residual(pr, phi):
    assert coisotropy_residual(pr, phi) < 1e-12


def test_coisotropy_negative_control():
    pr = realize(4, 2)
    rng = np.random.default_rng(7)
    phi = 0.3
    g = cayley(pr, phi - 1)
    m_elt = np.zeros((4, 4), dtype=complex)
    m_elt[:2, 2:] = rng.standard_normal((2, 2))
    m_elt[2:, :2] = rng.standard_normal((2, 2))
    probe = g @ m_elt @ np.linalg.inv(g)
    probe /= np.linalg.norm(probe)
    assert coisotropy_residual(pr, phi, probe=probe) > 0.01


def test_k1_is_gnu():
    # phi = 1 gives the Poisson-Lie subgroup u^nu itself
    pr = realize(3, 1)
    basis = k_phi_basis(pr, 1.0)
    for X in basis:
        # block diagonal structure preserved
        assert np.max(np.abs(X[:1, 1:] @ np.zeros((2, 1)))) == 0
        assert subspace_distance(k_phi_basis(pr, 1.0), X) < 1e-12


def test_omega_pairing_values():
    for (N, p), dm in [((2, 1), 2), ((3, 1), 4), ((4, 2), 8)]:
        pr = realize(N, p)
        plus = omega_pairing(pr, pr.t_mplus)
        minus = omega_pairing(pr, pr.t_mminus)
        assert abs(plus - 0.5j * dm) < 1e-12
        assert abs(minus + 0.5j * dm) < 1e-12
        assert abs(omega_pairing(pr, pr.t_k)) < 1e-12


@pytest.mark.parametrize("phi", [0.3, 0.7, 2.6])
def test_fix_theta_generators(phi):
    assert fix_theta_generator_residual(realize(4, 2), phi) < 1e-10
    assert fix_theta_generator_residual(realize(3, 1), phi) < 1e-10


def test_fix_theta_rejects_odd_phi():
    # on and on either side of 1, 3 and -1, within the guard's tolerance
    for N, p in [(4, 2), (3, 1)]:
        pr = realize(N, p)
        for odd in (1, 3, -1):
            for phi in (odd, odd - 1e-13, odd + 1e-13):
                with pytest.raises(DomainError):
                    fix_theta_generator_residual(pr, phi)


def test_theta_prime_agrees_with_satake_matrix_on_cartan():
    for N, p in [(2, 1), (4, 2), (3, 1), (5, 2)]:
        pr = realize(N, p)
        th = theta_prime_operator(pr)
        M = theta_matrix(N, p)
        Mi = np.linalg.inv(M)
        for i in range(N - 1):
            H = sln._eij(N, i, i) - sln._eij(N, i + 1, i + 1)
            assert np.max(np.abs(th(H) - M @ H @ Mi)) < 1e-10


def test_theta_prime_matches_satake_matrix_up_to_torus():
    # theta' and Ad(theta_matrix) agree up to conjugation by a torus element
    # z_theta: equal on the Cartan, and on each root vector e_{ij} they agree
    # up to a unimodular scalar
    for N, p in [(2, 1), (4, 2), (3, 1), (5, 2)]:
        pr = realize(N, p)
        th = theta_prime_operator(pr)
        M = theta_matrix(N, p)
        Mi = np.linalg.inv(M)
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                lhs = th(sln._eij(N, i, j))
                rhs = M @ sln._eij(N, i, j) @ Mi
                # same support, entries differing by a phase
                nz_l = np.abs(lhs) > 1e-12
                nz_r = np.abs(rhs) > 1e-12
                assert (nz_l == nz_r).all()
                ratio = lhs[nz_l] / rhs[nz_r]
                assert np.max(np.abs(np.abs(ratio) - 1)) < 1e-10


def test_a_antidiag_square():
    for k in range(1, 6):
        A = a_antidiag(k)
        assert np.max(np.abs(A @ A - (-1) ** (k - 1) * np.eye(k))) < 1e-14


# --------------------------------------------------------------------------
# leg tensors

def test_leg_tensor_tu_eigenvalues_sl2():
    pr = realize(2, 1)
    f = fundamental_rep(2)
    lt = build_leg_tensor(pr, "t_u", (f, f), (0, 1)).toarray()
    eig = np.sort(np.linalg.eigvalsh((lt + lt.conj().T) / 2))
    assert np.allclose(eig, [-1.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_leg_tensor_casimir_u_sl2():
    pr = realize(2, 1)
    lt = build_leg_tensor(pr, "casimir_u", (fundamental_rep(2),), (0,))
    assert np.max(np.abs(lt - 1.5 * np.eye(2))) < 1e-12


def test_leg_tensor_casimir_value_general():
    # C_u = (N^2 - 1)/N on the fundamental under the trace form
    for N in [3, 4]:
        pr = realize(N, 1)
        lt = build_leg_tensor(pr, "casimir_u", (fundamental_rep(N),), (0,))
        assert np.max(np.abs(lt - (N * N - 1) / N * np.eye(N))) < 1e-12


def test_leg_tensor_z_placement():
    pr = realize(2, 1)
    f = fundamental_rep(2)
    lt = build_leg_tensor(pr, "Z", (f, f, f), (1,))
    expected = np.kron(np.eye(2), np.kron(pr.Znu, np.eye(2)))
    assert np.max(np.abs(lt - expected)) < 1e-14


def _kron_reference(T, dims, legs):
    """T on legs (in that order) by np.kron with the identity on the other
    legs, then a reshape/transpose that moves each leg into its place."""
    rest = [k for k in range(len(dims)) if k not in legs]
    order = list(legs) + rest
    full = np.kron(T, np.eye(int(np.prod([dims[k] for k in rest]))))
    n = len(dims)
    axes = [order.index(k) for k in range(n)]
    t = full.reshape([dims[k] for k in order] * 2)
    return t.transpose(axes + [n + a for a in axes]).reshape(full.shape)


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 1, 2), (2, 2, 2, 3)])
def test_embed_on_legs_matches_kron_reference(dims):
    rng = np.random.default_rng(len(dims))
    for k in range(1, len(dims) + 1):
        for legs in itertools.permutations(range(len(dims)), k):
            d = int(np.prod([dims[i] for i in legs]))
            T = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            T[rng.random((d, d)) < 0.3] = 0
            ref = _kron_reference(T, dims, legs)
            for given in (T, sparse.csr_array(T)):
                got = sln.embed_on_legs(given, dims, legs)
                assert sparse.issparse(got)
                assert np.array_equal(got.toarray(), ref), legs


def test_leg_tensor_shape_errors():
    pr = realize(2, 1)
    f = fundamental_rep(2)
    with pytest.raises(ShapeError):
        build_leg_tensor(pr, "t_u", (f, f), (0,))
    with pytest.raises(ShapeError):
        build_leg_tensor(pr, "Z", (f, f), (0, 1))
    with pytest.raises(ShapeError):
        build_leg_tensor(pr, "t_u", (f, f), (0, 3))
    with pytest.raises(ParameterError):
        build_leg_tensor(pr, "nope", (f, f), (0, 1))


def check_homomorphism(rep, basis):
    worst = 0.0
    for A in basis:
        for B in basis:
            lhs = rep.rho(A @ B - B @ A)
            rhs = rep.rho(A) @ rep.rho(B) - rep.rho(B) @ rep.rho(A)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _kron_rho(rep, X):
    """X on a tensor power of the fundamental by Kronecker sums: the merged
    leg a (x) V acts as rho_a(X) (x) 1 + 1 (x) X."""
    if rep.legs == 0:
        return np.zeros((1, 1), dtype=complex)
    a = Representation(rep.N, rep.legs - 1)
    return (np.kron(_kron_rho(a, X), np.eye(rep.N))
            + np.kron(np.eye(a.dim), np.asarray(X, dtype=complex)))


def _kron_leg_tensor(pr, symbol, reps, legs):
    """build_leg_tensor from dense Kronecker products: a two-leg symbol is
    sum_a rho_i(A_a) (x) rho_j(B_a) on its slots, a Casimir
    sum_a rho(A_a) rho(B_a), placed by the np.kron reference."""
    dims = tuple(r.dim for r in reps)
    if symbol == "Z":
        factor = _kron_rho(reps[legs[0]], pr.Znu)
    elif symbol in ("casimir_k", "casimir_u"):
        r = reps[legs[0]]
        pairs = {"casimir_k": pr.t_k, "casimir_u": pr.t_u}[symbol]
        factor = sum(_kron_rho(r, A) @ _kron_rho(r, B) for A, B in pairs)
    else:
        i, j = legs
        factor = sum(np.kron(_kron_rho(reps[i], A), _kron_rho(reps[j], B))
                     for A, B in getattr(pr, symbol))
    return _kron_reference(factor, dims, legs)


def test_tensor_rep_is_homomorphism():
    pr = realize(2, 1)
    f = fundamental_rep(2)
    tf = tensor_rep(f, f)
    assert check_homomorphism(tf, pr.basis_g) < 1e-12
    assert check_homomorphism(trivial_rep(), pr.basis_g) == 0.0
    for rep in (trivial_rep(), f, tf, tensor_rep(tf, f)):
        for X in pr.basis_g:
            assert np.array_equal(rep.rho(X), _kron_rho(rep, X))


def test_merged_leg_matches_split_sum():
    # t_k on a merged leg equals t_k_{02} + t_k_{12} on the split legs
    pr = realize(2, 1)
    f = fundamental_rep(2)
    merged = build_leg_tensor(pr, "t_k", (tensor_rep(f, f), f), (0, 1))
    split = (build_leg_tensor(pr, "t_k", (f, f, f), (0, 2))
             + build_leg_tensor(pr, "t_k", (f, f, f), (1, 2)))
    assert np.max(np.abs(merged - split)) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("grouping",
                         [(2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 0, 1), (0, 1, 1)])
def test_merged_leg_matches_kron_oracle(N, grouping):
    # the placed fundamental factors against the Kronecker sums over the
    # merged legs: bit-identical on unmerged slots, equal to roundoff on
    # merged ones with the same sparsity pattern
    pr = realize(N, N // 2)
    f = fundamental_rep(N)
    pick = {0: trivial_rep(), 1: f, 2: tensor_rep(f, f)}
    reps = tuple(pick[c] for c in grouping)
    for symbol, (arity, _) in sln._SYMBOLS.items():
        for legs in itertools.permutations(range(3), arity):
            got = build_leg_tensor(pr, symbol, reps, legs).toarray()
            want = _kron_leg_tensor(pr, symbol, reps, legs)
            if all(grouping[k] < 2 for k in legs):
                assert np.array_equal(got, want), (symbol, legs)
            else:
                assert np.array_equal(got != 0, want != 0), (symbol, legs)
                assert np.max(np.abs(got - want)) <= 1e-14, (symbol, legs)


def test_leg_tensor_rejects_other_rank():
    f3 = fundamental_rep(3)
    with pytest.raises(ShapeError):
        build_leg_tensor(realize(2, 1), "t_u", (f3, f3), (0, 1))
    # a slot with no legs is the counit of any rank
    lt = build_leg_tensor(realize(3, 1), "Z", (f3, trivial_rep()), (1,))
    assert lt.shape == (3, 3) and lt.nnz == 0


def test_tensor_rep_rejects_other_rank():
    with pytest.raises(ShapeError):
        tensor_rep(fundamental_rep(2), fundamental_rep(3))
    assert tensor_rep(trivial_rep(), fundamental_rep(3)) == fundamental_rep(3)


def test_realize_bad_params():
    with pytest.raises(ParameterError):
        realize(4, 3)


def test_sl2_tensor_term_count():
    pr = realize(2, 1)
    assert len(pr.t_u) == 3      # e (x) f, f (x) e, h (x) h/2
    assert sum(2 * p * (2 - p) for p in [1]) == 2
