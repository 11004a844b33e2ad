"""Concrete sl_N realization of the AIII symmetric pairs.

Builds the matrix ingredients every other module consumes: Z_nu, the spectral
projectors of ad Z_nu, the split invariant tensors t^u = t^k + t^{m+} + t^{m-},
Casimirs, the classical r-matrix, interpolated Cayley transforms with their
residual checks, the Omega-pairing, and a representation-aware builder that
places these elements on arbitrary legs of a tensor product.

Conventions: the invariant form is (X, Y)_g = Tr(XY); root vectors are
X_alpha = e_{ab} for alpha = L_a - L_b with a < b, so [X_alpha, X_alpha^*]
equals H_alpha on the nose and no structure-constant phases appear.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, ParameterError, ShapeError
from . import satake as satake_mod


# ---------------------------------------------------------------------------
# representations

@dataclass(frozen=True)
class Representation:
    """A Lie algebra representation given by a matrix-valued map on sl_N."""

    dim: int
    rho: object          # callable: (N x N traceless ndarray) -> (dim x dim)
    name: str = "rep"

    def __call__(self, X):
        return self.rho(X)

    def check_homomorphism(self, basis, tol=1e-12):
        worst = 0.0
        for A in basis:
            for B in basis:
                lhs = self.rho(A @ B - B @ A)
                rhs = self.rho(A) @ self.rho(B) - self.rho(B) @ self.rho(A)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst


def fundamental_rep(N):
    return Representation(dim=N, rho=lambda X: np.asarray(X, dtype=complex),
                          name=f"fund({N})")


def trivial_rep():
    return Representation(dim=1, rho=lambda X: np.zeros((1, 1), dtype=complex),
                          name="trivial")


def tensor_rep(a, b):
    """X acts as X (x) 1 + 1 (x) X; used for merged legs."""
    da, db = a.dim, b.dim
    ia, ib = np.eye(da), np.eye(db)

    def rho(X):
        return np.kron(a.rho(X), ib) + np.kron(ia, b.rho(X))

    return Representation(dim=da * db, rho=rho, name=f"({a.name})*({b.name})")


# ---------------------------------------------------------------------------
# leg tensors

def place_on_legs(ops, dims):
    """Kronecker product with ops[i] (or identity) on leg i."""
    out = None
    for i, d in enumerate(dims):
        m = ops.get(i)
        if m is None:
            m = np.eye(d)
        out = m if out is None else np.kron(out, m)
    return out


def place_pair_tensor(pairs, rep_i, rep_j, dims, i, j):
    """sum_a rho_i(A_a) on leg i times rho_j(B_a) on leg j."""
    total = np.zeros((int(np.prod(dims)), int(np.prod(dims))), dtype=complex)
    for A, B in pairs:
        total += place_on_legs({i: rep_i.rho(A), j: rep_j.rho(B)}, dims)
    return total


def permute_legs(mat, dims, perm):
    """Similarity transform implementing legs[k] -> position of perm.

    perm[i] = old position that moves to new position i.
    """
    n = len(dims)
    t = mat.reshape(tuple(dims) + tuple(dims))
    axes = list(perm) + [n + p for p in perm]
    return np.transpose(t, axes).reshape(mat.shape)


def flip_matrix(d):
    """The flip Sigma(v (x) w) = w (x) v on C^d (x) C^d as a permutation matrix."""
    out = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            out[j * d + i, i * d + j] = 1.0
    return out


# ---------------------------------------------------------------------------
# the pair realization

@dataclass
class PairRealization:
    N: int
    p: int
    sd: object                 # SatakeData
    Znu: np.ndarray            # N x N, i * diag(1 - p/N, ..., -p/N, ...)
    basis_g: list              # basis X_a of sl_N
    dual_g: list               # dual basis X^a under Tr
    t_u: list                  # list of (A, B) pairs summing to t^u
    t_k: list
    t_mplus: list
    t_mminus: list
    r: list                    # classical r-matrix pairs, eq-style normalized
    cascade_roots: list        # cascade as (a, b) index pairs, X_gamma = e_ab

    # spectral projectors of ad Z_nu (as maps on N x N matrices)
    def proj_k(self, X):
        Z = self.Znu
        return X + Z @ (Z @ X - X @ Z) - (Z @ X - X @ Z) @ Z

    def proj_mplus(self, X):
        Z = self.Znu
        ad = Z @ X - X @ Z
        ad2 = Z @ ad - ad @ Z
        return -0.5 * (ad2 + 1j * ad)

    def proj_mminus(self, X):
        Z = self.Znu
        ad = Z @ X - X @ Z
        ad2 = Z @ ad - ad @ Z
        return -0.5 * (ad2 - 1j * ad)

    def a_nu_squared(self):
        return Fraction(self.N, self.p * (self.N - self.p))


def _eij(N, i, j):
    m = np.zeros((N, N), dtype=complex)
    m[i, j] = 1.0
    return m


def cartan_gram_inverse(N):
    """Inverse of the Gram matrix Tr(H_i H_j) of H_i = e_ii - e_{i+1,i+1}."""
    gram = 2 * np.eye(N - 1) - np.eye(N - 1, k=1) - np.eye(N - 1, k=-1)
    return np.linalg.inv(gram)


def _sl_basis(N):
    """Basis of sl_N: off-diagonal units then H_i, with its trace-dual."""
    basis, dual = [], []
    for i in range(N):
        for j in range(N):
            if i != j:
                basis.append(_eij(N, i, j))
                dual.append(_eij(N, j, i))
    # Cartan part: H_i = e_ii - e_{i+1,i+1}; dual via the inverse Gram matrix
    cart = [_eij(N, i, i) - _eij(N, i + 1, i + 1) for i in range(N - 1)]
    ginv = cartan_gram_inverse(N)
    for i in range(N - 1):
        basis.append(cart[i])
        dual.append(sum(ginv[i, j] * cart[j] for j in range(N - 1)))
    return basis, dual


def realize(N, p):
    """Populate the matrix realization of the AIII pair (N, p)."""
    sd = satake_mod.build_aiii(N, p)
    Znu = 1j * np.diag([1 - p / N] * p + [-p / N] * (N - p)).astype(complex)

    basis, dual = _sl_basis(N)
    t_u = list(zip(basis, dual))

    pr = PairRealization(
        N=N, p=p, sd=sd, Znu=Znu,
        basis_g=basis, dual_g=dual,
        t_u=t_u, t_k=[], t_mplus=[], t_mminus=[], r=[],
        cascade_roots=[],
    )
    pr.t_k = [(pr.proj_k(A), pr.proj_k(B)) for A, B in t_u]
    pr.t_mplus = [(pr.proj_mplus(A), pr.proj_mminus(B)) for A, B in t_u]
    pr.t_mminus = [(pr.proj_mminus(A), pr.proj_mplus(B)) for A, B in t_u]

    # r = i sum_{alpha>0} ((alpha,alpha)/2) (X_{-a} (x) X_a - X_a (x) X_{-a});
    # for type A every (alpha, alpha) = 2 and X_{L_a - L_b} = e_{ab}
    r = []
    for a in range(N):
        for b in range(a + 1, N):
            r.append((1j * _eij(N, b, a), _eij(N, a, b)))
            r.append((-1j * _eij(N, a, b), _eij(N, b, a)))
    pr.r = r

    for g in sd.cascade:
        a = next(i for i, c in enumerate(g) if c == 1)
        b = next(i for i, c in enumerate(g) if c == -1)
        pr.cascade_roots.append((a, b))
    return pr


def casimir_matrix(pr, rep, which="k"):
    """rho(C) = sum_a rho(A_a) rho(B_a) for the chosen split tensor."""
    pairs = {"k": pr.t_k, "u": pr.t_u}[which]
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for A, B in pairs:
        out += rep.rho(A) @ rep.rho(B)
    return out


_SYMBOL_ARITY = {
    "t_u": 2, "t_k": 2, "t_mplus": 2, "t_mminus": 2, "r": 2,
    "casimir_k": 1, "casimir_u": 1, "Z": 1,
}


def build_leg_tensor(pr, symbol, reps, legs):
    """Materialize a named element on the given legs of prod_i V_{reps[i]}.

    Two-leg symbols are placed as sum_a rho_i(A_a) rho_j(B_a); one-leg
    symbols as the corresponding matrix on a single leg, identity elsewhere.
    """
    if symbol not in _SYMBOL_ARITY:
        raise ParameterError(f"unknown symbol {symbol!r}")
    arity = _SYMBOL_ARITY[symbol]
    if len(legs) != arity:
        raise ShapeError(f"symbol {symbol!r} needs {arity} legs, got {len(legs)}")
    dims = tuple(r.dim for r in reps)
    for leg in legs:
        if not 0 <= leg < len(reps):
            raise ShapeError(f"leg {leg} out of range for {len(reps)} spaces")
    if arity == 2:
        i, j = legs
        if i == j:
            raise ShapeError("two-leg symbol needs distinct legs")
        pairs = {
            "t_u": pr.t_u, "t_k": pr.t_k,
            "t_mplus": pr.t_mplus, "t_mminus": pr.t_mminus, "r": pr.r,
        }[symbol]
        return place_pair_tensor(pairs, reps[i], reps[j], dims, i, j)
    (i,) = legs
    if symbol == "Z":
        m = reps[i].rho(pr.Znu)
    elif symbol == "casimir_k":
        m = casimir_matrix(pr, reps[i], "k")
    else:
        m = casimir_matrix(pr, reps[i], "u")
    return place_on_legs({i: m}, dims)


# ---------------------------------------------------------------------------
# Cayley transforms and residuals

def cayley(pr, phi):
    """g_phi = exp((pi i phi / 4) sum_i (X_{-gamma_i} + X_{gamma_i}))."""
    N = pr.N
    gen = np.zeros((N, N), dtype=complex)
    for a, b in pr.cascade_roots:
        gen += _eij(N, a, b) + _eij(N, b, a)
    return expm(1j * np.pi * phi / 4 * gen)


def _pair_list_to_array(pairs, N):
    """g (x) g element as an (N,N,N,N) array T[a,b,c,d] = sum A_ab B_cd."""
    T = np.zeros((N, N, N, N), dtype=complex)
    for A, B in pairs:
        T += np.einsum("ab,cd->abcd", A, B)
    return T


def _ad_both_legs_impl(g, gi, T):
    """(Ad g (x) Ad g)(T) for T an (N,N,N,N) tensor."""
    T1 = np.einsum("ax,xbcd->abcd", g, T, optimize=True)
    T1 = np.einsum("axcd,xb->abcd", T1, gi, optimize=True)
    T1 = np.einsum("abxd,cx->abcd", T1, g, optimize=True)
    T1 = np.einsum("abcx,xd->abcd", T1, gi, optimize=True)
    return T1


def _project_tensor(T, proj_first, proj_second):
    """Apply matrix-space projectors to the two legs of an (N,N,N,N) tensor."""
    N = T.shape[0]
    out = np.zeros_like(T)
    # project leg 1: treat T as a matrix-valued matrix in (cd)
    for c in range(N):
        for d in range(N):
            out[:, :, c, d] = proj_first(T[:, :, c, d])
    out2 = np.zeros_like(T)
    for a in range(N):
        for b in range(N):
            out2[a, b] = proj_second(out[a, b])
    return out2


def _tensor_norm(T):
    return float(np.sqrt(np.sum(np.abs(T) ** 2)))


def r_rotation_residual(pr, phi):
    """Norm of (Ad g_phi)^{(x)2}(r) - cos(pi phi/2) r off u^nu (x) u + u (x) u^nu.

    The orthogonal complement of that subspace under (X, Y^*) is m (x) m, so
    the residual is the m (x) m component.
    """
    g = cayley(pr, phi)
    gi = np.linalg.inv(g)
    T = _pair_list_to_array(pr.r, pr.N)
    rot = _ad_both_legs_impl(g, gi, T)
    diff = rot - np.cos(np.pi * phi / 2) * T
    proj_m = lambda X: pr.proj_mplus(X) + pr.proj_mminus(X)
    return _tensor_norm(_project_tensor(diff, proj_m, proj_m))


def k_basis(pr):
    """Block basis of g^nu = s(gl_p + gl_{N-p}) as N x N matrices."""
    N, p = pr.N, pr.p
    basis = []
    for i in range(N):
        for j in range(N):
            if i != j and ((i < p) == (j < p)):
                basis.append(_eij(N, i, j))
    for i in range(N - 1):
        basis.append(_eij(N, i, i) - _eij(N, i + 1, i + 1))
    return basis


def k_phi_basis(pr, phi):
    """Basis of k_phi^C = (Ad g_{phi-1})(g^nu) as N x N matrices."""
    g = cayley(pr, phi - 1)
    gi = np.linalg.inv(g)
    return [g @ X @ gi for X in k_basis(pr)]


def _proj_onto_span(basis, X):
    """Orthogonal projection of X onto span(basis) under <A,B> = Tr(A B^dag)."""
    vecs = np.array([b.ravel() for b in basis]).T
    q, _ = np.linalg.qr(vecs)
    x = X.ravel()
    return (q @ (q.conj().T @ x)).reshape(X.shape)


def subspace_distance(basis, X):
    """Norm of the component of X orthogonal to span(basis)."""
    return float(np.linalg.norm(X - _proj_onto_span(basis, X)))


def coisotropy_residual(pr, phi, probe=None):
    """Max residual of delta_r(X) outside k_phi (x) u + u (x) k_phi over a
    basis X of k_phi; the complement is m_phi (x) m_phi.

    With probe set (an N x N matrix), evaluates the same functional on that
    single element instead, which is used as a negative control.
    """
    N = pr.N
    kbasis = k_phi_basis(pr, phi)
    # orthonormalize k_phi once; complement projector via it
    vecs = np.array([b.ravel() for b in kbasis]).T
    q, _ = np.linalg.qr(vecs)

    def proj_m_phi(X):
        x = X.ravel()
        return (x - q @ (q.conj().T @ x)).reshape(X.shape)

    T = _pair_list_to_array(pr.r, N)

    def residual_for(X):
        # delta_r(X) = [r, X (x) 1 + 1 (x) X]
        D = (np.einsum("ax,xbcd->abcd", X, T) - np.einsum("xb,axcd->abcd", X, T)
             + np.einsum("cx,abxd->abcd", X, T) - np.einsum("xd,abcx->abcd", X, T))
        return _tensor_norm(_project_tensor(D, proj_m_phi, proj_m_phi))

    if probe is not None:
        return residual_for(probe)
    return max(residual_for(X) for X in kbasis)


def omega_pairing(pr, pairs):
    """<Omega, 1 (x) T> = sum ([[A, Z], [B, Z]], Z)_g over T = sum A (x) B."""
    Z = pr.Znu
    total = 0j
    for A, B in pairs:
        AZ = A @ Z - Z @ A
        BZ = B @ Z - Z @ B
        total += np.trace((AZ @ BZ - BZ @ AZ) @ Z)
    return complex(total)


def theta_matrix(N, p):
    """The Satake-form involution matrix of the AIII family: m_0 = A_N in the
    S-type case, z m_0 m_X in the C-type case; theta = Ad of this matrix."""
    if N == 2 * p:
        return a_antidiag(N)
    z_phase = np.exp(1j * np.pi * p / N)
    m = np.zeros((N, N), dtype=complex)
    Ap = a_antidiag(p)
    m[:p, N - p:] = -Ap.T
    m[p:N - p, p:N - p] = np.eye(N - 2 * p)
    m[N - p:, :p] = -Ap
    return z_phase * m


def a_antidiag(k):
    """A_k: antidiagonal with alternating signs, (A_k)_{i, k+1-i} = (-1)^{i-1}."""
    m = np.zeros((k, k), dtype=complex)
    for i in range(k):
        m[i, k - 1 - i] = (-1) ** i
    return m


def theta_prime_operator(pr):
    """theta' = (Ad g_1)^{-1} . nu . (Ad g_1) as a map on N x N matrices."""
    g1 = cayley(pr, 1.0)
    g1i = np.linalg.inv(g1)
    u = expm(np.pi * pr.Znu)
    ui = np.linalg.inv(u)

    def theta(X):
        Y = g1 @ X @ g1i
        Y = u @ Y @ ui
        return g1i @ Y @ g1
    return theta


def fix_theta_generator_residual(pr, phi):
    """Distance of the Prop-style distinguished generator(s) to k_phi^C.

    S-type: X_{alpha_o} + theta(X_{alpha_o}) - s_o H_{alpha_o},
    s_o = i tan(pi phi / 2).  C-type: X_{alpha_o} + c_o theta(X_{alpha_o})
    and X_{alpha_o'} + c_o^{-1} theta(X_{alpha_o'}),
    c_o = -cot(pi (phi - 1) / 4).  Returns the max distance.
    """
    if abs(((phi - 1) / 2) % 1.0) < 1e-12:
        raise DomainError("phi must avoid 1 + 2Z")
    N, p = pr.N, pr.p
    theta = theta_prime_operator(pr)
    kbasis = k_phi_basis(pr, phi)
    out = []
    if N == 2 * p:
        Xo = _eij(N, p - 1, p)          # X_{alpha_p} = e_{p,p+1}, 0-based
        Ho = _eij(N, p - 1, p - 1) - _eij(N, p, p)
        s_o = 1j * np.tan(np.pi * phi / 2)
        gen = Xo + theta(Xo) - s_o * Ho
        out.append(subspace_distance(kbasis, gen))
    else:
        c_o = -1.0 / np.tan(np.pi * (phi - 1) / 4)
        Xo = _eij(N, p - 1, p)
        Xop = _eij(N, N - p - 1, N - p)  # X_{alpha_{N-p}}
        out.append(subspace_distance(kbasis, Xo + c_o * theta(Xo)))
        out.append(subspace_distance(kbasis, Xop + (1 / c_o) * theta(Xop)))
    return max(out)
