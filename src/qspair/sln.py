"""Concrete sl_N realization of the AIII symmetric pairs.

Builds the matrix ingredients every other module consumes: Z_nu, the spectral
projectors of ad Z_nu, the split invariant tensors t^u = t^k + t^{m+} + t^{m-}
and the classical r-matrix, each one (N,N,N,N) array built once per
realization, Casimirs, interpolated Cayley transforms with their
residual checks, the Omega-pairing, and a builder that places these elements
on arbitrary legs of a tensor product.  Every module is a tensor power of the
fundamental, so every placement is one of fundamental-leg operators.

Conventions: the invariant form is (X, Y)_g = Tr(XY); root vectors are
X_alpha = e_{ab} for alpha = L_a - L_b with a < b, so [X_alpha, X_alpha^*]
equals H_alpha on the nose and no structure-constant phases appear.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from .blocks import entries
from .errors import DomainError, ParameterError, ShapeError
from . import satake as satake_mod

ODD_PHI_TOL = 1e-12     # distance below which phi counts as in 1 + 2Z


# ---------------------------------------------------------------------------
# representations

@dataclass(frozen=True)
class Representation:
    """The sl_N-module V^{(x) legs}, V the fundamental: the fundamental has
    one leg, the trivial module none, a merged leg one per fundamental."""

    N: int
    legs: int

    @property
    def dim(self):
        return self.N ** self.legs

    def rho(self, X):
        """X (N x N) acting on each leg, X (x) 1 + ... + 1 (x) X, dense."""
        return _place([(X, (leg,)) for leg in range(self.legs)],
                      (self.N,) * self.legs).toarray()


def fundamental_rep(N):
    return Representation(N, 1)


def trivial_rep():
    """No legs, so N plays no part; tensor_rep takes N from the other side."""
    return Representation(1, 0)


def tensor_rep(a, b):
    """a (x) b as one merged leg: the legs of a, then those of b."""
    if a.legs and b.legs and a.N != b.N:
        raise ShapeError(f"cannot merge sl_{a.N}- and sl_{b.N}-modules")
    return Representation(a.N if a.legs else b.N, a.legs + b.legs)


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
    # t_u, r, t_k, t_mplus and t_mminus are elements sum A (x) B of g (x) g,
    # each the (N,N,N,N) array T[a,b,c,d] = sum A_ab B_cd
    t_u: np.ndarray
    r: np.ndarray              # classical r-matrix, eq-style normalized
    cascade_roots: list        # cascade as (a, b) index pairs, X_gamma = e_ab
    t_k: np.ndarray = field(init=False)
    t_mplus: np.ndarray = field(init=False)
    t_mminus: np.ndarray = field(init=False)

    def __post_init__(self):
        self.t_k = _project_tensor(self.t_u, self.proj_k, self.proj_k)
        self.t_mplus = _project_tensor(self.t_u, self.proj_mplus, self.proj_mminus)
        self.t_mminus = _project_tensor(self.t_u, self.proj_mminus, self.proj_mplus)

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
    # r = i sum_{alpha>0} ((alpha,alpha)/2) (X_{-a} (x) X_a - X_a (x) X_{-a});
    # for type A every (alpha, alpha) = 2 and X_{L_a - L_b} = e_{ab}
    r = np.zeros((N,) * 4, dtype=complex)
    a, b = np.triu_indices(N, 1)
    r[b, a, a, b] = 1j
    r[a, b, b, a] = -1j
    cascade_roots = [(g.index(1), g.index(-1)) for g in sd.cascade]
    return PairRealization(
        N=N, p=p, sd=sd, Znu=Znu, basis_g=basis, dual_g=dual,
        t_u=np.tensordot(basis, dual, axes=(0, 0)), r=r,
        cascade_roots=cascade_roots)


def casimir_matrix(pr, which="k"):
    """C = sum_a A_a B_a on the fundamental for the chosen split tensor T,
    that is C_ad = sum_b T[a,b,b,d]."""
    return np.einsum("abbd->ad", {"k": pr.t_k, "u": pr.t_u}[which])


# arity and split tensor (a PairRealization field) of each symbol
_SYMBOLS = {
    "t_u": (2, "t_u"), "t_k": (2, "t_k"), "t_mplus": (2, "t_mplus"),
    "t_mminus": (2, "t_mminus"), "r": (2, "r"),
    "casimir_k": (1, "t_k"), "casimir_u": (1, "t_u"), "Z": (1, None),
}


def _leg_offsets(dims, legs):
    """Flat index in prod dims of each basis vector of the given legs
    (row-major over the legs in the order given), the other legs at 0."""
    off = np.zeros(1, dtype=np.intp)
    for leg in legs:
        stride = math.prod(dims[leg + 1:])
        off = (off[:, None] + stride * np.arange(dims[leg])).ravel()
    return off


def embed_on_legs(T, dims, legs):
    """T, dense or sparse, acting on the given legs of prod dims and as the
    identity on the other legs, as a CSR matrix.

    T's k-th leg goes on legs[k], in any order: with legs a permutation of
    all legs this is the leg-permuting similarity, e.g. (1, 0) on two legs
    gives R_21 from R.  Every placement of an operator on tensor legs goes
    through here.  Row i of the result is row a of T on the legs and the
    identity on the rest, so the CSR arrays are gathered from T's entries
    directly.
    """
    local = _leg_offsets(dims, legs)
    rest = _leg_offsets(dims, [k for k in range(len(dims)) if k not in legs])
    r, c, v = entries(T)
    counts = np.bincount(r, minlength=len(local))
    starts = np.cumsum(counts) - counts
    total = math.prod(dims)
    flat = np.empty(total, dtype=np.intp)     # row i -> a * len(rest) + z
    flat[(local[:, None] + rest).ravel()] = np.arange(total)
    a, z = np.divmod(flat, len(rest))
    per_row = counts[a]
    indptr = np.concatenate([[0], np.cumsum(per_row)])
    pos = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - starts[a], per_row)
    indices = local[c[pos]] + np.repeat(rest[z], per_row)
    return sparse.csr_array((v[pos], indices, indptr), shape=(total, total))


def _place(terms, dims):
    """The sum of T put on legs by embed_on_legs over the (T, legs) terms,
    and the zero operator when there are none."""
    parts = [embed_on_legs(T, dims, legs) for T, legs in terms]
    if not parts:
        return sparse.csr_array((math.prod(dims),) * 2, dtype=complex)
    return sum(parts[1:], parts[0])


def build_leg_tensor(pr, symbol, reps, legs):
    """A named element on the given slots of prod_i reps[i], as a CSR matrix
    on their fundamental legs.  A two-leg symbol T = sum_a A_a (x) B_a is
    its N^2 x N^2 pair factor, T[a,b,c,d] at row (a, c) and column (b, d),
    on each pair of legs, one per slot; Z is Z_nu on each leg of its slot; a
    Casimir is the one-leg Casimir on each leg of its slot plus the pair
    factor on each ordered pair of its legs.  A slot with no legs gives the
    zero operator, the counit.
    """
    if symbol not in _SYMBOLS:
        raise ParameterError(f"unknown symbol {symbol!r}")
    arity, attr = _SYMBOLS[symbol]
    if len(legs) != arity:
        raise ShapeError(f"symbol {symbol!r} needs {arity} legs, got {len(legs)}")
    for leg in legs:
        if not 0 <= leg < len(reps):
            raise ShapeError(f"leg {leg} out of range for {len(reps)} spaces")
        if reps[leg].legs and reps[leg].N != pr.N:
            raise ShapeError(f"sl_{reps[leg].N}-module on leg {leg}, not sl_{pr.N}")
    if arity == 2 and legs[0] == legs[1]:
        raise ShapeError("two-leg symbol needs distinct legs")
    ends = list(itertools.accumulate(r.legs for r in reps))
    slots = [range(ends[k] - reps[k].legs, ends[k]) for k in legs]
    N, dims = pr.N, (pr.N,) * ends[-1]
    each = itertools.product(*slots)        # one leg in each slot
    if symbol == "Z":
        return _place([(pr.Znu, p) for p in each], dims)
    terms = []
    if arity == 1:      # a Casimir: C on each leg, then t on its leg pairs
        terms = [(casimir_matrix(pr, symbol[-1]), p) for p in each]
        each = itertools.permutations(slots[0], 2)
    factor = getattr(pr, attr).swapaxes(1, 2).reshape(N * N, N * N)
    return _place(terms + [(factor, p) for p in each], dims)


def weyl_orbit_map(N, p, legs):
    """The canonical image of each basis index of V^{(x) legs} under the
    Weyl group S_p x S_{N-p} of k, which relabels the index values on every
    leg at once.

    The relabelling sigma of an index sorts the counts of its values,
    descending and stable, within [0, p) and within [p, N): the most
    frequent value of each half goes to the start of that half.  So sigma
    depends only on the content, and it maps a weight space onto the one
    whose content is sorted.  Every KZ coefficient commutes with the group.
    """
    digits = np.indices((N,) * legs).reshape(legs, N ** legs).T
    counts = (digits[:, :, None] == np.arange(N)).sum(axis=1)
    halves = [lo + np.argsort(-counts[:, lo:hi], axis=1, kind="stable")
              for lo, hi in ((0, p), (p, N))]
    sigma = np.argsort(np.concatenate(halves, axis=1), axis=1)
    relabelled = np.take_along_axis(sigma, digits, axis=1)
    return relabelled @ N ** np.arange(legs - 1, -1, -1)


# ---------------------------------------------------------------------------
# Cayley transforms and residuals

def cayley(pr, phi):
    """g_phi = exp((pi i phi / 4) sum_i (X_{-gamma_i} + X_{gamma_i}))."""
    N = pr.N
    gen = np.zeros((N, N), dtype=complex)
    for a, b in pr.cascade_roots:
        gen += _eij(N, a, b) + _eij(N, b, a)
    return expm(1j * np.pi * phi / 4 * gen)


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
    rot = _ad_both_legs_impl(g, gi, pr.r)
    diff = rot - np.cos(np.pi * phi / 2) * pr.r
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
    kbasis = k_phi_basis(pr, phi)
    # orthonormalize k_phi once; complement projector via it
    vecs = np.array([b.ravel() for b in kbasis]).T
    q, _ = np.linalg.qr(vecs)

    def proj_m_phi(X):
        x = X.ravel()
        return (x - q @ (q.conj().T @ x)).reshape(X.shape)

    T = pr.r

    def residual_for(X):
        # delta_r(X) = [r, X (x) 1 + 1 (x) X]
        D = (np.einsum("ax,xbcd->abcd", X, T) - np.einsum("xb,axcd->abcd", X, T)
             + np.einsum("cx,abxd->abcd", X, T) - np.einsum("xd,abcx->abcd", X, T))
        return _tensor_norm(_project_tensor(D, proj_m_phi, proj_m_phi))

    if probe is not None:
        return residual_for(probe)
    return max(residual_for(X) for X in kbasis)


def omega_pairing(pr, T):
    """<Omega, 1 (x) T> = sum ([[A, Z], [B, Z]], Z)_g over T = sum A (x) B.

    With Z = diag(z), [A, Z]_ab = A_ab (z_b - z_a), so the pairing is
    sum_ab T[a,b,b,a] (z_b - z_a)^3.
    """
    z = np.diag(pr.Znu)
    return complex(np.einsum("abba,ab->", T, (z - z[:, None]) ** 3))


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


def phi_near_odd(phi):
    """Whether phi lies within ODD_PHI_TOL of 1 + 2Z, on either side."""
    x = (phi - 1) / 2
    return abs(x - np.rint(x)) < ODD_PHI_TOL


def fix_theta_generator_residual(pr, phi):
    """Distance of the Prop-style distinguished generator(s) to k_phi^C.

    S-type: X_{alpha_o} + theta(X_{alpha_o}) - s_o H_{alpha_o},
    s_o = i tan(pi phi / 2).  C-type: X_{alpha_o} + c_o theta(X_{alpha_o})
    and X_{alpha_o'} + c_o^{-1} theta(X_{alpha_o'}),
    c_o = -cot(pi (phi - 1) / 4).  Returns the max distance.
    """
    if phi_near_odd(phi):
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
