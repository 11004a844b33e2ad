"""The U_q(sl_N) side of the AIII comparison.

Fundamental representation and R-matrix, Lusztig elements, Letzter-Kolb
coideal generators, K-matrix solving by two independent routes (commutant of
the coideal intersected with the Mudrov family, and the quasi-K-matrix
recursion for the split case), parameter inference by eigenvalue matching
against the KZ-side reflection operator, and the rank-one spherical vector.

Everything is evaluated at a numeric q = e^h with real h in (0, 0.2];
fractional powers q^{a/b} are principal real powers, and the unimodular
constants are explicit N-th roots of unity.
"""

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np
from scipy import sparse

from .errors import (
    ComparisonError,
    DomainError,
    ParameterError,
    StructuralError,
)
from .rootdata import pairing
from .satake import (
    SatakeData,
    build_aiii,
    restricted_half_root,
    theta_weight,
)
from .blocks import Blocks, entries
from .sln import _eij, a_antidiag, cartan_gram_inverse, embed_on_legs

MU_FLAG_FACTOR = 10.0   # |mu| beyond this multiple of h flags a bad sign fit
NULL_RTOL = 1e-9        # singular values up to this share of the largest: null
FIT_ATOL = 1e-9         # eigenvalue-fit s+mu off its closed form: error
QUASI_K_ATOL = 1e-9     # quasi-K recursion residual at a weight: error
CORNER_RTOL = 1e-12     # |K_{N1}| up to this share of max |K_ab|: zero
PARAM_ATOL = 1e-12      # |Re s_p|, |Im c_p^(0)|, |s_p -+ 1| up to this: zero
MIDDLE_RTOL = 1e-9      # middle-block eigenvalue off its closed form: error
MUDROV_RTOL = 1e-9      # |y_i y_{N-i+1} + lam mu| over max(|lam mu|, 1): error


def _qpow(q, expo):
    """Principal real power for rational exponents of a positive real q."""
    return float(q) ** float(expo)


# ---------------------------------------------------------------------------
# quantized enveloping algebra data

@dataclass
class UqFundamental:
    N: int
    q: float
    E: list     # E_1 .. E_{N-1} as N x N matrices
    F: list
    K: list


def fundamental(N, q):
    """pi_V(E_i) = q^{1/2} e_{i,i+1}, pi_V(F_i) = q^{-1/2} e_{i+1,i}."""
    if q <= 0:
        raise ParameterError(f"q must be positive, got {q}")
    s = _qpow(q, Fraction(1, 2))
    E = [s * _eij(N, i, i + 1) for i in range(N - 1)]
    F = [(1 / s) * _eij(N, i + 1, i) for i in range(N - 1)]
    K = []
    for i in range(N - 1):
        d = np.ones(N)
        d[i] = q
        d[i + 1] = 1 / q
        K.append(np.diag(d).astype(complex))
    return UqFundamental(N=N, q=float(q), E=E, F=F, K=K)


def r_matrix(N, q):
    """R = sum q^{-delta_ij} e_ii (x) e_jj + (q^{-1} - q) sum_{i<j} e_ij (x) e_ji.

    This is q^{-1/N} (pi (x) pi)(script R); the dropped scalar is
    universal_r_scalar(N, q).
    """
    if q <= 0:
        raise ParameterError(f"q must be positive, got {q}")
    R = np.eye(N * N, dtype=complex)
    diag = np.arange(N) * (N + 1)          # e_i (x) e_i
    R[diag, diag] = 1 / q
    i, j = np.triu_indices(N, 1)
    R[i * N + j, j * N + i] = 1 / q - q    # e_ij (x) e_ji
    return R


def universal_r_scalar(N, q):
    """The scalar dropped from (pi (x) pi)(script R) by r_matrix."""
    return _qpow(q, Fraction(1, N))


def lusztig_w0(N, q):
    """pi_V(T_{w_0}) = q^{(N-1)/2} A_N."""
    return _qpow(q, Fraction(N - 1, 2)) * a_antidiag(N)


def lusztig_wX(N, p, q):
    """pi_V(T_{w_X}) = diag-block(I_p, q^{(N-1)/2 - p} A_{N-2p}, I_p)."""
    m = np.eye(N, dtype=complex)
    k = N - 2 * p
    if k > 0:
        m[p:N - p, p:N - p] = _qpow(q, Fraction(N - 1, 2) - p) * a_antidiag(k)
    return m


# ---------------------------------------------------------------------------
# coideal parameters

@dataclass
class CoidealParams:
    """Deformation parameters t = (c, s) in the *-parameter set T^*.

    Each c_i is stored as c0 * q^{c_qexp} so both the working value and the
    constant term (the value at q = 1) stay available; s_i are constants.
    Non-distinguished entries are forced to the standard values
    c_i = q^{-(alpha_i^-, alpha_i^-)}, s_i = 0.
    """

    N: int
    p: int
    sd: SatakeData = field(repr=False, compare=False)  # built by make_params
    c0: dict = field(default_factory=dict)       # i -> complex
    c_qexp: dict = field(default_factory=dict)   # i -> Fraction
    s0: dict = field(default_factory=dict)       # i -> complex

    def c_value(self, i, q):
        return self.c0[i] * _qpow(q, self.c_qexp[i])

    def s_value(self, i):
        return self.s0[i]

    @property
    def tag(self):
        return self.sd.hermitian_tag


def make_params(N, p, s_p=0.0, c_p0=None, c_p_qexp=None, complex_ok=False):
    """Build a T^* parameter point for AIII (N, p).

    S-type (N = 2p): s_p must be purely imaginary (unless complex_ok).
    C-type: c_p = c_p0 * q^{c_p_qexp} must have c_p0 > 0 real (unless
    complex_ok); c_{N-p} is derived from c_p c_{N-p} = q^{-2(a_p^-, a_p^-)}.
    The standard point is s_p = 0 / c_p = q^{-1/2}.
    """
    sd = build_aiii(N, p)
    rs = sd.root_system

    def half_root_norm2(i):
        # (alpha_i^-, alpha_i^-) = (v, v) / 4 with the int vector
        # v = alpha_i - Theta(alpha_i)
        a = sd.simple_root(i)
        v = tuple(x - y for x, y in zip(a, theta_weight(sd, a)))
        return pairing(rs, v, v) / 4

    params = CoidealParams(N=N, p=p, sd=sd)
    for i in range(1, N):
        if i in sd.X:
            continue
        params.c0[i] = 1.0
        params.c_qexp[i] = -half_root_norm2(i)
        params.s0[i] = 0.0

    if sd.hermitian_tag == "S":
        if c_p0 is not None:
            raise ParameterError("S-type AIII takes the s_p parameter, not c_p")
        s_p = complex(s_p)
        if not complex_ok and abs(s_p.real) > PARAM_ATOL:
            raise ParameterError(
                f"S-type requires s_p in iR, got {s_p}")
        if abs(s_p - 1) < PARAM_ATOL or abs(s_p + 1) < PARAM_ATOL:
            raise ParameterError("s_p = +-1 is excluded from T*_C")
        params.s0[p] = s_p
    else:
        if abs(complex(s_p)) > 0:
            raise ParameterError("C-type AIII takes the c_p parameter, not s_p")
        if c_p0 is None:
            c_p0, c_p_qexp = 1.0, Fraction(-1, 2)
        c_p0 = complex(c_p0)
        c_p_qexp = Fraction(c_p_qexp if c_p_qexp is not None else 0)
        if not complex_ok:
            if abs(c_p0.imag) > PARAM_ATOL or c_p0.real <= 0:
                raise ParameterError(f"C-type requires c_p > 0, got {c_p0}")
            c_p0 = c_p0.real
        params.c0[p] = c_p0
        params.c_qexp[p] = c_p_qexp
        params.c0[N - p] = 1.0 / c_p0
        params.c_qexp[N - p] = -2 * half_root_norm2(p) - c_p_qexp
    return params


# ---------------------------------------------------------------------------
# coideal generators

def _z_character(N, p, i):
    """z(alpha_i) for the explicit C-type torus element; 1 in the S-type."""
    if N == 2 * p:
        return 1.0
    return float((-1) ** (N + 1)) if i == p else 1.0


def _kappa(z_i):
    """Square root exp(pi i psi) of z_i = exp(2 pi i psi), psi in [0, 1)."""
    psi = (np.angle(z_i) / (2 * np.pi)) % 1.0
    return np.exp(1j * np.pi * psi)


def _h_theta_basis(sd):
    """Diagonal matrices spanning h^theta = {H : (alpha - Theta alpha)(H) = 0}."""
    N = sd.N
    rows = []
    for i in range(1, N):
        a = sd.simple_root(i)
        ta = theta_weight(sd, a)
        rows.append([float(x - y) for x, y in zip(a, ta)])
    rows.append([1.0] * N)  # tracelessness
    from scipy.linalg import null_space
    ker = null_space(np.array(rows), rcond=1e-12)
    return [np.diag(ker[:, j]).astype(complex) for j in range(ker.shape[1])]


def coideal_generators(N, p, t, q):
    """Matrices of the coideal generators in the fundamental representation.

    Returns a dict with keys "B" (the B_i for white labels i), "cartan"
    (a basis of h^theta), "gx" (E_j, F_j for black labels), and "all"
    (everything plus conjugate transposes, for commutant computations).
    """
    if (t.N, t.p) != (N, p):
        raise ParameterError("parameter set does not match (N, p)")
    sd = t.sd
    uq = fundamental(N, q)
    twx = lusztig_wX(N, p, q)
    twx_inv = np.linalg.inv(twx)
    rs = sd.root_system

    B = {}
    for i in range(1, N):
        if i in sd.X:
            continue
        j = sd.tau[i]
        c_i = t.c_value(i, q)
        z_j = _z_character(N, p, j)
        Ej_tw = twx @ uq.E[j - 1] @ twx_inv
        Ki_inv = np.linalg.inv(uq.K[i - 1])
        Bi = uq.F[i - 1] - c_i * z_j * Ej_tw @ Ki_inv
        s_i = t.s_value(i)
        if s_i != 0:
            kappa = _kappa(_z_character(N, p, i))
            Bi = Bi + s_i * kappa * (Ki_inv - np.eye(N)) / (1 / q - 1)
        B[i] = Bi

    gx = []
    for j in sorted(sd.X):
        gx.extend([uq.E[j - 1], uq.F[j - 1]])

    cartan = _h_theta_basis(sd)
    return {
        "B": B,
        "cartan": cartan,
        "gx": gx,
        "all": (list(B.values()) + cartan + gx
                + [m.conj().T for m in B.values()]
                + [m.conj().T for m in gx]),
    }


# ---------------------------------------------------------------------------
# K-matrices

@dataclass
class KMatrixResult:
    K: np.ndarray
    mudrov: dict           # lambda, mu_M, r_block, y (antidiagonal entries)
    eigenvalues: np.ndarray
    inferred_s: float
    inferred_s_plus_mu: complex
    fitted_g: complex
    closed_form_s_plus_mu: complex
    residuals: dict
    diagnostics: dict      # the singular-value gap behind the nullity decision


def closed_form_kmatrix(N, p, t, q):
    """The Prop-level closed forms of the solved K-matrix."""
    Ap = a_antidiag(p)
    if N == 2 * p:
        s_p = t.s_value(p)
        scal = (-1) ** (p - 1) * _qpow(q, Fraction(1, 2 * p) - p)
        K = np.zeros((N, N), dtype=complex)
        K[:p, :p] = _qpow(q, Fraction(1, 2)) * (q + 1) * s_p * np.eye(p)
        K[:p, p:] = -Ap.T
        K[p:, :p] = Ap
        return scal * K
    c_p = t.c_value(p, q)
    lam = (np.exp(-1j * np.pi * p / N)
           * _qpow(q, Fraction(1, N) - (N - p) - Fraction(p, N))
           * c_p ** float(Fraction(-2 * p, N)))
    mu = (np.exp(1j * np.pi * (N - p) / N)
          * _qpow(q, Fraction(1, N) - p + Fraction(N - p, N))
          * c_p ** float(Fraction(2 * (N - p), N)))
    K = np.zeros((N, N), dtype=complex)
    K[:p, :p] = (lam + mu) * np.eye(p)
    K[p:N - p, p:N - p] = lam * np.eye(N - 2 * p)
    K[:p, N - p:] = -_qpow(q, Fraction(N + 1, 2) - p) * c_p * lam * Ap.T
    K[N - p:, :p] = _qpow(q, Fraction(-(N + 1), 2) + p) * (1 / c_p) * mu * Ap
    return K


def _mudrov_support(N, p):
    """Allowed entry positions of the Mudrov normal form with r = p."""
    allowed = set()
    for a in range(N - p):
        allowed.add((a, a))              # (lambda + mu) block and lambda block
    for a in range(p):
        allowed.add((a, N - 1 - a))      # y_1 .. y_p
        allowed.add((N - 1 - a, a))      # y_{N-p+1} .. y_N
    return allowed


def _matches(keys, values):
    """All pairs (j, k) with keys[k] == values[j], as two index arrays."""
    order = np.argsort(keys, kind="stable")
    lo = np.searchsorted(keys[order], values, side="left")
    counts = np.searchsorted(keys[order], values, side="right") - lo
    j = np.repeat(np.arange(len(values)), counts)
    starts = np.cumsum(counts) - counts
    k = order[np.arange(len(j)) + np.repeat(lo - starts, counts)]
    return j, k


def _commutator_rows(gens, positions):
    """The rows of M -> ([M, g_i])_i, g_i in gens, for M supported on
    positions, that some nonzero entry of a generator reaches.

    Row i N^2 + a N + b of the whole system holds the coefficients of
    [M, g_i]_{ab}, column k those of the entry M_{positions[k]}; every row
    not listed is zero.  Returns (A, keys): the listed rows in ascending
    order and their row numbers.  From [e_cd, g]_{ab} = delta_ac g_db -
    g_ac delta_db, an entry is (0 + g_db) - g_ac, added in that order.
    """
    N, nvar = gens[0].shape[0], len(positions)
    c, d = np.array(positions, dtype=int).reshape(nvar, 2).T
    nonzeros = [entries(g) for g in gens]
    gi = np.repeat(np.arange(len(gens)), [len(e[0]) for e in nonzeros])
    r, s, v = (np.concatenate(parts) for parts in zip(*nonzeros))
    # + g_{d_k b} at row (i, c_k, b): the entries in row d_k of g_i
    j, k = _matches(d, r)
    plus = (gi[j] * N * N + c[k] * N + s[j], k, v[j])
    # - g_{a c_k} at row (i, a, d_k): the entries in column c_k of g_i
    j, k = _matches(c, s)
    minus = (gi[j] * N * N + r[j] * N + d[k], k, v[j])
    keys, where = np.unique(np.concatenate([plus[0], minus[0]]),
                            return_inverse=True)
    A = np.zeros((len(keys), nvar), dtype=complex)
    A[where[:len(plus[0])], plus[1]] += plus[2]
    A[where[len(plus[0]):], minus[1]] -= minus[2]
    return A, keys


def _full_commutator_system(gens, positions):
    """The whole system of _commutator_rows, its zero rows included."""
    rows, keys = _commutator_rows(gens, positions)
    N = gens[0].shape[0]
    A = np.zeros((len(gens) * N * N, len(positions)), dtype=complex)
    A[keys] = rows
    return A


def reflection_residual(K, q):
    """|K_1 Rh K_1 Rh - Rh K_1 Rh K_1| / |Rh K_1 Rh K_1| with K_1 = K (x) 1
    and Rh = Sigma r_matrix(N, q), in the Frobenius norm.

    Rh(e_a (x) e_b) = q^{-delta_ab} e_b (x) e_a
                      + (q^{-1} - q)[a > b] e_a (x) e_b.
    K_1 and Rh are CSR matrices, and both are block diagonal on the
    connected components of their joint pattern (blocks.Blocks), so the
    products are formed one batched matmul per block size.  For K on the
    Mudrov support (diagonal plus antidiagonal) a component is an orbit of
    (c, d) under the swap (c, d) -> (d, c) and the flip c -> N-1-c, at most
    8 pairs; no N^2 x N^2 array is formed.
    """
    N = K.shape[0]
    K1 = embed_on_legs(K, (N, N), (0,))
    a, b = np.divmod(np.arange(N * N), N)
    keep = np.flatnonzero(a > b)
    Rh = sparse.csr_array(
        (np.concatenate([np.where(a == b, 1 / q, 1.0),
                         np.full(len(keep), 1 / q - q)]),
         (np.concatenate([b * N + a, keep]),
          np.concatenate([a * N + b, keep]))),
        shape=(N * N, N * N))
    blocks = Blocks(K1, Rh)
    diff2 = rhs2 = 0.0
    for k1, rh in zip(blocks.split(K1), blocks.split(Rh)):
        rhs = rh @ k1 @ rh @ k1
        diff = k1 @ rh @ k1 @ rh - rhs
        diff2 += np.vdot(diff, diff).real
        rhs2 += np.vdot(rhs, rhs).real
    return float(np.sqrt(diff2) / max(np.sqrt(rhs2), 1e-300))


def _mudrov_system(N, p, gens):
    """The linear system [K, g] = 0 (g in gens) plus the diagonal equalities
    for K on the support of the Mudrov normal form.

    Returns (A, support); column k of A holds the entry K_{support[k]}.
    """
    support = sorted(_mudrov_support(N, p))
    pos_index = {pos: k for k, pos in enumerate(support)}
    nvar = len(support)

    A, _ = _commutator_rows(gens, support)
    # drop the zero rows (entries of [K, g] whose terms cancel): they carry
    # no equation
    rows = [A[np.any(A != 0, axis=1)]]
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
    return np.vstack(rows), support


def _null_vector(A):
    """The null vector of A, whose null space must be one dimensional.

    A singular value is null when it is at most NULL_RTOL times the largest,
    so the decision does not change when A is scaled.  Returns the vector and
    the gap behind that decision: the smallest kept and the largest null
    singular value, each over the largest (0 when A has fewer rows than
    unknowns and the null one is implicit).
    """
    nvar = A.shape[1]
    # the rows x rows U is never used; vh needs all nvar rows only when A
    # has fewer rows than unknowns
    _, sing, vh = np.linalg.svd(A, full_matrices=A.shape[0] < nvar)
    rank = int(np.sum(sing > NULL_RTOL * sing[0]))
    nullity = nvar - rank
    if nullity == 0:
        raise StructuralError("no nonconstant solution in the Mudrov family")
    if nullity > 1:
        raise StructuralError(
            f"commutant solution space is {nullity}-dimensional "
            "within the Mudrov family")
    gap = {
        "sigma_kept_min_rel": float(sing[rank - 1] / sing[0]),
        "sigma_null_max_rel": (float(sing[rank] / sing[0])
                               if rank < len(sing) else 0.0),
    }
    return vh[-1].conj(), gap


def solve_kmatrix(N, p, t, q):
    """Solve the commutant system within the Mudrov family and normalize.

    The linear system stacks [K, x] = 0 over all coideal generators and
    their adjoints with the support and diagonal-equality constraints of the
    Mudrov normal form (r = p).  The solution space must be one dimensional;
    the scalar is fixed by matching K_{N1} (and K_{p+1,p+1} is verified in
    the C-type case) against the closed forms.
    """
    gens = coideal_generators(N, p, t, q)
    A, support = _mudrov_system(N, p, gens["all"])
    vec, null_gap = _null_vector(A)
    K = np.zeros((N, N), dtype=complex)
    for k, (a, b) in enumerate(support):
        K[a, b] = vec[k]

    # normalize by the closed-form corner entry
    closed = closed_form_kmatrix(N, p, t, q)
    if abs(K[N - 1, 0]) <= CORNER_RTOL * np.max(np.abs(K)):
        raise StructuralError("solved K-matrix has vanishing corner entry")
    K = K * (closed[N - 1, 0] / K[N - 1, 0])

    residuals = {}
    worst = 0.0
    for g in gens["all"]:
        worst = max(worst, float(np.linalg.norm(K @ g - g @ K)))
    residuals["commutant"] = worst / float(np.linalg.norm(K))
    if N > 2 * p:
        lam_err = abs(K[p, p] - closed[p, p]) / abs(closed[p, p])
        if lam_err > MIDDLE_RTOL:
            raise StructuralError(
                f"middle-block eigenvalue off closed form by {lam_err:.2e}")
    residuals["reflection"] = reflection_residual(K, q)

    # Mudrov data
    y = [K[a, N - 1 - a] for a in range(p)] + \
        [K[N - 1 - a, a] for a in reversed(range(p))]
    if N > 2 * p:
        lam = K[p, p]
        mu = K[0, 0] - lam
    else:
        # the diagonal gives lam + mu, the corner product gives lam * mu
        ssum = K[0, 0]
        prod = -K[0, N - 1] * K[N - 1, 0]
        disc = np.sqrt(ssum * ssum - 4 * prod)
        lam, mu = (ssum + disc) / 2, (ssum - disc) / 2
    mudrov = {"lambda": complex(lam), "mu_M": complex(mu), "r_block": p,
              "y": [complex(v) for v in y]}
    for a in range(p):
        gap = abs(y[a] * y[2 * p - 1 - a] + lam * mu)
        if gap > MUDROV_RTOL * max(abs(lam * mu), 1.0):
            raise StructuralError("Mudrov constraint y_i y_{N-i+1} = -lam mu fails")

    eigs = np.linalg.eigvals(K)
    h = float(np.log(q))
    s, x, g, closed_x = infer_s_mu_from_eigs(eigs, N, p, h, t)
    return KMatrixResult(
        K=K, mudrov=mudrov, eigenvalues=eigs,
        inferred_s=s, inferred_s_plus_mu=x, fitted_g=g,
        closed_form_s_plus_mu=closed_x, residuals=residuals,
        diagnostics=null_gap,
    )


# ---------------------------------------------------------------------------
# parameter inference

def closed_form_s(N, p, t):
    """Closed-form s determined by the constant terms of t.

    S-type: s = +(2/pi) log((1 + c^2)^{1/2} + c), c = -i s_p^{(0)}; the sign
    is + for the kappa_o (Z_theta, X_{alpha_o}) > 0 normalization used here.
    C-type: s = (2/pi) log c_p^{(0)}.
    """
    if N == 2 * p:
        c = complex(-1j * t.s0[p])
        if abs(c.imag) > PARAM_ATOL:
            raise DomainError("S-type closed form needs s_p in iR")
        c = c.real
        return 2 / np.pi * np.log(np.sqrt(1 + c * c) + c)
    c0 = complex(t.c0[p])
    if abs(c0.imag) > PARAM_ATOL or c0.real <= 0:
        raise DomainError("C-type closed form needs c_p^(0) > 0")
    return 2 / np.pi * np.log(c0.real)


def closed_form_s_plus_mu(N, p, t, q):
    """Closed-form s + mu at the working q.

    S-type: (2/pi) log((1 - q(q+1)^2 s_p^2 / 4)^{1/2} - (q^{1/2}(q+1)/2) i s_p);
    C-type: (2/pi) log c_p + h/pi.
    """
    if N == 2 * p:
        s_p = complex(t.s_value(p))
        inner = np.sqrt(1 - q * (q + 1) ** 2 * s_p ** 2 / 4) \
            - _qpow(q, Fraction(1, 2)) * (q + 1) / 2 * 1j * s_p
        return 2 / np.pi * np.log(inner)
    h = float(np.log(q))
    return 2 / np.pi * np.log(t.c_value(p, q)) + h / np.pi


def kz_side_eigenvalue_data(N, p, h):
    """Casimir and Z eigenvalues of the KZ reflection operator blocks.

    Returns (c_plus, c_minus, z_plus, z_minus): C^k acts by c_plus on the
    p-dimensional block and c_minus on the rest; Z_nu acts by i z_plus and
    i z_minus there.

    On e_1 the Casimir of k = s(gl_p + gl_{N-p}) gets 1 from each e_1j e_j1
    with 1 < j <= p, and G^{-1}_{11} from the Cartan part
    sum_ij G^{-1}_ij H_i H_j (G the Gram matrix), as H_1 alone is nonzero
    on e_1; on e_N likewise with the last block and H_{N-1}.
    """
    ginv = cartan_gram_inverse(N)
    c_plus = float((p - 1) + ginv[0, 0])
    c_minus = float((N - p - 1) + ginv[N - 2, N - 2])
    z_plus = 1 - p / N
    z_minus = -p / N
    return c_plus, c_minus, z_plus, z_minus


def infer_s_mu_from_eigs(eigs, N, p, h, t):
    """Fit (s, s+mu, g) so that the eigenvalues of K match those of
    g exp(-h C^k + pi (1 - i(s+mu)) Z) over g in Z(SU(N)).

    Returns (s, s_plus_mu, g, closed_form_s_plus_mu) and raises
    ComparisonError when no central g fits or the closed forms disagree.
    """
    q = float(np.exp(h))
    c_plus, c_minus, z_plus, z_minus = kz_side_eigenvalue_data(N, p, h)

    eigs = np.asarray(eigs)
    vals, counts = _eig_multiplicities(eigs, tol=1e-6 * float(np.max(np.abs(eigs))))
    fits = []
    # candidate assignments of eigenvalue groups to the two blocks
    if N == 2 * p:
        assignments = [(vals[0], vals[1]), (vals[1], vals[0])] \
            if len(vals) == 2 else []
        if len(vals) == 1 and counts[0] == N:
            assignments = [(vals[0], vals[0])]
    else:
        assignments = []
        for vp, cp_count in zip(vals, counts):
            for vm, cm_count in zip(vals, counts):
                if cp_count == p and cm_count == N - p:
                    assignments.append((vp, vm))
    for v_plus, v_minus in assignments:
        # moduli determine x = s + mu (real for t in T^*)
        x1 = (np.log(abs(v_plus)) + h * c_plus) / (np.pi * z_plus)
        x2 = (np.log(abs(v_minus)) + h * c_minus) / (np.pi * z_minus)
        if abs(x1 - x2) > 1e-8:
            continue
        x = (x1 + x2) / 2
        target_plus = np.exp(-h * c_plus) * np.exp(1j * np.pi * z_plus) \
            * np.exp(np.pi * x * z_plus)
        zeta = v_plus / target_plus
        k = int(round(np.angle(zeta) * N / (2 * np.pi))) % N
        zeta_exact = np.exp(2j * np.pi * k / N)
        if abs(zeta - zeta_exact) > 1e-7:
            continue
        target_minus = zeta_exact * np.exp(-h * c_minus) \
            * np.exp(1j * np.pi * z_minus) * np.exp(np.pi * x * z_minus)
        if abs(v_minus - target_minus) > 1e-7 * abs(target_minus):
            continue
        fits.append((float(x), zeta_exact))

    dedup = {}
    for x, z in fits:
        dedup[(round(x, 10), round(z.real, 10), round(z.imag, 10))] = (x, z)
    fits = sorted(dedup.values(),
                  key=lambda f: (f[0], f[1].real, f[1].imag))
    if not fits:
        raise ComparisonError("no central g fits the K-matrix eigenvalues")
    if len(fits) > 1:
        # the s_p = 0 split case is eigenvalue-degenerate (g and -g both
        # fit); break the tie with the closed-form center element
        g_theory = (-1.0) ** (p - 1) if N == 2 * p else 1.0
        matching = [f for f in fits if abs(f[1] - g_theory) < 1e-12]
        if len(matching) != 1:
            raise ComparisonError(
                f"ambiguous central-element fit: {fits}")
        fits = matching
    x, g = fits[0]

    s = closed_form_s(N, p, t)
    mu = x - s
    mu_alt = x + s
    if abs(mu_alt) < abs(mu) and abs(mu_alt) <= MU_FLAG_FACTOR * abs(h):
        if abs(mu) > MU_FLAG_FACTOR * abs(h):
            s, mu = -s, mu_alt
        # both signs close: only possible for s ~ 0 where they agree anyway

    closed_x = closed_form_s_plus_mu(N, p, t, q)
    if abs(x - closed_x) > FIT_ATOL:
        raise ComparisonError(
            f"eigenvalue fit s+mu = {x} disagrees with closed form {closed_x}")
    return float(s), complex(x), complex(g), complex(closed_x)


def _eig_multiplicities(eigs, tol):
    """Cluster eigenvalues into (values, multiplicities), greedy by gap."""
    vals, counts = [], []
    for e in sorted(eigs, key=lambda z: (z.real, z.imag)):
        for i, v in enumerate(vals):
            if abs(e - v) <= max(tol, 1e-12):
                vals[i] = (vals[i] * counts[i] + e) / (counts[i] + 1)
                counts[i] += 1
                break
        else:
            vals.append(e)
            counts.append(1)
    return vals, counts


# ---------------------------------------------------------------------------
# quasi-K-matrix route (split case)

def quasi_k_in_rep(N, p, q):
    """Solve the quasi-K recursion weight by weight in End(V) and assemble
    K = X~ xi' T_{wX}^{-1} T_{w0}^{-1} at the distinguished parameter t'.

    Split (S-type) case only: X is empty, so T_{wX} = 1 and the bar
    involution fixes the X_i = -E_{tau(i)} appearing in the recursion.

    The recursion starts from M_0 = 1 and solves mu = nu + 2 alpha_i^- only
    from a weight nu with M_nu != 0: at any other weight every right-hand
    side vanishes.  Each step adds 2 to the simple-root height, so popping
    weights by height makes every predecessor final before its successors.
    """
    if N != 2 * p:
        raise DomainError("quasi-K route implemented for the split case N = 2p")
    sd = build_aiii(N, p)
    rs = sd.root_system
    uq = fundamental(N, q)

    # c'_i = q^{(alpha_i, Theta(alpha_i))/2} (rho_X = 0 here).  With
    # X_i = -E_j, step i of the recursion at mu is [F_i, M_mu] =
    # M_prev bar(c'_i X_i) K_i - q^{-(a_i,Th a_i)} K_i^{-1} c'_i X_i M_prev,
    # M_prev = M_{mu - 2 alpha_i^-}; right_of and left_of hold its factors.
    steps, right_of, left_of = [], [], []
    for i in range(1, N):
        a = sd.simple_root(i)
        theta_pair = pairing(rs, a, theta_weight(sd, a))
        cp = _qpow(q, theta_pair / 2)
        j = sd.tau[i]
        steps.append(tuple(2 * x for x in restricted_half_root(sd, i)))
        right_of.append(-_qpow(q, -theta_pair / 2) * uq.E[j - 1] @ uq.K[i - 1])
        left_of.append(-_qpow(q, -theta_pair) * cp
                       * np.linalg.inv(uq.K[i - 1]) @ uq.E[j - 1])

    zero_mu = tuple(Fraction(0) for _ in range(N))
    M = {zero_mu: np.eye(N, dtype=complex)}
    frontier = [(0, zero_mu)]
    seen = {zero_mu}
    zeros = np.zeros((N, N), dtype=complex)
    while frontier:
        _, nu = heapq.heappop(frontier)
        for step in steps:
            mu = tuple(a + b for a, b in zip(nu, step))
            # End(V) carries weights of height at most N - 1
            if sum(c for c in mu if c > 0) > N - 1 or mu in seen:
                continue
            seen.add(mu)
            # the weight space of mu in End(V): e_ab when mu = L_a - L_b
            positions = ([(mu.index(1), mu.index(-1))]
                         if sorted(mu) == [-1] + [0] * (N - 2) + [1] else [])
            rhs = []
            for st, right, left in zip(steps, right_of, left_of):
                M_prev = M.get(tuple(a - b for a, b in zip(mu, st)), zeros)
                rhs.append((M_prev @ right - left @ M_prev).ravel())
            # [F_i, M] = -[M, F_i]; the zero rows stay, the residual reads them
            A = -_full_commutator_system(uq.F, positions)
            bvec = np.concatenate(rhs)
            if positions:
                sol, *_ = np.linalg.lstsq(A, bvec, rcond=None)
                resid = float(np.linalg.norm(A @ sol - bvec))
            else:
                sol = np.zeros(0)
                resid = float(np.linalg.norm(bvec))
            if resid > QUASI_K_ATOL:
                raise StructuralError(f"quasi-K recursion inconsistent "
                                      f"at weight {mu}: {resid:.2e}")
            Mmu = np.zeros((N, N), dtype=complex)
            for k, (a, b) in enumerate(positions):
                Mmu[a, b] = sol[k]
            if Mmu.any():
                M[mu] = Mmu
                # simple-root height: type A partial sums
                heapq.heappush(frontier, (sum(accumulate(mu[:-1])), mu))

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
        return sum(c * omega0_pair[i]
                   for i, c in enumerate(accumulate(mu[:-1]), 1))

    X_rep = np.zeros((N, N), dtype=complex)
    for mu, Mmu in M.items():
        X_rep = X_rep + _qpow(q, omega0_dot(mu)) * Mmu

    # xi' is scalar in the split case: q^{-(L_i^+, L_i^+)} with value
    # independent of i
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


def cross_route_scalar(N, p, q):
    """Compare quasi-K and commutant K at t = 0; returns (scalar, max entry gap).

    The two routes agree up to one unimodular scalar; the gap is measured
    entrywise after dividing it out.
    """
    t0 = make_params(N, p)
    kr = solve_kmatrix(N, p, t0, q)
    _, K_quasi = quasi_k_in_rep(N, p, q)
    a, b = kr.K.ravel(), K_quasi.ravel()
    idx = int(np.argmax(np.abs(b)))
    scalar = a[idx] / b[idx]
    gap = float(np.max(np.abs(kr.K - scalar * K_quasi)))
    return complex(scalar), gap


# ---------------------------------------------------------------------------
# rank-one spherical vector

def sl2_spherical(n, c, s, q):
    """Nonzero kernel vector of B = F - c E K^{-1} + s(K^{-1} - 1) on the
    highest-weight-2n module (dimension 2n + 1).

    In the F^k-highest-weight basis: K F^k xi = q^{2n-2k} F^k xi and
    E F^k xi = [k]_q [2n-k+1]_q F^{k-1} xi.  For n = 1 the kernel is spanned
    by (1, s(1-q^2)/(c q^2 [2]_q), 1/(c q^2 [2]_q)).
    """
    if n < 0:
        raise ParameterError("n must be a nonnegative integer")
    if c == 0:
        raise ParameterError("c must be nonzero")
    d = 2 * n + 1
    qn = lambda k: (q ** k - q ** (-k)) / (q - 1 / q)
    F = np.zeros((d, d), dtype=complex)
    E = np.zeros((d, d), dtype=complex)
    Kinv = np.zeros((d, d), dtype=complex)
    for k in range(d):
        Kinv[k, k] = float(q) ** (2 * k - 2 * n)
        if k + 1 < d:
            F[k + 1, k] = 1.0
        if k >= 1:
            E[k - 1, k] = qn(k) * qn(2 * n - k + 1)
    B = F - c * E @ Kinv + s * (Kinv - np.eye(d))
    _, sing, vh = np.linalg.svd(B)
    v = vh[-1].conj()
    resid = float(np.linalg.norm(B @ v))
    if resid > 1e-10 * max(1.0, float(np.linalg.norm(B))):
        raise StructuralError(
            f"no kernel vector found for B (residual {resid:.2e})")
    # normalize so the highest-weight coefficient is 1
    if abs(v[0]) > 1e-12:
        v = v / v[0]
    return v
