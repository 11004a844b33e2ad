"""Normalized monodromy of regular-singular ODEs and the KZ-type associators.

The generic engine integrates

    G'(w) = (A_{-1}/(w+1) + A_1/(w-1) + A_0/w) G(w)

by two-sided Frobenius series: H_0(w) = G_0(w) w^{-A_0} expanded at w = 0 and
H_1(u) = G_1(1-u) u^{-A_1} expanded at u = 0, both with radius 1, matched at
w = 1/2.  The normalized 0 -> 1 monodromy is

    Psi = G_1(1/2)^{-1} G_0(1/2)
        = (1/2)^{-A_1} H_1(1/2)^{-1} H_0(1/2) (1/2)^{A_0}.

Coefficients of each series solve Sylvester equations
(k - ad Lambda) H_k = RHS_k.  The operators conserve weight, so the problem
splits into small blocks (the connected components of the joint sparsity
pattern); the blocks of one size run as one stacked array, each in the
eigenbasis of its Lambda, with a Kronecker-form fallback when that basis is
ill conditioned.  Psi comes back as a CSR matrix.

On top of the engine sit the cyclotomic associator Psi_{KZ,s;mu}, Drinfeld's
Phi_KZ, the R-matrix exp(-h t^u), the ribbon (sigma-)braids, the first-order
digamma oracle and the residual checks of the quasi-coaction and ribbon-braid
identities.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.special import digamma

from .blocks import Blocks
from .errors import DomainError, ParameterError, ResonanceError, TruncationError
from .sln import build_leg_tensor, embed_on_legs, k_basis, tensor_rep

EULER_GAMMA = 0.5772156649015328606

RESONANCE_THRESHOLD = 1e-8
MAX_H = 0.1                 # psi_kz's supported domain |h| <= MAX_H
RESONANCE_CHUNK = 1 << 16   # eigenvalue differences checked at a time
EIG_COND_LIMIT = 1e8


@dataclass
class KZProblem:
    A_minus1: np.ndarray
    A_0: np.ndarray
    A_1: np.ndarray
    tol: float = 1e-12
    max_order: int = 200

    def __post_init__(self):
        shapes = {m.shape for m in (self.A_minus1, self.A_0, self.A_1)}
        if len(shapes) != 1:
            raise ParameterError(f"coefficient matrices differ in shape: {shapes}")
        if self.tol <= 0:
            raise ParameterError("tol must be positive")


@dataclass
class AssociatorResult:
    psi: sparse.csr_array
    order_used: int
    tail_estimate: float


def check_resonances(vals, max_order):
    """Error out if some k in 1..max_order is within the resonance threshold
    of an eigenvalue difference vals[i] - vals[j].

    The first offender in row-major order of (i, j) is reported.  The
    differences are formed RESONANCE_CHUNK at a time, whole rows each, so no
    len(vals) x len(vals) array is built.
    """
    rows = max(1, RESONANCE_CHUNK // max(1, len(vals)))
    for start in range(0, len(vals), rows):
        diffs = (vals[start:start + rows, None] - vals[None, :]).ravel()
        ks = np.rint(diffs.real)   # half to even, as round() does
        hits = np.flatnonzero((1 <= ks) & (ks <= max_order)
                              & (np.abs(ks - diffs) < RESONANCE_THRESHOLD))
        if hits.size:
            d = diffs[hits[0]]
            raise ResonanceError(int(ks[hits[0]]),
                                 f"eigenvalue difference {d:.3e}")


class _Sylvester:
    """The Sylvester recursions of both Frobenius series on the blocks of
    one size, stacked.

    Entries [:nb] of every stack expand at w = 0 (Lambda = A_0), entries
    [nb:] at w = 1 (Lambda = A_1).  Each H solves

        H' = [Lambda/w, H] + B(w) H,   H(0) = 1,   B(w) = sum_t C_t (r_t w)^m,

    with (C, r) = (A_{-1}, -1), (-A_1, 1) at 0 and (-A_{-1}/2, 1/2),
    (-A_0, 1) at 1, so the order-k right-hand side sum_m B_m H_{k-m} is
    sum_t C_t W_t with the running sums W_t <- H_k + r_t W_t.  H is kept in
    the eigenbasis of Lambda, where (k - ad Lambda) H = R is a division;
    a block whose eigenbasis is ill conditioned keeps the standard basis and
    solves the Kronecker form instead.
    """

    def __init__(self, am1, a0, a1):
        self.nb, b, _ = a0.shape
        self.lam = np.concatenate([a0, a1])
        vals, vecs = np.linalg.eig(self.lam)
        cond = np.linalg.cond(vecs)
        ok = np.isfinite(cond) & (cond < EIG_COND_LIMIT)
        self.vals = vals
        self.fallback = np.flatnonzero(~ok)
        self.V = np.where(ok[:, None, None], vecs, np.eye(b))
        self.Vinv = np.linalg.inv(self.V)
        self.eigdiff = np.where(ok[:, None, None],
                                vals[:, :, None] - vals[:, None, :], 0)
        coeffs = (np.concatenate([am1, -am1 / 2]), np.concatenate([-a1, -a0]))
        self.C = [self.Vinv @ c @ self.V for c in coeffs]
        ratio = np.repeat([-1.0, 0.5], self.nb)[:, None, None]
        self.r = (ratio, np.ones_like(ratio))
        lf = self.lam[self.fallback]
        eye = np.eye(b)
        # ad Lambda on row-major vec(X): kron(L, 1) - kron(1, L^T)
        self.ad = (np.einsum("nij,kl->nikjl", lf, eye)
                   - np.einsum("ij,nlk->nikjl", eye, lf)).reshape(-1, b * b,
                                                                   b * b)
        self.H = np.tile(np.eye(b, dtype=complex), (2 * self.nb, 1, 1))
        self.W = [self.H.copy(), self.H.copy()]
        self.total = self.H.copy()

    def step(self, k, series, scale):
        """H_{k+1} from H_k for the entries of the given series (0, 1 or
        both, as a tuple), adding scale H_{k+1} to their sums; returns the
        squared Frobenius norm of H_{k+1} of each of those entries."""
        sl = slice(series[0] * self.nb, (series[-1] + 1) * self.nb)
        H, W, C, r = self.H[sl], [w[sl] for w in self.W], self.C, self.r
        if k:
            for t in (0, 1):
                W[t][...] = H + r[t][sl] * W[t]
        rhs = C[0][sl] @ W[0] + C[1][sl] @ W[1]
        H[...] = rhs / (k + 1 - self.eigdiff[sl])
        if self.fallback.size:
            mine = (self.fallback >= sl.start) & (self.fallback < sl.stop)
            fb = self.fallback[mine]
            n, bb = fb.size, self.ad.shape[1]
            op = (k + 1) * np.eye(bb) - self.ad[mine]
            self.H[fb] = np.linalg.solve(
                op, rhs[fb - sl.start].reshape(n, bb, 1)
            ).reshape(n, *H.shape[1:])
        self.total[sl] += scale * H
        return np.sum(np.abs(self.V[sl] @ H @ self.Vinv[sl]) ** 2,
                      axis=(1, 2))

    def monodromy(self):
        """Blocks of Psi = G_1(1/2)^{-1} G_0(1/2), G = H(1/2) (1/2)^Lambda."""
        G = (self.V @ self.total @ self.Vinv) @ expm(np.log(0.5) * self.lam)
        return np.linalg.solve(G[self.nb:], G[:self.nb])


def frobenius_monodromy(prob):
    """Normalized monodromy Psi = G_1(1/2)^{-1} G_0(1/2) of the problem.

    The problem splits into the connected components of the joint sparsity
    pattern of A_{-1}, A_0, A_1; the components of one size run as one stack,
    and both series run in lockstep over the orders.  Each series stops once
    the Frobenius norm of its whole order-k contribution ||H_k|| 2^{-k} has
    stayed below tol/10 for three orders (the singularities sit at distance
    1, so contributions decay geometrically); the tail bound extrapolates the
    last contribution with ratio 3/4.  Errors keep the order of a series at
    0 run to the end before the series at 1: a resonance at 0, then its
    truncation, then a resonance at 1, then its truncation.  Psi is returned
    as a CSR matrix.
    """
    mats = (prob.A_minus1, prob.A_0, prob.A_1)
    blocks = Blocks(*mats)
    stacks = [_Sylvester(*split)
              for split in zip(*(blocks.split(m) for m in mats))]
    first = np.concatenate([np.repeat(idx[:, 0], idx.shape[1])
                            for idx in blocks.index])
    pos = np.concatenate([np.tile(np.arange(idx.shape[1]), idx.shape[0])
                          for idx in blocks.index])
    spectrum = np.lexsort((pos, first))   # components by least index
    pending = None     # a resonance at 1 waits until the series at 0 ran
    for s in (0, 1):
        vals = np.concatenate([st.vals[s * st.nb:(s + 1) * st.nb].ravel()
                               for st in stacks])
        try:
            check_resonances(vals[spectrum], prob.max_order)
        except ResonanceError as exc:
            if s == 0:
                raise
            pending = exc

    active = (0,) if pending else (0, 1)
    sq = {s: float(blocks.n) for s in active}        # ||H_0||^2
    below = {s: 0 for s in active}
    done = {}                                        # s -> (order, tail)
    for k in range(prob.max_order):
        scale = 0.5 ** (k + 1)
        sq = dict.fromkeys(active, 0.0)
        for st in stacks:
            norms = st.step(k, active, scale)
            for i, s in enumerate(active):
                sq[s] += float(norms[i * st.nb:(i + 1) * st.nb].sum())
        for s in active:
            c = np.sqrt(sq[s]) * scale
            if c < prob.tol / 10:
                below[s] += 1
                if below[s] >= 3:
                    done[s] = (k + 1, 3.0 * c)
            else:
                below[s] = 0
        active = tuple(s for s in active if s not in done)
        if not active:
            break
    if active:
        tail = 3.0 * np.sqrt(sq[active[0]]) * 0.5 ** prob.max_order
        raise TruncationError(tail, prob.max_order)
    if pending:
        raise pending
    psi = blocks.join([st.monodromy() for st in stacks])
    return AssociatorResult(psi=psi, order_used=max(done[0][0], done[1][0]),
                            tail_estimate=max(done[0][1], done[1][1]))


# ---------------------------------------------------------------------------
# the cyclotomic KZ associator and friends

def _hbar(h):
    return h / (np.pi * 1j)


def psi_kz(pr, reps, s, mu=0.0, h=0.05, tol=1e-12, max_order=200):
    """Psi_{KZ,s;mu} on legs (0,1,2); leg 0 carries the coideal-side module.

    The coefficients only ever involve s + mu, so the two parameters are
    collapsed before integration.
    """
    if abs(h) > MAX_H:
        raise ParameterError(f"|h| = {abs(h)} exceeds max_h = {MAX_H}")
    if len(reps) != 3:
        raise ParameterError("psi_kz needs exactly three representations")
    x = complex(s) + complex(mu)
    hb = _hbar(h)
    tk12 = build_leg_tensor(pr, "t_k", reps, (1, 2))
    tm12 = (build_leg_tensor(pr, "t_mplus", reps, (1, 2))
            + build_leg_tensor(pr, "t_mminus", reps, (1, 2)))
    tu12 = build_leg_tensor(pr, "t_u", reps, (1, 2))
    tk01 = build_leg_tensor(pr, "t_k", reps, (0, 1))
    ck1 = build_leg_tensor(pr, "casimir_k", reps, (1,))
    z1 = build_leg_tensor(pr, "Z", reps, (1,))

    prob = KZProblem(
        A_minus1=hb * (tk12 - tm12),
        A_0=hb * (2 * tk01 + ck1) + x * z1,
        A_1=hb * tu12,
        tol=tol, max_order=max_order,
    )
    return frobenius_monodromy(prob).psi


def phi_kz(pr, reps, h, tol=1e-12, max_order=200):
    """Drinfeld's KZ associator Phi(hbar t_12, hbar t_23) on three legs."""
    if len(reps) != 3:
        raise ParameterError("phi_kz needs exactly three representations")
    hb = _hbar(h)
    t12 = build_leg_tensor(pr, "t_u", reps, (0, 1))
    t23 = build_leg_tensor(pr, "t_u", reps, (1, 2))
    prob = KZProblem(
        A_minus1=sparse.csr_array(t12.shape, dtype=complex),
        A_0=hb * t12,
        A_1=hb * t23,
        tol=tol, max_order=max_order,
    )
    return frobenius_monodromy(prob).psi


def r_kz(pr, reps, h):
    """R_KZ = exp(-h t^u) on a pair of legs."""
    if len(reps) != 2:
        raise ParameterError("r_kz needs exactly two representations")
    tu = build_leg_tensor(pr, "t_u", reps, (0, 1))
    return expm(-h * tu.toarray())


def central_scalar_matrix(pr, rep, zeta):
    """Image under rep of the central element zeta * I of SU(N).

    zeta must be an N-th root of unity; the element is realized as
    exp(X) for the traceless X = (2 pi i k / N)(I - N e_NN ... ) trick so the
    image is consistent across tensor-power representations.
    """
    N = pr.N
    k = int(round(np.angle(zeta) * N / (2 * np.pi))) % N
    if abs(zeta - np.exp(2j * np.pi * k / N)) > 1e-9:
        raise ParameterError(f"{zeta} is not an N-th root of unity for N={N}")
    if k == 0:
        return np.eye(rep.dim, dtype=complex)
    X = np.diag([2j * np.pi * k / N] * N).astype(complex)
    X[N - 1, N - 1] -= 2j * np.pi * k
    return expm(rep.rho(X))


def ribbon_kz(pr, reps, s, mu=0.0, h=0.05, central_g=1.0, variant="sigma"):
    """Ribbon twist-braid on legs (0,1).

    variant "sigma":   exp(-h(2 t^k_01 + C^k_1) - pi i (s+mu) Z_1) g_1,
    variant "plain":   exp(-h(2 t^k_01 + C^k_1) + pi (1 - i s - i mu) Z_1) g_1,
    variant "nonhermitian": exp(-h(2 t^k_01 + C^k_1)) g_1.

    central_g is a scalar in Z(SU(N)) placed on leg 1.
    """
    if len(reps) != 2:
        raise ParameterError("ribbon_kz needs exactly two representations")
    x = complex(s) + complex(mu)
    tk01, ck1, z1 = (build_leg_tensor(pr, sym, reps, legs).toarray()
                     for sym, legs in (("t_k", (0, 1)), ("casimir_k", (1,)),
                                       ("Z", (1,))))
    expo = -h * (2 * tk01 + ck1)
    if variant == "sigma":
        expo = expo - 1j * np.pi * x * z1
    elif variant == "plain":
        expo = expo + np.pi * (1 - 1j * x) * z1
    elif variant != "nonhermitian":
        raise ParameterError(f"unknown ribbon variant {variant!r}")
    g1 = embed_on_legs(central_scalar_matrix(pr, reps[1], central_g),
                       tuple(r.dim for r in reps), (1,)).toarray()
    return expm(expo) @ g1


def first_order_oracle(pr, reps, s):
    """The exact order-h coefficient of Psi_{KZ,s}:

    (1/pi i) [ log(2) t^u_12 + (gamma + psi(1/2 - is/2)) t^{m+}_12
                             + (gamma + psi(1/2 + is/2)) t^{m-}_12 ].
    """
    z1 = 0.5 - 0.5j * complex(s)
    z2 = 0.5 + 0.5j * complex(s)
    for z in (z1, z2):
        if abs(z - round(z.real)) < 1e-12 and z.real <= 0:
            raise DomainError(f"digamma pole at {z}")
    tu = build_leg_tensor(pr, "t_u", reps, (1, 2))
    tp = build_leg_tensor(pr, "t_mplus", reps, (1, 2))
    tm = build_leg_tensor(pr, "t_mminus", reps, (1, 2))
    c_plus = EULER_GAMMA + complex(digamma(z1))
    c_minus = EULER_GAMMA + complex(digamma(z2))
    return (np.log(2.0) * tu + c_plus * tp + c_minus * tm).toarray() / (np.pi * 1j)


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


# ---------------------------------------------------------------------------
# identity residuals

def identity_residuals(pr, reps, s, mu=0.0, h=0.05, tol=1e-12, max_order=200,
                       central_g=1.0):
    """Residual norms of the structural identities for the KZ data.

    Returns a dict with keys mixed_pentagon, ribbon_coproduct_1,
    ribbon_coproduct_2, hexagon_1, hexagon_2, psi_intertwiner.  The ribbon
    identities are checked for the sigma-braid E = ribbon_kz(..., "sigma")
    with beta = sigma = Ad exp(pi Z).
    """
    rep0, f = reps
    tf = tensor_rep(rep0, f)    # merged (0,1)
    ff = tensor_rep(f, f)       # merged pair of G-legs

    kw = dict(h=h, tol=tol, max_order=max_order)

    # --- mixed pentagon on legs (0,1,2,3)
    psi_012 = psi_kz(pr, (rep0, f, f), s, mu, **kw).toarray()
    phi = phi_kz(pr, (f, f, f), h, tol=tol, max_order=max_order).toarray()
    dims4 = (rep0.dim, f.dim, f.dim, f.dim)

    psi_0_12_3 = psi_kz(pr, (rep0, ff, f), s, mu, **kw).toarray()  # V,(WW),W
    psi_0_1_23 = psi_kz(pr, (rep0, f, ff), s, mu, **kw).toarray()
    psi_01_2_3 = psi_kz(pr, (tf, f, f), s, mu, **kw).toarray()
    psi_012_I = embed_on_legs(psi_012, dims4, (0, 1, 2)).toarray()
    phi_123 = embed_on_legs(phi, dims4, (1, 2, 3)).toarray()
    lhs = phi_123 @ psi_0_12_3 @ psi_012_I
    rhs = psi_0_1_23 @ psi_01_2_3
    mixed_pentagon = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)

    # --- ribbon identities on legs (0,1,2), beta = sigma
    dims3 = (rep0.dim, f.dim, f.dim)
    E = ribbon_kz(pr, (rep0, f), s, mu, h=h, central_g=central_g,
                  variant="sigma")
    E_01_2 = ribbon_kz(pr, (tf, f), s, mu, h=h, central_g=central_g,
                       variant="sigma")       # (alpha (x) id)(E)
    E_0_12 = ribbon_kz(pr, (rep0, ff), s, mu, h=h, central_g=central_g,
                       variant="sigma")       # (id (x) Delta)(E)
    R = r_kz(pr, (f, f), h)
    on3 = lambda T, legs: embed_on_legs(T, dims3, legs).toarray()
    R_12 = on3(R, (1, 2))
    R_21 = on3(R, (2, 1))
    psi = psi_012
    psi_021 = on3(psi, (0, 2, 1))
    E_02 = on3(E, (0, 2))
    E_01 = on3(E, (0, 1))
    u = expm(f.rho(np.pi * pr.Znu))      # Ad u is sigma
    ui = np.linalg.inv(u)
    C2 = on3(u, (2,))
    C2i = on3(ui, (2,))
    C12 = on3(u, (1,)) @ C2
    C12i = on3(ui, (1,)) @ C2i

    beta2 = lambda M: C2 @ M @ C2i
    inner = beta2(np.linalg.solve(psi_021, R_12 @ psi))
    rhs1 = np.linalg.solve(psi, R_21 @ psi_021 @ E_02 @ inner)
    ribbon_1 = np.linalg.norm(E_01_2 - rhs1) / np.linalg.norm(rhs1)

    rhs2 = (R_21 @ psi_021 @ E_02 @ inner @ E_01
            @ C12 @ np.linalg.inv(psi) @ C12i)
    ribbon_2 = np.linalg.norm(E_0_12 - rhs2) / np.linalg.norm(rhs2)

    # --- hexagons for (Phi_KZ, R_KZ) on W^3
    dimsW = (f.dim, f.dim, f.dim)
    tu13, tu23, tu12 = (build_leg_tensor(pr, "t_u", (f, f, f), legs).toarray()
                        for legs in ((0, 2), (1, 2), (0, 1)))
    Rd13 = expm(-h * tu13)
    lhs_h1 = expm(-h * (tu13 + tu23))           # (Delta (x) id)(R)
    onW = lambda T, legs: embed_on_legs(T, dimsW, legs).toarray()
    R23 = onW(R, (1, 2))
    R12f = onW(R, (0, 1))
    P = lambda order: onW(phi, order)
    # (Delta (x) id)(R) = Phi_312 R_13 Phi_132^{-1} R_23 Phi_123
    rhs_h1 = P((2, 0, 1)) @ Rd13 @ np.linalg.inv(P((0, 2, 1))) @ R23 @ phi
    hexagon_1 = np.linalg.norm(lhs_h1 - rhs_h1) / np.linalg.norm(rhs_h1)
    # (id (x) Delta)(R) = Phi_231^{-1} R_13 Phi_213 R_12 Phi_123^{-1}
    lhs_h2 = expm(-h * (tu12 + tu13))
    rhs_h2 = (np.linalg.inv(P((1, 2, 0))) @ Rd13 @ P((1, 0, 2)) @ R12f
              @ np.linalg.inv(phi))
    hexagon_2 = np.linalg.norm(lhs_h2 - rhs_h2) / np.linalg.norm(rhs_h2)

    # --- k-invariance of Psi (the alpha = Delta intertwiner identity)
    worst = 0.0
    for X in k_basis(pr):
        D = tensor_rep(tf, f).rho(X)      # X on all three legs
        worst = max(worst, float(np.linalg.norm(psi @ D - D @ psi)))
    psi_intertwiner = worst / np.linalg.norm(psi)

    return {
        "mixed_pentagon": float(mixed_pentagon),
        "ribbon_coproduct_1": float(ribbon_1),
        "ribbon_coproduct_2": float(ribbon_2),
        "hexagon_1": float(hexagon_1),
        "hexagon_2": float(hexagon_2),
        "psi_intertwiner": float(psi_intertwiner),
    }

