"""Type B braid group representations and the Kohno-Drinfeld comparison.

A quadruple (E, R, Psi, Phi) acting on V (x) W^{(x)n} defines a representation
of Gamma_n with the fixed parenthesization ((V (x) W) (x) W) (x) W:

    rho_1   -> E_{0,1}
    sigma_1 -> Psi^{-1}_{0,1,2} (Sigma R)_{1,2} Psi_{0,1,2}
    sigma_2 -> Psi^{-1}_{01,2,3} (Sigma R)_{2,3} Psi_{01,2,3}

The grouped-leg associators are recomputed with tensor-product
representations on the merged legs, so families are passed as callables on
representation triples.  n <= 3 keeps the dimensions at desk scale.

The Kohno-Drinfeld check builds the coideal-side representation from the
Balagovic-Kolb braid R_21 (1 (x) K) R (with the strict Psi = Phi = 1, since
U_h(g) is an honest bialgebra) and the KZ-side one from the plain ribbon
braid, the cyclotomic associator and R_KZ = exp(-h t^u), and compares traces
of words, which are invariants of the representation equivalence.
"""

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import sparse

from . import blocks
from .errors import ComparisonError, ParameterError, ShapeError
from .kzmono import psi_kz, r_kz, ribbon_kz
from .sln import embed_on_legs, fundamental_rep, realize, tensor_rep
from .uqsl import (
    make_params,
    r_matrix,
    solve_kmatrix,
    universal_r_scalar,
)

INVERTIBLE_COND_LIMIT = 1e12


@dataclass
class BraidRep:
    n: int
    dim: int
    rho1: sparse.csr_array
    sigma: list          # sigma_1 .. sigma_{n-1}, CSR
    grouping: str
    residuals: dict


def build_rep(E, R, psi_family, n, dims):
    """Assemble the Gamma_n generator matrices as CSR matrices.

    E acts on V (x) W, R (dense) on W (x) W.  psi_family("0,1,2") must
    return the associator on V (x) W (x) W and psi_family("01,2,3") the
    grouped one on (V (x) W) (x) W (x) W, dense or sparse; families
    recompute with tensor-product representations on merged legs.  The
    associators are inverted block by block (blocks.inverse).  The fixed
    parenthesization needs no Phi for n <= 3.
    """
    if n not in (1, 2, 3):
        raise ParameterError("n <= 3 strand budget (dimension grows fast)")
    dv, dw = dims
    if E.shape != (dv * dw, dv * dw):
        raise ShapeError(f"E must act on V (x) W = {dv * dw}, got {E.shape}")
    if R.shape != (dw * dw, dw * dw):
        raise ShapeError(f"R must act on W (x) W, got {R.shape}")
    total = dv * dw ** n
    rho1 = embed_on_legs(E, (dv * dw, dw ** (n - 1)), (0,))
    if n == 1:
        rep = BraidRep(n=1, dim=total, rho1=rho1, sigma=[],
                       grouping="V.W", residuals={})
        rep.residuals = relation_residuals(rep)
        return rep
    sR = R.reshape(dw, dw, -1).swapaxes(0, 1).reshape(R.shape)   # Sigma R

    def conjugate(psi, left):
        """psi^{-1} (1_left (x) Sigma R) psi."""
        psi = _csr(psi)
        middle = embed_on_legs(sR, (left, dw * dw), (1,))
        return blocks.inverse(psi) @ middle @ psi

    psi = psi_family("0,1,2")
    if psi.shape != (dv * dw * dw,) * 2:
        raise ShapeError("psi_family returned a wrong-sized associator")
    sigma1_small = conjugate(psi, dv)
    if n == 2:
        sigma = [sigma1_small]
    else:
        sigma1 = embed_on_legs(sigma1_small, (dv * dw * dw, dw), (0,))
        psi_01 = psi_family("01,2,3")
        if psi_01.shape != (total,) * 2:
            raise ShapeError("grouped associator has a wrong size")
        sigma = [sigma1, conjugate(psi_01, dv * dw)]

    grouping = "(V.W).W" if n == 2 else "((V.W).W).W"
    rep = BraidRep(n=n, dim=total, rho1=rho1, sigma=sigma,
                   grouping=grouping, residuals={})
    rep.residuals = relation_residuals(rep)
    return rep


def _csr(m):
    return m if sparse.issparse(m) else sparse.csr_array(m)


def _fro(m):
    """Frobenius norm of a CSR matrix."""
    return float(np.linalg.norm(m.data))


def relation_residuals(rep):
    """Residual norms of the Gamma_n relations, normalized by matrix scale.

    The generators may be dense or sparse; products are taken sparse.
    """
    out = {}

    def rel(name, A, B):
        scale = max(_fro(A), _fro(B), 1e-300)
        out[name] = _fro(A - B) / scale

    r = _csr(rep.rho1)
    sig = [_csr(s) for s in rep.sigma]
    for i in range(len(sig)):
        for j in range(i + 2, len(sig)):
            rel(f"sigma_comm_{i + 1}_{j + 1}", sig[i] @ sig[j], sig[j] @ sig[i])
        if i + 1 < len(sig):
            rel(f"braid_{i + 1}_{i + 2}",
                sig[i] @ sig[i + 1] @ sig[i],
                sig[i + 1] @ sig[i] @ sig[i + 1])
        if i >= 1:
            rel(f"rho_sigma_comm_{i + 1}", r @ sig[i], sig[i] @ r)
    if sig:
        rs, sr = r @ sig[0], sig[0] @ r
        rel("type_b", rs @ rs, sr @ sr)
    for i, s in enumerate(sig):
        if not _invertible(s):
            raise ComparisonError(f"sigma_{i + 1} is not invertible")
    if not _invertible(r):
        raise ComparisonError("rho_1 is not invertible")
    return out


def _invertible(m):
    """Scale-free test: |det| shrinks with the dimension even for well
    conditioned generators, the condition number does not."""
    return blocks.cond(m) < INVERTIBLE_COND_LIMIT


def word_matrix(rep, word):
    """Evaluate a word given as tokens rho1 / sigma1 / sigma2 / ..., as a
    CSR matrix."""
    mats = []
    for tok in word:
        if tok in ("rho1", "r1", "rho"):
            mats.append(rep.rho1)
        elif tok.startswith("sigma"):
            i = int(tok[len("sigma"):])
            if not 1 <= i <= len(rep.sigma):
                raise ParameterError(f"no generator {tok} at n={rep.n}")
            mats.append(rep.sigma[i - 1])
        else:
            raise ParameterError(f"unknown braid token {tok!r}")
    if not mats:
        return sparse.eye_array(rep.dim, dtype=complex, format="csr")
    return reduce(operator.matmul, mats)


# ---------------------------------------------------------------------------
# the two sides

def q_side_rep(N, p, t, h, n):
    """Coideal-side representation on V (x) W^n, V = W = fundamental.

    rho_1 is the Balagovic-Kolb braid in the fundamental representations,
    (pi (x) pi)(E) = q^{2/N} R_21 (1 (x) K) R, and sigma_i use the honest
    R-matrix q^{1/N} Sigma R; the bialgebra is strict so Psi = Phi = 1.
    """
    q = float(np.exp(h))
    kr = solve_kmatrix(N, p, t, q)
    R = r_matrix(N, q)
    scal = universal_r_scalar(N, q)
    R21 = embed_on_legs(R, (N, N), (1, 0)).toarray()
    K2 = embed_on_legs(kr.K, (N, N), (1,)).toarray()
    E = scal ** 2 * (R21 @ K2 @ R)

    def psi_one(grouping):
        d = N ** (len(grouping.split(",")) + (1 if "01" in grouping else 0))
        return sparse.eye_array(d, dtype=complex, format="csr")

    rep = build_rep(E, scal * R, psi_one, n, (N, N))
    return rep, kr


def kz_side_rep(N, p, s, mu, g, h, n, tol=1e-12):
    """KZ-side representation from (ribbon braid, Psi_{KZ,s;mu}, R_KZ)."""
    pr = realize(N, p)
    f = fundamental_rep(N)
    E = ribbon_kz(pr, (f, f), s, mu, h=h, central_g=g, variant="plain")
    R = r_kz(pr, (f, f), h)
    groupings = {
        "0,1,2": (f, f, f),
        "01,2,3": (tensor_rep(f, f), f, f),
    }

    def psi_fam(grouping):
        return psi_kz(pr, groupings[grouping], s, mu, h=h, tol=tol)

    return build_rep(E, R, psi_fam, n, (N, N))


DEFAULT_WORDS = (
    ("rho1",),
    ("sigma1",),
    ("rho1", "sigma1"),
    ("rho1", "sigma1", "rho1", "sigma1"),
)


def kohno_drinfeld_compare(N, p, t=None, h=0.05, words=DEFAULT_WORDS, n=2,
                           tol=1e-12):
    """Trace comparison of braid words between the two quantizations.

    Fits (s, s+mu, g) from the solved K-matrix, builds both representations
    and returns the per-word traces with the maximal discrepancy.
    """
    if t is None:
        t = make_params(N, p)
    qrep, kr = q_side_rep(N, p, t, h, n)
    s = kr.inferred_s
    x = kr.inferred_s_plus_mu
    mu = complex(x) - s
    krep = kz_side_rep(N, p, s, mu, kr.fitted_g, h, n, tol=tol)

    rows = []
    worst = 0.0
    for word in words:
        tq = complex(word_matrix(qrep, word).trace())
        tk = complex(word_matrix(krep, word).trace())
        delta = abs(tq - tk)
        worst = max(worst, delta)
        rows.append({"word": list(word), "q_side": tq, "kz_side": tk,
                     "delta": delta})
    return {
        "words": rows,
        "max_delta": worst,
        "fit": {"s": s, "s_plus_mu": x, "g": kr.fitted_g},
        "q_residuals": qrep.residuals,
        "kz_residuals": krep.residuals,
        "det_rho1_q": blocks.det(qrep.rho1),
        "det_rho1_kz": blocks.det(krep.rho1),
    }
