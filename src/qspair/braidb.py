"""Type B braid group representations and the Kohno-Drinfeld comparison.

A quadruple (E, R, Psi, Phi) acting on V (x) W^{(x)n} defines a representation
of Gamma_n with the fixed parenthesization ((V (x) W) (x) W) (x) W:

    rho_1   -> E_{0,1}
    sigma_1 -> Psi^{-1}_{0,1,2} (Sigma R)_{1,2} Psi_{0,1,2}
    sigma_2 -> Psi^{-1}_{01,2,3} (Sigma R)_{2,3} Psi_{01,2,3}

The associators come as a list, None where the quadruple is strict: Psi_i
acts on (V (x) W^{i-1}) (x) W (x) W, the grouped slot one merged leg.  n <= 3
keeps the dimensions at desk scale.

The Kohno-Drinfeld check builds the coideal-side representation from the
Balagovic-Kolb braid R_21 (1 (x) K) R (with the strict Psi = Phi = 1, since
U_h(g) is an honest bialgebra) and the KZ-side one from the plain ribbon
braid, the cyclotomic associator and R_KZ = exp(-h t^u), and compares traces
of words, which are invariants of the representation equivalence.
"""

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import sparse

from . import blocks
from .errors import ComparisonError, ParameterError, ShapeError
from .kzmono import psi_kz, r_kz, ribbon_kz
from .sln import Representation, embed_on_legs, fundamental_rep, realize
from .uqsl import (
    make_params,
    r_matrix,
    solve_kmatrix,
    universal_r_scalar,
)

INVERTIBLE_COND_LIMIT = 1e12
MAX_STRANDS = 3         # the dimension dv dw^n grows fast


@dataclass
class BraidRep:
    n: int
    dim: int
    rho1: sparse.csr_array
    sigma: list          # sigma_1 .. sigma_{n-1}, CSR
    grouping: str
    residuals: dict
    log_det_rho1: tuple  # (log|det rho_1|, its phase in (-pi, pi])


def _check_strands(n):
    if n not in range(1, MAX_STRANDS + 1):
        raise ParameterError(f"n <= {MAX_STRANDS} strand budget (dimension "
                             f"grows fast), got n = {n}")


def build_rep(E, R, psis):
    """The Gamma_n generators as CSR matrices, n = len(psis) + 1.

    E (dense) acts on V (x) W and R (dense) on W (x) W; dv and dw are read
    off their shapes.  psis[i-1] is Psi_i, dense or sparse, or None for 1.
    sigma_i is the core Psi_i^{-1} (Sigma R)_{i,i+1} Psi_i on the first i + 2
    legs (Psi_i inverted per block) tensored with the identity.  Since
    cond(A (x) 1) = cond(A), invertibility is tested on E, on Sigma R where
    Psi_i is None and on the core otherwise; log_det_rho1 is dw^{n-1}
    slogdet(E).  The fixed parenthesization needs no Phi for n <= 3.
    """
    n = len(psis) + 1
    _check_strands(n)
    dw = math.isqrt(R.shape[0])
    if R.shape != (dw * dw, dw * dw):
        raise ShapeError(f"R must act on W (x) W, got {R.shape}")
    dv = E.shape[0] // dw
    if E.shape != (dv * dw, dv * dw):
        raise ShapeError(f"E must act on V (x) W, got {E.shape} for "
                         f"dim W = {dw}")
    if not _invertible(E):
        raise ComparisonError("rho_1 is not invertible")
    sR = R.reshape(dw, dw, -1).swapaxes(0, 1).reshape(R.shape)   # Sigma R
    sigma = []
    for i, psi in enumerate(psis, 1):
        left = dv * dw ** (i - 1)
        core = embed_on_legs(sR, (left, dw * dw), (1,))
        if psi is not None:
            if psi.shape != core.shape:
                raise ShapeError(f"Psi_{i} must act on {core.shape[0]} "
                                 f"dimensions, got {psi.shape}")
            psi = _csr(psi)
            core = blocks.inverse(psi) @ core @ psi
        if not _invertible(sR if psi is None else core):
            raise ComparisonError(f"sigma_{i} is not invertible")
        sigma.append(embed_on_legs(core, (core.shape[0], dw ** (n - 1 - i)),
                                   (0,)))
    rest = dw ** (n - 1)
    rep = BraidRep(n=n, dim=dv * dw * rest,
                   rho1=embed_on_legs(E, (dv * dw, rest), (0,)), sigma=sigma,
                   grouping="(" * (n - 1) + "V.W" + ").W" * (n - 1),
                   residuals={}, log_det_rho1=_log_det(E, rest))
    rep.residuals = relation_residuals(rep)
    return rep


def _log_det(E, copies):
    """(log|det|, phase) of E (x) 1, whose determinant is det(E)^copies."""
    sign, logabs = np.linalg.slogdet(E)
    phase = copies * float(np.angle(sign))
    return copies * float(logabs), float(np.pi - (np.pi - phase) % (2 * np.pi))


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
    _check_strands(n)
    q = float(np.exp(h))
    kr = solve_kmatrix(N, p, t, q)
    R = r_matrix(N, q)
    scal = universal_r_scalar(N, q)
    R21 = embed_on_legs(R, (N, N), (1, 0)).toarray()
    K2 = embed_on_legs(kr.K, (N, N), (1,)).toarray()
    E = scal ** 2 * (R21 @ K2 @ R)
    return build_rep(E, scal * R, [None] * (n - 1)), kr


def kz_side_rep(N, p, s, mu, g, h, n, tol=1e-12):
    """KZ-side representation from (ribbon braid, Psi_{KZ,s;mu}, R_KZ);
    Psi_i is psi_kz on (V (x) W^{i-1}, W, W), the first slot one merged leg."""
    _check_strands(n)
    pr = realize(N, p)
    f = fundamental_rep(N)
    E = ribbon_kz(pr, (f, f), s, mu, h=h, central_g=g, variant="plain")
    R = r_kz(pr, (f, f), h)
    psis = [psi_kz(pr, (Representation(N, i), f, f), s, mu, h=h, tol=tol)
            for i in range(1, n)]
    return build_rep(E, R, psis)


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
        "det_rho1_q": qrep.log_det_rho1,
        "det_rho1_kz": krep.log_det_rho1,
    }
