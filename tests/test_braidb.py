import numpy as np
import pytest
from scipy import sparse

from qspair import blocks, braidb
from qspair.errors import ComparisonError, ParameterError, ShapeError
from qspair.braidb import (
    DEFAULT_WORDS,
    build_rep,
    kohno_drinfeld_compare,
    kz_side_rep,
    q_side_rep,
    relation_residuals,
    word_matrix,
)
from qspair.uqsl import make_params, solve_kmatrix


def identity_family(dims):
    dv, dw = dims

    def fam(grouping):
        if grouping == "0,1,2":
            return np.eye(dv * dw * dw, dtype=complex)
        if grouping == "01,2,3":
            return np.eye(dv * dw ** 3, dtype=complex)
        raise ValueError(grouping)

    return fam


def test_trivial_quadruple_all_identity():
    dv, dw = 2, 2
    E = np.eye(dv * dw, dtype=complex)
    R = np.eye(dw * dw, dtype=complex)
    fam = identity_family((dv, dw))
    for n in (2, 3):
        rep = build_rep(E, R, fam, n, (dv, dw))
        # sigma = flip-conjugated identity = identity-similar permutation
        assert max(rep.residuals.values()) < 1e-14
        w = word_matrix(rep, ("rho1",))
        assert np.max(np.abs(w - np.eye(rep.dim))) < 1e-14


def test_single_strand_rep():
    rep, _ = q_side_rep(2, 1, make_params(2, 1), 0.05, 1)
    assert rep.dim == 4
    assert rep.sigma == []
    assert rep.residuals == {}


def test_build_rep_validation():
    fam = identity_family((2, 2))
    with pytest.raises(ParameterError):
        build_rep(np.eye(4), np.eye(4), fam, 5, (2, 2))
    with pytest.raises(ShapeError):
        build_rep(np.eye(3), np.eye(4), fam, 2, (2, 2))
    with pytest.raises(ShapeError):
        build_rep(np.eye(4), np.eye(3), fam, 2, (2, 2))


def test_q_side_relations_n2_and_n3():
    t = make_params(2, 1)
    for n in (2, 3):
        rep, _ = q_side_rep(2, 1, t, 0.05, n)
        for name, val in rep.residuals.items():
            assert val < 1e-10, (n, name, val)


def test_q_side_relations_n3_p1_n2strand():
    rep, _ = q_side_rep(3, 1, make_params(3, 1), 0.04, 2)
    for name, val in rep.residuals.items():
        assert val < 1e-8, (name, val)


@pytest.mark.parametrize("n", [2, 3])
def test_kz_side_relations(n):
    rep = kz_side_rep(2, 1, 0.0, 0.0, 1.0, 0.05, n)
    for name, val in rep.residuals.items():
        assert val < 1e-8, (n, name, val)


def test_kohno_drinfeld_nonempty_black_vertices():
    out = kohno_drinfeld_compare(5, 1, make_params(5, 1, c_p0=1.3),
                                 h=0.03, n=2)
    assert out["max_delta"] < 1e-6
    assert max(out["kz_residuals"].values()) < 1e-8


def test_relation_negative_control():
    t = make_params(2, 1)
    rep, _ = q_side_rep(2, 1, t, 0.05, 2)
    rep.sigma[0] = rep.sigma[0] + 1e-3 * np.eye(rep.dim)
    res = relation_residuals(rep)
    assert res["type_b"] > 1e-4


def test_invertibility_check_is_scale_free():
    # at dimension 125 |det rho_1| is 9.4e-14 although cond(rho_1) = 1.65
    out = kohno_drinfeld_compare(5, 2, h=0.1)
    assert out["max_delta"] < 1e-6
    assert max(out["q_residuals"].values()) < 1e-8
    assert max(out["kz_residuals"].values()) < 1e-8


def test_rank_deficient_rho1_raises():
    rep, _ = q_side_rep(2, 1, make_params(2, 1), 0.05, 2)
    keep = np.ones(rep.dim)
    keep[0] = 0
    rep.rho1 = rep.rho1 @ sparse.diags_array(keep, format="csr")
    with pytest.raises(ComparisonError, match="rho_1"):
        relation_residuals(rep)


def test_word_matrix_validation():
    t = make_params(2, 1)
    rep, _ = q_side_rep(2, 1, t, 0.05, 2)
    with pytest.raises(ParameterError):
        word_matrix(rep, ("sigma2",))
    with pytest.raises(ParameterError):
        word_matrix(rep, ("nonsense",))


def test_empty_word_traces_dim():
    out = kohno_drinfeld_compare(2, 1, None, h=0.05, n=2,
                                 words=((), ("rho1",)))
    empty = out["words"][0]
    assert abs(empty["q_side"] - 8) < 1e-12
    assert abs(empty["delta"]) < 1e-12


def test_kohno_drinfeld_n2_standard():
    out = kohno_drinfeld_compare(2, 1, None, h=0.05, n=2)
    assert out["max_delta"] < 1e-6
    assert abs(out["fit"]["s"]) < 1e-12
    assert abs(out["det_rho1_q"] - out["det_rho1_kz"]) < 1e-8


def test_kohno_drinfeld_nontrivial_parameters():
    t = make_params(2, 1, s_p=0.25j)
    out = kohno_drinfeld_compare(2, 1, t, h=0.05, n=2)
    assert out["max_delta"] < 1e-6
    t = make_params(3, 1, c_p0=1.2)
    out = kohno_drinfeld_compare(3, 1, t, h=0.04, n=2)
    assert out["max_delta"] < 1e-6


def test_trace_conjugation_invariance():
    # conjugating all generators leaves every word trace unchanged
    rng = np.random.default_rng(3)
    t = make_params(2, 1)
    rep, _ = q_side_rep(2, 1, t, 0.05, 2)
    T = np.eye(rep.dim) + 0.1 * rng.standard_normal((rep.dim, rep.dim))
    Ti = np.linalg.inv(T)
    conj = lambda M: T @ M @ Ti
    for word in DEFAULT_WORDS:
        base = np.trace(word_matrix(rep, word).toarray())
        rep2_rho = conj(rep.rho1.toarray())
        rep2_sig = [conj(s.toarray()) for s in rep.sigma]
        total = np.eye(rep.dim, dtype=complex)
        for tok in word:
            total = total @ (rep2_rho if tok == "rho1" else rep2_sig[0])
        assert abs(np.trace(total) - base) < 1e-8


def test_residuals_scale_with_tolerance():
    # looser Frobenius tolerance must not beat the tight one by more than
    # the tolerance gap itself
    rep_loose = kz_side_rep(2, 1, 0.4, 0.0, 1.0, 0.05, 2, tol=1e-6)
    rep_tight = kz_side_rep(2, 1, 0.4, 0.0, 1.0, 0.05, 2, tol=1e-12)
    loose = max(rep_loose.residuals.values())
    tight = max(rep_tight.residuals.values())
    assert tight < 1e-8
    assert loose < 1e-4
    assert tight <= loose + 1e-12


# ---------------------------------------------------------------------------
# the dense assembly, kept as the oracle of the sparse blockwise one

def _dense(m):
    return m.toarray() if sparse.issparse(m) else np.asarray(m)


def _flip(d):
    """Sigma(v (x) w) = w (x) v on C^d (x) C^d as a permutation matrix."""
    out = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            out[j * d + i, i * d + j] = 1.0
    return out


def _dense_build_rep(E, R, psi_family, n, dims):
    """(rho1, sigma) of the fixed parenthesization, all dense."""
    dv, dw = dims
    sR = _flip(dw) @ R
    psi = psi_family("0,1,2")
    sigma1_small = np.linalg.solve(psi, np.kron(np.eye(dv), sR)) @ psi
    rho1 = np.kron(E, np.eye(dw ** (n - 1)))
    if n == 2:
        return rho1, [sigma1_small]
    psi_01 = psi_family("01,2,3")
    sigma2 = np.linalg.solve(psi_01, np.kron(np.eye(dv * dw), sR)) @ psi_01
    return rho1, [np.kron(sigma1_small, np.eye(dw)), sigma2]


def _dense_relation_residuals(rho1, sig):
    out = {}

    def rel(name, A, B):
        scale = max(np.linalg.norm(A), np.linalg.norm(B), 1e-300)
        out[name] = float(np.linalg.norm(A - B) / scale)

    for i in range(len(sig)):
        for j in range(i + 2, len(sig)):
            rel(f"sigma_comm_{i + 1}_{j + 1}", sig[i] @ sig[j], sig[j] @ sig[i])
        if i + 1 < len(sig):
            rel(f"braid_{i + 1}_{i + 2}",
                sig[i] @ sig[i + 1] @ sig[i],
                sig[i + 1] @ sig[i] @ sig[i + 1])
        if i >= 1:
            rel(f"rho_sigma_comm_{i + 1}", rho1 @ sig[i], sig[i] @ rho1)
    rel("type_b", rho1 @ sig[0] @ rho1 @ sig[0], sig[0] @ rho1 @ sig[0] @ rho1)
    return out


def _side_rep(side, N, n):
    """A representation of one side and the arguments its build_rep got."""
    p, h = N // 2, 0.05
    t = make_params(N, p)
    if side == "q":
        return lambda: q_side_rep(N, p, t, h, n)[0]
    kr = solve_kmatrix(N, p, t, float(np.exp(h)))
    s = kr.inferred_s
    return lambda: kz_side_rep(N, p, s, complex(kr.inferred_s_plus_mu) - s,
                               kr.fitted_g, h, n)


@pytest.mark.parametrize("side", ["q", "kz"])
@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_sparse_assembly_matches_dense(monkeypatch, side, N, n):
    seen = {}
    build = braidb.build_rep

    def spy(E, R, psi_family, n, dims):
        seen.update(E=E, R=R, fam=psi_family, dims=dims)
        return build(E, R, psi_family, n, dims)

    monkeypatch.setattr(braidb, "build_rep", spy)
    rep = _side_rep(side, N, n)()
    rho1, sig = _dense_build_rep(_dense(seen["E"]), _dense(seen["R"]),
                                 lambda g: _dense(seen["fam"](g)), n,
                                 seen["dims"])
    for got, want in zip([rep.rho1] + rep.sigma, [rho1] + sig):
        assert sparse.issparse(got)
        assert np.max(np.abs(got.toarray() - want)) <= 1e-13
        assert blocks.cond(got) == pytest.approx(np.linalg.cond(want),
                                                 rel=1e-8)
    want_res = _dense_relation_residuals(rho1, sig)
    assert rep.residuals.keys() == want_res.keys()
    for key, val in want_res.items():
        assert abs(rep.residuals[key] - val) <= 1e-14, key
