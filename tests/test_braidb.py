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


def test_trivial_quadruple_all_identity():
    dv, dw = 2, 2
    E = np.eye(dv * dw, dtype=complex)
    R = np.eye(dw * dw, dtype=complex)
    for n in (2, 3):
        psis = [np.eye(dv * dw ** (i + 1), dtype=complex) for i in range(1, n)]
        rep = build_rep(E, R, psis)
        # sigma = flip-conjugated identity = identity-similar permutation
        assert max(rep.residuals.values()) < 1e-14
        w = word_matrix(rep, ("rho1",))
        assert np.max(np.abs(w - np.eye(rep.dim))) < 1e-14


def test_single_strand_rep():
    rep, _ = q_side_rep(2, 1, make_params(2, 1), 0.05, 1)
    assert rep.dim == 4
    assert rep.sigma == []
    assert rep.residuals == {}


def test_build_rep_validation(monkeypatch):
    with pytest.raises(ParameterError):
        build_rep(np.eye(4), np.eye(4), [None] * 3)
    with pytest.raises(ShapeError):
        build_rep(np.eye(3), np.eye(4), [None])
    with pytest.raises(ShapeError):
        build_rep(np.eye(4), np.eye(3), [None])
    with pytest.raises(ShapeError):
        build_rep(np.eye(4), np.eye(4), [np.eye(4)])

    def no_psi(*args, **kwargs):
        raise AssertionError("psi_kz called before the strand check")

    monkeypatch.setattr(braidb, "psi_kz", no_psi)
    t = make_params(2, 1)
    for n in (0, 4):
        with pytest.raises(ParameterError):
            q_side_rep(2, 1, t, 0.05, n)
        with pytest.raises(ParameterError):
            kz_side_rep(2, 1, 0.0, 0.0, 1.0, 0.05, n)


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


@pytest.mark.parametrize("N, p", [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3)])
@pytest.mark.parametrize("h", [0.05, 0.1])
def test_kohno_drinfeld_sweep_three_strands(N, p, h):
    # the criterion 6 and 7 tolerances
    out = kohno_drinfeld_compare(N, p, h=h, n=3)
    assert out["max_delta"] <= 1e-6
    assert max(out["q_residuals"].values()) <= 1e-8
    assert max(out["kz_residuals"].values()) <= 1e-8


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


def _singular(m):
    """m with its first column zeroed."""
    m = np.array(m)
    m[:, 0] = 0
    return m


def _spy_build_rep(monkeypatch):
    """The arguments of the next braidb.build_rep call, filled in when it
    happens."""
    seen = {}

    def spy(E, R, psis, build=braidb.build_rep):
        seen.update(E=E, R=R, psis=psis)
        return build(E, R, psis)

    monkeypatch.setattr(braidb, "build_rep", spy)
    return seen


def test_rank_deficient_rho1_raises(monkeypatch):
    seen = _spy_build_rep(monkeypatch)
    q_side_rep(2, 1, make_params(2, 1), 0.05, 2)
    with pytest.raises(ComparisonError, match="rho_1 is not invertible"):
        build_rep(_singular(seen["E"]), seen["R"], seen["psis"])


def test_rank_deficient_sigma1_raises():
    E, R = np.eye(4, dtype=complex), np.eye(4, dtype=complex)
    with pytest.raises(ComparisonError, match="sigma_1 is not invertible"):
        build_rep(E, _singular(R), [None])
    with pytest.raises(ComparisonError, match="sigma_1 is not invertible"):
        build_rep(E, _singular(R), [np.eye(8)])


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


def _det(log_det):
    log_abs, phase = log_det
    return np.exp(log_abs + 1j * phase)


def test_kohno_drinfeld_n2_standard():
    out = kohno_drinfeld_compare(2, 1, None, h=0.05, n=2)
    assert out["max_delta"] < 1e-6
    assert abs(out["fit"]["s"]) < 1e-12
    assert abs(_det(out["det_rho1_q"]) - _det(out["det_rho1_kz"])) < 1e-8


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("n", [2, 3])
def test_log_det_rho1_sides_agree(N, n):
    # det rho_1 itself underflows to 0 at N = 8, n = 3 (dimension 4096)
    out = kohno_drinfeld_compare(N, N // 2, None, h=0.05, n=n)
    (lq, pq), (lk, pk) = out["det_rho1_q"], out["det_rho1_kz"]
    assert -np.pi < pq <= np.pi and -np.pi < pk <= np.pi
    assert abs(lq - lk) < 1e-8
    assert abs(np.angle(np.exp(1j * (pq - pk)))) < 1e-8


def test_log_det_rho1_phase_wraps():
    # det(E (x) 1) = det(E)^{2^{n-1}}: phases 3 pi / 2 and 3 pi, wrapped
    E = np.diag([2 * np.exp(0.75j * np.pi), 1])
    R = np.eye(4, dtype=complex)
    for psis, want in (([None], (2 * np.log(2), -np.pi / 2)),
                       ([None, None], (4 * np.log(2), np.pi))):
        got = build_rep(E, R, psis).log_det_rho1
        assert got == pytest.approx(want, abs=1e-14)


def test_full_size_work_only_on_kz_sigma2(monkeypatch):
    N = 3
    D = N ** 4
    sizes = {"cond": [], "inverse": [], "eye": []}

    def spy(name, fn):
        def wrapped(m, *args, **kwargs):
            sizes[name].append(m if name == "eye" else m.shape[0])
            return fn(m, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(blocks, "cond", spy("cond", blocks.cond))
    monkeypatch.setattr(blocks, "inverse", spy("inverse", blocks.inverse))
    monkeypatch.setattr(sparse, "eye_array", spy("eye", sparse.eye_array))
    q_side_rep(N, 1, make_params(N, 1), 0.05, 3)
    assert sizes == {"cond": [N * N] * 3, "inverse": [], "eye": []}
    kohno_drinfeld_compare(N, 1, None, h=0.05, n=3)
    # q side: E, Sigma R twice; KZ side: E, the sigma_1 core, sigma_2
    assert sizes["cond"][3:] == [N * N] * 3 + [N * N, N ** 3, D]
    assert sizes["inverse"] == [N ** 3, D]
    assert D not in sizes["eye"]


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


def _dense_build_rep(E, R, psis):
    """(rho1, sigma) of the fixed parenthesization, all dense; a None
    associator is the identity."""
    n = len(psis) + 1
    dw = int(round(np.sqrt(R.shape[0])))
    dv = E.shape[0] // dw
    sR = _flip(dw) @ R
    rho1 = np.kron(E, np.eye(dw ** (n - 1)))
    sigma = []
    for i, psi in enumerate(psis, 1):
        left = dv * dw ** (i - 1)
        psi = np.eye(left * dw * dw) if psi is None else _dense(psi)
        core = np.linalg.solve(psi, np.kron(np.eye(left), sR)) @ psi
        sigma.append(np.kron(core, np.eye(dw ** (n - 1 - i))))
    return rho1, sigma


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
    if sig:
        rel("type_b", rho1 @ sig[0] @ rho1 @ sig[0],
            sig[0] @ rho1 @ sig[0] @ rho1)
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
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sparse_assembly_matches_dense(monkeypatch, side, N, n):
    seen = _spy_build_rep(monkeypatch)
    rep = _side_rep(side, N, n)()
    rho1, sig = _dense_build_rep(_dense(seen["E"]), _dense(seen["R"]),
                                 seen["psis"])
    for got, want in zip([rep.rho1] + rep.sigma, [rho1] + sig):
        assert sparse.issparse(got)
        assert np.max(np.abs(got.toarray() - want)) <= 1e-13
        assert blocks.cond(got) == pytest.approx(np.linalg.cond(want),
                                                 rel=1e-8)
    want_res = _dense_relation_residuals(rho1, sig)
    assert rep.residuals.keys() == want_res.keys()
    for key, val in want_res.items():
        assert abs(rep.residuals[key] - val) <= 1e-14, key
