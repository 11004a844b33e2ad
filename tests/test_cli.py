import json

import pytest

from qspair import cli
from qspair.cli import main
from qspair.errors import ParameterError, QspairError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_satake_subcommand(capsys):
    code, doc = run_json(capsys, "satake", "--n", "4", "--p", "2")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["results"]["tag"] == "S"
    assert doc["results"]["distinguished"] == [2]
    assert doc["command"] == "satake"


def test_cascade_subcommand(capsys):
    code, doc = run_json(capsys, "cascade", "--n", "3", "--p", "1")
    assert code == 0
    assert doc["results"]["cascade"] == [["1", "0", "-1"]]


def test_cayley_check(capsys):
    code, doc = run_json(capsys, "cayley-check", "--n", "4", "--p", "2",
                         "--phi", "0.7")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["residuals"]["r_rotation"] <= 1e-12
    assert doc["residuals"]["coisotropy"] <= 1e-12
    assert doc["residuals"]["negative_control"] > 0.01


def test_cayley_check_omits_generator_just_below_odd_phi(capsys):
    code, doc = run_json(capsys, "cayley-check", "--n", "3", "--p", "1",
                         "--phi", repr(1 - 1e-13))
    assert code == 0
    assert "generator_membership" not in doc["residuals"]


def test_pairing(capsys):
    code, doc = run_json(capsys, "pairing", "--n", "2", "--p", "1")
    assert code == 0
    assert doc["results"]["omega_t_mplus"] == [0.0, 1.0]


def test_kmatrix_standard_split_case(capsys):
    # K = q^{-1/2} [[0,-1],[1,0]] and s_plus_mu ~ 0 at (2,1), h = 0.1
    code, doc = run_json(capsys, "kmatrix", "--n", "2", "--p", "1",
                         "--h", "0.1")
    assert code == 0
    import numpy as np
    qm = np.exp(-0.05)
    K = doc["results"]["K"]
    assert abs(K[0][1][0] + qm) < 1e-12
    assert abs(K[1][0][0] - qm) < 1e-12
    assert abs(K[0][0][0]) < 1e-12
    x = doc["results"]["s_plus_mu"]
    assert abs(complex(x[0], x[1])) < 1e-9


def test_kmatrix_type_params_and_csv(capsys):
    code, out = run_cli(capsys, "kmatrix", "--n", "3", "--p", "1",
                        "--type-params", "c_p=1.3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "i,j,re,im"


def test_kmatrix_quasik_route(capsys):
    code, doc = run_json(capsys, "kmatrix", "--n", "2", "--p", "1",
                         "--route", "quasik")
    assert code == 0
    assert "quasi_k" in doc["results"]


def test_kz_psi(capsys):
    code, doc = run_json(capsys, "kz-psi", "--n", "2", "--p", "1",
                         "--s", "0.4", "--no-matrix")
    assert code == 0
    assert max(doc["residuals"].values()) < 1e-8


def test_kz_psi_rejects_large_h(capsys):
    code, _ = run_cli(capsys, "kz-psi", "--n", "2", "--p", "1", "--h", "0.2")
    assert code == 3


def test_kohno_drinfeld(capsys):
    code, doc = run_json(capsys, "kohno-drinfeld", "--n", "2", "--p", "1",
                         "--words", "rho1;sigma1")
    assert code == 0
    assert doc["results"]["max_delta"] < 1e-6


def test_cohomology_json(capsys):
    code, doc = run_json(capsys, "cohomology", "--g", "sl2",
                         "--max-degree", "2", "--max-weight", "2")
    assert code == 0
    assert doc["results"]["dims"]["1,1"] == 3
    assert doc["results"]["dims"]["2,2"] == 3


def test_cohomology_csv(capsys):
    code, out = run_cli(capsys, "cohomology", "--g", "sl2", "--subalgebra",
                        "cartan", "--invariant", "--max-degree", "2",
                        "--max-weight", "2", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["degree", "weight", "dim"]
    table = {(int(r[0]), int(r[1])): int(r[2]) for r in rows[1:]}
    assert table[(2, 2)] == 1
    assert table[(1, 1)] == 0


def test_parameter_error_exit_code(capsys):
    code, _ = run_cli(capsys, "kmatrix", "--n", "4", "--p", "3")
    assert code == 3


def test_bad_type_param_exit_code(capsys):
    code, _ = run_cli(capsys, "kmatrix", "--n", "4", "--p", "2",
                      "--type-params", "bogus=1")
    assert code == 3


class _SubParameterError(ParameterError):
    pass


@pytest.mark.parametrize("exc,code", [(_SubParameterError("bad n"), 3),
                                      (QspairError("unclassified"), 10),
                                      (MemoryError("no room"), 11)])
def test_exit_code_follows_error_family(monkeypatch, capsys, exc, code):
    def raise_it(*args):
        raise exc

    monkeypatch.setattr(cli, "build_aiii", raise_it)
    assert main(["satake", "--n", "3", "--p", "1"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_bare_memory_error_gets_one_line(monkeypatch, capsys):
    def raise_it(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_aiii", raise_it)
    assert main(["satake", "--n", "3", "--p", "1"]) == 11
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_determinism(capsys):
    _, out1 = run_cli(capsys, "kmatrix", "--n", "2", "--p", "1", "--h", "0.1")
    _, out2 = run_cli(capsys, "kmatrix", "--n", "2", "--p", "1", "--h", "0.1")
    assert out1 == out2


def test_verify_all(capsys):
    code, doc = run_json(capsys, "verify-all")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["results"]["failures"] == 0
    assert len(doc["results"]["criteria"]) == 12


def test_out_file(tmp_path, capsys):
    target = tmp_path / "golden" / "case.json"
    target.parent.mkdir()
    code, out = run_cli(capsys, "pairing", "--n", "2", "--p", "1",
                        "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["command"] == "pairing"
