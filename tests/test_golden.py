"""Golden reports: every invocation below reruns in process and must exit 0
with stdout equal, byte for byte, to its committed report under golden/.

Each report is the ``--out`` file of the same invocation, e.g.

    PYTHONPATH=src python -m qspair.cli satake --n 5 --p 2 \
        --out golden/satake/n5_p2.json

Regenerate a report only for an intended change of output, and say why in
the change log.
"""

import shlex
from pathlib import Path

import pytest

from qspair.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

CASES = {
    "satake/n5_p2.json": "satake --n 5 --p 2",
    "cascade/n4_p2.json": "cascade --n 4 --p 2",
    "cayley-check/n4_p2_phi0.7.json": "cayley-check --n 4 --p 2 --phi 0.7",
    "pairing/n3_p1.json": "pairing --n 3 --p 1",
    "kz-psi/n2_p1_s0.4.json": "kz-psi --n 2 --p 1 --s 0.4 --h 0.05",
    "kz-psi/n2_p1_s0.4_no_matrix.json":
        "kz-psi --n 2 --p 1 --s 0.4 --h 0.05 --no-matrix",
    "kmatrix/n4_p2_s0.3j.json":
        "kmatrix --n 4 --p 2 --type-params s_p=0.3j --q 1.10517",
    "kmatrix/n3_p1_c1.3.csv":
        "kmatrix --n 3 --p 1 --type-params c_p=1.3 --format csv",
    "kmatrix/n4_p2_quasik.json": "kmatrix --n 4 --p 2 --route quasik",
    "braid-rep/n2_p1_kz_3.json":
        "braid-rep --n 2 --p 1 --side kz --strands 3",
    "braid-rep/n2_p1_kz_3_generators.json":
        "braid-rep --n 2 --p 1 --side kz --strands 3 --with-generators",
    "kohno-drinfeld/n2_p1_words.json":
        "kohno-drinfeld --n 2 --p 1 --words 'rho1;sigma1;rho1,sigma1'",
    "cohomology/sl2_cartan_invariant.json":
        "cohomology --g sl2 --subalgebra cartan --invariant",
    "cohomology/sl2_zero.json": "cohomology --g sl2 --subalgebra zero",
    "cohomology/sl3_cartan_invariant_d2_w3.json":
        "cohomology --g sl3 --subalgebra cartan --invariant --max-degree 2 "
        "--max-weight 3",
    "cohomology/sl3_so3_invariant_d1_w2.csv":
        "cohomology --g sl3 --subalgebra so3 --invariant --max-degree 1 "
        "--max-weight 2 --format csv",
    "cohomology/sl3_so3_invariant_d2_w3.json":
        "cohomology --g sl3 --subalgebra so3 --invariant --max-degree 2 "
        "--max-weight 3",
    "cohomology/sl3_so3_invariant.json":
        "cohomology --g sl3 --subalgebra so3 --invariant",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, capsys):
    code = main(shlex.split(CASES[case]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / case).read_text()
