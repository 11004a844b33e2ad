"""Command-line front end.

Every subcommand emits one JSON document {command, config_echo, results,
residuals, status} (CSV for the tabular outputs) and is deterministic for a
fixed configuration: floats are serialized at 15 significant digits.  Exit
codes: 0 ok, 1 verify-all failure, 2 usage, then one code per error family
(see EXIT_CODES in --help).
"""

import argparse
import json
import sys
from fractions import Fraction

import numpy as np
from scipy import sparse

from . import acceptance, cohoch
from .braidb import DEFAULT_WORDS, kohno_drinfeld_compare, kz_side_rep, q_side_rep
from .errors import (
    ComparisonError,
    DomainError,
    ParameterError,
    QspairError,
    ResonanceError,
    ShapeError,
    StructuralError,
    TruncationError,
)
from .kzmono import identity_residuals, psi_kz
from .satake import build_aiii, normalization_constants, partition_roots
from .sln import (
    coisotropy_residual,
    fix_theta_generator_residual,
    fundamental_rep,
    omega_pairing,
    phi_near_odd,
    r_rotation_residual,
    realize,
)
from .uqsl import make_params, quasi_k_in_rep, solve_kmatrix

EXIT_CODES = {
    ParameterError: 3,
    ResonanceError: 4,
    TruncationError: 5,
    StructuralError: 6,
    ComparisonError: 7,
    DomainError: 8,
    ShapeError: 9,
    QspairError: 10,
    MemoryError: 11,
}

EPILOG = """exit codes:
  0 success         1 verify-all failure      2 usage error
  3 parameter       4 resonance               5 series truncation
  6 structural      7 comparison failure      8 domain error
  9 shape mismatch 10 other qspair error     11 out of memory
"""


def _sig15(x):
    return float(f"{x:.15g}")


def _jsonify(obj):
    """Round floats to 15 significant digits, split complex into [re, im]."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [_sig15(z.real), _sig15(z.imag)]
    if isinstance(obj, (float, np.floating)):
        return _sig15(float(obj))
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def _matrix_json(m):
    return _jsonify(m.toarray() if sparse.issparse(m) else np.asarray(m))


def emit(command, config, results, residuals=None, status="ok", out=None,
         fmt="json", csv_rows=None):
    config = {k: v for k, v in config.items() if k not in ("fn", "out")}
    if fmt == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows)
    else:
        doc = {
            "command": command,
            "config_echo": _jsonify(config),
            "results": _jsonify(results),
            "residuals": _jsonify(residuals or {}),
            "status": status,
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _params_from_args(args):
    kw = {}
    for item in getattr(args, "type_params", None) or []:
        key, _, val = item.partition("=")
        if key == "s_p":
            kw["s_p"] = complex(val)
        elif key == "c_p":
            kw["c_p0"] = float(val)
        elif key == "c_p_qexp":
            kw["c_p_qexp"] = Fraction(val)
        else:
            raise ParameterError(f"unknown type parameter {key!r}")
    return make_params(args.n, args.p, **kw)


def _h_from_args(args):
    if getattr(args, "q", None) is not None:
        if args.q <= 0:
            raise ParameterError("q must be positive")
        return float(np.log(args.q))
    return args.h


# ---------------------------------------------------------------------------
# subcommands

def cmd_satake(args):
    sd = build_aiii(args.n, args.p)
    part = partition_roots(sd)
    norms = normalization_constants(sd)
    results = {
        "tag": sd.hermitian_tag,
        "X": sorted(sd.X),
        "tau": {str(k): v for k, v in sorted(sd.tau.items())},
        "distinguished": sorted(sd.distinguished),
        "z_nu": [str(x) for x in sd.z_nu],
        "cascade": [[str(c) for c in g] for g in sd.cascade],
        "partition_sizes": {
            "P0": len(part.P0), "C0": len(part.C0),
            "Pi": {str(k): len(v) for k, v in part.Pi.items()},
            "Ci": {str(k): len(v) for k, v in part.Ci.items()},
            "Pij": {f"{k[0]},{k[1]}": len(v) for k, v in part.Pij.items()},
            "Cij": {f"{k[0]},{k[1]}": len(v) for k, v in part.Cij.items()},
        },
        "a_sigma": norms["a_sigma"],
        "dim_m": norms["dim_m"],
    }
    emit("satake", vars(args), results, out=args.out)
    return 0


def cmd_cascade(args):
    sd = build_aiii(args.n, args.p)
    results = {"cascade": [[str(c) for c in g] for g in sd.cascade],
               "length": len(sd.cascade)}
    emit("cascade", vars(args), results, out=args.out)
    return 0


def cmd_cayley_check(args):
    pr = realize(args.n, args.p)
    rr = r_rotation_residual(pr, args.phi)
    cr = coisotropy_residual(pr, args.phi)
    residuals = {"r_rotation": rr, "coisotropy": cr}
    if not phi_near_odd(args.phi):
        residuals["generator_membership"] = fix_theta_generator_residual(
            pr, args.phi)
    # seeded negative control: a random m_phi element must NOT be coisotropic
    rng = np.random.default_rng(args.seed)
    probe = np.zeros((args.n, args.n), dtype=complex)
    probe[:args.p, args.p:] = rng.standard_normal((args.p, args.n - args.p))
    probe[args.p:, :args.p] = rng.standard_normal((args.n - args.p, args.p))
    from .sln import cayley
    g = cayley(pr, args.phi - 1)
    probe = g @ probe @ np.linalg.inv(g)
    probe /= np.linalg.norm(probe)
    residuals["negative_control"] = coisotropy_residual(pr, args.phi,
                                                        probe=probe)
    ok = rr <= args.tol and cr <= args.tol
    emit("cayley-check", vars(args), {"phi": args.phi},
         residuals=residuals, status="ok" if ok else "residuals-exceeded",
         out=args.out)
    return 0 if ok else EXIT_CODES[StructuralError]


def cmd_pairing(args):
    pr = realize(args.n, args.p)
    results = {
        "omega_t_mplus": omega_pairing(pr, pr.t_mplus),
        "omega_t_mminus": omega_pairing(pr, pr.t_mminus),
        "omega_t_k": omega_pairing(pr, pr.t_k),
        "dim_m": 2 * args.p * (args.n - args.p),
    }
    emit("pairing", vars(args), results, out=args.out)
    return 0


def cmd_kz_psi(args):
    pr = realize(args.n, args.p)
    f = fundamental_rep(args.n)
    psi = psi_kz(pr, (f, f, f), args.s, args.mu, args.h,
                 tol=args.tol, max_order=args.max_order)
    residuals = identity_residuals(pr, (f, f), args.s, args.mu, args.h,
                                   tol=args.tol, max_order=args.max_order)
    results = {"dimension": psi.shape[0]}
    if not args.no_matrix:
        results["psi"] = _matrix_json(psi)
    emit("kz-psi", vars(args), results, residuals=residuals, out=args.out)
    return 0


def cmd_kmatrix(args):
    t = _params_from_args(args)
    h = _h_from_args(args)
    q = float(np.exp(h))
    kr = solve_kmatrix(args.n, args.p, t, q)
    results = {
        "K": _matrix_json(kr.K),
        "mudrov": kr.mudrov,
        "eigenvalues": sorted(
            (complex(e) for e in kr.eigenvalues),
            key=lambda z: (round(z.real, 12), round(z.imag, 12))),
        "s": kr.inferred_s,
        "s_plus_mu": kr.inferred_s_plus_mu,
        "g": kr.fitted_g,
        "closed_form_s_plus_mu": kr.closed_form_s_plus_mu,
    }
    if args.route == "quasik":
        X, Kq = quasi_k_in_rep(args.n, args.p, q)
        results["quasi_k"] = {"X": _matrix_json(X), "K": _matrix_json(Kq)}
    if args.format == "csv":
        rows = [["i", "j", "re", "im"]]
        for i in range(args.n):
            for j in range(args.n):
                rows.append([i + 1, j + 1,
                             f"{kr.K[i, j].real:.15g}",
                             f"{kr.K[i, j].imag:.15g}"])
        emit("kmatrix", vars(args), results, fmt="csv", csv_rows=rows,
             out=args.out)
    else:
        results["diagnostics"] = kr.diagnostics
        emit("kmatrix", vars(args), results, residuals=kr.residuals,
             out=args.out)
    return 0


def cmd_braid_rep(args):
    t = _params_from_args(args)
    if args.side == "q":
        rep, _ = q_side_rep(args.n, args.p, t, args.h, args.strands)
    else:
        q = float(np.exp(args.h))
        kr = solve_kmatrix(args.n, args.p, t, q)
        rep = kz_side_rep(args.n, args.p, kr.inferred_s,
                          complex(kr.inferred_s_plus_mu) - kr.inferred_s,
                          kr.fitted_g, args.h, args.strands, tol=args.tol)
    results = {"dimension": rep.dim, "grouping": rep.grouping}
    if args.with_generators:
        results["rho1"] = _matrix_json(rep.rho1)
        results["sigma"] = [_matrix_json(s) for s in rep.sigma]
    emit("braid-rep", vars(args), results, residuals=rep.residuals,
         out=args.out)
    return 0


def cmd_kohno_drinfeld(args):
    t = _params_from_args(args)
    words = tuple(
        tuple(w.split(",")) if w else ()
        for w in args.words.split(";")
    ) if args.words else DEFAULT_WORDS
    out = kohno_drinfeld_compare(args.n, args.p, t, h=args.h,
                                 words=words, n=args.strands, tol=args.tol)
    results = {
        "traces": [{
            "word": row["word"],
            "q_side": row["q_side"],
            "kz_side": row["kz_side"],
            "delta": row["delta"],
        } for row in out["words"]],
        "max_delta": out["max_delta"],
        "fit": out["fit"],
    }
    residuals = {"q_side": out["q_residuals"], "kz_side": out["kz_residuals"]}
    emit("kohno-drinfeld", vars(args), results, residuals=residuals,
         out=args.out)
    return 0


def cmd_cohomology(args):
    if args.g == "sl2":
        lie = cohoch.sl2_data(args.subalgebra)
    else:
        lie = cohoch.sl3_data(args.subalgebra)
    cc = cohoch.build_complex(lie, args.max_degree, args.max_weight)
    dims = cohoch.cohomology_dims(cc, invariant=args.invariant)
    table = {f"{n},{w}": dims[(n, w)]
             for n in range(args.max_degree + 1)
             for w in range(args.max_weight + 1)}
    if args.format == "csv":
        rows = [["degree", "weight", "dim"]]
        for n in range(args.max_degree + 1):
            for w in range(args.max_weight + 1):
                rows.append([n, w, dims[(n, w)]])
        emit("cohomology", vars(args), table, fmt="csv", csv_rows=rows,
             out=args.out)
    else:
        emit("cohomology", vars(args), {"dims": table}, out=args.out)
    return 0


def cmd_verify_all(args):
    lines = []
    results = acceptance.run_all(report=lines.append)
    for line in lines:
        print(line, file=sys.stderr)
    n_fail = sum(1 for r in results if not r["passed"])
    emit("verify-all", vars(args), {
        "criteria": [{
            "criterion": r["criterion"], "name": r["name"],
            "passed": r["passed"], "summary": r["summary"],
        } for r in results],
        "failures": n_fail,
    }, status="ok" if n_fail == 0 else "failed", out=args.out)
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="qspair",
        description=__doc__.splitlines()[0],
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, h=False, tol=False):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p", type=int, required=True)
        if h:
            p.add_argument("--h", type=float, default=0.05)
        if tol:
            p.add_argument("--tol", type=float, default=1e-12)
            p.add_argument("--max-order", type=int, default=200)
        p.add_argument("--out", default=None,
                       help="also write the report to this file "
                            "(golden layout: golden/<subcommand>/<case>.json)")

    p = sub.add_parser("satake", help="Satake data and root partition")
    common(p)
    p.set_defaults(fn=cmd_satake)

    p = sub.add_parser("cascade", help="strongly orthogonal cascade roots")
    common(p)
    p.set_defaults(fn=cmd_cascade)

    p = sub.add_parser("cayley-check",
                       help="rotation/coisotropy residuals of g_phi")
    common(p)
    p.add_argument("--phi", type=float, default=0.7)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_cayley_check)

    p = sub.add_parser("pairing", help="Omega-pairing values")
    common(p)
    p.set_defaults(fn=cmd_pairing)

    p = sub.add_parser("kz-psi", help="cyclotomic associator and residuals")
    common(p, h=True, tol=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--no-matrix", action="store_true")
    p.set_defaults(fn=cmd_kz_psi)

    p = sub.add_parser("kmatrix", help="solve the coideal K-matrix")
    common(p, h=True)
    p.add_argument("--q", type=float, default=None,
                   help="alternative to --h: q = e^h")
    p.add_argument("--type-params", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="s_p=0.3j (S-type) or c_p=1.3 (C-type)")
    p.add_argument("--route", choices=["commutant", "quasik"],
                   default="commutant")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_kmatrix)

    p = sub.add_parser("braid-rep", help="Gamma_n generator residuals")
    common(p, h=True, tol=True)
    p.add_argument("--side", choices=["q", "kz"], default="q")
    p.add_argument("--strands", type=int, default=2)
    p.add_argument("--type-params", action="append", default=None)
    p.add_argument("--with-generators", action="store_true")
    p.set_defaults(fn=cmd_braid_rep)

    p = sub.add_parser("kohno-drinfeld", help="trace comparison of the sides")
    common(p, h=True, tol=True)
    p.add_argument("--strands", type=int, default=2)
    p.add_argument("--type-params", action="append", default=None)
    p.add_argument("--words", default=None,
                   help="semicolon-separated words of comma-separated tokens, "
                        "e.g. 'rho1;sigma1;rho1,sigma1'")
    p.set_defaults(fn=cmd_kohno_drinfeld)

    p = sub.add_parser("cohomology", help="co-Hochschild dimension table")
    p.add_argument("--g", choices=["sl2", "sl3"], default="sl2")
    p.add_argument("--h", "--subalgebra", dest="subalgebra",
                   choices=["zero", "cartan", "so3"], default="zero")
    p.add_argument("--invariant", action="store_true")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (QspairError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        # the nearest listed class, so a subclass shares its family's code
        return next(EXIT_CODES[c] for c in type(exc).__mro__
                    if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
