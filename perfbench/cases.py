"""The three benchmark workloads: fixed cases, owned acceptance criteria and
reach ladders, each case with its time budget and its correctness check.

Every case calls into qspair through module attributes looked up at call
time (``kzmono.psi_kz``, not a reference taken at import), so the tracer in
``tracing.py`` sees each call after it rebinds those attributes.

Why these workloads:

* ``kz`` -- the KZ monodromy engine on large dimensions with few calls
  (``kzmono``, ``sln``); the reach ladder is the Kohno-Drinfeld comparison on
  three strands, where the Frobenius series dominates.
* ``coideal`` -- many small problems: the K-matrix sweep over every (N, p)
  with N <= 7, the cross-route check and two-strand braid comparisons
  (``uqsl``, ``satake``, ``rootdata``, ``braidb``; ``kzmono`` only at
  dimension 8-125).  It holds the known ``rho_1 is not invertible`` defect at
  (5,1) and (5,2), h = 0.1, which counts as two failed cases.  Its ladder is
  the K-matrix solve at growing N.
* ``exact`` -- the exact co-Hochschild layer (``cohoch``, pure Fractions):
  plain tables (sparse rank) in the fixed pass, invariant tables (dense
  nullspace) on the ladder.  Its inputs are fixed by the Lie data, so the
  seed does not change it.

Tolerances are those pinned in ``qspair/acceptance.py`` (the criterion each
comes from is named beside it) and are never loosened here.
"""

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from qspair import acceptance, braidb, cli, cohoch, kzmono, sln, uqsl

REFS = Path(__file__).resolve().parent / "refs"

IDENTITY_TOL = 1e-8       # criterion 5: pentagon/hexagon/ribbon residuals
KMATRIX_TOL = 1e-10       # criteria 1-2: gap to closed form, reflection
TRACE_TOL = 1e-6          # criterion 6: Kohno-Drinfeld trace max_delta
RELATION_TOL = 1e-8       # criterion 7: Gamma_n relation residuals
CROSS_ROUTE_TOL = 1e-9    # criterion 12: quasi-K vs commutant route
PSI_REL_TOL = 1e-10       # psi_kz against the stored reference probe

MEMORY_CAP_MB = 3072      # address-space cap of every ladder rung


@dataclass
class Case:
    """One timed call.  ``check`` returns None when the output is right,
    otherwise the reason it is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    budget: float


@dataclass
class Workload:
    name: str
    cases: list                               # the fixed pass, in order
    gate: list                                # owned criteria, also in cases
    ladder: list                              # rungs, run in capped children
    # times the fixed cases run, before and after the ladder; each counts at
    # its fastest run
    passes: int = 1


# ---------------------------------------------------------------------------
# shared checks

def _bad_residuals(residuals, tol, what):
    worst = max(residuals.values()) if residuals else 0.0
    if not worst <= tol:
        return f"{what} residual {worst:.2e} > {tol:.0e}"
    return None


def _criterion(num):
    fn_name = next(fn.__name__ for n, _, fn in acceptance.CRITERIA if n == num)
    return lambda: getattr(acceptance, fn_name)()


def _check_criterion(out):
    return None if out["passed"] else f"criterion failed: {out['summary']}"


def _criterion_cases(nums, budget):
    return [Case(f"criterion_{n}", _criterion(n), _check_criterion, budget)
            for n in nums]


# ---------------------------------------------------------------------------
# kz: KZ engine on large dimensions

KZ_NS = (2, 3, 4, 5, 6)
PSI_BUDGET = {2: 1.0, 3: 1.0, 4: 2.0, 5: 5.0, 6: 12.0}
KZ_LADDER_BUDGET = 15.0


def load_kz_refs():
    """Stored (s, mu, h) triples, probe vectors and expected psi @ probe."""
    with np.load(REFS / "kz_psi.npz", allow_pickle=False) as z:
        refs = {k: z[k] for k in z.files}
    return refs


def psi_three_legs(N, s, mu, h):
    pr = sln.realize(N, N // 2)
    f = sln.fundamental_rep(N)
    return kzmono.psi_kz(pr, (f, f, f), s, mu, h)


def _check_psi(probe, expect, psi):
    err = float(np.linalg.norm(psi @ probe - expect) / np.linalg.norm(expect))
    if not err <= PSI_REL_TOL:
        return f"psi differs from the reference by {err:.2e} (relative)"
    return None


def _identity_residuals(N, s, mu, h):
    pr = sln.realize(N, 1)
    f = sln.fundamental_rep(N)
    return kzmono.identity_residuals(pr, (f, f), s, mu, h)


def _cli_twice(argv):
    """Run the CLI twice; return both (exit code, stdout) pairs."""
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        runs.append((code, buf.getvalue()))
    return runs


def _check_cli_kz_psi(probe, expect, runs):
    (c1, t1), (c2, t2) = runs
    if c1 != 0 or c2 != 0:
        return f"exit codes {c1}, {c2}"
    if t1 != t2:
        return "repeated runs emitted different JSON"
    doc = json.loads(t1)
    psi = np.array([[complex(re, im) for re, im in row]
                    for row in doc["results"]["psi"]])
    return (_check_psi(probe, expect, psi)
            or _bad_residuals(doc["residuals"], IDENTITY_TOL, "identity"))


def _check_kd(out):
    if not out["max_delta"] <= TRACE_TOL:
        return f"trace max_delta {out['max_delta']:.2e} > {TRACE_TOL:.0e}"
    return (_bad_residuals(out["q_residuals"], RELATION_TOL, "q-side relation")
            or _bad_residuals(out["kz_residuals"], RELATION_TOL,
                              "kz-side relation"))


def _kd(N, p, h, n):
    return braidb.kohno_drinfeld_compare(N, p, None, h=h, n=n)


def kz(seed):
    refs = load_kz_refs()
    triples = refs["triples"]
    rng = np.random.default_rng(seed)
    pick = {N: int(rng.integers(len(triples))) for N in KZ_NS}
    cases = []
    for N in KZ_NS:
        s, mu, h = (float(x) for x in triples[pick[N]])
        probe, expect = refs[f"probe_{N}"], refs[f"expect_{N}"][pick[N]]
        cases.append(Case(f"psi_kz({N},{N // 2})",
                          partial(psi_three_legs, N, s, mu, h),
                          partial(_check_psi, probe, expect), PSI_BUDGET[N]))
    for N, budget in ((2, 1.0), (3, 5.0)):
        s, mu, h = (float(x) for x in triples[pick[N]])
        cases.append(Case(
            f"identity_residuals({N},1)",
            partial(_identity_residuals, N, s, mu, h),
            partial(_bad_residuals, tol=IDENTITY_TOL, what="identity"),
            budget))
    s, mu, h = (float(x) for x in triples[pick[2]])
    argv = ("kz-psi", "--n", "2", "--p", "1", "--s", repr(s), "--mu", repr(mu),
            "--h", repr(h))
    cases.append(Case("cli kz-psi(2,1)", partial(_cli_twice, argv),
                      partial(_check_cli_kz_psi, refs["probe_2"],
                              refs["expect_2"][pick[2]]), 2.0))
    gate = _criterion_cases(("4", "5"), 1.0)
    ladder = [Case(f"kohno_drinfeld({N},{N // 2},n=3)",
                   partial(_kd, N, N // 2, 0.05, 3), _check_kd,
                   KZ_LADDER_BUDGET) for N in KZ_NS]
    # Two passes: the pass is mostly three psi_kz calls of 1-4 s, and the
    # faster of two runs of each, half a minute apart, damps host noise.
    return Workload("kz", cases + gate, gate, ladder, passes=2)


# ---------------------------------------------------------------------------
# coideal: K-matrix sweep and braid comparison, many small problems

SWEEP_H = (0.005, 0.02, 0.05, 0.1, 0.2)
KD_H = (0.05, 0.1)
COIDEAL_LADDER_NS = (8, 12, 16, 24, 32)
COIDEAL_LADDER_H = 0.1
COIDEAL_LADDER_BUDGET = 8.0


def _draw_params(rng, N, p):
    """Seeded point of T*: s_p in iR for the S-type (N = 2p), c_p > 0 for
    the C-type; the ranges are those criterion 3 sweeps."""
    if N == 2 * p:
        return {"s_p": 1j * rng.uniform(-0.4, 0.4)}
    return {"c_p0": rng.uniform(0.7, 2.0)}


def _solve_kmatrix(N, p, params, h):
    t = uqsl.make_params(N, p, **params)
    q = float(np.exp(h))
    kr = uqsl.solve_kmatrix(N, p, t, q)
    return kr.K, kr.residuals


def _check_kmatrix(N, p, params, h, out):
    K, residuals = out
    q = float(np.exp(h))
    t = uqsl.make_params(N, p, **params)
    closed = uqsl.closed_form_kmatrix(N, p, t, q)
    gap = float(np.max(np.abs(K - closed)))
    if not gap <= KMATRIX_TOL:
        return f"gap to closed form {gap:.2e} > {KMATRIX_TOL:.0e}"
    refl = residuals["reflection"]
    if not refl <= KMATRIX_TOL:
        return f"reflection residual {refl:.2e} > {KMATRIX_TOL:.0e}"
    return None


def _kmatrix_case(N, p, params, h, budget):
    return Case(f"solve_kmatrix({N},{p},h={h})",
                partial(_solve_kmatrix, N, p, params, h),
                partial(_check_kmatrix, N, p, params, h), budget)


def _cross_route(N):
    return uqsl.cross_route_scalar(N, N // 2, acceptance.Q_DEFAULT)


def _check_cross_route(out):
    scalar, gap = out
    mod_gap = abs(abs(scalar) - 1)
    if not (gap <= CROSS_ROUTE_TOL and mod_gap <= CROSS_ROUTE_TOL):
        return f"cross-route gap {gap:.2e}, |scalar|-1 = {mod_gap:.2e}"
    return None


def coideal(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for N in range(2, 8):
        for p in range(1, N // 2 + 1):
            for h in SWEEP_H:
                cases.append(_kmatrix_case(N, p, _draw_params(rng, N, p), h,
                                           1.0))
    for N in (2, 4, 6):
        cases.append(Case(f"cross_route_scalar({N},{N // 2})",
                          partial(_cross_route, N), _check_cross_route, 1.0))
    # (5,1) and (5,2) at h = 0.1 raise "rho_1 is not invertible" today; each
    # budget sits above a successful run of that size (about 1 s).
    for N in range(2, 6):
        for p in range(1, N // 2 + 1):
            for h in KD_H:
                cases.append(Case(f"kohno_drinfeld({N},{p},h={h},n=2)",
                                  partial(_kd, N, p, h, 2), _check_kd, 3.0))
    gate = _criterion_cases(("1", "2", "3", "6", "7", "8", "9", "11", "12"),
                            1.0)
    ladder = [_kmatrix_case(N, N // 2, _draw_params(rng, N, N // 2),
                            COIDEAL_LADDER_H, COIDEAL_LADDER_BUDGET)
              for N in COIDEAL_LADDER_NS]
    # One pass: the noise of ~75 short cases averages out within a pass.
    return Workload("coideal", cases + gate, gate, ladder)


# ---------------------------------------------------------------------------
# exact: the co-Hochschild layer over the rationals

# (g, subalgebra, d, w, budget) of the plain tables in the fixed pass
EXACT_TABLES = (("sl2", "zero", 4, 5, 15.0), ("sl3", "zero", 3, 3, 6.0))
EXACT_LADDER = ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4))
EXACT_LADDER_SUBS = ("cartan", "so3")
EXACT_LADDER_STORED = 3   # rungs whose tables refs/ holds; later ones take
                          # too long to store and are checked by the oracle
EXACT_LADDER_BUDGET = 5.0

# The HKR-type oracle: the cohomology is (Lambda^n (g/h))^h on the diagonal
# w = n and zero elsewhere, counted here from torus weights of g/h.
# sl3/cartan: the six roots in simple-root coordinates; invariants are the
# weight-zero subsets.  sl3/so3: g/h is the five-dimensional irreducible so3
# module, weights -2..2 in units of the adjoint weight; by sl2 theory the
# invariants number mult(0) - mult(1).
_SL3_ROOTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
_SO3_SPIN2 = (-2, -1, 0, 1, 2)
_DIMS = {"sl2": 3, "sl3": 8}


def hkr_diagonal(g, sub, n):
    """dim H^{n,n} from weight counting, independent of cohoch."""
    if sub == "zero":
        return comb(_DIMS[g], n)
    if sub == "cartan":
        return sum(1 for c in combinations(_SL3_ROOTS, n)
                   if sum(a for a, _ in c) == sum(b for _, b in c) == 0)
    sums = [sum(c) for c in combinations(_SO3_SPIN2, n)]
    return sums.count(0) - sums.count(1)


def load_tables():
    """Stored exact tables, keyed "g/sub[/inv]@d,w" -> {"n,w": dim}."""
    return json.loads((REFS / "cohomology.json").read_text())


def table_key(g, sub, invariant, d, w):
    return f"{g}/{sub}{'/inv' if invariant else ''}@{d},{w}"


def cohomology_table(g, sub, invariant, d, w):
    lie = getattr(cohoch, f"{g}_data")(sub)
    cc = cohoch.build_complex(lie, d, w)
    dims = cohoch.cohomology_dims(cc, invariant=invariant)
    return {f"{n},{k}": int(v) for (n, k), v in sorted(dims.items())}


def _check_table(stored, g, sub, invariant, d, w, table):
    key = table_key(g, sub, invariant, d, w)
    if key in stored and table != stored[key]:
        return f"{key} differs from the stored table"
    for n in range(d + 1):
        for k in range(w + 1):
            want = hkr_diagonal(g, sub, n) if n == k else 0
            if table[f"{n},{k}"] != want:
                return f"{key} H^{n},{k} = {table[f'{n},{k}']}, oracle {want}"
    return None


def _invariant_rung(d, w):
    return {sub: cohomology_table("sl3", sub, True, d, w)
            for sub in EXACT_LADDER_SUBS}


def _check_rung(stored, d, w, out):
    for sub, table in out.items():
        bad = _check_table(stored, "sl3", sub, True, d, w, table)
        if bad:
            return bad
    return None


def exact(seed):
    del seed  # the Lie data fix every input
    stored = load_tables()
    cases = [
        Case(f"cohomology({g} {sub} {d},{w})",
             partial(cohomology_table, g, sub, False, d, w),
             partial(_check_table, stored, g, sub, False, d, w), budget)
        for g, sub, d, w, budget in EXACT_TABLES
    ]
    gate = _criterion_cases(("10",), 8.0)
    ladder = [Case(f"sl3 cartan+so3 --invariant ({d},{w})",
                   partial(_invariant_rung, d, w),
                   partial(_check_rung, stored, d, w), EXACT_LADDER_BUDGET)
              for d, w in EXACT_LADDER]
    # One pass: the cases are seconds-long Fraction computations whose
    # speed follows host drift over minutes, which a second pass in the same
    # run does not average out.
    return Workload("exact", cases + gate, gate, ladder)


WORKLOADS = {"kz": kz, "coideal": coideal, "exact": exact}
