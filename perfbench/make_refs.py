"""Regenerate the stored references in perfbench/refs/.

    python3 perfbench/make_refs.py

kz_psi.npz holds sixteen (s, mu, h) triples drawn once inside the supported
domain (|h| <= max_h), one fixed complex probe vector per dimension N^3 and
psi_kz(N, N//2) @ probe for every triple and N = 2..6.  The seed of a kz run
picks one triple per N.  cohomology.json holds every exact table the
current code can compute within minutes.  Both were taken from code that
passes the acceptance gate; regenerate them only on purpose.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import cases  # noqa: E402

N_TRIPLES = 16


def make_kz():
    rng = np.random.default_rng(20200914)
    triples = np.column_stack([rng.uniform(-0.6, 0.6, N_TRIPLES),
                               rng.uniform(-0.3, 0.3, N_TRIPLES),
                               rng.uniform(0.02, 0.09, N_TRIPLES)])
    out = {"triples": triples}
    for N in cases.KZ_NS:
        dim = N ** 3
        probe = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out[f"probe_{N}"] = probe
        out[f"expect_{N}"] = np.array(
            [cases.psi_three_legs(N, *map(float, t)) @ probe for t in triples])
        print(f"psi N={N} done", flush=True)
    np.savez(cases.REFS / "kz_psi.npz", **out)


TABLES = ([(g, sub, False, d, w) for g, sub, d, w, _ in cases.EXACT_TABLES]
          + [("sl3", sub, True, d, w)
             for d, w in cases.EXACT_LADDER[:cases.EXACT_LADDER_STORED]
             for sub in cases.EXACT_LADDER_SUBS])


def make_tables():
    tables = {}
    for g, sub, inv, d, w in TABLES:
        tables[cases.table_key(g, sub, inv, d, w)] = cases.cohomology_table(
            g, sub, inv, d, w)
        print(f"table {g} {sub} {inv} {d},{w} done", flush=True)
    (cases.REFS / "cohomology.json").write_text(
        json.dumps(tables, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    cases.REFS.mkdir(exist_ok=True)
    make_kz()
    make_tables()
