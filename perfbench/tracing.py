"""Per-layer tracing by rebinding qspair module attributes from outside.

``Tracer.installed()`` replaces each traced function with a wrapper that
times the call as a span, keeps a stack of open spans so a span's self time
excludes the spans it caused, and derives counts from arguments and results.
A function defined in qspair is rebound under every name any qspair module
holds it by (``from .sln import realize`` makes a second name); a foreign
function such as ``kzmono.expm`` only in the module named.  Every rebound
attribute is restored on exit, also when the traced call raises.  A target
that no longer exists is skipped and its metrics stay 0.
"""

import hashlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Optional

import numpy as np

import qspair  # noqa: F401  (loads every submodule the scan below visits)
from qspair import acceptance


@dataclass
class Target:
    module: str            # qspair submodule
    name: str              # attribute, or Class.method
    stats: tuple = ("calls", "self_s")
    # extra count from (args, kwargs, result), summed over calls
    count: Optional[Callable] = None
    label: Optional[str] = None    # metric prefix when not module.name

    @property
    def key(self):
        return self.label or f"{self.module}.{self.name}"


def _orders(args, kwargs, res):
    return res.order_used


def _leg_mbytes(args, kwargs, res):
    return res.data.nbytes / 1e6


def _nnz_out(args, kwargs, res):
    return sum(len(col) for col in res)


def _nnz_in(args, kwargs, res):
    return sum(len(col) for col in args[0])


def _cells(args, kwargs, res):
    rows, ncols = args
    return len(rows) * ncols


TARGETS = [
    Target("kzmono", "frobenius_monodromy", ("calls", "self_s", "orders"),
           _orders),
    Target("kzmono", "_series_sum_at_half", ("self_s",)),
    Target("kzmono", "_Sylvester.check_resonances", ("self_s",)),
    Target("kzmono", "expm"),
    *(Target("kzmono", f, ("self_s",))
      for f in ("psi_kz", "phi_kz", "identity_residuals", "ribbon_kz")),
    Target("sln", "build_leg_tensor", ("calls", "self_s", "mbytes"),
           _leg_mbytes),
    Target("sln", "place_on_legs", ("self_s",)),
    Target("sln", "permute_legs", ("self_s",)),
    Target("sln", "realize", ("calls", "self_s", "distinct_ratio")),
    Target("rootdata", "build_type_a"),
    Target("satake", "build_aiii", ("calls", "self_s", "distinct_ratio")),
    Target("satake", "cascade", ("self_s",)),
    Target("satake", "partition_roots", ("self_s",)),
    Target("uqsl", "solve_kmatrix"),
    *(Target("uqsl", f, ("self_s",))
      for f in ("coideal_generators", "infer_s_mu_from_eigs",
                "quasi_k_in_rep", "r_matrix")),
    Target("uqsl", "closed_form_kmatrix", ("calls",)),
    Target("braidb", "build_rep"),
    Target("braidb", "relation_residuals", ("self_s", "errors")),
    Target("braidb", "word_matrix", ("self_s",)),
    Target("cohoch", "CochainComplex.differential", ("calls", "self_s", "nnz"),
           _nnz_out),
    Target("cohoch", "rank_of_columns", ("calls", "self_s", "nnz_in"),
           _nnz_in),
    Target("cohoch", "CochainComplex.basis", ("self_s",)),
    Target("cohoch", "make_lie_data", ("self_s",)),
    Target("cohoch", "CochainComplex.invariant_basis", ("self_s",)),
    Target("cohoch", "nullspace_dense", ("calls", "self_s", "cells"), _cells),
    *(Target("acceptance", fn.__name__, ("total_s",),
             label=f"acceptance.criterion_{num}")
      for num, _, fn in acceptance.CRITERIA),
    Target("cli", "emit", ("self_s",)),
    Target("cli", "main", ("total_s",)),
]

_COUNT_STATS = {"orders", "mbytes", "nnz", "nnz_in", "cells"}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "errors": "count",
         "orders": "count", "mbytes": "MB", "distinct_ratio": "ratio",
         "nnz": "count", "nnz_in": "count", "cells": "count"}

# Whole-pass figures of the traced run: untraced and traced wall time of the
# cases, the sum of every span's self time, the traced time no span covers,
# the relative overhead and the cases whose outputs differed.
SUMMARY = {"trace.untraced_s": "s", "trace.traced_s": "s",
           "trace.layer_self_s": "s", "trace.unattributed_s": "s",
           "trace.overhead_frac": "fraction", "trace.mismatches": "count"}


def metric_units():
    """Every per-layer metric name of a traced run, with its unit."""
    out = {f"{t.key}.{s}": UNITS[s] for t in TARGETS for s in t.stats}
    out.update(SUMMARY)
    return out


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0
    count: float = 0.0
    distinct: set = field(default_factory=set)


class Tracer:
    def __init__(self):
        self.stats = {t.key: _Stat() for t in TARGETS}
        self.missing = set()
        self._stack = []   # child-time accumulators of the open spans

    def _wrap(self, target, orig):
        stat = self.stats[target.key]
        want_distinct = "distinct_ratio" in target.stats

        @wraps(orig)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                res = orig(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if target.count is not None:
                stat.count += target.count(args, kwargs, res)
            if want_distinct:
                stat.distinct.add(repr((args, sorted(kwargs.items()))))
            return res

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        saved = []   # (owner, attribute, original)
        try:
            for target in TARGETS:
                saved.extend(self._install(target))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _install(self, target):
        module = sys.modules[f"qspair.{target.module}"]
        cls_name, _, attr = target.name.rpartition(".")
        owner = getattr(module, cls_name, None) if cls_name else module
        if owner is None or attr not in vars(owner):
            self.missing.add(target.key)
            return []
        orig = vars(owner)[attr]
        wrapper = self._wrap(target, orig)
        defined_here = getattr(orig, "__module__", "").startswith("qspair")
        if not cls_name and defined_here:
            return self._rebind_everywhere(orig, wrapper)
        setattr(owner, attr, wrapper)
        return [(owner, attr, orig)]

    @staticmethod
    def _rebind_everywhere(orig, wrapper):
        """Rebind every name a qspair module holds orig by."""
        names = [(m, a) for name, m in list(sys.modules.items())
                 if name == "qspair" or name.startswith("qspair.")
                 for a, v in vars(m).items() if v is orig]
        for m, a in names:
            setattr(m, a, wrapper)
        return [(m, a, orig) for m, a in names]

    def layer_metrics(self):
        out = {}
        for t in TARGETS:
            st = self.stats[t.key]
            for s in t.stats:
                if s in _COUNT_STATS:
                    value = st.count
                elif s == "distinct_ratio":
                    value = len(st.distinct) / st.calls if st.calls else 0.0
                else:
                    value = getattr(st, s)
                out[f"{t.key}.{s}"] = value
        return out

    def self_time(self):
        return sum(st.self_s for st in self.stats.values())


def digest(obj):
    """Hash of an output, exact to the bit for arrays and floats."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"array{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())
