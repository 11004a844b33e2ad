"""Weight-graded co-Hochschild complex of a pair h < g, over exact rationals.

The cochain spaces are Sym^c(W) (x) Sym^c(V)^{(x)n} for V = g, W = h in an
adapted basis (the first dim_h basis vectors span h), with the differential

    d T = T_{01,2,...,n+1} - T_{0,12,...,n+1} + ... + (-1)^n T_{0,...,n(n+1)}
          + (-1)^{n+1} T (x) 1,

where each middle term applies the deconcatenation-style coproduct of the
symmetric coalgebra (the dual of polynomial multiplication) to one leg.  The
symmetrization coalgebra isomorphism Sym^c(g) = U(g) makes this compute the
same cohomology as the enveloping-algebra complex; it is never materialized.

Everything is exact: the differential has integer entries and the
elimination works over Fractions.  Rank is discontinuous, so floats never
enter.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import DomainError, ParameterError


# ---------------------------------------------------------------------------
# exact linear algebra (sparse, over Q)

def _subtract(vec, c, other):
    """vec -= c * other for sparse dicts, dropping the entries that cancel."""
    for k, v in other.items():
        new = vec.get(k, 0) - c * v
        if new:
            vec[k] = new
        else:
            vec.pop(k, None)


def _eliminate(cols, record=False):
    """Sparse column-by-column elimination over Q.

    Each column (a dict rowkey -> int or Fraction) is reduced against the
    pivots of the columns before it; what remains becomes a new pivot,
    normalized at its first row key.  Returns the rank and, with record, the
    kernel: for each column j that reduces to zero, the vanishing combination
    of input columns as a dict index -> Fraction (1 at j, the rest at earlier
    pivot columns).  Without record the kernel is empty.
    """
    pivots = []  # (rowkey, normalized column, its combination of inputs)
    kernel = {}
    for j, col in enumerate(cols):
        col = {k: v for k, v in col.items() if v}
        combo = {j: Fraction(1)} if record else None
        for rowkey, pcol, pcombo in pivots:
            c = col.get(rowkey)
            if c:
                _subtract(col, c, pcol)
                if record:
                    _subtract(combo, c, pcombo)
        if col:
            rowkey = next(iter(col))
            inv = 1 / Fraction(col[rowkey])
            pcombo = {k: v * inv for k, v in combo.items()} if record else None
            pivots.append((rowkey, {k: v * inv for k, v in col.items()},
                           pcombo))
        elif record:
            kernel[j] = combo
    return len(pivots), kernel


def rank_of_columns(cols):
    """Rank of a list of sparse columns (dicts rowkey -> int or Fraction)."""
    return _eliminate(cols)[0]


# ---------------------------------------------------------------------------
# Lie data

@dataclass
class LieData:
    """Structure constants in an adapted basis; first dim_h vectors span h."""

    dim: int
    dim_h: int
    bracket: dict          # (a, b) -> dict index -> Fraction, for a < b
    names: tuple = ()

    def ad(self, a, b):
        """[X_a, X_b] as a sparse coefficient dict."""
        if a == b:
            return {}
        if a < b:
            return self.bracket.get((a, b), {})
        return {k: -v for k, v in self.bracket.get((b, a), {}).items()}

    def diagonal_weights(self):
        """Weight of each basis vector under h, a tuple with one entry per
        basis vector of h, when h acts diagonally on the basis (ad(c, i) lies
        in span{X_i}, as for a Cartan subalgebra); None otherwise."""
        weights = []
        for i in range(self.dim):
            acts = [self.ad(c, i) for c in range(self.dim_h)]
            if any(set(act) - {i} for act in acts):
                return None
            weights.append(tuple(act.get(i, 0) for act in acts))
        return weights


def _comm(a, b):
    n = len(a)
    return tuple(
        tuple(
            sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _entries(m):
    """A matrix as a column over its (row, column) positions."""
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row)}


def make_lie_data(matrices, dim_h, names=()):
    """Structure constants from exact matrices; validates h is a subalgebra."""
    mats = [tuple(tuple(Fraction(x) for x in row) for row in m)
            for m in matrices]
    dim = len(mats)
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    # expand every bracket in the basis by one elimination: the basis columns
    # first, then the brackets, each of which must reduce to zero
    _, kernel = _eliminate(
        [_entries(m) for m in mats]
        + [_entries(_comm(mats[a], mats[b])) for a, b in pairs], record=True)
    bracket = {}
    for k, pair in enumerate(pairs):
        combo = kernel.get(dim + k)
        if combo is None:
            raise DomainError("element not in the span of the basis")
        entry = {i: -combo[i] for i in sorted(combo) if i < dim}
        if entry:
            bracket[pair] = entry
    for a in range(dim_h):
        for b in range(a + 1, dim_h):
            if any(i >= dim_h for i in bracket.get((a, b), {})):
                raise DomainError("h is not a subalgebra")
    return LieData(dim=dim, dim_h=dim_h, bracket=bracket, names=tuple(names))


def _E(n, i, j):
    return tuple(
        tuple(Fraction(1) if (a, b) == (i, j) else Fraction(0)
              for b in range(n))
        for a in range(n)
    )


def _madd(*terms):
    n = len(terms[0][1])
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, m in terms:
        for i in range(n):
            for j in range(n):
                out[i][j] += c * m[i][j]
    return tuple(tuple(row) for row in out)


def sl2_data(subalgebra="zero"):
    e, f = _E(2, 0, 1), _E(2, 1, 0)
    hh = _madd((Fraction(1), _E(2, 0, 0)), (Fraction(-1), _E(2, 1, 1)))
    if subalgebra == "zero":
        return make_lie_data([e, hh, f], 0, names=("e", "h", "f"))
    if subalgebra == "cartan":
        return make_lie_data([hh, e, f], 1, names=("h", "e", "f"))
    raise ParameterError(f"sl2 supports zero|cartan, got {subalgebra!r}")


def sl3_data(subalgebra="zero"):
    hs = [
        _madd((Fraction(1), _E(3, 0, 0)), (Fraction(-1), _E(3, 1, 1))),
        _madd((Fraction(1), _E(3, 1, 1)), (Fraction(-1), _E(3, 2, 2))),
    ]
    es = [_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)]
    fs = [_E(3, 1, 0), _E(3, 2, 0), _E(3, 2, 1)]
    if subalgebra == "zero":
        return make_lie_data(hs + es + fs, 0)
    if subalgebra == "cartan":
        return make_lie_data(hs + es + fs, 2)
    if subalgebra == "so3":
        anti = [
            _madd((Fraction(1), _E(3, 0, 1)), (Fraction(-1), _E(3, 1, 0))),
            _madd((Fraction(1), _E(3, 0, 2)), (Fraction(-1), _E(3, 2, 0))),
            _madd((Fraction(1), _E(3, 1, 2)), (Fraction(-1), _E(3, 2, 1))),
        ]
        sym = [
            _madd((Fraction(1), _E(3, 0, 1)), (Fraction(1), _E(3, 1, 0))),
            _madd((Fraction(1), _E(3, 0, 2)), (Fraction(1), _E(3, 2, 0))),
            _madd((Fraction(1), _E(3, 1, 2)), (Fraction(1), _E(3, 2, 1))),
        ]
        return make_lie_data(anti + sym + hs, 3)
    raise ParameterError(f"sl3 supports zero|cartan|so3, got {subalgebra!r}")


# ---------------------------------------------------------------------------
# monomials

def monomials(dim, degree):
    """Exponent tuples of total degree over dim letters."""
    if dim == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], degree, dim)
    return out


def _splits(m):
    """All (a, b, binomial coefficient) with a + b = m componentwise."""
    ranges = [range(x + 1) for x in m]
    for a in itertools.product(*ranges):
        coeff = 1
        for ai, mi in zip(a, m):
            coeff *= comb(mi, ai)
        b = tuple(mi - ai for ai, mi in zip(a, m))
        yield a, b, coeff


def _embed(m_w, dim):
    """Include a W-monomial into V by zero padding."""
    return tuple(m_w) + (0,) * (dim - len(m_w))


def _content(elt, dim):
    """Letter content of a basis element: its exponents summed over the legs,
    the W leg padded into V.  d maps each element to elements of the same
    content."""
    return tuple(map(sum, zip(_embed(elt[0], dim), *elt[1:])))


# ---------------------------------------------------------------------------
# the complex

@dataclass
class CochainComplex:
    lie: LieData
    max_degree: int
    max_weight: int
    _basis_cache: dict = field(default_factory=dict)
    _diff_cache: dict = field(default_factory=dict)
    _inv_cache: dict = field(default_factory=dict)
    _block_cache: dict = field(default_factory=dict)
    _block_rank_cache: dict = field(default_factory=dict)
    _rank_cache: dict = field(default_factory=dict)

    def basis(self, n, w):
        """Basis of C^{n,w}: tuples (m0, m1, ..., mn) of exponent tuples."""
        key = (n, w)
        if key in self._basis_cache:
            return self._basis_cache[key]
        d, dh = self.lie.dim, self.lie.dim_h
        out = []
        for w0 in range(w + 1):
            for m0 in monomials(dh, w0):
                for rest_w in monomials(n, w - w0):
                    for rest in itertools.product(
                            *[monomials(d, k) for k in rest_w]):
                        out.append((m0,) + rest)
        self._basis_cache[key] = out
        return out

    def _column(self, elt):
        """d of one basis element of C^n as a sparse dict."""
        d = self.lie.dim
        col = {}

        def add(target, coeff):
            col[target] = col.get(target, 0) + coeff

        m0, rest = elt[0], elt[1:]
        # j = 0: coproduct on the W leg, second factor lands in V
        for a, b, coeff in _splits(m0):
            add((a, _embed(b, d)) + rest, coeff)
        # j = 1..n: coproduct on V legs
        for j in range(len(rest)):
            for a, b, coeff in _splits(rest[j]):
                target = (m0,) + rest[:j] + (a, b) + rest[j + 1:]
                add(target, (-1) ** (j + 1) * coeff)
        # final counit-style term T (x) 1
        unit = (0,) * d
        add(elt + (unit,), (-1) ** (len(rest) + 1))
        return {k: v for k, v in col.items() if v}

    def differential(self, n, w):
        """Sparse columns of d: C^{n,w} -> C^{n+1,w}, one per basis element."""
        key = (n, w)
        if key not in self._diff_cache:
            self._diff_cache[key] = [self._column(e) for e in self.basis(n, w)]
        return self._diff_cache[key]

    def blocks(self, n, w):
        """The basis of C^{n,w} grouped by letter content: content -> basis
        elements, in basis order."""
        key = (n, w)
        if key not in self._block_cache:
            groups = {}
            for elt in self.basis(n, w):
                groups.setdefault(_content(elt, self.lie.dim), []).append(elt)
            self._block_cache[key] = groups
        return self._block_cache[key]

    def block_rank(self, n, content):
        """Rank of d on the block of C^n with this letter content.

        A permutation of the letters that keeps the h letters among
        themselves maps basis elements to basis elements and commutes with
        d, so the rank depends only on n and the sorted content of each kind
        of letter; it is computed once for each such orbit.
        """
        dh = self.lie.dim_h
        key = (n, tuple(sorted(content[:dh])), tuple(sorted(content[dh:])))
        if key not in self._block_rank_cache:
            elts = self.blocks(n, sum(content))[content]
            self._block_rank_cache[key] = rank_of_columns(
                [self._column(e) for e in elts])
        return self._block_rank_cache[key]

    def rank(self, n, w, invariant=False):
        """rank d^{n,w} on C^{n,w}, or on its h-invariants; computed once."""
        if n < 0:
            return 0
        key = (n, w, invariant)
        if key not in self._rank_cache:
            compute = _rank_invariant if invariant else _rank_plain
            self._rank_cache[key] = compute(self, n, w)
        return self._rank_cache[key]

    def check_d_squared(self, n, w):
        """Exact d . d = 0 at bidegree (n, w)."""
        cols_n = self.differential(n, w)
        cols_n1 = self.differential(n + 1, w)
        index = {elt: i for i, elt in enumerate(self.basis(n + 1, w))}
        for col in cols_n:
            acc = {}
            for target, coeff in col.items():
                for t2, c2 in cols_n1[index[target]].items():
                    acc[t2] = acc.get(t2, Fraction(0)) + coeff * c2
            if any(v != 0 for v in acc.values()):
                return False
        return True

    def invariant_contents(self, n, w):
        """The contents of C^{n,w} of weight zero when h acts diagonally on
        the basis (then these blocks span the invariants); None otherwise."""
        weights = self.lie.diagonal_weights()
        if weights is None:
            return None
        return [content for content in self.blocks(n, w)
                if all(sum(e * wt[c] for e, wt in zip(content, weights)) == 0
                       for c in range(self.lie.dim_h))]

    def invariant_basis(self, n, w):
        """Rational basis of the h-invariants in C^{n,w}, as sparse vectors
        (dicts basis element -> Fraction).

        When h acts diagonally, each basis element is a weight vector whose
        weight is fixed by its content, and the invariants are the weight-zero
        basis elements.  Otherwise they are the kernel of the h action.
        """
        key = (n, w)
        if key in self._inv_cache:
            return self._inv_cache[key]
        contents = self.invariant_contents(n, w)
        if contents is not None:
            blocks = self.blocks(n, w)
            kernel = [{elt: Fraction(1)}
                      for content in contents for elt in blocks[content]]
        else:
            # h acts by derivations on each leg, so it keeps the degree of
            # every leg: one kernel per leg-degree shape
            shapes = {}
            for elt in self.basis(n, w):
                shapes.setdefault(tuple(map(sum, elt)), []).append(elt)
            kernel = []
            for elts in shapes.values():
                _, vanishing = _eliminate(
                    [self._h_column(elt) for elt in elts], record=True)
                kernel += [{elts[i]: c for i, c in combo.items()}
                           for combo in vanishing.values()]
        self._inv_cache[key] = kernel
        return kernel

    def _h_column(self, elt):
        """The adjoint action of h on one basis element of a cochain space,
        as a sparse dict (c, target) -> Fraction for basis vector c of h."""
        col = {}
        for c in range(self.lie.dim_h):
            for leg, m in enumerate(elt):
                for i, exp in enumerate(m):
                    if exp == 0:
                        continue
                    for t, coeff in self.lie.ad(c, i).items():
                        if leg == 0 and t >= self.lie.dim_h:
                            # impossible: h is a subalgebra, adapted basis
                            raise DomainError("h action left the W leg")
                        lowered = list(m)
                        lowered[i] -= 1
                        lowered[t] += 1
                        key = (c, elt[:leg] + (tuple(lowered),)
                               + elt[leg + 1:])
                        col[key] = col.get(key, 0) + exp * coeff
        return col


def build_complex(lie, max_degree=3, max_weight=4):
    if max_degree < 1 or max_weight < 1:
        raise ParameterError("bounds must be at least 1")
    return CochainComplex(lie=lie, max_degree=max_degree, max_weight=max_weight)


# ---------------------------------------------------------------------------
# cohomology

def _rank_plain(cc, n, w):
    """rank d^{n,w}: the sum of its block ranks, blocks by letter content."""
    return sum(cc.block_rank(n, content) for content in cc.blocks(n, w))


def _rank_invariant(cc, n, w):
    """rank of d^{n,w} on the h-invariants."""
    contents = cc.invariant_contents(n, w)
    if contents is not None:
        # the invariants are whole blocks, and d keeps them in the invariants
        return sum(cc.block_rank(n, content) for content in contents)
    columns = {}   # d of each basis element in the support, built once
    combined = []
    for vec in cc.invariant_basis(n, w):
        acc = {}
        for elt, coeff in vec.items():
            if elt not in columns:
                columns[elt] = cc._column(elt)
            _subtract(acc, -coeff, columns[elt])
        combined.append(acc)
    return rank_of_columns(combined)


def _dim(cc, n, w, invariant):
    return len(cc.invariant_basis(n, w)) if invariant else len(cc.basis(n, w))


def cohomology_dims(cc, invariant=False):
    """dim H^{n,w} for n <= max_degree, w <= max_weight; exact integers."""
    return {(n, w): (_dim(cc, n, w, invariant) - cc.rank(n, w, invariant)
                     - cc.rank(n - 1, w, invariant))
            for w in range(cc.max_weight + 1)
            for n in range(cc.max_degree + 1)}


def euler_characteristic_check(cc, w, invariant=False):
    """Alternating sums of space and cohomology dims agree at weight w.

    With the window truncated at top degree T the rank terms telescope to
    chi(H) = chi(C) - (-1)^T rank d^T; returns True when the exact integers
    satisfy this.
    """
    dims = cohomology_dims(cc, invariant=invariant)
    top = cc.max_degree
    chi_h = sum((-1) ** n * dims[(n, w)] for n in range(top + 1))
    chi_c = sum((-1) ** n * _dim(cc, n, w, invariant) for n in range(top + 1))
    return chi_h == chi_c - (-1) ** top * cc.rank(top, w, invariant)


def primitive_cocycle(cc, letters):
    """The cochain 1 (x) X_{i1} (x) ... (x) X_{in} as a sparse vector index."""
    d = cc.lie.dim
    m0 = (0,) * cc.lie.dim_h
    legs = []
    for i in letters:
        m = [0] * d
        m[i] = 1
        legs.append(tuple(m))
    return (m0,) + tuple(legs)


def cocycle_is_coboundary(cc, n, w, elt_vector):
    """Whether a cocycle (dense dict basis elt -> Fraction) is in im(d)."""
    cols = cc.differential(n - 1, w)
    return rank_of_columns(cols + [elt_vector]) == cc.rank(n - 1, w)
