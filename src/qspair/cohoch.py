"""Weight-graded co-Hochschild complex of a pair h < g, over exact rationals.

The cochain spaces are Sym^c(W) (x) Sym^c(V)^{(x)n} for V = g, W = h in an
adapted basis (the first dim_h basis vectors span h), with the differential

    d T = T_{01,2,...,n+1} - T_{0,12,...,n+1} + ... + (-1)^n T_{0,...,n(n+1)}
          + (-1)^{n+1} T (x) 1,

where each middle term applies the deconcatenation-style coproduct of the
symmetric coalgebra (the dual of polynomial multiplication) to one leg.  The
symmetrization coalgebra isomorphism Sym^c(g) = U(g) makes this compute the
same cohomology as the enveloping-algebra complex; it is never materialized.

d keeps the letter content of a cochain (its exponents summed over the
legs), so C^{n,w} splits into content blocks and no whole C^{n,w} is ever
built: its dimension is a sum of closed-form block sizes, its rank a sum of
block ranks, and its h-invariant counterparts are signed sums over the
torus weights of the blocks.  Both sums run over the orbits of the contents
under the letter permutations that keep the h letters among themselves,
each orbit counted with its signed multiplicity.

Everything is exact: the differential has integer entries, and the one
elimination takes ranks fraction-free over Z, with each column's pivots
found by row key.  Fraction appears only in the structure constants and in
the kernels they are read from.  Rank is discontinuous, so floats never
enter.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from numbers import Rational

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
    """Sparse column-by-column elimination over Q, run fraction-free over Z.

    Each column (a dict rowkey -> int or Fraction) is scaled by the lcm of
    its denominators and reduced against the pivots of the columns before
    it: against a pivot with lead p where the column holds c, col becomes
    (p/g) col - (c/g) pivot for g = gcd(p, c).  What remains becomes a new
    pivot at its first row key, divided by the gcd of its entries, so every
    pivot is a primitive int vector with a positive lead.  Each pivot is zero
    at the row keys of the pivots before it, so a column meets only the
    pivots whose row keys it holds or a subtraction brings in: they are
    found by row key and taken from a heap in pivot order.

    Returns the rank and, with record, the kernel: for each column j that
    reduces to zero, the vanishing combination of input columns as a dict
    index -> Fraction (1 at j, the rest at earlier pivot columns; it is
    unique, since the pivot columns are independent).  Without record the
    kernel is empty.
    """
    pivots = []  # (rowkey, primitive int column, its combination of inputs)
    where = {}   # rowkey -> index of the pivot led there
    kernel = {}
    for j, col in enumerate(cols):
        den = reduce(lcm, (v.denominator for v in col.values()), 1)
        col = {k: v.numerator * (den // v.denominator)
               for k, v in col.items() if v}
        combo = {j: den} if record else None
        heap = [where[k] for k in col if k in where]
        heapify(heap)
        while heap:
            rowkey, pcol, pcombo = pivots[heappop(heap)]
            c = col.get(rowkey)
            if not c:
                continue
            p = pcol[rowkey]
            g = gcd(p, c)
            a, b = p // g, c // g
            if a != 1:
                for k in col:
                    col[k] *= a
            for k, v in pcol.items():
                old = col.get(k)
                if old is None:
                    col[k] = -b * v
                    if k in where:
                        heappush(heap, where[k])
                elif old == b * v:
                    del col[k]
                else:
                    col[k] = old - b * v
            if record:
                if a != 1:
                    for k in combo:
                        combo[k] *= a
                _subtract(combo, b, pcombo)
        if col:
            rowkey = next(iter(col))
            g = reduce(gcd, col.values())
            if record:
                g = reduce(gcd, combo.values(), g)
            if col[rowkey] < 0:
                g = -g
            if g != 1:
                for k in col:
                    col[k] //= g
                if record:
                    for k in combo:
                        combo[k] //= g
            where[rowkey] = len(pivots)
            pivots.append((rowkey, col, combo))
        elif record:
            kernel[j] = {i: Fraction(v, combo[j]) for i, v in combo.items()}
    return len(pivots), kernel


def rank_of_columns(cols):
    """Rank of a list of sparse columns (dicts rowkey -> int or Fraction)."""
    return _eliminate(cols)[0]


# ---------------------------------------------------------------------------
# Lie data

@dataclass
class LieData:
    """Structure constants in an adapted basis; first dim_h vectors span h.

    The torus-weight record: weights[i] is the weight of X_i under a torus
    of h that acts diagonally on the basis, and shifts is a tuple of
    (sign, weight) with dim M^h = sum of sign * dim M_weight for every
    finite-dimensional h-module M, h acting semisimply.  A torus that is
    all of h has the one shift (1, 0); an sl2 with root alpha has
    (1, 0), (-1, alpha), which is dim M^h = m_0 - m_alpha.
    """

    dim: int
    dim_h: int
    bracket: dict          # (a, b) -> dict index -> Fraction, for a < b
    weights: tuple         # one weight tuple per basis vector
    shifts: tuple          # (sign, weight) pairs

    def ad(self, a, b):
        """[X_a, X_b] as a sparse coefficient dict."""
        if a == b:
            return {}
        if a < b:
            return self.bracket.get((a, b), {})
        return {k: -v for k, v in self.bracket.get((b, a), {}).items()}

    def weight(self, content):
        """Torus weight of a monomial with these exponents."""
        return tuple(sum(c * wt[k] for c, wt in zip(content, self.weights))
                     for k in range(len(self.weights[0])))


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


def make_lie_data(matrices, dim_h, torus=(), shifts=None):
    """Structure constants from exact matrices; validates h is a subalgebra.

    The matrix entries must be exact rationals (int or Fraction); anything
    else, a float included, raises ParameterError.  torus indexes the basis
    vectors of h that span the torus, which must act diagonally on the
    basis; shifts defaults to the one shift (1, 0), whose invariants are the
    weight-zero vectors.
    """
    mats = [tuple(tuple(row) for row in m) for m in matrices]
    for x in (x for m in mats for row in m for x in row):
        if not isinstance(x, Rational):
            raise ParameterError(
                f"Lie data entries must be exact rationals, got {x!r}")
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
    lie = LieData(dim=dim, dim_h=dim_h, bracket=bracket, weights=(),
                  shifts=shifts or ((1, (0,) * len(torus)),))
    acts = [[lie.ad(t, i) for t in torus] for i in range(dim)]
    if any(set(act) - {i} for i, row in enumerate(acts) for act in row):
        raise DomainError("the torus does not act diagonally on the basis")
    lie.weights = tuple(tuple(_exact(act.get(i, 0)) for act in row)
                        for i, row in enumerate(acts))
    return lie


def _exact(x):
    """x as an int when it is one, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def _E(n, i, j):
    return tuple(tuple(int((a, b) == (i, j)) for b in range(n))
                 for a in range(n))


def _madd(*terms):
    n = len(terms[0][1])
    out = [[0] * n for _ in range(n)]
    for c, m in terms:
        for i in range(n):
            for j in range(n):
                out[i][j] += c * m[i][j]
    return tuple(tuple(row) for row in out)


def sl2_data(subalgebra="zero"):
    e, f = _E(2, 0, 1), _E(2, 1, 0)
    hh = _madd((1, _E(2, 0, 0)), (-1, _E(2, 1, 1)))
    if subalgebra == "zero":
        return make_lie_data([e, hh, f], 0)
    if subalgebra == "cartan":
        return make_lie_data([hh, e, f], 1, torus=(0,))
    raise ParameterError(f"sl2 supports zero|cartan, got {subalgebra!r}")


def sl3_data(subalgebra="zero"):
    """sl3 with h = 0, the Cartan subalgebra, or so3.

    so3 is taken as the principal sl2, e = E01 + E12, h = diag(1, 0, -1),
    f = E10 + E21, completed by E02, E01, E10, E20, diag(1, -2, 1); every
    basis vector is an ad h weight vector.  This basis replaced the
    antisymmetric one, E_ij - E_ji: both subalgebras are the image of the
    irreducible 3-dimensional representation, so they are conjugate in
    GL_3(C) and the cohomology tables agree, but only this one lets the
    invariant tables be counted from torus weights.
    """
    hs = [
        _madd((1, _E(3, 0, 0)), (-1, _E(3, 1, 1))),
        _madd((1, _E(3, 1, 1)), (-1, _E(3, 2, 2))),
    ]
    es = [_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)]
    fs = [_E(3, 1, 0), _E(3, 2, 0), _E(3, 2, 1)]
    if subalgebra == "zero":
        return make_lie_data(hs + es + fs, 0)
    if subalgebra == "cartan":
        return make_lie_data(hs + es + fs, 2, torus=(0, 1))
    if subalgebra == "so3":
        principal = [
            _madd((1, _E(3, 0, 1)), (1, _E(3, 1, 2))),
            _madd((1, _E(3, 0, 0)), (-1, _E(3, 2, 2))),
            _madd((1, _E(3, 1, 0)), (1, _E(3, 2, 1))),
        ]
        rest = [_E(3, 0, 2), _E(3, 0, 1), _E(3, 1, 0), _E(3, 2, 0),
                _madd((1, _E(3, 0, 0)), (-2, _E(3, 1, 1)), (1, _E(3, 2, 2)))]
        return make_lie_data(principal + rest, 3, torus=(1,),
                             shifts=((1, (0,)), (-1, (1,))))
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
    """C^{n,w} as a direct sum of letter-content blocks.

    A basis element of C^n is a tuple (m0, m1, ..., mn) of exponent tuples,
    m0 over the letters of h (the W leg) and the rest over all letters.  An
    h letter spreads its exponent over n + 1 legs, any other letter over
    the n legs of V.
    """

    lie: LieData
    max_degree: int
    max_weight: int
    _block_rank_cache: dict = field(default_factory=dict, init=False)
    _splits_cache: dict = field(default_factory=dict, init=False)
    _orbit_tables: dict = field(default_factory=dict, init=False)

    def block(self, n, content):
        """Basis of the block of C^n with this letter content."""
        dh = self.lie.dim_h
        spreads = [monomials(n + 1 if i < dh else n, c)
                   for i, c in enumerate(content)]
        out = []
        for spread in itertools.product(*spreads):
            legs = list(zip(*(s if i < dh else (0,) + s
                              for i, s in enumerate(spread))))
            out.append((legs[0][:dh],) + tuple(legs[1:]))
        return out

    def block_size(self, n, content):
        """len(block(n, content)) in closed form: an exponent c spreads over
        L legs in C(c + L - 1, L - 1) ways."""
        size = 1
        for i, c in enumerate(content):
            legs = n + 1 if i < self.lie.dim_h else n
            size *= comb(c + legs - 1, legs - 1) if legs else int(c == 0)
        return size

    def _splits(self, m):
        """The module's _splits(m) as a tuple, built once per exponent tuple."""
        if m not in self._splits_cache:
            self._splits_cache[m] = tuple(_splits(m))
        return self._splits_cache[m]

    def _column(self, elt):
        """d of one basis element of C^n as a sparse dict."""
        d = self.lie.dim
        col = {}

        def add(target, coeff):
            col[target] = col.get(target, 0) + coeff

        m0, rest = elt[0], elt[1:]
        # j = 0: coproduct on the W leg, second factor lands in V
        for a, b, coeff in self._splits(m0):
            add((a, _embed(b, d)) + rest, coeff)
        # j = 1..n: coproduct on V legs
        for j in range(len(rest)):
            for a, b, coeff in self._splits(rest[j]):
                target = (m0,) + rest[:j] + (a, b) + rest[j + 1:]
                add(target, (-1) ** (j + 1) * coeff)
        # final counit-style term T (x) 1
        unit = (0,) * d
        add(elt + (unit,), (-1) ** (len(rest) + 1))
        return {k: v for k, v in col.items() if v}

    def _orbit(self, content):
        """The sorted content of the h letters and of the other letters."""
        dh = self.lie.dim_h
        return tuple(sorted(content[:dh])), tuple(sorted(content[dh:]))

    def block_rank(self, n, content):
        """Rank of d on the block of C^n with this letter content.

        A permutation of the letters that keeps the h letters among
        themselves maps basis elements to basis elements and commutes with
        d, so the rank depends only on n and the sorted content of each kind
        of letter; it is computed once for each such orbit.
        """
        key = (n,) + self._orbit(content)
        if key not in self._block_rank_cache:
            self._block_rank_cache[key] = rank_of_columns(
                [self._column(e) for e in self.block(n, content)])
        return self._block_rank_cache[key]

    def _orbit_table(self, w, invariant):
        """(signed multiplicity, representative) of each orbit of block_rank
        among the weight-w contents, built once per (w, invariant).

        A content counts 1, or for the h-invariants the sign of the shift its
        torus weight equals, 0 if none: d is h-equivariant, so the invariant
        dimension and rank follow from the weight spaces, sums of blocks.
        """
        key = (w, invariant)
        if key not in self._orbit_tables:
            table = {}
            for content in monomials(self.lie.dim, w):
                sign = 1
                if invariant:
                    weight = self.lie.weight(content)
                    sign = sum(s for s, shift in self.lie.shifts
                               if shift == weight)
                if sign:
                    orbit = self._orbit(content)
                    mult, rep = table.get(orbit, (0, content))
                    table[orbit] = (mult + sign, rep)
            self._orbit_tables[key] = [entry for entry in table.values()
                                       if entry[0]]
        return self._orbit_tables[key]

    def _count(self, n, w, invariant, per_block):
        """Sum of per_block(n, content) over the blocks of C^{n,w}, one call
        per orbit: block sizes and ranks depend only on the orbit."""
        return sum(mult * per_block(n, rep)
                   for mult, rep in self._orbit_table(w, invariant))

    def dim(self, n, w, invariant=False):
        """dim C^{n,w}, or of its h-invariants."""
        return self._count(n, w, invariant, self.block_size)

    def rank(self, n, w, invariant=False):
        """rank d^{n,w} on C^{n,w}, or on its h-invariants."""
        if n < 0:
            return 0
        return self._count(n, w, invariant, self.block_rank)

    def check_d_squared(self, n, w):
        """Exact d . d = 0 at bidegree (n, w), block by block."""
        for content in monomials(self.lie.dim, w):
            for elt in self.block(n, content):
                acc = {}
                for target, coeff in self._column(elt).items():
                    _subtract(acc, -coeff, self._column(target))
                if acc:
                    return False
        return True


def build_complex(lie, max_degree=3, max_weight=4):
    if max_degree < 1 or max_weight < 1:
        raise ParameterError("bounds must be at least 1")
    return CochainComplex(lie=lie, max_degree=max_degree, max_weight=max_weight)


# ---------------------------------------------------------------------------
# cohomology

def cohomology_dims(cc, invariant=False):
    """dim H^{n,w} for n <= max_degree, w <= max_weight; exact integers."""
    return {(n, w): (cc.dim(n, w, invariant) - cc.rank(n, w, invariant)
                     - cc.rank(n - 1, w, invariant))
            for w in range(cc.max_weight + 1)
            for n in range(cc.max_degree + 1)}


def cocycle_is_coboundary(cc, n, vector):
    """Whether a cocycle of C^n (dict basis elt -> Fraction) is in im(d).

    d keeps the letter content, so it is one exactly when each of its
    content parts is in the image of its block of C^{n-1}.
    """
    parts = {}
    for elt, coeff in vector.items():
        parts.setdefault(_content(elt, cc.lie.dim), {})[elt] = coeff
    for content, part in parts.items():
        cols = [cc._column(e) for e in cc.block(n - 1, content)]
        if rank_of_columns(cols + [part]) != cc.block_rank(n - 1, content):
            return False
    return True
