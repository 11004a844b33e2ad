"""Root-system combinatorics with an exact rational bilinear form.

Weights are tuples of exact rationals (ints or Fractions).  For type A_{N-1}
they are coordinate vectors in the L_i basis (L_i reads off the i-th diagonal
entry), with the normalized invariant form (L_i, L_i) = 1 - 1/N,
(L_i, L_j) = -1/N; the roots L_a - L_b carry int coordinates.  For a
generic Cartan matrix, weights live in the simple-root basis and the form is
(alpha_i, alpha_j) = d_i a_{ij}, normalized so short roots have square
length 2.  Everything here is exact; floats never enter.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class RootSystem:
    rank: int
    cartan: tuple            # rank x rank tuple of ints, a_{ij}
    simple_roots: tuple      # weight vectors in the ambient coordinates
    form: tuple              # symmetric Gram matrix on the ambient coordinates
    d: tuple                 # half square lengths d_i = (alpha_i, alpha_i)/2
    positive_roots: tuple    # all positive roots as weight vectors
    ambient: str = "simple"  # "L" for the type A realization

    @property
    def dim_ambient(self):
        return len(self.form)


def pairing(rs, lam, mu):
    """Evaluate the invariant form (lam, mu); always a Fraction.

    On the L coordinates the form is sum lam_i mu_i - (sum lam)(sum mu)/N.
    """
    n = rs.dim_ambient
    if len(lam) != n or len(mu) != n:
        raise ShapeError(
            f"weights must have {n} coordinates, got {len(lam)} and {len(mu)}"
        )
    if rs.ambient == "L":
        return sum(map(mul, lam, mu)) - Fraction(sum(lam) * sum(mu), n)
    mu_support = [(j, Fraction(b)) for j, b in enumerate(mu) if b]
    total = Fraction(0)
    for i, a in enumerate(lam):
        if a == 0:
            continue
        a = Fraction(a)
        row = rs.form[i]
        for j, b in mu_support:
            total += a * row[j] * b
    return total


def coroot(rs, alpha):
    """alpha^vee = 2 alpha / (alpha, alpha)."""
    norm2 = pairing(rs, alpha, alpha)
    return tuple(2 * a / norm2 for a in alpha)


def _add(v, w):
    return tuple(a + b for a, b in zip(v, w))


def _sub(v, w):
    return tuple(a - b for a, b in zip(v, w))


def build_type_a(N):
    """The A_{N-1} root system realized in L_i coordinates."""
    if N < 2:
        raise ParameterError(f"type A needs N >= 2, got N={N}")
    rank = N - 1
    cartan = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
        for i in range(rank)
    )
    diag, off = Fraction(N - 1, N), Fraction(-1, N)
    form = tuple(
        tuple(diag if i == j else off for j in range(N)) for i in range(N)
    )
    simple = []
    for i in range(rank):
        v = [0] * N
        v[i], v[i + 1] = 1, -1
        simple.append(tuple(v))
    pos = []
    for i in range(N):
        for j in range(i + 1, N):
            v = [0] * N
            v[i], v[j] = 1, -1
            pos.append(tuple(v))
    return RootSystem(
        rank=rank,
        cartan=cartan,
        simple_roots=tuple(simple),
        form=form,
        d=tuple(Fraction(1) for _ in range(rank)),
        positive_roots=tuple(pos),
        ambient="L",
    )


def _symmetrizer(cartan):
    """Positive rationals d with d_i a_{ij} = d_j a_{ji}, minimum entry 1."""
    rank = len(cartan)
    d = [None] * rank
    for start in range(rank):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(rank):
                if cartan[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    stack.append(j)
    lo = min(d)
    return tuple(x / lo for x in d)


def build_from_cartan(cartan):
    """Root system for a finite-type Cartan matrix, simple-root coordinates.

    Positive roots are generated height by height using root strings; the
    loop terminates for finite type and is the caller's responsibility
    otherwise.
    """
    rank = len(cartan)
    cartan = tuple(tuple(int(x) for x in row) for row in cartan)
    for i in range(rank):
        if cartan[i][i] != 2:
            raise ParameterError("Cartan diagonal must be 2")
    d = _symmetrizer(cartan)
    form = tuple(
        tuple(d[i] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    simple = []
    for i in range(rank):
        v = [Fraction(0)] * rank
        v[i] = Fraction(1)
        simple.append(tuple(v))

    # generate positive roots by height
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                # q - p = -<beta, alpha_i^vee>; beta + alpha_i is a root iff q > 0
                r = sum(beta[j] * cartan[i][j] for j in range(rank))
                p = 0
                cur = beta
                while True:
                    cur = _sub(cur, simple[i])
                    if cur in roots:
                        p += 1
                    else:
                        break
                q = p - r
                if q > 0:
                    cand = _add(beta, simple[i])
                    if cand not in roots:
                        roots.add(cand)
                        new.append(cand)
        frontier = new
    pos = sorted(roots, key=lambda v: (sum(v), v))
    return RootSystem(
        rank=rank,
        cartan=cartan,
        simple_roots=tuple(simple),
        form=form,
        d=d,
        positive_roots=tuple(pos),
        ambient="simple",
    )


@dataclass(frozen=True)
class RootOrder:
    """Lexicographic order on roots induced by an ordered list of evaluation
    vectors, the first of which is -iZ_nu.

    A root alpha = sum c_i L_i is evaluated on a vector v as sum c_i v_i; the
    sort key is the tuple of evaluations.  The order must be regular: keys of
    distinct roots must differ.
    """

    first_vector: tuple
    extra_vectors: tuple = field(default=())

    def key(self, root):
        support = [(i, c) for i, c in enumerate(root) if c]
        vecs = (self.first_vector,) + self.extra_vectors
        return tuple(sum(c * v[i] for i, c in support) for v in vecs)

    def check_regular(self, roots):
        """The sort keys of roots, in order; raises if two coincide."""
        keys = [self.key(r) for r in roots]
        if len(set(keys)) != len(keys):
            raise ParameterError("degenerate root order: duplicate sort keys")
        return keys

    def sort(self, roots):
        """Roots in increasing order; largest last."""
        self.check_regular(roots)
        return sorted(roots, key=self.key)


def standard_order_type_a(z_nu_diag):
    """Order with -iZ_nu first, completed by the coordinate vectors e_1..e_{N-1}.

    -iZ_nu enters scaled by the lcm of its denominators, so every key is an
    int tuple; a positive scaling changes neither the order nor regularity.
    """
    m = lcm(*(x.denominator for x in z_nu_diag))
    z = tuple(x.numerator * (m // x.denominator) for x in z_nu_diag)
    N = len(z)
    extras = []
    for j in range(N - 1):
        v = [0] * N
        v[j] = 1
        extras.append(tuple(v))
    return RootOrder(first_vector=z, extra_vectors=tuple(extras))
