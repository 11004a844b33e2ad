"""Type-A root combinatorics with an exact rational bilinear form.

Weights of A_{N-1} are tuples of exact rationals (ints or Fractions) in the
L_i basis (L_i reads off the i-th diagonal entry), with the normalized
invariant form (L_i, L_i) = 1 - 1/N, (L_i, L_j) = -1/N; the roots L_a - L_b
carry int coordinates.  Everything here is exact; floats never enter.
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
    simple_roots: tuple      # weight vectors in the L coordinates
    form: tuple              # symmetric Gram matrix on the L coordinates
    d: tuple                 # half square lengths d_i = (alpha_i, alpha_i)/2
    positive_roots: tuple    # all positive roots as weight vectors

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
    return sum(map(mul, lam, mu)) - Fraction(sum(lam) * sum(mu), n)


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
