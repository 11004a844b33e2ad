"""Involution combinatorics: Satake data, cascades and restricted roots.

The types are generic over a realized root system; the shipped constructors
cover the AIII family s(u_p + u_{N-p}) < su_N, which is S-type for N = 2p and
C-type for p < N/2.  Simple roots are labelled 1..N-1 as usual.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress

from .errors import DomainError, ParameterError, StructuralError
from . import rootdata
from .rootdata import build_type_a, pairing, standard_order_type_a


@dataclass(frozen=True)
class SatakeData:
    root_system: rootdata.RootSystem
    N: int
    p: int
    X: frozenset              # black simple-root labels (1-based)
    tau: dict                 # diagram involution on labels
    theta_on_weights: tuple   # matrix of Theta on L coordinates
    hermitian_tag: str        # "S", "C" or "nonHermitian"
    distinguished: frozenset  # 1 or 2 labels
    cascade: tuple            # gamma_1 .. gamma_s, strongly orthogonal
    z_nu: tuple               # -iZ_nu as a rational diagonal vector

    def simple_root(self, i):
        return self.root_system.simple_roots[i - 1]

    def is_compact(self, root):
        """A root is compact iff it vanishes on z(u^nu), i.e. on Z_nu."""
        return sum(c * self.z_nu[i] for i, c in enumerate(root) if c) == 0


@dataclass(frozen=True)
class RootPartition:
    P0: tuple
    C0: tuple
    Pi: dict   # i -> tuple of roots restricting to gamma_i / 2, noncompact
    Ci: dict
    Pij: dict  # (i, j), i < j -> roots restricting to (gamma_i + gamma_j)/2
    Cij: dict  # (i, j) -> roots restricting to (gamma_i - gamma_j)/2


def _apply_matrix(mat, vec):
    support = [j for j, x in enumerate(vec) if x]
    return tuple(sum(row[j] * vec[j] for j in support) for row in mat)


def _tau_matrix(N):
    # diagram flip i -> N-i on labels acts on weights by L_i -> -L_{N+1-i}
    mat = []
    for i in range(N):
        row = [0] * N
        row[N - 1 - i] = -1
        mat.append(tuple(row))
    return tuple(mat)


def _mat_mul(A, B):
    m = len(B[0])
    out = []
    for row in A:
        support = [k for k, x in enumerate(row) if x]
        out.append(tuple(sum(row[k] * B[k][j] for k in support)
                         for j in range(m)))
    return tuple(out)


def longest_element_wx(N, p):
    """Matrix of w_X on the L coordinates, X = {p+1, ..., N-p-1}: the longest
    element of the parabolic Weyl group W_X, which permutes L_{p+1}, ...,
    L_{N-p}, reverses them."""
    perm = list(range(N))
    perm[p:N - p] = reversed(perm[p:N - p])
    return tuple(
        tuple(1 if j == perm[i] else 0 for j in range(N))
        for i in range(N)
    )


def build_aiii(N, p):
    """Satake data for s(u_p + u_{N-p}) < su_N, with 0 < p <= N/2."""
    if N < 2 or p < 1 or 2 * p > N:
        raise ParameterError(f"AIII needs 0 < p <= N/2, got N={N}, p={p}")
    rs = build_type_a(N)
    X = frozenset(range(p + 1, N - p))  # {p+1, ..., N-p-1}, possibly empty
    tau = {i: N - i for i in range(1, N)}
    tag = "S" if N == 2 * p else "C"
    distinguished = frozenset({p}) if tag == "S" else frozenset({p, N - p})

    # Theta = -w_X . tau on weights
    tau_mat = _tau_matrix(N)
    wx = longest_element_wx(N, p)
    theta = _mat_mul(wx, tau_mat)
    theta = tuple(tuple(-x for x in row) for row in theta)

    z_nu = tuple(
        Fraction(N - p, N) if i < p else Fraction(-p, N) for i in range(N)
    )

    sd = SatakeData(
        root_system=rs,
        N=N,
        p=p,
        X=X,
        tau=tau,
        theta_on_weights=theta,
        hermitian_tag=tag,
        distinguished=distinguished,
        cascade=(),
        z_nu=z_nu,
    )
    return replace(sd, cascade=cascade(sd))


def theta_weight(sd, lam):
    return _apply_matrix(sd.theta_on_weights, lam)


def restricted_half_root(sd, i):
    """alpha_i^- = (alpha_i - Theta(alpha_i)) / 2."""
    a = sd.simple_root(i)
    ta = theta_weight(sd, a)
    return tuple(Fraction(x - y, 2) for x, y in zip(a, ta))


def _is_root(vec):
    """Whether a sparse weight {coordinate: value} is a type-A root L_a - L_b:
    exactly two nonzero coordinates, one 1 and one -1."""
    return sorted(c for c in vec.values() if c) == [-1, 1]


def cascade(sd):
    """Harish-Chandra cascade of strongly orthogonal noncompact roots.

    gamma_1 is the largest root in the lexicographic order with -iZ_nu first,
    completed by the coordinate vectors e_1..e_{N-1}
    (rootdata.standard_order_type_a); gamma_{k+1} is the largest root
    orthogonal to all previous H_{gamma_i}; the construction stops once every
    remaining root is compact.  A root's sort key is the int tuple
    (z . root,) + root[:-1], with z = -iZ_nu scaled to integers, and the root
    is compact exactly when z . root = 0.
    """
    rs = sd.root_system
    z = standard_order_type_a(sd.z_nu).first_vector
    # (sort key, root, support) of each root centralizing every H_{gamma_i};
    # two positive roots L_a - L_b pair to 0 exactly when their supports
    # {a, b} are disjoint
    central = []
    for r in rs.positive_roots:
        support = tuple(compress(range(len(r)), r))
        central.append(((sum(r[i] * z[i] for i in support),) + r[:-1], r,
                        support))
    gammas = []
    while central and any(entry[0][0] for entry in central):
        key, gamma, support = max(central, key=lambda entry: entry[0])
        if key[0] == 0:
            raise StructuralError("cascade selected a compact root")
        gammas.append((gamma, support))
        used = set(support)
        central = [entry for entry in central if used.isdisjoint(entry[2])]
    # strong orthogonality: gamma_i +- gamma_j is never a root
    for a, sa in gammas:
        for b, sb in gammas:
            if a is b:
                continue
            for sign in (1, -1):
                vec = {i: a[i] for i in sa}
                for i in sb:
                    vec[i] = vec.get(i, 0) + sign * b[i]
                if _is_root(vec):
                    raise StructuralError(
                        "cascade roots not strongly orthogonal")
    return tuple(gamma for gamma, _ in gammas)


def partition_roots(sd):
    """Partition Phi^+ by restriction to span{H_{gamma_i}}.

    Each positive root restricts to 0, gamma_i, gamma_i/2 or
    (gamma_i +- gamma_j)/2; anything else signals a bug or an unsupported
    symmetric pair.
    """
    rs = sd.root_system
    gammas = sd.cascade
    s = len(gammas)
    P0, C0 = [], []
    Pi = {i: [] for i in range(1, s + 1)}
    Ci = {i: [] for i in range(1, s + 1)}
    Pij = {(i, j): [] for i in range(1, s + 1) for j in range(i + 1, s + 1)}
    Cij = {(i, j): [] for i in range(1, s + 1) for j in range(i + 1, s + 1)}

    for alpha in rs.positive_roots:
        # coefficients of the restriction in the gamma basis (orthogonal set)
        coeffs = tuple(
            pairing(rs, alpha, g) / pairing(rs, g, g) for g in gammas
        )
        nonzero = [(k + 1, c) for k, c in enumerate(coeffs) if c != 0]
        compact = sd.is_compact(alpha)
        if not nonzero:
            if not compact:
                raise StructuralError(f"noncompact root {alpha} restricts to 0")
            C0.append(alpha)
        elif len(nonzero) == 1:
            k, c = nonzero[0]
            if c == 1:
                if compact:
                    raise StructuralError(f"compact root {alpha} restricts to gamma_{k}")
                P0.append(alpha)
            elif c == Fraction(1, 2):
                (Ci if compact else Pi)[k].append(alpha)
            else:
                raise StructuralError(f"root {alpha} has restriction {c} gamma_{k}")
        elif len(nonzero) == 2:
            (i, ci), (j, cj) = nonzero
            if ci == Fraction(1, 2) and cj == Fraction(1, 2):
                if compact:
                    raise StructuralError(f"compact root {alpha} in P_ij pattern")
                Pij[(i, j)].append(alpha)
            elif ci == Fraction(1, 2) and cj == Fraction(-1, 2):
                if not compact:
                    raise StructuralError(f"noncompact root {alpha} in C_ij pattern")
                Cij[(i, j)].append(alpha)
            else:
                raise StructuralError(f"root {alpha} restriction not recognized")
        else:
            raise StructuralError(f"root {alpha} meets more than two cascade roots")

    return RootPartition(
        P0=tuple(P0),
        C0=tuple(C0),
        Pi={k: tuple(v) for k, v in Pi.items()},
        Ci={k: tuple(v) for k, v in Ci.items()},
        Pij={k: tuple(v) for k, v in Pij.items()},
        Cij={k: tuple(v) for k, v in Cij.items()},
    )


def dim_m(sd):
    """Real dimension of m = u minus k: two per noncompact positive root."""
    return 2 * sum(
        0 if sd.is_compact(r) else 1 for r in sd.root_system.positive_roots
    )


def normalization_constants(sd):
    """a_sigma = sqrt(2 h^vee c / dim m) plus the S-type Z_nu formula check.

    For type A the dual Coxeter number is N and c = 1.  In the S-type case
    also returns Z_nu = (i/2) sum_j H_{gamma_j} (as the -i(...) rational
    diagonal) and verifies it against the stored z_nu.
    """
    if sd.hermitian_tag not in ("S", "C"):
        raise DomainError("normalization constants require a Hermitian pair")
    hv = sd.N
    dm = dim_m(sd)
    a2 = Fraction(2 * hv, dm)
    out = {
        "a_sigma_squared": a2,
        "a_sigma": float(a2) ** 0.5,
        "dim_m": dm,
        "dual_coxeter": hv,
    }
    if sd.hermitian_tag == "S":
        s = len(sd.cascade)
        # -iZ_nu = (1/2) sum_j H_{gamma_j}; H_gamma has diagonal = gamma for
        # type A roots L_a - L_b
        acc = [Fraction(0)] * sd.N
        for g in sd.cascade:
            for idx, c in enumerate(g):
                acc[idx] += Fraction(c, 2)
        out["Z_formula"] = tuple(acc)
        if tuple(acc) != sd.z_nu:
            raise StructuralError("S-type Z_nu formula disagrees with z_nu")
        out["a_nu_from_cascade"] = float(Fraction(2, s)) ** 0.5
    return out
