"""Involution combinatorics: Satake data, cascades and restricted roots.

The types are generic over a realized root system; the shipped constructors
cover the AIII family s(u_p + u_{N-p}) < su_N, which is S-type for N = 2p and
C-type for p < N/2.  Simple roots are labelled 1..N-1 as usual.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

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
        val = sum(Fraction(c) * z for c, z in zip(root, self.z_nu))
        return val == 0


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
    return tuple(sum((row[j] * vec[j] for j in support), Fraction(0))
                 for row in mat)


def _tau_matrix(N):
    # diagram flip i -> N-i on labels acts on weights by L_i -> -L_{N+1-i}
    mat = []
    for i in range(N):
        row = [Fraction(0)] * N
        row[N - 1 - i] = Fraction(-1)
        mat.append(tuple(row))
    return tuple(mat)


def _reflection(rs, alpha):
    """Matrix of s_alpha on the ambient coordinates."""
    n = rs.dim_ambient
    co = rootdata.coroot(rs, alpha)
    cols = []
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        lam = tuple(e)
        val = rootdata.pairing(rs, lam, co)
        cols.append(tuple(lam[i] - val * alpha[i] for i in range(n)))
    # cols[j] is the image of e_j; transpose into row-major matrix
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _mat_mul(A, B):
    m = len(B[0])
    out = []
    for row in A:
        support = [k for k, x in enumerate(row) if x]
        out.append(tuple(sum((row[k] * B[k][j] for k in support), Fraction(0))
                         for j in range(m)))
    return tuple(out)


def longest_element_wx(rs, X_labels):
    """Matrix of w_X, the longest element of the parabolic Weyl group W_X.

    Greedy algorithm: while some alpha_j (j in X) stays positive under w,
    append s_j on the right; each step raises the length by one.
    """
    n = rs.dim_ambient
    w = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    pos = set(rs.positive_roots)
    while True:
        for j in X_labels:
            alpha = rs.simple_roots[j - 1]
            if _apply_matrix(w, alpha) in pos:
                w = _mat_mul(w, _reflection(rs, alpha))
                break
        else:
            return w


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
    wx = longest_element_wx(rs, sorted(X))
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
    return tuple((x - y) / 2 for x, y in zip(a, ta))


def cascade(sd):
    """Harish-Chandra cascade of strongly orthogonal noncompact roots.

    gamma_1 is the largest root in the lexicographic order with -iZ_nu first;
    gamma_{k+1} is the largest root orthogonal to all previous H_{gamma_i};
    the construction stops once every remaining root is compact.
    """
    rs = sd.root_system
    keys = standard_order_type_a(sd.z_nu).check_regular(rs.positive_roots)
    # (sort key, root, compact) of each root centralizing every H_{gamma_i}
    central = [(k, r, sd.is_compact(r))
               for k, r in zip(keys, rs.positive_roots)]
    gammas = []
    while central and not all(compact for _, _, compact in central):
        _, gamma, compact = max(central, key=lambda entry: entry[0])
        if compact:
            raise StructuralError("cascade selected a compact root")
        gammas.append(gamma)
        central = [entry for entry in central
                   if pairing(rs, entry[1], gamma) == 0]
    # strong orthogonality: gamma_i +- gamma_j is never a root
    all_roots = set(rs.positive_roots) | {
        tuple(-x for x in r) for r in rs.positive_roots
    }
    for a in gammas:
        for b in gammas:
            if a is b:
                continue
            if tuple(x + y for x, y in zip(a, b)) in all_roots:
                raise StructuralError("cascade roots not strongly orthogonal")
            if tuple(x - y for x, y in zip(a, b)) in all_roots:
                raise StructuralError("cascade roots not strongly orthogonal")
    return tuple(gammas)


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


def normalization_constants(sd, dual_coxeter=None, length_ratio=1):
    """a_sigma = sqrt(2 h^vee c / dim m) plus the S-type Z_nu formula check.

    For type A the dual Coxeter number is N and c = 1.  In the S-type case
    also returns Z_nu = (i/2) sum_j H_{gamma_j} (as the -i(...) rational
    diagonal) and verifies it against the stored z_nu.
    """
    if sd.hermitian_tag not in ("S", "C"):
        raise DomainError("normalization constants require a Hermitian pair")
    hv = sd.N if dual_coxeter is None else dual_coxeter
    dm = dim_m(sd)
    a2 = Fraction(2 * hv * length_ratio, dm)
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
                acc[idx] += c / 2
        out["Z_formula"] = tuple(acc)
        if tuple(acc) != sd.z_nu:
            raise StructuralError("S-type Z_nu formula disagrees with z_nu")
        out["a_nu_from_cascade"] = float(Fraction(2, s)) ** 0.5
    return out
