"""qspair: desk-scale computations for two quantizations of compact symmetric
spaces, cyclotomic KZ monodromy on one side and Letzter-Kolb coideal
K-matrices on the other, plus the numerical checks tying them together."""

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
from .rootdata import RootOrder, RootSystem, build_type_a, pairing
from .satake import (
    RootPartition,
    SatakeData,
    build_aiii,
    cascade,
    normalization_constants,
    partition_roots,
)
from .sln import (
    PairRealization,
    Representation,
    build_leg_tensor,
    cayley,
    coisotropy_residual,
    fundamental_rep,
    omega_pairing,
    r_rotation_residual,
    realize,
    tensor_rep,
    trivial_rep,
)
from .kzmono import (
    AssociatorResult,
    KZProblem,
    first_order_oracle,
    frobenius_monodromy,
    identity_residuals,
    phi_kz,
    psi_kz,
    r_kz,
    ribbon_kz,
)
from .uqsl import (
    CoidealParams,
    KMatrixResult,
    UqFundamental,
    coideal_generators,
    fundamental,
    lusztig_w0,
    lusztig_wX,
    make_params,
    quasi_k_in_rep,
    r_matrix,
    sl2_spherical,
    solve_kmatrix,
)
from .braidb import BraidRep, build_rep, kohno_drinfeld_compare, relation_residuals
from .cohoch import (
    CochainComplex,
    build_complex,
    cohomology_dims,
    sl2_data,
    sl3_data,
)

__version__ = "0.1.0"
