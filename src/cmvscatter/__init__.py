"""cmvscatter: forward and inverse scattering for CMV matrices.

From Verblunsky coefficients to the unimodular scattering function and back
through Hankel solves, with regularity diagnostics and the determinant
identity tying the two sides together.
"""

from .circle import (
    CircleFunction,
    CircleGrid,
    DiskFunction,
    conjugate_function,
    outer_from_modulus_squared,
    read_circle_csv,
    write_circle_csv,
)
from .classify import (
    ClassReport,
    a2_constant,
    classify,
    jacobi_verblunsky,
    widom_det,
    winding_index,
)
from .errors import (
    ConditioningWarning,
    NumericalError,
    RegularityError,
)
from .hankel import (
    HankelOp,
    RegularityReport,
    hankel_from_symbol,
    regularity_test,
    solve_block,
)
from .inverse import (
    GlmMatrix,
    RecoveryReport,
    glm_factorization_residual,
    glm_matrix,
    recover_verblunsky,
)
from .opuc import (
    CmvMatrix,
    LaurentBasis,
    VerblunskySeq,
    build_cmv,
    laurent_basis,
    schur_caratheodory,
    spectral_density,
)
from .scatter import (
    KernelPair,
    ScatteringData,
    forward_scatter,
    kernels_from_spectral,
    szego_asymptotics_residual,
)

__version__ = "0.1.0"
