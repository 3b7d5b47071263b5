"""qosc: tridiagonal representations of the q-oscillator relation A@B - q*B@A = I,
their big q-Jacobi / Askey-Wilson realizations, and numeric certification of the
algebraic identities they satisfy."""

from .errors import (
    InvalidNormalizationError,
    InvalidParameterError,
    NotAQOscillatorError,
    NotDecomposableError,
    NotMonicReducibleError,
    NumericFailureError,
    PoleError,
    QoscError,
    ReducibleRepresentationError,
    ResonanceError,
    SizeGuardError,
    SpectrumMismatchError,
    TooSmallError,
    UnsupportedFamilyError,
    UnsupportedSpectrumError,
)
from .numerics import (
    LaurentPoly,
    TolerancePolicy,
    geometric_seq,
    laurent,
    laurent_add,
    laurent_eval,
    laurent_mul,
    laurent_scale,
    laurent_scale_arg,
)
from .opmatrix import (
    BandMatrix,
    ResidualReport,
    band_add,
    band_diagonal,
    band_identity,
    band_mul,
    band_scale,
    band_sub,
    band_tridiagonal,
    char_poly_eval,
    diag_similarity,
    eigenvalues,
    guard_size,
    inf_norm,
    max_entry_diff,
    q_commutator_residual,
    residual_report,
)
from .representation import (
    GeneralParams,
    GeneralSolutionTrace,
    StructuredParams,
    XiResiduals,
    build_general,
    canonical_pair,
    classify,
    decompose,
    xi_residuals,
)
from .families import (
    AWParams,
    MonicRecurrence,
    SpectrumLattice,
    SpectrumReport,
    askey_wilson,
    big_q_jacobi,
    claimed_spectrum,
    eval_monic,
    expand_monic,
    jacobi_matrix,
    q_hahn,
    q_para_krawtchouk,
    verify_spectrum,
)
from .tridiagonalization import (
    DiagonalOperator,
    PencilParams,
    WCoeffs,
    aw_match_residual,
    aw_parameter_map,
    build_B_from_A,
    build_W,
    build_Z,
    companion_b,
    companion_params,
    eigenvalue_sequence,
    pencil,
    qdiff_B_apply,
    qdiff_Z_apply,
    qdiff_residuals,
    r_coefficients,
    to_monic,
)
from .algebra import (
    AWAlgebraConstants,
    AWAlgebraReport,
    BigQJacobiConstants,
    aw_algebra_residuals,
    aw_constants,
    big_qjacobi_algebra_residuals,
    big_qjacobi_constants,
)

__version__ = "0.1.0"

# Every name imported above.  The imports also bind each submodule (errors, opmatrix, ...)
# in this namespace; those are left out.
__all__ = ["__version__", *(name for name, value in list(globals().items())
                            if not name.startswith("_") and type(value) is not type(errors))]
