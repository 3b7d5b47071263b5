"""qosc: tridiagonal representations of the q-oscillator relation A@B - q*B@A = I,
their big q-Jacobi / Askey-Wilson realizations, and numeric certification of the
algebraic identities they satisfy.

``import qosc`` imports no submodule.  The first read of a public name imports
the submodule that defines it (PEP 562) and keeps the value here, so a process
compiles only the modules it uses.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_NAMES = {
    "errors": """InvalidNormalizationError InvalidParameterError NotAQOscillatorError
        NotDecomposableError NotMonicReducibleError NumericFailureError QoscError
        ReducibleRepresentationError ResonanceError SizeGuardError SpectrumMismatchError
        TooSmallError UnsupportedFamilyError UnsupportedSpectrumError""",
    "numerics": """LaurentPoly TolerancePolicy laurent_add laurent_mul laurent_scale
        laurent_scale_arg""",
    "opmatrix": """BandMatrix ResidualReport band_add band_identity band_mul band_scale
        band_sub band_tridiagonal char_poly_eval eigenvalues guard_size inf_norm
        q_commutator_residual residual_report""",
    "representation": """AWParams GeneralParams GeneralSolutionTrace StructuredParams
        XiResiduals build_general canonical_pair classify decompose xi_residuals""",
    "families": """MonicRecurrence SpectrumLattice SpectrumReport askey_wilson big_q_jacobi
        claimed_spectrum eval_monic expand_monic jacobi_matrix q_hahn q_para_krawtchouk
        verify_spectrum""",
    "tridiagonalization": """WCoeffs aw_match_residual aw_parameter_map build_W build_Z
        companion_b companion_params eigenvalue_sequence qdiff_B_apply qdiff_Z_apply
        qdiff_residuals r_coefficients to_monic""",
    "algebra": """AWAlgebraConstants AWAlgebraReport BigQJacobiConstants aw_algebra_residuals
        aw_constants big_qjacobi_algebra_residuals big_qjacobi_constants""",
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names.split()}
_SUBMODULES = {*_NAMES, "_eigen", "_real_roots", "_ratio", "_record"}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    module = _OWNER.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # binds the submodule here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
