"""Exact solver and verification toolkit for the symmetric finite-difference
discretisation of the l=0 hydrogen radial equation, built on the associated
Pollaczek polynomial family.

The public names below are re-exported lazily (PEP 562): `import hydrogrid`
loads no submodule, and the first read of a name, or of one of these
modules, imports its module.
"""

_MODULES = {
    "coordinate": (
        "AlphaTable", "ConstraintSystem", "EigenData", "LaguerreRef",
        "alpha_inner", "ansatz_constraint_system", "c_coeff",
        "continuum_energy", "difference_residual", "eigen_data",
        "laguerre_ref", "solve_constraint_system", "wavefunction",
        "wavefunction_float", "wavefunction_floats", "wavefunction_values"),
    "numerics": (
        "DEFAULT_ABS_TOL", "DEFAULT_REL_TOL", "MixedRadicandError",
        "NegativeRadicandError", "QuadraticSurd", "as_surd", "floats_close",
        "parse_rational", "surd_from_json", "surd_pow", "surd_to_float",
        "surd_to_json"),
    "pollaczek": (
        "ClosedFormSequence", "beta_coeff", "chebyshev_u", "mass_point",
        "pollaczek_explicit_trig", "pollaczek_mass_closed", "pollaczek_seq",
        "pollaczek_trig_conjugate"),
    "spectral": (
        "BracketError", "TridiagonalOperator", "build_truncated",
        "closed_form_vector", "coordinate_ratio", "eigen_bisection",
        "eigen_residual", "eigenvalues_between", "exact_sturm_count",
        "exp_part", "gram_matrix", "inner_product", "point_spectrum_above",
        "sturm_count"),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    loaded = import_module(f"{__name__}.{module}")  # binds the submodule here
    if module == name:
        return loaded
    value = globals()[name] = getattr(loaded, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
