"""Exact solver and verification toolkit for the symmetric finite-difference
discretisation of the l=0 hydrogen radial equation, built on the associated
Pollaczek polynomial family."""

from .coordinate import (
    AlphaTable,
    ConstraintSystem,
    EigenData,
    LaguerreRef,
    ZeroPivotError,
    alpha_inner,
    ansatz_constraint_system,
    c_coeff,
    continuum_energy,
    difference_residual,
    eigen_data,
    laguerre_ref,
    solve_constraint_system,
    wavefunction,
    wavefunction_float,
    wavefunction_floats,
    wavefunction_values,
)
from .numerics import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    MixedRadicandError,
    NegativeRadicandError,
    QuadraticSurd,
    as_surd,
    floats_close,
    parse_rational,
    surd_from_json,
    surd_pow,
    surd_to_float,
    surd_to_json,
)
from .pollaczek import (
    ClosedFormSequence,
    beta_coeff,
    chebyshev_u,
    closed_form_sequence,
    mass_point,
    pollaczek_explicit_trig,
    pollaczek_mass_closed,
    pollaczek_seq,
    pollaczek_trig_conjugate,
)
from .spectral import (
    BracketError,
    TridiagonalOperator,
    build_truncated,
    closed_form_vector,
    coordinate_ratio,
    eigen_bisection,
    eigen_residual,
    eigenvalues_between,
    exp_part,
    gram_matrix,
    inner_product,
    point_spectrum_above,
    sturm_count,
)

__version__ = "0.1.0"
