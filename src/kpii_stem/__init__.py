"""Resonant three-soliton solutions of the KPII equation and the analytic
geometry of their variable-length stem structures."""

__version__ = "0.1.0"

from .catalog import (
    INFINITE,
    Branch,
    Case,
    CaseSpec,
    ResonanceClass,
    ResonanceKind,
    ResonantSolution,
    SolitonParams,
    a12_closed_form,
    aij_factors,
    build_case,
    build_solution,
    classify_resonance,
    make_generic,
    omega,
    phase_shift_param,
    resolve_constraints,
)
from .geometry import (
    ArmDescriptor,
    AsymptoticCatalog,
    Edge,
    Region,
    StemReport,
    VelocityRow,
    arm_catalog,
    arm_profile,
    cross_section,
    find_arm,
    line_points,
    skeleton,
    stem_endpoints,
    stem_length_formula,
    stem_reports,
    stem_side,
    trajectory_line,
    velocity_table,
)
from .tau import ExpSumTau, ExpTerm, u_on_grid, u_partials
from .verify import (
    ResidualReport,
    RidgeTrace,
    asymptotic_match,
    kp_residual,
    limit_convergence,
    limit_family,
    ridge_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
