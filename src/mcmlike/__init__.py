"""Existence checks, surgery planning, and numerics for McMullen-like maps.

The package decides, in exact arithmetic, whether a polynomial-with-pole-data
pair admits a McMullen-like perturbation; plans the quasiconformal-surgery
level structure when it does; verifies concrete rational families
numerically; and renders or symbolically simulates the resulting dynamics.
"""

from .arith import (
    ConditionReport,
    CycleCondition,
    InvalidPoleDataKey,
    PoleData,
    TransitionMatrix,
    check_condition,
    leading_eigenvalue,
    leading_eigenvalue_exact,
    power_iteration_eigenvalue,
    transition_matrix,
)
from .dynamics import (
    ComplexPoly,
    ConvergedToCycle,
    Escaped,
    NonConvergence,
    OrbitRecord,
    PoleHit,
    RationalMapExpr,
    Undecided,
    auto_radius,
    eval_map,
    eval_map_derivative,
    eval_unchecked,
    find_roots,
    iterate_orbit,
    newton_cycle,
    pole_orders,
    product_pole_map,
    simple_poles_map,
)
from .model import (
    CriticalAssignment,
    CycleSpec,
    HpcfpModel,
    ModelWarning,
    MultiplierNotZero,
    NormalizedType,
    NotHpcfp,
    classify_polynomial,
    from_abstract,
    normalize_type,
    riemann_hurwitz_check,
    types_equal,
)
from .model_io import (
    FamilySpec,
    ModelFile,
    ParseError,
    SchemaError,
    VerifyParams,
    dumps_model,
    load_model,
    loads_model,
    save_model,
)
from .render import (
    ClassGrid,
    RadialProfile,
    RenderSpec,
    classify_grid,
    classify_points,
    grid_to_rgb,
    grid_to_text,
    radial_profile,
    rotational_symmetry_score,
    write_ppm,
)
from .skew import (
    BuriedPreperiodic,
    BuriedWandering,
    CodeWord,
    DepthExhausted,
    SkewCensus,
    SkewState,
    Unburied,
    census_at_depth,
    classify_code,
    code_step,
    skew_step,
    unburied_oracle,
)
from .surgery import (
    ClosureError,
    ConditionFails,
    EmptyPoleSet,
    LevelOrderViolation,
    LevelPlan,
    NoSlack,
    SurgeryConstants,
    ThresholdViolation,
    compute_M,
    compute_alpha_beta,
    plan_levels,
    r_threshold,
)
from .verify import (
    CensusMismatch,
    ConvergesToBoundedCycle,
    CriticalCensus,
    CriticalOrbitEntry,
    CriticalOrbitReport,
    EscapesViaTrapDoor,
    InBasinOfInfinityDirectly,
    UntouchedCycleCheck,
    VerificationVerdict,
    classify_critical_orbits,
    critical_census,
    free_critical_polynomial,
    map_degree,
    untouched_cycle_checks,
    verify_family,
)

__version__ = "0.1.0"
