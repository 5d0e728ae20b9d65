"""Orlicz-space numerics on discrete measure spaces, with mechanical
verification of the structure theory of composition operators."""

__version__ = "0.1.0"

from .extreal import INF, xmul, xsum
from .verdicts import ConsistencyError, PreconditionError, Status, Verdict
from .young import (
    AbsValue,
    ExpMinusOne,
    GrowthStatus,
    GrowthVerdict,
    HardCap,
    PiecewiseLinearConvex,
    PowerAbs,
    PowerOverP,
    ScaledPower,
    XLogX,
    YoungFunction,
    conjugate,
    delta2_probe,
    delta_prime_probe,
    generalized_inverse,
    n_function_probe,
    nabla_prime_probe,
    sum_bound_constants,
    young_inequality_gap,
)
from .tails import (
    ConstantTail,
    GeometricTail,
    IndexPowerTail,
    PatchedTail,
    PointwiseTail,
    SparseGeometricTail,
    UnresolvedTail,
    ZeroTail,
)
from .measure import (
    ALL_ATOMS,
    CoFinite,
    CollapseLaw,
    ConstantWeights,
    CountableSpace,
    DivCeilLaw,
    FiberPartition,
    FiniteSpace,
    GeometricWeights,
    IdentityLaw,
    PairSwapLaw,
    Partition,
    PowerIndexLaw,
    PowerLawWeights,
    ShiftLaw,
    SimpleFunction,
    Transformation,
    conditional_expectation,
    exhaustion,
    fiber_average,
    fiber_partition,
    inverse_rn,
    iterated_rn,
    nonsingular_check,
    radon_nikodym,
    sigma_finite_check,
    support,
    weighted_measure,
)
from .norms import (
    NormResult,
    convergence_check,
    dual_ball_membership,
    holder_pairing,
    luxemburg_norm,
    modular,
    modular_bounds,
    orlicz_norm,
    orlicz_norm_brute_oracle,
)
from .compop import (
    BoundednessStatus,
    BoundednessVerdict,
    DomainStatus,
    DomainVerdict,
    boundedness_verdict,
    change_of_variable_check,
    closedness_demo,
    closure_identity_check,
    compose_apply,
    composite_domain_check,
    dense_weighted_subspace_check,
    density_verdict,
    domain_membership,
    operator_norm_estimate,
    sum_domain_check,
    truncation_approximants,
)
from .lp import (
    WeightedCompositionSpec,
    lp_density_verdict,
    lp_norm,
    multiplication_equivalence_check,
    weighted_comp_index,
    weighted_density_verdict,
)
from .adjoint import AdjointReport, adjoint_apply, adjoint_density_index, duality_pairing_check
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario, serialize_scenario
from .suite import SuiteReport, verify_suite
