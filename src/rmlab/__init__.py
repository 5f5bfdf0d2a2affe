"""Cube-partition optimization lab for Riesz, Morrey, and combined norms.

Realizes the family norms

    sup over disjoint-interior cube families of
        (sum_i |Q_i|**(1-p*alpha-p/q) ||f||_{L^q(Q_i)}**p) ** (1/p)

as partition-optimization problems, generates the extremal sparse, tree,
radial-power, and shell constructions, and numerically verifies the
identity, inclusion, and divergence claims of the theory at desk scale.
"""

from .estimate import EXACT, LOWER_BOUND, UPPER_BOUND, NormEstimate
from .funcrep import (
    ParamSpace,
    RadialPower,
    StepFunction,
    evaluate,
    lebesgue_norm,
    lq_norm_on_cube,
    positive_orthant_sphere_measure,
    shell_integral_radial,
    weak_norm,
)
from .geometry import (
    Cube,
    CubeFamily,
    DimensionMismatchError,
    Domain,
    box_distance,
    dyadic_children,
    interiors_pairwise_disjoint,
    ring_subdivision,
    shell_partition_1d,
)
from .constructions import (
    PowerSplit,
    ShellConstruction,
    TreeConstruction,
    TreeSpacing,
    build_tree,
    descendant_reach,
    modification_cutoff,
    power_split,
    shell_thresholds,
    sparse_family,
    sparse_function,
    tree_function,
)
from .norms import (
    morrey_norm_estimate,
    riesz_norm,
    rm_norm_dyadic,
    rm_norm_intervals_1d,
    rm_norm_estimate,
    rm_score,
)
from .analysis import (
    Classification,
    GrowthReport,
    check_holder_cube,
    check_power_sum_inequalities,
    classify,
    growth_probe,
    shell_divergence_probe,
    sparse_multi_overlap_bound,
    sparse_single_overlap_bound,
    tree_multi_overlap_bound,
    tree_single_overlap_bound,
)

__version__ = "0.1.0"
