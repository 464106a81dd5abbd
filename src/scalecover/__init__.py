"""Scale-filtered finite spaces and the verifiers built on them.

Submodules:
  spaces     filtered spaces with nested scales, chains, chain components
  intlinalg  exact integer Smith forms and solves
  rips       Rips 2-skeletons, spanning-forest edge-path presentations, H1 as
             their abelianization, homotopy decisions
  covers     basepointed covers at a scale with their entourage bases
  quotients  maps, block projections, covering axioms, fiber quotients
  towers     truncated inverse systems of spaces and abelian groups
  actions    finite group actions, smallness properties, quotient towers
  cli        command-line front end and file formats
"""

from .spaces import (
    Chain,
    FilteredSpace,
    Partition,
    chain,
    chain_components,
    from_finest,
    from_metric,
    is_chain,
    subspace,
    validate_space,
)
from .rips import (
    AbelianGroupInv,
    decide_e_homotopic,
    h1_at_scale,
    h1_class,
    presentation_at_scale,
    reduce_chain,
    rips_2_skeleton,
)
from .covers import (
    bonding_h1_map,
    build_cover,
    critical_scales,
    lift_chain,
    verify_endpoint_ucm,
)
from .quotients import (
    FilteredMap,
    build_fiber_quotient,
    check_approx_uniqueness,
    check_chain_lifting,
    check_generates,
    factor_and_verify,
    fiber_e_components,
    verify_gucm,
)
from .towers import (
    SpaceTower,
    TowerAb,
    assemble_limit_space,
    lim1_verdict,
    quotient_tower_reconstruct,
    strong_ml_check,
    telescoping_solve,
)
from .actions import (
    ActionSpec,
    action_tower_verify,
    close_group,
    diagnose_action,
    quotient_at_scale,
    saturate_invariant,
)

__all__ = [
    "AbelianGroupInv",
    "ActionSpec",
    "Chain",
    "FilteredMap",
    "FilteredSpace",
    "Partition",
    "SpaceTower",
    "TowerAb",
    "action_tower_verify",
    "assemble_limit_space",
    "bonding_h1_map",
    "build_cover",
    "build_fiber_quotient",
    "chain",
    "chain_components",
    "check_approx_uniqueness",
    "check_chain_lifting",
    "check_generates",
    "close_group",
    "critical_scales",
    "decide_e_homotopic",
    "diagnose_action",
    "factor_and_verify",
    "fiber_e_components",
    "from_finest",
    "from_metric",
    "h1_at_scale",
    "h1_class",
    "is_chain",
    "lift_chain",
    "lim1_verdict",
    "presentation_at_scale",
    "quotient_at_scale",
    "quotient_tower_reconstruct",
    "reduce_chain",
    "rips_2_skeleton",
    "saturate_invariant",
    "strong_ml_check",
    "subspace",
    "telescoping_solve",
    "validate_space",
    "verify_endpoint_ucm",
    "verify_gucm",
]

__version__ = "0.1.0"
