"""Upper bounds for unit-ball packing densities via simplex and wedge solid angles.

The library measures three densities of the unit ball in cones at its
center, all as Monte-Carlo or quadrature estimates with stated uncertainty:

  simplex_density  density in the canonical orthoscheme cone (the classical
                   simplex bound, column "sigma" in all outputs)
  wedge_density    density in the wedge over the triangle-plus-sector base
                   domain (the refined bound, column "sigma_hat")
  sector_density   density in the sector-only sub-wedge (column "lambda")

plus per-cell consequences (volume and surface lower bounds for the cells
of any packing) and an executable verification suite for every inequality
the refinement rests on.
"""

from .formulas import (
    ReferenceBounds,
    SectorGeometry,
    max_tilt_cosine,
    next_chain_floor,
    pair_gap_bound,
    pair_gap_max,
    reach_bound,
    reference_bounds,
    sector_geometry,
    tilt_angle_scalars,
    truncation_scalars,
    unit_ball_volume,
)
from .geometry import (
    ChainSpec,
    PlanarDomain,
    WedgeConfig,
    canonical_chain,
    canonical_simplex,
    canonical_wedge,
    cone_contains,
    sector_wedge,
    truncated_wedge,
    truncation_domain,
    wedge_domain,
)
from .density import (
    DensityEstimate,
    ImprovementGap,
    ProfileEstimate,
    closed_form_simplex_density,
    improvement_gap,
    limiting_density_profile,
    quadrature_density,
    quadrature_gap,
    sector_density,
    simplex_density,
    surface_density,
    voronoi_bounds,
    wedge_density,
)

__version__ = "0.1.0"
