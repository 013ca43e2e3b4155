"""Desk-scale numerical laboratory for the direction statistics of Dirichlet
approximates and of lattice points in thinning regions: almost-everywhere and
rotation-averaged equidistribution on the sphere, plus the exactly computed
continued-fraction counterexamples where the directions are biased.
"""

from .contfrac import (CFNumber, Convergent, RationalInterval, RotationScan,
                       biased_elements, biased_number, cf_product, constant_cf,
                       error_ratio_bounds)
from .lattice import (CountResult, Lattice, RegionSpec, count_approximates,
                      count_approximates_many, count_region, enumerate_in_box,
                      g_flow, lattice_from_x, region_volume, shell_count)
from .siegel import (BoxIndicator, MCEstimate, RadialIndicator, RegionIndicator,
                     haar_rotation, siegel_transform, spherical_average,
                     spherical_averages, thm3_ratio)
from .sphere import (Cap, Complement, DirectionSet, FullSphere, Hemisphere,
                     SignSet, ball_volume, full_sphere)

__version__ = "0.1.0"
