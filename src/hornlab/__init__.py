"""hornlab: numerical laboratory for cusp-tip spectral geometry.

Builds separated eigenmodes and caloric flows on weighted metric horns,
measures their frequency functionals on elliptic balls and backward
parabolic slices, and verifies at desk scale the quantitative behaviour
near the tip: super-polynomial vanishing of every non-radial mode,
two-sided bounds on the transformed tip branches, exact logarithmic
identities of the frequency quantities, and spectral time analyticity.
"""

__version__ = "0.1.0"

from .elliptic import (FrequencyScan, bessel_state, check_I_lower,
                       check_logI_identity, check_U_growth, constant_state,
                       elliptic_scan, profile_state)
from .errors import (ConfigError, ConsistencyError, DomainValidationError,
                     EigenSearchError, HornError, IntegrationError,
                     QuadratureError, ToleranceFloorError)
from .geometry import (HornParams, angular_coupling, liouville_potential,
                       liouville_potential_slope, make_horn_params,
                       measure_weight_log, sphere_area, sphere_eigenvalue)
from .heat import (CaloricSeries, EigenPair, analyticity_probe,
                   caloric_decay_check, dirichlet_eigenvalues,
                   make_caloric_series, tail_bound, weyl_check)
from .modes import (RadialProfile, decay_exponent_fit, normalization_bound,
                    profile_from_k2, r_mu, solve_k1, solve_k2,
                    tip_exponent, tip_rate)
from .numerics import (LineFit, SepticHermite, bessel_j, check_in_range,
                       fit_line, gamma_real, lgamma_real, magnus_dense,
                       magnus_log_derivative, magnus_prufer, quad_log)
from .parabolic import (UnitCaloric, check_D_lower, check_ID_relation,
                        check_N_bound, kernel_log, parabolic_IDN,
                        parabolic_scan)

__all__ = [name for name in dir() if not name.startswith("_")]
