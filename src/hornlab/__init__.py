"""hornlab: numerical laboratory for cusp-tip spectral geometry.

Builds separated eigenmodes and caloric flows on weighted metric horns,
measures their frequency functionals on elliptic balls and backward
parabolic slices, and verifies at desk scale the quantitative behaviour
near the tip: super-polynomial vanishing of every non-radial mode,
two-sided bounds on the transformed tip branches, exact logarithmic
identities of the frequency quantities, and spectral time analyticity.
"""

__version__ = "0.1.0"

from .elliptic import (FrequencyScan, ModeState, bessel_state,
                       check_I_lower, check_logI_identity, check_U_growth,
                       constant_state, elliptic_E, elliptic_I, elliptic_scan,
                       profile_state)
from .errors import (ConfigError, ConsistencyError, DomainValidationError,
                     EigenSearchError, HornError, IntegrationError,
                     QuadratureError, RootBracketError, TipTailError,
                     ToleranceFloorError)
from .geometry import (HornParams, angular_coupling, make_horn_params,
                       measure_weight, measure_weight_log, sphere_area,
                       sphere_eigenvalue)
from .heat import (CaloricSeries, EigenPair, analyticity_probe,
                   caloric_decay_check, dirichlet_eigenvalues,
                   make_caloric_series, tail_bound, time_derivative,
                   weyl_check)
from .modes import (RadialProfile, decay_exponent_fit, normalization_bound,
                    profile_from_k2, r_mu, radial_mode_zero, solve_k1,
                    solve_k2, tip_exponent, tip_rate)
from .numerics import (DenseSolution, LineFit, bessel_j, bessel_j_prime,
                       bessel_y, bessel_y_prime, check_in_range,
                       find_root_bracketed, fit_line, gamma_real,
                       integrate_ode, lgamma_real, quad_log)
from .parabolic import (ModeCaloric, UnitCaloric, check_D_lower,
                        check_ID_relation, check_N_bound, kernel_log,
                        parabolic_IDN, parabolic_scan)

__all__ = [name for name in dir() if not name.startswith("_")]
