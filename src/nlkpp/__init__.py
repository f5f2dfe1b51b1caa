"""Numerical laboratory for the doubly nonlocal Fisher-KPP equation

    du/dt = kappa_plus (a+ * u) - m u - kappa_minus u (a- * u).

Simulation, traveling-wave dispersion theory, profile solving, and
front-propagation verification at desk scale.
"""
from .assumptions import AssumptionReport, check_assumptions, competition_gap
from .dispersion import (DispersionReport, FrontSet, char_multiplicity, classify,
                         directional_mean, dispersion_G, front_set, global_mean,
                         minimize_G, speed_to_abscissa, t_xi)
from .errors import (CertificationFailed, ConfigError, ConvergenceFailure,
                     GridError, KernelError, MollisonFailure, NlkppError,
                     UnsupportedCriticalCase)
from .evolution import (EvolutionProblem, StepConfig, Trajectory,
                        find_subsolution_params, gaussian_subsolution,
                        logistic_exact, picard_solve, rhs, simulate, step,
                        truncated_problem, uniform_bound)
from .grids import Field, Grid, bump_field, constant_field, step_field
from .kernels import Kernel, Kernel1D, SampledWeights, discretize, reduce_to_direction
from .params import ModelParams
from .waves import (WaveProfile, fit_decay, initial_supersolution,
                    measure_profile_speed, profile_residual, solve_profile)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
