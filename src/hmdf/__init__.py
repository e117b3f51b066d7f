"""Harmonic measure distribution functions (h-functions) of circle-type
planar domains: estimation, inversion, and realizability certification.

The h-function of a domain containing 0 maps a radius r to the harmonic
measure, seen from 0, of the boundary within the closed disk of radius r
-- equivalently the probability that Brownian motion exits the domain
within distance r of the origin.
"""
from .geometry import (Arc, BlockedCircleDomain, BoundaryFeature, CircleDomain,
                       NotInteriorError, distance_to_boundary, eta,
                       is_interior, theta, validate)
from .hfunction import (CandidateH, StepH, beurling_bound, evaluate,
                        example_jump_ramp, jump_at_mu, minimal_secant_slope,
                        necessary_checks, step_approximation)
from .bounds import (Thresholds, chi1, chi_inf, chi_p, hdiff_bound, kappa,
                     thresholds)
from .potential import (HFunctionTable, MeasureEstimate, OffCenterDisk,
                        WosConfig, estimate_h, exact_offcenter_disk_h,
                        exact_slit_disk_gate, feature_measures,
                        wos_exit_ensemble)
from .fd import FdSolver
from .construct import (CheckReport, ConstructionReport, SolveError,
                        SolveSettings, build_blocked, check_candidate,
                        run_pipeline, solve_circle_domain, ulc_diagnostics)

__version__ = "0.1.0"
