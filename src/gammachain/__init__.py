"""gammachain: linear-chain reduction of gamma-delay second-order equations,
topological certificates for their T-periodic solutions, and numerical
tracing of the solution branches in (lambda, starting point) space."""

from .kernel import GammaKernel, gamma_eval, tail_horizon
from .chain import ProblemSpec, ExpandedField, expand, lifted_zero
from .analysis import (ZeroRecord, DegreeReport, phi_eval, phi_prime,
                       scan_zeros, degree_G)
from .certify import (CertReport, MultiplicityReport, lipschitz_estimate,
                      yorke_check, certify_ejecting, multiplicity_report)
from .orbit import (StartingPoint, BranchPoint, ContinuationParams,
                    integrate, period_map, newton_periodic, trace_from_zero,
                    dense_samples, orbit_metrics)
from .oracle import PeriodicTrack, history_convolution, verify_lift, direct_residual

__version__ = "0.1.0"
