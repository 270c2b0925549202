"""Stability certification for infinite networks of coupled ODE subsystems.

The package derives per-subsystem Lyapunov gain data for parametric
families, realizes the associated infinite gain operator as a banded
eventually-periodic nonnegative matrix, brackets its l1 spectral radius,
constructs a composite exponential Lyapunov certificate when the radius
lies below one, and validates the certificate numerically on finite
truncations.
"""

from .errors import (CannotCertifyError, DerivationError,
                     InsufficientDataError, InternalInconsistencyError,
                     InvalidCertificateError, InvalidIndexError,
                     NumericInputError, ParameterError, ResourceError,
                     SgainError, ShapeError, SmallGainViolatedError,
                     UnknownScenarioError)
from .seqrules import ClosedFormSeq, PeriodicRows, PeriodicSeq
from .network import (FAMILIES, CounterexampleGain, CounterexampleSlow,
                      Family, LinearChain, LureBanded, NetworkGenerator,
                      Traffic, TruncatedNetwork, classify_traffic_cell,
                      evaluate_rhs, generator_from_dict, generator_to_dict,
                      load_generator, save_generator, truncate)
from .gains import (HALF_SQUARE, AssumptionReport, GainData, GainOperator,
                    QuadraticForm, SpectralBracket,
                    build_gain_operator, check_assumptions, check_lure_lmi,
                    derive_gains_linear_chain, derive_gains_lure,
                    derive_gains_traffic, gamma_norm,
                    operator_power_column_sums, optimize_chain_free_params,
                    spectral_bracket)
from .certificate import (CompositeLyapunov, EtaVector, SmallGainCertificate,
                          TrajectoryBound, assemble_lyapunov,
                          build_certificate, cap_decay_rates,
                          certificate_from_dict, certify,
                          iss_trajectory_bound, neumann_eta,
                          verify_certificate)
from .sim import (ConstantOnFirstK, DecayFit, GeometricProfile,
                  SinusoidOnFirstK, TrafficLights, TrajectoryRecord, Zero,
                  export_csv, fit_decay, initial_state, integrate, lp_norm,
                  signal_from_dict, truncation_convergence_probe,
                  verify_dissipation, verify_envelope)
from .scenarios import (SCENARIO_NAMES, ExampleScenario, Outcome,
                        derive_scenario_gains, make_scenario, run_pipeline)

__version__ = "0.1.0"
