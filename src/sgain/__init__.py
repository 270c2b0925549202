"""Stability certification for infinite networks of coupled ODE subsystems.

The package derives per-subsystem Lyapunov gain data for parametric
families, realizes the associated infinite gain operator as a banded
eventually-periodic nonnegative matrix, brackets its l1 spectral radius,
constructs a composite exponential Lyapunov certificate when the radius
lies below one, and validates the certificate numerically on finite
truncations.  The numeric layer (``network`` and ``sim``, the only
modules that import scipy) is imported on first use of one of its names.
"""

import importlib

from .errors import (CannotCertifyError, DerivationError,
                     InsufficientDataError, InternalInconsistencyError,
                     InvalidCertificateError, InvalidIndexError,
                     NumericInputError, ParameterError, ResourceError,
                     SgainError, ShapeError, SmallGainViolatedError,
                     UnknownScenarioError)
from .seqrules import ClosedFormSeq, PeriodicRows, PeriodicSeq
from .families import (FAMILIES, CounterexampleGain, CounterexampleSlow,
                       Family, LinearChain, LureBanded, Traffic,
                       classify_traffic_cell, generator_from_dict,
                       load_generator)
from .gains import (HALF_SQUARE, AssumptionReport, GainData, PowerTable,
                    QuadraticForm, SpectralBracket,
                    build_gain_operator, check_assumptions, check_lure_lmi,
                    derive_gains_linear_chain, derive_gains_lure,
                    derive_gains_traffic, operator_power_column_sums,
                    optimize_chain_free_params, spectral_bracket)
from .certificate import (CompositeLyapunov, EtaVector, SmallGainCertificate,
                          build_certificate, cap_decay_rates,
                          certificate_from_dict, certify, neumann_eta,
                          verify_certificate)
from .scenarios import (SCENARIO_NAMES, ExampleScenario, Outcome,
                        make_scenario, run_pipeline)

__version__ = "0.1.0"

_NUMERIC = {"network": "TruncatedNetwork truncate".split(),
            "sim": """ConstantOnFirstK DecayFit GeometricProfile SinusoidOnFirstK TrafficLights
            TrajectoryRecord Zero export_csv fit_decay initial_state integrate
            signal_from_dict truncation_convergence_probe verify_dissipation
            verify_envelope""".split()}


def __getattr__(name):
    """The names of the numeric layer, imported on first use (PEP 562)."""
    for module, names in _NUMERIC.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
