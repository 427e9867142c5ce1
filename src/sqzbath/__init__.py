"""Trajectory-ensemble simulation of squeezing generation in parametrically
driven oscillators coupled to thermal environments, with exact Gaussian
covariance oracles and Floquet stability analysis."""

__version__ = "0.1.0"

from .baths import (NHCBathParams, NHCBathPhase, OhmicBathParams, OhmicBathPhase,
                    build_ohmic_bath, nhc_bath_forces, nhc_extended_energy,
                    nhc_from_ohmic, nhc_matched_to_ohmic, ohmic_energy,
                    ohmic_forces)
from .driver import (BathComparison, EnsembleResult, ModelKind, RunConfig,
                     SweepResult, bath_equivalence, compare_variance_series,
                     run_ensemble, temperature_sweep)
from .integrate import (IntegratorConfig, TrajectoryFailure, TrajectoryState,
                        integrate, step_hamiltonian, step_nhc, yoshida_weights)
from .observables import (SqueezeReport, VarianceAccumulator, VarianceSeries,
                          read_variance_csv, squeeze_report, write_variance_csv)
from .oracle import (FundamentalSolution, ThresholdResult, fundamental_solution,
                     isolated_variance_series, mode2_variance_exact,
                     ohmic_mode1_variances, threshold_temperature)
from .sampling import (SamplingMode, ThermalWidths, init_nhc_bath,
                       sample_ohmic_bath, sample_system, thermal_widths,
                       trajectory_rng, width_temperature)
from .stability import (MathieuParams, StabilityMap, grows_unbounded,
                        mathieu_params, monodromy, stability_map,
                        write_stability_csv)
from .system import (NormalModePhase, SystemParams, SystemPhase, coupling_freq_sq,
                     from_normal_modes, normal_mode_freqs, system_energy,
                     system_force, to_normal_modes, to_physical_units)
