"""stripflow: shear-strip Hamiltonian flows on a flat one-holed torus.

Builds systems of N strip-flow copies (classes a, b, ab) with cancelling
fluxes, tracks exact trajectory homotopy classes through a cut system,
estimates the induced trajectory-class quasimorphism of the composed map,
and compares its growth in N against Hofer-length upper bounds of the
generating isotopy.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config
from .counting import (CountingQM, brooks_value, estimate_defect,
                       homogenize_oracle, homogenized)
from .errors import (ConfigError, DegenerateCrossing, InfeasibleScenario,
                     StripflowError, ValidityWindowExceeded)
from .estimator import (RhoEstimate, RhoPrediction, TrajectoryRecord,
                        deficiency, grid_estimate, iterate_word, rho_estimate,
                        rho_predicted)
from .flow import (HoferBound, Profile, apply_composed, apply_strip, calabi,
                   calabi_region_decomposition, flux_check, generator_value,
                   hofer_upper_bound, strip_profile)
from .surface import (HoledTorus, OverlapReport, Scenario, StripSpec,
                      build_scenario, closing_word, crossing_word,
                      per_copy_flux, scenario_from_text, scenario_to_text,
                      validate_scenario)
from .words import Word

__all__ = [name for name in dir() if not name.startswith("_")]
