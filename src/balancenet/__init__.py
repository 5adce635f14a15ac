"""balancenet: simulation and numerical verification for interacting-agent
networks with diverging coupling, their balanced regimes, and the
concentration behavior of the associated mean-field Fokker-Planck equation.
"""

__version__ = "0.1.0"

from .models import (FhnChemicalParams, FhnElectricalParams, NetworkModel,
                     ScalingRule, SeparableModel1D, SeparableParams,
                     build_separable_1d, scaling_gamma)
from .network import (CoordinateIC, PerturbationEvent, RecordSpec, RunRecord,
                      apply_perturbation, simulate, simulate_rescaled_early)
from .balance import (chemical_balance_voltages, chemical_stability,
                      distance_to_balance, integrate_early_ode)
from .pde import Grid1D, gaussian_initial, solve_fp_1d
from .hopfcole import (HopfColeField, check_bv_interaction, check_moment_bound,
                       epsilon_sweep, hopf_cole, snapshot_series, support_width)
from .stats import histogram
