"""Guaranteed-sufficient virtual-battery models for deferrable-load fleets.

Build a battery that understates nothing it promises: every profile the
battery admits decomposes into admissible per-load schedules, and the
decomposition itself falls out of the aggregation tree.
"""

from .aggregation import (AggregateConfig, AggregationTree, aggregate, dispatch,
                          load_tree, partition_fleet, save_tree, synthesize_battery)
from .cli import (ArbitrageResult, PriceSeries, arbitrage, baseline_immediate,
                  load_prices, run_pipeline)
from .fleet import ChargingTask, Fleet, GenProfile, generate_fleet, load_fleet, save_fleet
from .geometry import Homothet, VirtualBattery, homothet_apply_battery
from .lp import LpProblem, LpSolution, check_feasible, solve_lp
from .oracle import AdequacyVerdict, adequacy_lp, adequacy_thm1, validate_schedule
from .projection import (AppSolution, EliminationMap, FlexUnit, LiftedPolytope,
                         build_app, eliminate, solve_app)
from .sampling import greedy_profile, hit_and_run, sample_battery

__version__ = "0.1.0"
