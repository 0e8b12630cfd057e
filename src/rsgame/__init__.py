"""Robust Stackelberg games over additively coupled resource allocation.

Solves nominal and worst-case-robust Stackelberg equilibria of multi-user
power-control games on K orthogonal dimensions, checks the derivative
conditions that predict social-utility movement, and ships an experiment
harness for channel ensembles.
"""

from .analysis import (ConditionReport, DeltaMetrics, OrderingReport,
                       RegimeReport, check_conditions, classify_regime,
                       delta_metrics, ordering_report)
from .budget import (OverlapStats, activity_threshold, overlap_stats,
                     robust_waterfill, waterfill)
from .equilibria import (Diagnostics, EquilibriumResult, UniquenessCertificate,
                         follower_best_response, followers_nash, is_p_matrix,
                         realized_utilities, rse1_closed_form, solve_nse,
                         solve_rse1, solve_rse2, uniqueness_certificate)
from .game import (ActionProfile, BudgetedThroughput, DerivativeBundle,
                   GameSpec, PricedThroughput, aggregate_impact, all_impacts,
                   derivatives, make_spec, negative_impact, utility,
                   utility_per_dim)
from .robust import (UncertaintySpec, WorstCaseObservation,
                     complementary_slackness_residual, direction_vector,
                     worst_case_cross_gain, worst_case_observation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
