"""Monte-Carlo simulator and statistics toolkit for tick-signal accuracy
enhancing protocols."""

from .clocks import (EnhancingClock, MarkovTwoState, Mode, QuasiIdealParams,
                     quasi_ideal_params, quasi_ideal_ratio, sample_tick_phase,
                     wrap_phase)
from .distributions import (Box, Delta, DeltaMixture, Gaussian,
                            WaitingTimeDistribution)
from .inaccuracy import (ConfidenceInterval, InaccuracyEstimate,
                         ZeroVarianceError, bruteforce_inaccuracy,
                         chebyshev_bound, empirical_inaccuracy,
                         hoeffding_inaccuracy_bound, hoeffding_tail,
                         r_accuracy)
from .network import (NetworkScenario, NodeConfig, cross_node_spread,
                      network_spreads, plan_scenario, run_network)
from .protocols import (ExplicitEC, PreparedRun, Protocol, ProtocolConfig,
                        QuasiIdealSpec, TrialMatrix, choose_period_feedback,
                        choose_period_no_feedback, corollary_bounds,
                        ec_bar_sigma, monte_carlo, output_epsilon_budget,
                        prepare, theorem1_bound, theorem2_bound,
                        theorem_bound)

__all__ = [
    "Box", "ConfidenceInterval", "Delta", "DeltaMixture", "EnhancingClock",
    "ExplicitEC", "Gaussian", "InaccuracyEstimate", "MarkovTwoState",
    "Mode", "NetworkScenario", "NodeConfig", "PreparedRun", "Protocol",
    "ProtocolConfig", "QuasiIdealParams", "QuasiIdealSpec", "TrialMatrix",
    "WaitingTimeDistribution", "ZeroVarianceError",
    "bruteforce_inaccuracy", "chebyshev_bound", "choose_period_feedback",
    "choose_period_no_feedback", "corollary_bounds", "cross_node_spread",
    "ec_bar_sigma", "empirical_inaccuracy", "hoeffding_inaccuracy_bound",
    "hoeffding_tail", "monte_carlo", "network_spreads",
    "output_epsilon_budget", "plan_scenario", "prepare",
    "quasi_ideal_params", "quasi_ideal_ratio", "r_accuracy", "run_network",
    "sample_tick_phase",
    "theorem1_bound", "theorem2_bound", "theorem_bound", "wrap_phase",
]
