"""Monte-Carlo simulator and statistics toolkit for tick-signal accuracy
enhancing protocols."""

from .clocks import (EnhancingClock, ExplicitEC, MarkovTwoState, Mode,
                     quasi_ideal_params, quasi_ideal_ratio, sample_tick_phase,
                     wrap_phase)
from .distributions import (Box, Delta, DeltaMixture, Gaussian,
                            WaitingTimeDistribution)
from .inaccuracy import (ConfidenceInterval, InaccuracyEstimate,
                         bruteforce_inaccuracy, chebyshev_bound,
                         empirical_inaccuracy, hoeffding_inaccuracy_bound,
                         hoeffding_tail)
from .network import (NetworkScenario, NodeConfig, cross_node_spread,
                      network_spreads, plan_scenario, run_network)
from .protocols import (PreparedRun, Protocol, ProtocolConfig,
                        QuasiIdealSpec, TrialMatrix, corollary_bounds,
                        ec_bar_sigma, monte_carlo, output_epsilon_budget,
                        prepare, theorem1_bound, theorem2_bound,
                        theorem_bound)

__all__ = [
    "Box", "ConfidenceInterval", "Delta", "DeltaMixture", "EnhancingClock",
    "ExplicitEC", "Gaussian", "InaccuracyEstimate", "MarkovTwoState",
    "Mode", "NetworkScenario", "NodeConfig", "PreparedRun", "Protocol",
    "ProtocolConfig", "QuasiIdealSpec", "TrialMatrix",
    "WaitingTimeDistribution",
    "bruteforce_inaccuracy", "chebyshev_bound", "corollary_bounds",
    "cross_node_spread",
    "ec_bar_sigma", "empirical_inaccuracy", "hoeffding_inaccuracy_bound",
    "hoeffding_tail", "monte_carlo", "network_spreads",
    "output_epsilon_budget", "plan_scenario", "prepare",
    "quasi_ideal_params", "quasi_ideal_ratio", "run_network",
    "sample_tick_phase",
    "theorem1_bound", "theorem2_bound", "theorem_bound", "wrap_phase",
]
