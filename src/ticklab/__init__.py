"""Monte-Carlo simulator and statistics toolkit for tick-signal accuracy
enhancing protocols."""

from .clocks import (EnhancingClock, InputClock, MarkovTwoState, Mode,
                     QuasiIdealParams, RenewalProcess, free_run,
                     quasi_ideal_params, quasi_ideal_ratio,
                     sample_tick_phase, wrap_phase)
from .distributions import (Box, Delta, DeltaMixture, Gaussian,
                            WaitingTimeDistribution)
from .inaccuracy import (ConfidenceInterval, InaccuracyEstimate,
                         ZeroVarianceError, bruteforce_inaccuracy,
                         chebyshev_bound, empirical_inaccuracy,
                         hoeffding_inaccuracy_bound, hoeffding_tail,
                         r_accuracy)
from .network import (NetworkScenario, NodeConfig, cross_node_spread,
                      network_spreads, plan_scenario, run_network)
from .protocols import (ExplicitEC, FreeRunEC, PreparedRun, Protocol,
                        ProtocolConfig, QuasiIdealSpec, TrialMatrix,
                        choose_period_feedback, choose_period_no_feedback,
                        corollary_bounds, ec_bar_sigma, monte_carlo,
                        output_epsilon_budget, prepare, run_protocol,
                        theorem1_bound, theorem2_bound, theorem_bound)
from .trace import TickTrace

__all__ = [
    "Box", "ConfidenceInterval", "Delta", "DeltaMixture", "EnhancingClock",
    "ExplicitEC", "FreeRunEC", "Gaussian", "InaccuracyEstimate",
    "InputClock", "MarkovTwoState", "Mode", "NetworkScenario", "NodeConfig",
    "PreparedRun", "Protocol", "ProtocolConfig", "QuasiIdealParams",
    "QuasiIdealSpec", "RenewalProcess", "TickTrace", "TrialMatrix",
    "WaitingTimeDistribution", "ZeroVarianceError",
    "bruteforce_inaccuracy", "chebyshev_bound", "choose_period_feedback",
    "choose_period_no_feedback", "corollary_bounds", "cross_node_spread",
    "ec_bar_sigma", "empirical_inaccuracy", "free_run",
    "hoeffding_inaccuracy_bound", "hoeffding_tail", "monte_carlo",
    "network_spreads", "output_epsilon_budget", "plan_scenario", "prepare",
    "quasi_ideal_params",
    "quasi_ideal_ratio", "r_accuracy", "run_network", "run_protocol",
    "sample_tick_phase",
    "theorem1_bound", "theorem2_bound", "theorem_bound", "wrap_phase",
]
