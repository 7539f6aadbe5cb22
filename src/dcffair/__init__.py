"""Fairness calculus for the 802.11 DCF.

Analytical saturation model, conditional fairness distributions, a GPS
emulation clock with random error terms, stochastic service curves with
probabilistic delay bounds, a passive fair-rate estimator, and the
slot-level simulator that cross-validates all of them.
"""

from .clock import (ClockTrace, DeviationSummary, GpsReference, clock_vs_gps,
                    dcf_clock, gps_finish_times)
from .errors import (AlignmentError, ConditioningError, ConfigError,
                     ConsistencyError, DivergenceError, EmptyClockError,
                     Error, HorizonNotFoundError, InstabilityError,
                     ModelError, NotEnoughBacklogError, SolverError,
                     TraceFormatError, TruncationError)
from .estimator import (BusyPeriods, ConvergencePoint, RateEstimate,
                        convergence_report, detect_busy_periods,
                        estimate_fair_rate)
from .fairness import (ConditionalPmf, FairnessWindowStats, conditional_pmf,
                       empirical_conditional_pmf, pmf_moments,
                       short_term_horizon, tv_distance, windowed_fairness)
from .mac import (AttemptSolution, MacParams, SlotDistribution,
                  VectorAttemptSolution, saturation_throughput,
                  slot_distribution, solve_attempt_fixed_point,
                  solve_attempt_fixed_point_vector)
from .netcalc import (ArrivalEnvelope, IncrementModel, StochasticServiceCurve,
                      backlog_bound, delay_bound, increment_model_from_slots,
                      increment_moments, log_mgf, optimize_theta,
                      service_curve, t_epsilon_us, theta_max)
from .sim import SimConfig, SimCounters, SimResult, replicate, run
from .traceio import (EventTrace, SlotTrace, read_event_trace_csv,
                      read_ownership_csv, read_slot_trace_csv,
                      write_event_trace_csv, write_ownership_csv,
                      write_slot_trace_csv)

__version__ = "0.1.0"
