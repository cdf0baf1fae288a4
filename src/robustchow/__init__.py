"""Robust estimation of low-degree Chow parameters under adversarial label
and point corruption, with halfspace, polynomial-threshold, and
intersection-of-halfspaces learners built on top of the filtered estimates.
"""

from .adversary import STRATEGIES, AdversaryStrategy, LabeledSampleSet, corrupt
from .chowfilter import (ChowEstimate, FilterParams, chow_distance,
                         empirical_chow, prune_mask, robust_chow)
from .distributions import (ReasonableDistribution, compute_delta,
                            compute_tmax, from_config, gaussian_descriptor,
                            gaussian_moment_matrix, gaussian_monomial_map,
                            hypercube_descriptor,
                            hypercube_moment_matrix, log_concave_descriptor,
                            make_tail_bound)
from .errors import (AcceptanceTooLow, AllPointsPruned, BasisMismatch,
                     BudgetExceeded, ChowBoundViolated, ConfigError, CoverTooLarge,
                     DimensionMismatch, EmptyHoldout, IntegralDiverges,
                     InvalidHypothesis, NonMultilinearBasis,
                     NoThresholdFound, NotPSD, RobustChowError,
                     SizeCapExceeded, UnknownFamily, UnknownStrategy,
                     ZeroChowVector)
from .harness import (ExperimentConfig, ResultRow, analytic_ltf_chow,
                      make_corrupted_source, plant_instance, run_experiment,
                      score)
from .hypothesis_select import disagreement, select, select_intersection_cover
from .intersection_learner import (Cover, Degree2ChowMatrix, Intersection,
                                   Subspace, build_degree2,
                                   default_cover_delta, direction_correlation,
                                   extract_subspace, learn_intersection,
                                   make_cover)
from .ltf_learner import (LTF, LTFConfig, RejectionParams, constant_ltf,
                          estimate_threshold, learn_ltf, recover_ab,
                          refine_extreme, refine_moderate, weak_learn_ltf)
from .polybasis import MonomialBasis, Polynomial, enumerate_basis, eval_monomials_batch
from .ptf_learner import (PBF, PTF, chow_reconstruct, default_xi, learn_ptf,
                          make_sampling_oracle)

__version__ = "0.1.0"
