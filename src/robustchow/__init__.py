"""Robust estimation of low-degree Chow parameters under adversarial label
and point corruption, with halfspace, polynomial-threshold, and
intersection-of-halfspaces learners built on top of the filtered estimates.
"""

from .adversary import (STRATEGIES, AdversaryStrategy, LabeledSampleSet,
                        corrupt, plant_instance)
from .chowfilter import (ChowEstimate, FilterParams, chow_distance,
                         empirical_chow, prune_mask, recommended_sample_count,
                         robust_chow)
from .distributions import (ReasonableDistribution, compute_delta,
                            compute_tmax, from_config, gaussian_descriptor,
                            gaussian_moment_matrix, hypercube_descriptor,
                            hypercube_moment_matrix, log_concave_descriptor,
                            make_tail_bound)
from .errors import (AcceptanceTooLow, AllPointsPruned, BasisMismatch,
                     BudgetExceeded, ConfigError, CoverTooLarge,
                     DimensionMismatch, EmptyHoldout, IntegralDiverges,
                     InvalidHypothesis, NegativeQuadraticForm,
                     NonMultilinearBasis, NoThresholdFound, NotPSD,
                     OracleFailure, RobustChowError, SizeCapExceeded,
                     UnknownFamily, UnknownStrategy, ZeroChowVector)
from .harness import (ExperimentConfig, ResultRow, analytic_ltf_chow,
                      make_corrupted_source, run_experiment, score)
from .hypothesis_select import (CandidateSet, disagreement, select,
                                select_intersection_cover)
from .intersection_learner import (Cover, Degree2ChowMatrix, Intersection,
                                   Subspace, build_degree2,
                                   default_cover_delta, direction_correlation,
                                   extract_subspace, learn_intersection,
                                   make_cover)
from .ltf_learner import (LTF, LTFConfig, RejectionParams, constant_ltf,
                          estimate_threshold, learn_ltf, recover_ab,
                          refine_extreme, refine_moderate, rejection_sample,
                          weak_learn_ltf)
from .polybasis import (MonomialBasis, Polynomial, enumerate_basis,
                        eval_monomials_batch, l2_norm)
from .ptf_learner import (PBF, PTF, chow_reconstruct, default_xi, learn_ptf,
                          make_sampling_oracle, project_p1)

__version__ = "0.1.0"
