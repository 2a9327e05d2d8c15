"""Rerandomized 2^K factorial experiments: design, analysis, and simulation.

The package covers the full workflow: build the contrast algebra of a
factorial design, rerandomize assignments until covariate balance criteria
accept one, estimate factorial effects with covariate-adjusted uncertainty,
simulate the matching asymptotic laws, and run replication studies that
compare criteria against theory.
"""

from .asymptotic import (AsymptoticLaw, CorrelationProfile, LawComponent,
                         correlation_profile, quantile_threshold, simulate_law,
                         truncated_gaussian_sample, variance_reduction)
from .balance import (BalanceCriterion, BalanceReport, CompleteRandomization,
                      CriterionEngine, CriterionPlan, EffectTierCriterion,
                      GridTierCriterion, MahalanobisCriterion,
                      criterion_cutoffs, criterion_dimensions, criterion_plan,
                      thresholds_from_probability)
from .chisq import chi2_cdf, chi2_quantile, truncation_variance_factor
from .confidence import (DEFAULT_ALPHA, DEFAULT_LAW_DRAWS, ConfidenceSet, confidence_set,
                         estimated_law)
from .design import (CovariateTierPartition, EffectTierPartition,
                     FactorialStructure, GroupSizes, TieredCoefficients,
                     TierGrid, build_structure, coefficient_gram,
                     orthogonalize_covariates, orthogonalize_effects,
                     partition_by_order)
from .errors import RefacError, SingularMatrixError, ValidationError
from .estimate import (SampleMoments, effect_estimates, neyman_covariance,
                       projection_coefficients, residual_covariance_estimate,
                       sample_moments)
# the function rerandomize stays in its module, so that refac.rerandomize
# is the submodule
from .rerandomize import (Assignment, MaxDrawsExceeded, RerandomizationOutcome,
                          default_max_draws, draw_assignment)
from .rng import philox_key, stream
from .simlab import (CovariateColumn, OutcomeRecipe, Population,
                     PopulationSpec, ReplicationReport, TradeoffCurve,
                     binary_column, education_like, generate_population,
                     normal_column, replicate, report_rows, report_to_dict,
                     tradeoff_sweep, uniform_column)
from .truth import PopulationTruth, criterion_profile, law_from_truth, population_truth

__version__ = "0.8.0"

__all__ = [name for name in dir() if not name.startswith("_")]
