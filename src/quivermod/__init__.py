"""Exact computations with quiver representations: theta-stability,
semi-invariants, generic moduli data and universal localizations."""

__version__ = "0.1.0"

from .fields import FieldError, PrimeField, QQ, Rationals, field_from_json
from .quiver import (Arrow, DimVector, Path, Quiver, QuiverError, Weight,
                     compose, enumerate_dimvectors, enumerate_paths, euler_form,
                     paths_between, quiver, theta_pairing, total_dim,
                     trivial_path, validate_quiver)
from .rep import (GroupElement, Representation, RepresentationError, act,
                  direct_sum, evaluate_path, ext_space, group_element,
                  hom_space, random_group_element, random_representation,
                  representation, representation_from_json, zero_representation)
from .stability import (BudgetExceededError, RationalVerdict,
                        SemistabilityVerdict, StabilityVerdict, SubrepWitness,
                        WitnessCheckError, check_over_rationals, enumerate_subreps,
                        is_semistable, is_stable, verify_witness)
from .moduli import (GenericExtTable, LocalQuiverData, NotStableError,
                     generic_ext, generic_subdimvectors, local_model_dimension,
                     local_quiver, moduli_dimension, semistable_nonempty,
                     stable_nonempty)
from .localization import (NonSquareError, PathCombination, Presentation,
                           Relation, SigmaError, SigmaMorphism, Term,
                           check_localized_point, chi_theta, evaluate_sigma,
                           extended_quiver, localization_presentation,
                           make_sigma, numerical_condition, path_combination,
                           root_presentation, semi_invariant, sigma_from_json,
                           tau_morphism, word_typing)
