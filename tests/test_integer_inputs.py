"""Malformed integer inputs at every public entry point: floats and numeric
strings are refused, never truncated, and so are vectors of the wrong length
and, for dimension vectors and length bounds, negative entries. Each raises the entry point's
documented `ValueError` subclass."""
import random
from fractions import Fraction

import numpy as np
import pytest

from quivermod import (QQ, GenericExtTable, PrimeField, QuiverError,
                       RepresentationError, SigmaError, check_over_rationals,
                       chi_theta, enumerate_dimvectors, enumerate_paths, euler_form,
                       extended_quiver, generic_ext, generic_subdimvectors,
                       group_element, is_semistable, is_stable, local_quiver,
                       make_sigma, moduli_dimension, numerical_condition,
                       path_combination, paths_between, quiver, random_representation,
                       representation, root_presentation, semistable_nonempty,
                       stable_nonempty, tau_morphism, theta_pairing, total_dim,
                       validate_quiver)

K3 = quiver(2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)])
M = representation(K3, PrimeField(2), (1, 1), {"x": [[1]]})  # stable at (-1, 1)
M_Q = representation(K3, QQ, (1, 1), {"x": [[1]]})
SIGMA = make_sigma(K3, (-1, 1), 1)
G = group_element(QQ, [[[2]], [[3]]])

# each float case truncates to a valid input, (-1, 1) or (1, 1), and each
# bool case reads as one
BAD_VECTORS = {"float": (-1.5, 1.5), "string": ("-1", "1"), "length": (-1, 1, 0),
               "bool": (-1, True)}
BAD_DIMVECS = {"float": (1.2, 1.7), "string": ("1", "1"), "length": (1, 1, 1),
               "negative": (-1, 1), "bool": (True, 1)}

# integer vectors without a sign condition: weights and the Euler form's arguments
VECTOR_USERS = {
    "euler_form": lambda v: euler_form(K3, v, (1, 1)),
    "theta_pairing": lambda t: theta_pairing(t, (1, 1)),
    "enumerate_dimvectors": lambda t: enumerate_dimvectors(K3, 2, t),
    "semistable_nonempty": lambda t: semistable_nonempty(K3, (1, 1), t),
    "stable_nonempty": lambda t: stable_nonempty(K3, (1, 1), t),
    "moduli_dimension": lambda t: moduli_dimension(K3, (1, 1), t),
    "local_quiver": lambda t: local_quiver([(M, 1)], t),
    "is_semistable": lambda t: is_semistable(M, t),
    "is_stable": lambda t: is_stable(M, t),
    "check_over_rationals": lambda t: check_over_rationals(M_Q, t, [3]),
    "make_sigma": lambda t: make_sigma(K3, t, 1),
    "chi_theta": lambda t: chi_theta(G, t),
}
DIMVEC_USERS = {
    "representation": (lambda a: representation(K3, QQ, a, {}), RepresentationError),
    "random_representation": (lambda a: random_representation(K3, QQ, a, random.Random(0)),
                              RepresentationError),
    "GenericExtTable.ext": (lambda a: GenericExtTable(K3).ext(a, (1, 1)), QuiverError),
    "generic_ext": (lambda a: generic_ext(K3, (1, 1), a), QuiverError),
    "generic_subdimvectors": (lambda a: generic_subdimvectors(K3, a), QuiverError),
    "semistable_nonempty": (lambda a: semistable_nonempty(K3, a, (-1, 1)), QuiverError),
    "stable_nonempty": (lambda a: stable_nonempty(K3, a, (-1, 1)), QuiverError),
    "moduli_dimension": (lambda a: moduli_dimension(K3, a, (-1, 1)), QuiverError),
    "numerical_condition": (lambda a: numerical_condition(SIGMA, a), QuiverError),
}
# (call, error, bad values) for integers taken one at a time or in unsized lists
SCALAR_USERS = {
    "quiver.vertex_count": (lambda v: quiver(v, []), QuiverError, (2.0, "2")),
    "quiver.arrow_end": (lambda v: quiver(2, [("a", v, 2)]), QuiverError, (1.5, "1")),
    "validate_quiver.vertices": (lambda v: validate_quiver({"vertices": v}), QuiverError,
                                 (2.0, "2")),
    "validate_quiver.arrow_end": (
        lambda v: validate_quiver({"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": v}]}),
        QuiverError, (1.5, "2")),
    "enumerate_dimvectors.n": (lambda v: enumerate_dimvectors(K3, v, (-1, 1)), QuiverError,
                               (2.0, "2")),
    # a negative path length bound used to give the trivial paths, of length 0
    "enumerate_paths.max_len": (lambda v: enumerate_paths(K3, v), QuiverError, (1.5, "1", -1)),
    "paths_between.max_len": (lambda v: paths_between(K3, 1, 1, v), QuiverError, (-3,)),
    "make_sigma.max_path_len": (lambda v: make_sigma(K3, (-1, 1), 1, v), QuiverError, (-1,)),
    "theta_pairing.alpha": (lambda v: theta_pairing((-1, 1), (v, 1)), QuiverError, (1.5, "1")),
    "total_dim": (lambda v: total_dim((v, 1)), QuiverError, (1.5, "1")),
    "local_quiver.multiplicity": (lambda v: local_quiver([(M, v)], (-1, 1)), QuiverError,
                                  (1.5, "1")),
    "path_combination.ends": (lambda v: path_combination(v, 2, []), QuiverError, (1.5, "1")),
    "make_sigma.z": (lambda v: make_sigma(K3, (-1, 1), v), SigmaError, (1.5, "1")),
    # a bool seed used to name the sigma "sigma.z1.seedTrue", a list to raise TypeError
    "make_sigma.seed": (lambda v: make_sigma(K3, (-1, 1), 1, seed=v), SigmaError,
                        (True, [1], 1.5, "1")),
    "extended_quiver.n": (lambda v: extended_quiver(K3, v), QuiverError, (1.5, "1")),
    "tau_morphism.n": (lambda v: tau_morphism(K3, v), QuiverError, (1.5, "1")),
    "root_presentation.n": (lambda v: root_presentation(K3, [], v), QuiverError, (1.5, "1")),
    # a negative bound used to give the trivial loop alone
    "root_presentation.loop_len_bound": (lambda v: root_presentation(K3, [], 1, v),
                                         QuiverError, (2.0, "2", -1)),
}

CASES = (
    [pytest.param(call, bad, QuiverError, id=f"{name}-vector-{kind}")
     for name, call in VECTOR_USERS.items() for kind, bad in BAD_VECTORS.items()]
    + [pytest.param(call, bad, error, id=f"{name}-dimvec-{kind}")
       for name, (call, error) in DIMVEC_USERS.items() for kind, bad in BAD_DIMVECS.items()]
    + [pytest.param(call, bad, error, id=f"{name}-{bad!r}")
       for name, (call, error, bads) in SCALAR_USERS.items() for bad in bads])


@pytest.mark.parametrize("call, bad, error", CASES)
def test_malformed_integers_are_refused(call, bad, error):
    with pytest.raises(error):
        call(bad)


def test_integer_like_values_are_accepted():
    """Anything with `__index__` counts as an integer, numpy's included, and
    gives the answer of the plain ints."""
    a, t = np.array([1, 1]), np.array([-1, 1])
    assert euler_form(K3, a, a) == euler_form(K3, (1, 1), (1, 1)) == -1
    assert theta_pairing(t, a) == 0 and total_dim(a) == 2
    assert enumerate_dimvectors(K3, np.int64(2), t) == [(1, 1)]
    assert moduli_dimension(K3, [1, 1], t) == moduli_dimension(K3, (1, 1), (-1, 1)) == 2
    assert is_stable(M, t).stable
    assert chi_theta(G, t) == Fraction(3, 2)
    assert make_sigma(K3, t, 1, seed=np.int64(3)) == make_sigma(K3, (-1, 1), 1, seed=3)
    q = validate_quiver({"vertices": np.int64(2), "arrows": [{"id": "a", "src": 1, "tgt": 2}]})
    assert q == quiver(2, [("a", 1, 2)]) and type(q.arrows[0].src) is int
