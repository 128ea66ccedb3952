import gc
import random
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from functools import cache
from itertools import product
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivermod import (QQ, BudgetExceededError, FieldError, PrimeField, QuiverError,
                       RepresentationError, WitnessCheckError, act, check_over_rationals, direct_sum,
                       enumerate_subreps, is_semistable, is_stable, linalg, local_quiver, quiver,
                       random_group_element,
                       random_representation, representation, stability,
                       verify_witness, zero_representation)
from quivermod.fields import Matrix
from quivermod.stability import SubrepWitness, _all_subspaces, subspace_count


def rep_k3(k3, field, m):
    return representation(k3, field, (1, 1),
                          {"x": [[m[0]]], "y": [[m[1]]], "z": [[m[2]]]})


def test_subspace_count_matches_enumeration():
    for p in (2, 3):
        for n in range(4):
            assert len(_all_subspaces(p, n)) == subspace_count(p, n)
    assert subspace_count(2, 2) == 5  # 0, three lines, plane


def test_zero_rep_all_subspace_pairs_are_subreps(a2):
    z = zero_representation(a2, PrimeField(2), (1, 1))
    subs = enumerate_subreps(z)
    assert len(subs) == 4
    assert sorted(w.beta for w in subs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_k3_coordinate_rep_subreps(k3):
    m = rep_k3(k3, PrimeField(2), (1, 0, 0))
    betas = {w.beta for w in enumerate_subreps(m)}
    assert betas == {(0, 0), (0, 1), (1, 1)}


def test_zero_and_full_always_present(k3):
    rng = random.Random(1)
    from quivermod import random_representation
    m = random_representation(k3, PrimeField(3), (2, 1), rng)
    betas = [w.beta for w in enumerate_subreps(m)]
    assert (0, 0) in betas and (2, 1) in betas


def test_witnesses_verify_independently(k3):
    m = rep_k3(k3, PrimeField(3), (1, 2, 0))
    for w in enumerate_subreps(m):
        assert verify_witness(m, w)


def test_verify_witness_exact_at_largest_prime(k3):
    p = 2**31 - 1
    x = [[p - 1] * 4, [p - 2, p - 5, p - 7, p - 2], [p - 4, p - 6, p - 1, p - 9],
         [p - 1, p - 2, p - 3, p - 4]]
    m = representation(k3, PrimeField(p), (4, 4),
                       {"x": x, "y": [[2 * v for v in r] for r in x],
                        "z": [[3 * v for v in r] for r in x]})
    u = [1, p - 1, p - 2, p - 3]
    xu = [sum(a * b for a, b in zip(row, u)) % p for row in x]
    sub = SubrepWitness({1: np.array([u], dtype=np.int64), 2: np.array([xu], dtype=np.int64)},
                        (1, 1))
    assert verify_witness(m, sub)
    not_sub = SubrepWitness({1: np.array([[2] + u[1:]], dtype=np.int64),
                             2: np.array([xu], dtype=np.int64)}, (1, 1))
    assert not verify_witness(m, not_sub)


def test_budget_exceeded(k3):
    m = zero_representation(k3, PrimeField(3), (2, 2))
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_subreps(m, budget=3)
    assert exc.value.name == "subspace_tuples"
    assert exc.value.required > 3


@pytest.mark.parametrize("budget", [-1, 0, 1.5, "3", None])
def test_budget_not_a_positive_integer_is_rejected(k3, budget):
    f3 = PrimeField(3)
    m = rep_k3(k3, f3, (1, 0, 0))
    off = zero_representation(k3, f3, (2, 1))  # theta(M) != 0: no search needed
    q_point = rep_k3(k3, QQ, (1, 0, 0))
    calls = [lambda: enumerate_subreps(m, budget=budget),
             lambda: is_semistable(m, (-1, 1), budget=budget),
             lambda: is_semistable(off, (-1, 1), budget=budget),
             lambda: is_stable(m, (-1, 1), budget=budget),
             lambda: is_stable(off, (-1, 1), budget=budget),
             lambda: check_over_rationals(q_point, (-1, 1), [5], budget=budget),
             lambda: check_over_rationals(q_point, (-2, 1), [5], budget=budget),
             lambda: local_quiver([(m, 1)], (-1, 1), budget=budget),
             lambda: local_quiver([(m, 1)], (-1, 1), assert_stable=True, budget=budget)]
    for call in calls:
        with pytest.raises(QuiverError, match="budget"):
            call()
    assert is_semistable(off, (-1, 1), budget=1).reason == "theta(M) != 0"


def test_semistable_examples(k3):
    f2 = PrimeField(2)
    assert is_semistable(rep_k3(k3, f2, (1, 0, 0)), (-1, 1)).semistable
    v = is_semistable(rep_k3(k3, f2, (0, 0, 0)), (-1, 1))
    assert not v.semistable
    assert v.witness.beta == (1, 0) and v.witness.theta_value == -1


def test_theta_nonzero_fails_immediately(k3):
    m = zero_representation(k3, PrimeField(2), (2, 1))
    v = is_semistable(m, (-1, 1))
    assert not v.semistable and v.reason == "theta(M) != 0"
    assert v.budget_used == 0


def test_stable_examples(k3, a2):
    f2 = PrimeField(2)
    m = rep_k3(k3, f2, (1, 0, 0))
    assert is_stable(m, (-1, 1)).stable
    v = is_stable(direct_sum(m, m), (-1, 1))
    assert v.semistable and not v.stable
    assert v.witness is not None and v.witness.theta_value == 0
    simple = zero_representation(a2, f2, (1, 0))
    assert is_stable(simple, (0, 0)).stable


def test_is_stable_refuses_zero_representation(k3, a2):
    for q in (k3, a2):
        z = zero_representation(q, PrimeField(2), (0, 0))
        with pytest.raises(RepresentationError):
            is_stable(z, (0, 0))
        assert is_semistable(z, (0, 0)).semistable  # semistability still answers


def test_semistability_gl_invariant(k3):
    rng = random.Random(13)
    f3 = PrimeField(3)
    from quivermod import random_representation
    for _ in range(5):
        m = random_representation(k3, f3, (1, 1), rng)
        g = random_group_element(f3, (1, 1), rng)
        assert (is_semistable(m, (-1, 1)).semistable
                == is_semistable(act(g, m), (-1, 1)).semistable)


def test_k3_f3_semistable_count(k3):
    f3 = PrimeField(3)
    count = sum(is_semistable(rep_k3(k3, f3, m), (-1, 1)).semistable
                for m in product(range(3), repeat=3))
    assert count == 26


def test_direct_sum_of_semistables_is_semistable(k3):
    f2 = PrimeField(2)
    semis = [rep_k3(k3, f2, m) for m in product(range(2), repeat=3)
             if is_semistable(rep_k3(k3, f2, m), (-1, 1)).semistable]
    assert len(semis) == 7
    m, n = semis[0], semis[3]
    assert is_semistable(direct_sum(m, n), (-1, 1)).semistable


def test_rational_semistable_heuristic(k3):
    m = rep_k3(k3, QQ, (1, 0, 0))
    r = check_over_rationals(m, (-1, 1), [2, 3, 5])
    assert r.verdict == "semistable" and r.certainty == "HEURISTIC"
    assert r.primes_tested == [2, 3, 5]


def test_rational_instability_proof(k3):
    z = rep_k3(k3, QQ, (0, 0, 0))
    r = check_over_rationals(z, (-1, 1), [2])
    assert r.verdict == "unstable" and r.certainty == "PROOF"
    assert r.witness_beta == (1, 0) and r.witness_lifted


def test_rational_instability_heuristic(k3):
    # x = 3 vanishes mod 3, so (1, 0) destabilizes there, but not over Q
    m = rep_k3(k3, QQ, (3, 0, 0))
    r = check_over_rationals(m, (-1, 1), [3])
    assert r.verdict == "unstable" and r.certainty == "HEURISTIC"
    assert r.witness_beta == (1, 0) and r.witness_prime == 3
    assert not r.witness_lifted


def test_rational_reports_every_prime_tested_after_a_heuristic_witness(k3):
    """x = 3/7: F_3 gives a (1, 0) witness that does not lift, 7 divides a
    denominator and F_5 finds the point semistable; the verdict keeps the F_3
    witness and lists every prime tested or skipped after it."""
    m = rep_k3(k3, QQ, ("3/7", 0, 0))
    r = check_over_rationals(m, (-1, 1), [3, 7, 5])
    assert (r.verdict, r.certainty, r.witness_beta) == ("unstable", "HEURISTIC", (1, 0))
    assert r.primes_tested == [3, 5] and r.witness_prime == 3 and not r.witness_lifted
    assert r.skipped == [(7, "prime 7 divides a denominator")]


def test_verify_witness_over_rationals(a2):
    m = representation(a2, QQ, (2, 1), {"a": [["1/2", "-1"]]})
    kernel = SubrepWitness({1: np.array([[2, 1]]), 2: np.zeros((0, 1), dtype=np.int64)},
                           (1, 0))
    assert verify_witness(m, kernel)
    line = SubrepWitness({1: np.array([[1, 0]]), 2: np.zeros((0, 1), dtype=np.int64)},
                         (1, 0))
    assert not verify_witness(m, line)
    dependent = SubrepWitness({1: [[2, 1], [4, 2]], 2: [[1]]}, (2, 1))
    assert not verify_witness(m, dependent)
    wrong_length = SubrepWitness({1: [[1, 0, 0]], 2: [[1]]}, (1, 1))
    assert not verify_witness(m, wrong_length)


def test_witness_bases_are_read_only(a2):
    """A verdict's witness is frozen, its bases included: they cannot be
    changed after `verify_witness` has checked them, nor through the mapping
    the witness was built from."""
    m = zero_representation(a2, PrimeField(2), (1, 1))
    w = is_semistable(m, (1, -1)).witness
    assert w.beta == (0, 1) and verify_witness(m, w)
    with pytest.raises(TypeError):
        w.bases[1] = w.bases[2]
    with pytest.raises(AttributeError):
        w.bases.clear()
    given_bases = dict(w.bases)
    copy = SubrepWitness(given_bases, w.beta, w.theta_value)
    given_bases.clear()
    assert dict(copy.bases) == dict(w.bases) and verify_witness(m, copy)


def test_witness_hash_agrees_with_equality(a2):
    m = zero_representation(a2, PrimeField(2), (1, 1))
    w = is_semistable(m, (1, -1)).witness
    same = SubrepWitness(dict(w.bases), w.beta, w.theta_value)
    assert same == w and hash(same) == hash(w)
    assert len({w, same}) == 1


def test_rational_prime_skipped(k3):
    m = rep_k3(k3, QQ, ("1/3", 0, 0))
    with pytest.raises(RepresentationError, match="prime 3 divides a denominator"):
        check_over_rationals(m, (-1, 1), [3])
    with pytest.raises(FieldError):
        check_over_rationals(m, (-1, 1), [4])
    r = check_over_rationals(m, (-1, 1), [3, 5])
    assert r.skipped == [(3, "prime 3 divides a denominator")]
    assert r.primes_tested == [5] and r.verdict == "semistable"


def test_rational_refuses_a_non_prime(k3):
    """Each prime becomes its field before the reduction, whose `FieldError`
    means a skipped prime: a non-prime raises instead of being skipped."""
    for m in (rep_k3(k3, QQ, (1, 0, 0)), rep_k3(k3, QQ, ("1/4", 0, 0))):
        for primes in ([4], [5, 6], [3, 1]):
            with pytest.raises(FieldError, match="not a prime"):
                check_over_rationals(m, (-1, 1), primes)


def test_checks_refuse_the_wrong_field(k3):
    """The exhaustive oracle runs over F_p and the reduction starts over Q."""
    with pytest.raises(RepresentationError, match="over F_p"):
        is_semistable(rep_k3(k3, QQ, (1, 0, 0)), (-1, 1))
    with pytest.raises(RepresentationError, match="over Q"):
        check_over_rationals(rep_k3(k3, PrimeField(5), (1, 0, 0)), (-1, 1), [5])


def test_rational_without_a_tested_prime_has_no_verdict(k3):
    """With every prime skipped there is no verdict: the answer used to be
    "semistable (HEURISTIC)" for a representation that F_5 proves unstable."""
    zero = [[0, 0], [0, 0]]
    m = representation(k3, QQ, (2, 2), {"x": [["1/3", 0], [0, 0]], "y": zero, "z": zero})
    r = check_over_rationals(m, (-1, 1), [5])
    assert (r.verdict, r.certainty, r.witness_beta) == ("unstable", "PROOF", (1, 0))
    with pytest.raises(RepresentationError, match=r"no prime could be tested \(prime 3 divides"):
        check_over_rationals(m, (-1, 1), [3])
    with pytest.raises(RepresentationError, match="no primes given"):
        check_over_rationals(m, (-1, 1), [])
    # theta(M) != 0 decides without a prime
    assert check_over_rationals(m, (-2, 1), []).certainty == "PROOF"


def reference_subreps(m):
    """The plain product scan over all per-vertex subspace tuples, each checked
    by `verify_witness`."""
    per_vertex = [_all_subspaces(m.field.p, d) for d in m.dim]
    out = []
    for combo in product(*per_vertex):
        beta = tuple(b.shape[0] for b, _ in combo)
        if verify_witness(m, SubrepWitness({v + 1: b for v, (b, _) in enumerate(combo)}, beta)):
            out.append((beta, tuple(b.rows for b, _ in combo)))
    return out


def searched(m):
    """`enumerate_subreps` in the form `reference_subreps` returns."""
    return [(w.beta, tuple(w.bases[v + 1].rows for v in range(len(m.dim))))
            for w in enumerate_subreps(m)]


SEARCH_QUIVERS = {
    "K3": (2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)]),
    "path with shortcut": (3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]),
    "2-cycle": (2, [("a", 1, 2), ("b", 2, 1)]),
    "Jordan": (1, [("l", 1, 1)]),
    "back arrow and loop": (2, [("a", 2, 1), ("l", 1, 1)]),
}


# (quiver, p) -> a dimension vector where most images fill their target space,
# so the full-space exits of `_Lattice.extend` and `_image` fire; at the
# 2-cycle and the loop the last vertex's back-arrow check then decides
FILLING_DIMS = {("K3", 3): (3, 3), ("K3", 2): (4, 3), ("2-cycle", 2): (3, 3),
                ("back arrow and loop", 2): (3, 3)}


@pytest.mark.parametrize("name", sorted(SEARCH_QUIVERS))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_search_matches_product_scan(name, p):
    k, arrows = SEARCH_QUIVERS[name]
    q = quiver(k, arrows)
    fld = PrimeField(p)
    rng = random.Random(f"{name}/{p}")
    top = 3 if p == 2 else 2
    dims = [tuple([0] * k), tuple([top] * k)]
    dims += [tuple(rng.randint(0, top) for _ in range(k)) for _ in range(3)]
    if k > 1:
        dims.append(tuple([0] + [top] * (k - 1)))
    for dim in dims:
        for m in (zero_representation(q, fld, dim), random_representation(q, fld, dim, rng)):
            assert searched(m) == reference_subreps(m), dim
    if (name, p) in FILLING_DIMS:
        dim = FILLING_DIMS[name, p]
        for _ in range(3):
            m = random_representation(q, fld, dim, rng)
            assert searched(m) == reference_subreps(m), dim


def test_returned_witnesses_are_rechecked(k3, monkeypatch):
    f2 = PrimeField(2)
    unstable = rep_k3(k3, f2, (0, 0, 0))
    polystable = direct_sum(rep_k3(k3, f2, (1, 0, 0)), rep_k3(k3, f2, (0, 1, 0)))
    assert is_semistable(unstable, (-1, 1)).witness is not None
    assert is_stable(polystable, (-1, 1)).witness.theta_value == 0
    monkeypatch.setattr(stability, "verify_witness", lambda m, w: False)
    with pytest.raises(WitnessCheckError):
        is_semistable(unstable, (-1, 1))
    with pytest.raises(WitnessCheckError):
        is_stable(unstable, (-1, 1))
    with pytest.raises(WitnessCheckError):
        is_stable(polystable, (-1, 1))
    assert is_semistable(polystable, (-1, 1)).semistable


@pytest.fixture
def cold_lattices():
    stability._kept_lattice.cache_clear()
    yield
    stability._kept_lattice.cache_clear()


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_shared_lattice_matches_product_scan(k3, cold_lattices, order):
    """Searches at one (p, n) share a lattice and its superspace lists; a cold
    and a warm cache give the product scan, whichever search comes first."""
    rng = random.Random(11)
    f3 = PrimeField(3)
    two_cycle = quiver(2, [("a", 1, 2), ("b", 2, 1)])
    reps = [rep_k3(k3, f3, (1, 2, 0)), zero_representation(k3, f3, (2, 2)),
            random_representation(two_cycle, f3, (2, 2), rng)]
    reps += [random_representation(k3, f3, dim, rng) for dim in ((2, 2), (2, 2), (1, 2), (2, 1))]
    reps = reps[::order]
    expected = [reference_subreps(m) for m in reps]
    for _ in ("cold", "warm"):
        assert [searched(m) for m in reps] == expected
    lattice = stability._lattice(3, 2)
    assert lattice is stability._lattice(3, 2) and lattice.supers
    assert type(lattice.subspaces) is tuple
    for pos, supers in lattice.supers.items():  # keyed by position, checked by rank
        basis = lattice.subspaces[pos][0]
        assert type(pos) is int and type(supers) is tuple
        assert supers == tuple(t for t, (b, _) in enumerate(lattice.subspaces)
                               if linalg.rank(f3, f3.array(b.rows + basis.rows)) == b.shape[0])


def test_budget_exceeded_builds_no_lattice(k3, cold_lattices, monkeypatch):
    def no_lattice(p, n):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(stability, "_all_subspaces", no_lattice)
    with pytest.raises(BudgetExceededError):
        enumerate_subreps(zero_representation(k3, PrimeField(3), (2, 2)), budget=3)
    assert stability._kept_lattice.cache_info().currsize == 0


def test_lattice_cache_is_bounded(cold_lattices):
    jordan = quiver(1, [("l", 1, 1)])
    primes = [p for p in range(2, 1000) if all(p % d for d in range(2, p))]
    assert len(primes) > stability.LATTICE_CACHE_SIZE
    for p in primes:
        m = random_representation(jordan, PrimeField(p), (1,), random.Random(p))
        assert searched(m) == reference_subreps(m)
    assert stability._kept_lattice.cache_info().currsize == stability.LATTICE_CACHE_SIZE


def test_lattice_above_size_limit_is_not_kept(k3, cold_lattices, monkeypatch):
    """Lattices above the limit are built once for their search, then dropped."""
    monkeypatch.setattr(stability, "LATTICE_MAX_SUBSPACES", 4)  # F_2^1 has 2, F_2^2 has 5
    built = []
    all_subspaces = stability._all_subspaces
    monkeypatch.setattr(stability, "_all_subspaces",
                        lambda p, n: built.append((p, n)) or all_subspaces(p, n))
    x = [[1, 0], [1, 1], [0, 1]]  # x = y = z: the images of the lines span three lines
    m = representation(k3, PrimeField(2), (2, 3), {"x": x, "y": x, "z": x})
    assert searched(m) == reference_subreps(m)
    assert sorted(built) == [(2, 1), (2, 2), (2, 3)]  # F_2^2: vertex 1 and each S + W
    info = stability._kept_lattice.cache_info()
    assert stability._lattice(2, 2) is not stability._lattice(2, 2)
    assert stability._kept_lattice.cache_info() == info
    assert stability._lattice(2, 1) is stability._lattice(2, 1)


@cache
def lattice_of(p, n):
    return stability._Lattice(p, n)


@st.composite
def extend_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 4))
    pos = draw(st.integers(0, subspace_count(p, n) - 1))
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return p, n, pos, draw(st.lists(vector, max_size=n + 4))  # often spanning F_p^n


@settings(derandomize=True, deadline=None, max_examples=300)
@given(extend_cases())
def test_extend_matches_rref(case):
    """`extend` gives the position of the rref span, and draws the vectors
    only until they span F_p^n."""
    p, n, pos, vectors = case
    fld = PrimeField(p)
    lattice = lattice_of(p, n)
    basis = lattice.subspaces[pos][0]
    rows = basis.rows + tuple(map(tuple, vectors))
    span, pivots = linalg.rref(fld, Matrix(rows, (len(rows), n)))
    drawn = []
    assert (lattice.extend(pos, (drawn.append(v) or v for v in vectors))
            == lattice.position[span.rows[:len(pivots)]])
    needed = next((k for k in range(len(vectors) + 1)
                   if linalg.rank(fld, Matrix(rows[:len(basis.rows) + k],
                                              (len(basis.rows) + k, n))) == n), len(vectors))
    assert drawn == vectors[:needed]
    assert (len(pivots) == n) == (lattice.extend(pos, vectors) == lattice.top)
    if pos:
        assert lattice.prefix[pos] < pos
        assert lattice.subspaces[lattice.prefix[pos]][0].rows == basis.rows[:-1]
    else:
        assert lattice.prefix[pos] == -1


@st.composite
def position_subsets(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 4))
    positions = draw(st.sets(st.integers(0, subspace_count(p, n) - 1)))
    return p, n, sorted(positions)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(position_subsets())
def test_first_matches_a_scan(case):
    """`first` gives the first of sorted positions whose basis has d rows."""
    p, n, positions = case
    lattice = lattice_of(p, n)
    assert lattice.dims == [len(b.rows) for b, _ in lattice.subspaces]
    for d in range(n + 1):
        expected = next((pos for pos in positions
                         if len(lattice.subspaces[pos][0].rows) == d), None)
        assert lattice.first(positions, d) == expected


def test_search_runs_no_elimination(cold_lattices, monkeypatch):
    """The search joins lattice positions and never calls an elimination."""
    cases = []
    for name, (k, arrows) in sorted(SEARCH_QUIVERS.items()):
        q = quiver(k, arrows)
        for p in (2, 3):
            rng = random.Random(f"{name}/{p}")
            for dim in ((2,) * k, tuple(rng.randint(0, 2) for _ in range(k))):
                for m in (zero_representation(q, PrimeField(p), dim),
                          random_representation(q, PrimeField(p), dim, rng)):
                    cases.append((m, reference_subreps(m)))

    def refuse(*args, **kwargs):
        raise AssertionError("the subrepresentation search eliminated")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    for m, expected in cases:
        assert searched(m) == expected


def test_search_goes_through_enumerate_subreps(k3, monkeypatch):
    """bench/tracing.py counts subrepresentations through the module attribute."""
    calls = []
    enumerate_all = stability.enumerate_subreps
    monkeypatch.setattr(stability, "enumerate_subreps",
                        lambda m, budget: calls.append(m) or enumerate_all(m, budget))
    m = rep_k3(k3, PrimeField(2), (1, 0, 0))
    is_semistable(m, (-1, 1))
    is_stable(m, (-1, 1))
    assert calls == [m, m]


# every search quiver (the bench's Q3 is the path with a shortcut, C2 the
# 2-cycle), and K3op, whose last vertex has only back arrows: blocks at a single
# vertex, candidates filtered by back arrows and loops, and theta_last < 0
VERDICT_QUIVERS = {**SEARCH_QUIVERS, "K3op": (2, [("x", 2, 1), ("y", 2, 1), ("z", 2, 1)])}


@st.composite
def verdict_cases(draw):
    k, arrows = VERDICT_QUIVERS[draw(st.sampled_from(sorted(VERDICT_QUIVERS)))]
    fld = PrimeField(draw(st.sampled_from([2, 3, 5])))
    dim = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    # theta_i = u_i |dim| - u . dim pairs to 0 with dim; a nudge makes theta(M) != 0
    u = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    theta = [x * sum(dim) - sum(map(mul, u, dim)) for x in u]
    theta[0] += draw(st.sampled_from([0, 0, 0, 1]))
    q = quiver(k, arrows)
    if draw(st.booleans()):
        return random_representation(q, fld, dim, random.Random(draw(st.integers(0, 2**16)))), theta
    return zero_representation(q, fld, dim), theta


def witness_summary(w):
    if w is None:
        return None
    return w.beta, {v: b.rows for v, b in w.bases.items()}, w.theta_value


def reference_verdicts(m, theta):
    """(semistable, stable) verdicts as tuples: the minimal witness is the first
    minimum of `enumerate_subreps` by (theta . beta, |beta|, beta), the
    theta-zero witness the first proper one in the product scan."""
    theta_m = sum(map(mul, theta, m.dim))
    if theta_m:
        return ((False, theta_m, None, None, 0, "theta(M) != 0"),
                (False, False, theta_m, None, 0, "theta(M) != 0"))
    subreps = enumerate_subreps(m)
    n = len(subreps)
    best = min(subreps, key=lambda w: (sum(map(mul, theta, w.beta)), sum(w.beta), w.beta))
    low = sum(map(mul, theta, best.beta))
    if low < 0:
        witness = (best.beta, {v: b.rows for v, b in best.bases.items()}, low)
        return ((False, theta_m, witness, low, n, None),
                (False, False, theta_m, witness, n, "destabilizing subrepresentation"))
    balanced = next(((beta, dict(enumerate(rows, 1)), 0) for beta, rows in reference_subreps(m)
                     if any(beta) and beta != m.dim and not sum(map(mul, theta, beta))), None)
    semistable = (True, theta_m, None, low, n, None)
    if balanced is None:
        return semistable, (True, True, theta_m, None, n, None)
    return semistable, (False, True, theta_m, balanced, n,
                        "proper subrepresentation with theta = 0")


@settings(derandomize=True, deadline=None, max_examples=240)
@given(verdict_cases())
def test_verdicts_match_reference(case):
    m, theta = case
    want_ss, want_st = reference_verdicts(m, theta)
    v = is_semistable(m, theta)
    assert (v.semistable, v.theta_of_m, witness_summary(v.witness), v.min_theta, v.budget_used,
            v.reason) == want_ss
    if not any(m.dim):
        with pytest.raises(RepresentationError):
            is_stable(m, theta)
        return
    v = is_stable(m, theta)
    assert (v.stable, v.semistable, v.theta_of_m, witness_summary(v.witness), v.budget_used,
            v.reason) == want_st


@settings(derandomize=True, deadline=None, max_examples=120)
@given(verdict_cases())
def test_verdict_witnesses_carry_their_theta_value(case):
    """A verdict's witness is built with theta . beta, which is `min_theta` for a
    destabilizing one and 0 for a proper theta-zero one, and cannot be changed
    afterwards; the items of `enumerate_subreps` carry none."""
    m, theta = case
    v = is_semistable(m, theta)
    witnesses = [(v.witness, v.min_theta)]
    if any(m.dim):
        s = is_stable(m, theta)
        witnesses.append((s.witness, 0 if s.semistable else v.min_theta))
    for w, want in witnesses:
        if w is not None:
            assert w.theta_value == sum(map(mul, theta, w.beta)) == want
            with pytest.raises(FrozenInstanceError):
                w.theta_value = 1
            with pytest.raises(FrozenInstanceError):
                w.beta = m.dim
    if not v.theta_of_m:
        assert enumerate_subreps(m)[0].theta_value is None


@pytest.fixture
def built_witnesses(monkeypatch):
    """Counts the `SubrepWitness` objects the stability module builds."""
    built = []

    class Counted(SubrepWitness):
        def __init__(self, bases, beta, *args):
            built.append(beta)
            super().__init__(bases, beta, *args)

    monkeypatch.setattr(stability, "SubrepWitness", Counted)
    return built


def test_verdicts_build_at_most_two_witnesses(k3, built_witnesses):
    """The verdicts fold the search's blocks and build a `SubrepWitness` only
    for the witnesses they may return."""
    rng = random.Random(20)
    f3 = PrimeField(3)
    half = [random_representation(k3, f3, (2, 2), rng) for _ in range(2)]
    reps = [random_representation(k3, f3, (4, 4), rng), zero_representation(k3, f3, (4, 4)),
            direct_sum(*half)]
    for m in reps:
        assert len(enumerate_subreps(m)) > 100
        for decide in (is_semistable, is_stable):
            built_witnesses.clear()
            decide(m, (-1, 1))
            assert len(built_witnesses) <= 2, (decide.__name__, m.dim)
    assert not is_semistable(reps[1], (-1, 1)).semistable
    assert is_stable(reps[2], (-1, 1)).witness.theta_value == 0


def test_search_leaves_no_garbage_cycle(k3):
    """A search's state, image memos included, is freed by reference counting
    when the search is dropped: nothing is left for the cyclic collector."""
    m = random_representation(k3, PrimeField(3), (3, 3), random.Random(1))
    gc.collect()
    gc.disable()
    try:
        subs = enumerate_subreps(m)
        assert len(subs) > 2
        del subs
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_subreps_is_a_lazy_sequence(k3, built_witnesses):
    m = random_representation(k3, PrimeField(3), (2, 2), random.Random(3))
    subreps = enumerate_subreps(m)
    assert isinstance(subreps, Sequence)
    assert len(subreps) > 4 and not built_witnesses  # counting builds no witness
    listed = list(subreps)
    assert len(built_witnesses) == len(listed) == len(subreps)
    assert list(subreps) == listed  # iterating again gives the same witnesses
    assert [(w.beta, tuple(w.bases[v].rows for v in (1, 2))) for w in listed] == searched(m)
    assert subreps[0] == listed[0] and subreps[-1] == listed[-1]
    assert subreps[1:4] == listed[1:4] and subreps[::-3] == listed[::-3]
    assert [subreps[i] for i in range(-len(listed), len(listed))] == listed + listed
    for i in (len(listed), -len(listed) - 1):
        with pytest.raises(IndexError):
            subreps[i]
    assert list(reversed(subreps)) == listed[::-1]
    assert [subreps.index(listed[k]) for k in (0, 1, len(listed) // 2, len(listed) - 1)] == [
        0, 1, len(listed) // 2, len(listed) - 1]


def test_theta_zero_witness_where_a_block_lacks_its_dimension(k3):
    """Here some block of the last vertex has no candidate of the dimension
    that makes theta . beta = 0, yet holds the first subspace of the next
    one; the theta-zero witness must not come from that block."""
    m = representation(k3, PrimeField(2), (2, 2), {"x": [[1, 0], [1, 1]], "y": [[1, 0], [0, 0]],
                                                   "z": [[0, 1], [1, 1]]})
    want_ss, want_st = reference_verdicts(m, (-1, 1))
    v = is_stable(m, (-1, 1))
    assert (v.stable, v.semistable, v.theta_of_m, witness_summary(v.witness), v.budget_used,
            v.reason) == want_st
    assert want_st[3][0] == (1, 1)
