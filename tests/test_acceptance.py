"""Acceptance gate.

Each test checks one headline guarantee at desk scale, enforces its runtime
budget, and prints a single PASS line so the gate reads cleanly in -s mode.
"""
import random
import time
from fractions import Fraction
from itertools import product

from quivermod import (QQ, GenericExtTable, Path, PrimeField, SigmaMorphism,
                       act, check_localized_point, chi_theta, direct_sum,
                       ext_space, is_semistable, is_stable, hom_space,
                       local_model_dimension, local_quiver, make_sigma,
                       moduli_dimension, path_combination, quiver,
                       random_group_element, random_representation,
                       representation, semi_invariant, semistable_nonempty,
                       stable_nonempty, euler_form)

K3 = quiver(2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)])
THETA = (-1, 1)


def rep_k3(field, m, dim=(1, 1)):
    return representation(K3, field, dim,
                          {"x": [[m[0]]], "y": [[m[1]]], "z": [[m[2]]]})


def coord_sigma(arrow):
    comb = path_combination(1, 2, [(Fraction(1), Path(1, 2, (arrow,)))])
    return SigmaMorphism(K3, (2,), (1,), ((comb,),), name=arrow)


def report(n, label, start, limit):
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s, limit {limit}s"
    print(f"ACCEPTANCE {n} {label}: PASS ({elapsed:.2f}s)")


def test_acceptance_1_kronecker_moduli():
    start = time.monotonic()
    for n in range(1, 5):
        alpha = (n, n)
        assert semistable_nonempty(K3, alpha, THETA)
        assert stable_nonempty(K3, alpha, THETA)
        assert moduli_dimension(K3, alpha, THETA) == n * n + 1
    report(1, "kronecker moduli nonempty and dim n^2+1", start, 1)


def test_acceptance_2_oracle_certificate_agreement():
    start = time.monotonic()
    f3 = PrimeField(3)
    sigmas = [coord_sigma(a) for a in ("x", "y", "z")]
    semistable_count = 0
    for m in product(range(3), repeat=3):
        r = rep_k3(f3, m)
        if is_semistable(r, THETA).semistable:
            semistable_count += 1
            dets = [semi_invariant(s, r) for s in sigmas]
            assert any(f3.coerce(d) != 0 for d in dets), m
    assert semistable_count == 26
    report(2, "F_3 oracle count 26 and coordinate sigma coverage", start, 1)


def test_acceptance_3_generic_ext_vs_sampling():
    start = time.monotonic()
    quivers = {
        "A2": quiver(2, [("a", 1, 2)]),
        "A3": quiver(3, [("a", 1, 2), ("b", 2, 3)]),
        "K2": quiver(2, [("x", 1, 2), ("y", 1, 2)]),
        "K3": K3,
    }
    rng = random.Random(20260823)
    f5 = PrimeField(5)
    for name, q in quivers.items():
        table = GenericExtTable(q)
        k = q.vertex_count
        dimvecs = [v for v in product(range(4), repeat=k) if sum(v) <= 3]
        for alpha in dimvecs:
            for beta in dimvecs:
                expected = table.ext(alpha, beta)
                sampled = min(ext_space(random_representation(q, f5, alpha, rng),
                                        random_representation(q, f5, beta, rng)).dim
                              for _ in range(200))
                assert sampled >= expected, (name, alpha, beta, sampled, expected)
                if sampled > expected:
                    sampled = min(sampled,
                                  min(ext_space(random_representation(q, f5, alpha, rng),
                                                random_representation(q, f5, beta, rng)).dim
                                      for _ in range(1000)))
                assert sampled == expected, (name, alpha, beta, sampled, expected)
    report(3, "schofield recursion matches F_5 sampling", start, 60)


def test_acceptance_4_euler_identity():
    start = time.monotonic()
    rng = random.Random(4)
    a3 = quiver(3, [("a", 1, 2), ("b", 2, 3)])
    pairs = 0
    for field in (QQ, PrimeField(7)):
        for _ in range(50):
            q = rng.choice([K3, a3])
            da = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            db = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            m = random_representation(q, field, da, rng)
            n = random_representation(q, field, db, rng)
            assert (hom_space(m, n).dim - ext_space(m, n).dim
                    == euler_form(q, da, db))
            pairs += 1
    assert pairs == 100
    report(4, "hom - ext = euler form on 100 random pairs", start, 10)


def test_acceptance_5_semi_invariance_law():
    start = time.monotonic()
    rng = random.Random(5)
    trials = 0
    while trials < 50:
        z = rng.choice([1, 2])
        alpha = (z, z)
        sigma = make_sigma(K3, THETA, z, seed=rng.randint(0, 10**6))
        m = random_representation(K3, QQ, alpha, rng)
        g = random_group_element(QQ, alpha, rng)
        lhs = semi_invariant(sigma, act(g, m))
        rhs = chi_theta(g, THETA) ** z * semi_invariant(sigma, m)
        assert lhs == rhs
        trials += 1
    report(5, "d_sigma(g.m) = chi^z d_sigma(m) on 50 trials", start, 10)


def test_acceptance_6_localization_soundness():
    start = time.monotonic()
    rng = random.Random(6)
    verified = 0
    while verified < 20:
        z = rng.choice([1, 2])
        sigma = make_sigma(K3, THETA, z, seed=rng.randint(0, 10**6))
        m = random_representation(K3, QQ, (z, z), rng)
        verdict = check_localized_point([sigma], m)
        if not verdict.invertible:
            continue
        assert verdict.relations_verified
        verified += 1
    report(6, "inverse witnesses satisfy both relation families, 20 points", start, 10)


def test_acceptance_7_local_quiver_consistency():
    start = time.monotonic()
    rng = random.Random(7)
    f5 = PrimeField(5)
    while True:
        m = random_representation(K3, f5, (1, 1), rng)
        if is_stable(m, THETA).stable:
            break
    data = local_quiver([(m, 1)], THETA)
    assert data.num_classes == 1
    assert data.arrow_counts == ((2,),)
    assert local_model_dimension(data) == 2 == moduli_dimension(K3, (1, 1), THETA)

    while True:
        n = random_representation(K3, f5, (1, 1), rng)
        if is_stable(n, THETA).stable and hom_space(m, n).dim == 0:
            break
    pair = local_quiver([(m, 1), (n, 1)], THETA)
    assert pair.num_classes == 2
    assert local_model_dimension(pair) == 5 == moduli_dimension(K3, (2, 2), THETA)
    report(7, "local quiver data matches moduli dimensions", start, 5)


def test_acceptance_8_direct_sum_closure():
    start = time.monotonic()
    f2 = PrimeField(2)
    semis = [rep_k3(f2, m) for m in product(range(2), repeat=3)
             if is_semistable(rep_k3(f2, m), THETA).semistable]
    assert len(semis) == 7
    pairs = [(a, b) for a in semis for b in semis]
    for a, b in pairs:
        s = direct_sum(a, b)
        assert s.dim == (2, 2)
        assert is_semistable(s, THETA).semistable
    report(8, f"direct sums of {len(pairs)} semistable pairs stay semistable",
           start, 60)
