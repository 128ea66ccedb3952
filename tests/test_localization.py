import random
from fractions import Fraction

import pytest

from quivermod import (QQ, FieldError, NonSquareError, Path, PrimeField, QuiverError,
                       RepresentationError, SigmaError, SigmaMorphism, act,
                       check_localized_point, chi_theta,
                       evaluate_path, evaluate_sigma, extended_quiver, group_element,
                       is_semistable, linalg,
                       localization_presentation, make_sigma,
                       numerical_condition, path_combination, paths_between, quiver,
                       random_group_element, random_representation,
                       representation, root_presentation, semi_invariant,
                       sigma_from_json, tau_morphism, word_typing,
                       zero_representation)
from quivermod.fields import Field
from quivermod.localization import Presentation, Relation, Term, sigma_family_for_weight
from quivermod.rep import compose_group


def coord_sigma(k3, arrow):
    comb = path_combination(1, 2, [(Fraction(1), Path(1, 2, (arrow,)))])
    return SigmaMorphism(k3, (2,), (1,), ((comb,),), name=arrow)


def rep_k3(k3, field, m, dim=(1, 1)):
    shape = {"x": m[0], "y": m[1], "z": m[2]}
    return representation(k3, field, dim,
                          {k: [[v]] for k, v in shape.items()})


def test_path_combination_typing():
    with pytest.raises(SigmaError):
        path_combination(1, 2, [(1, Path(2, 1, ()))])
    z = path_combination(1, 2, [])
    assert z.terms == ()
    dropped = path_combination(1, 2, [(0, Path(1, 2, ("x",)))])
    assert dropped.terms == ()


def test_path_combination_parses_coefficients_like_field_coerce():
    """A float used to become its binary fraction: 0.1 gave
    3602879701896397/36028797018963968."""
    path = Path(1, 2, ("x",))
    with pytest.raises(FieldError):
        path_combination(1, 2, [(0.1, path)])
    assert path_combination(1, 2, [("-3/4", path), (2, path)]).terms == (
        (Fraction(-3, 4), path), (Fraction(2), path))


def test_make_sigma_shape_z1(k3):
    s = make_sigma(k3, (-1, 1), 1, seed=0)
    assert s.domain == (2,) and s.codomain == (1,)
    paths = [p for _, p in s.entries[0][0].terms]
    assert {p.arrows for p in paths} <= {("x",), ("y",), ("z",)}


def test_make_sigma_shape_z2(k3):
    s = make_sigma(k3, (-1, 1), 2, seed=1)
    assert s.domain == (2, 2) and s.codomain == (1, 1)
    assert len(s.entries) == 2 and len(s.entries[0]) == 2


def test_make_sigma_deterministic(k3):
    assert make_sigma(k3, (-1, 1), 1, seed=7).to_json() == \
        make_sigma(k3, (-1, 1), 1, seed=7).to_json()
    assert make_sigma(k3, (-1, 1), 1, seed=7).to_json() != \
        make_sigma(k3, (-1, 1), 1, seed=8).to_json()


def test_make_sigma_bad_weight(k3):
    with pytest.raises(SigmaError):
        make_sigma(k3, (1, 1), 1)
    with pytest.raises(SigmaError):
        make_sigma(k3, (-1, 0), 1)
    for z in (0, -1):
        with pytest.raises(SigmaError, match="positive"):
            make_sigma(k3, (-1, 1), z)


def test_make_sigma_refuses_a_cyclic_quiver():
    with pytest.raises(QuiverError, match="acyclic"):
        make_sigma(quiver(2, [("a", 1, 2), ("b", 2, 1)]), (-1, 1), 1)


E12 = path_combination(1, 2, [])


@pytest.mark.parametrize("domain, codomain, entries", [
    ((), (1,), ()),
    ((2,), (), ((),)),
    ((2,), (1,), ()),
    ((2,), (1,), ((E12, E12),)),
    ((1,), (1,), ((E12,),)),
], ids=["empty-domain", "empty-codomain", "missing-row", "long-row", "entry-typed-wrong"])
def test_sigma_morphism_refuses_malformed_blocks(k3, domain, codomain, entries):
    with pytest.raises(SigmaError):
        SigmaMorphism(k3, domain, codomain, entries)


def test_make_sigma_rejects_weight_length(k3):
    with pytest.raises(QuiverError):
        make_sigma(k3, (-1, 0, 1), 1)
    with pytest.raises(QuiverError):
        make_sigma(k3, (-1,), 1)


@pytest.mark.parametrize("vertex", [0, -1, 3])
def test_sigma_vertices_out_of_range(k3, vertex):
    empty = path_combination(1, vertex, [])
    with pytest.raises(SigmaError):
        SigmaMorphism(k3, (vertex,), (1,), ((empty,),))
    with pytest.raises(SigmaError):
        SigmaMorphism(k3, (2,), (vertex,), ((path_combination(vertex, 2, []),),))


def test_numerical_condition(k3):
    s = coord_sigma(k3, "x")
    assert numerical_condition(s, (1, 1))
    assert not numerical_condition(s, (2, 1))
    s2 = make_sigma(k3, (-1, 1), 2, seed=0)
    for alpha in [(1, 1), (2, 2), (2, 1), (0, 3)]:
        assert numerical_condition(s2, alpha) == (alpha[0] == alpha[1])


def test_evaluate_sigma_examples(k3):
    comb = path_combination(1, 2, [(1, Path(1, 2, ("x",))),
                                   (2, Path(1, 2, ("y",))),
                                   (5, Path(1, 2, ("z",)))])
    s = SigmaMorphism(k3, (2,), (1,), ((comb,),))
    m = rep_k3(k3, QQ, (1, 1, 0))
    assert evaluate_sigma(s, m).tolist() == [[3]]

    zero_comb = path_combination(1, 2, [])
    s0 = SigmaMorphism(k3, (2,), (1,), ((zero_comb,),))
    out = evaluate_sigma(s0, m)
    assert out.tolist() == [[0]]


def test_evaluate_sigma_blocks(k3):
    import quivermod.linalg as linalg
    rng = random.Random(2)
    m = random_representation(k3, QQ, (2, 2), rng)
    comb = path_combination(1, 2, [(2, Path(1, 2, ("x",))),
                                   (-1, Path(1, 2, ("y",))),
                                   (3, Path(1, 2, ("z",)))])
    s = SigmaMorphism(k3, (2,), (1,), ((comb,),))
    expected = [[2 * x - 1 * y + 3 * z for x, y, z in zip(*rows)]
                for rows in zip(m.matrix("x"), m.matrix("y"), m.matrix("z"))]
    assert linalg.equal(QQ, evaluate_sigma(s, m), QQ.array(expected))


def test_semi_invariant_examples(k3):
    s = coord_sigma(k3, "x")
    assert semi_invariant(s, rep_k3(k3, QQ, (1, 0, 0))) == 1
    assert semi_invariant(s, rep_k3(k3, QQ, (0, 0, 0))) == 0
    with pytest.raises(NonSquareError):
        semi_invariant(s, zero_representation(k3, QQ, (2, 1)))


def test_transformation_law_example(k3):
    from quivermod import group_element
    s = coord_sigma(k3, "x")
    m = rep_k3(k3, QQ, (1, 0, 0))
    g = group_element(QQ, [[[2]], [[3]]])
    assert chi_theta(g, (-1, 1)) == Fraction(3, 2)
    assert semi_invariant(s, act(g, m)) == Fraction(3, 2) * semi_invariant(s, m)


def test_chi_theta_rejects_weight_length():
    g = group_element(QQ, [[[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[3, 0], [1, 1]]])
    assert chi_theta(g, (-1, 1)) == Fraction(3, 2)
    for theta in [(-1,), (-1, 1, 0)]:
        with pytest.raises(QuiverError):
            chi_theta(g, theta)


def test_chi_theta_multiplications_do_not_grow_with_the_weight(monkeypatch):
    """Each power is one exponentiation: theta = (-1, 1) and (-1000, 1000)
    make the same number of field multiplications."""
    calls = []
    mul = Field.mul
    monkeypatch.setattr(Field, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
    for fld in (QQ, PrimeField(101)):
        g = group_element(fld, [[[2, 1], [1, 1]], [[3, 1], [1, 2]]])
        counts = []
        for theta in ((-1, 1), (-1000, 1000)):
            calls.clear()
            chi_theta(g, theta)
            counts.append(len(calls))
        assert counts[0] == counts[1]


def test_chi_theta_large_weights():
    """Against `pow`, with determinants 7 at vertex 1 and 5 at vertex 2."""
    mats = [[[4, 1], [1, 2]], [[3, 1], [1, 2]]]
    t = 10**6
    assert chi_theta(group_element(PrimeField(101), mats), (-t, t)) == (
        pow(7, -t, 101) * pow(5, t, 101) % 101)
    t, g = 200, group_element(QQ, mats)
    assert chi_theta(g, (-t, t)) == pow(Fraction(7), -t) * pow(Fraction(5), t)
    assert chi_theta(g, (-t, t)) == chi_theta(g, (-1, 1)) ** t


def test_chi_theta_and_act_run_no_elimination(monkeypatch, k3):
    """A group element eliminates its blocks once, when it is built: chi_theta,
    act and compose_group call none of det, inv or _det_inv, and give the
    values that eliminating each block again gives."""
    rng = random.Random(5)
    cases = []
    for fld in (QQ, PrimeField(5), PrimeField(2**31 - 1)):
        for theta, dim in [((-1, 1), (2, 3)), ((2, -1), (1, 2)), ((0, 3), (3, 1)),
                           ((0, 0), (2, 2)), ((1, -1), (0, 2))]:
            g = random_group_element(fld, dim, rng)
            h = random_group_element(fld, dim, rng)
            m = random_representation(k3, fld, dim, rng)
            want = fld.one
            for gi, t in zip(g.mats, theta):
                d = linalg.det(fld, gi)
                want = fld.mul(want, d ** t if fld is QQ else pow(d, t, fld.p))
            moved = {a.id: linalg.matmul(fld, linalg.matmul(fld, g.mats[a.tgt - 1],
                                                            m.matrix(a.id)),
                                         linalg.inv(fld, g.mats[a.src - 1]))
                     for a in k3.arrows}
            cases.append((g, h, m, theta, want, moved))
    calls = []
    for name in ("det", "inv", "_det_inv"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for g, h, m, theta, want, moved in cases:
        assert chi_theta(g, theta) == want
        assert act(g, m).matrices == moved
        gh = compose_group(g, h)
        assert act(gh, m).matrices == act(g, act(h, m)).matrices
    assert calls == []


def test_transformation_law_random(k3):
    rng = random.Random(31)
    for z, alpha in [(1, (2, 2)), (2, (1, 1))]:
        sigma = make_sigma(k3, (-1, 1), z, seed=rng.randint(0, 10**6))
        for _ in range(5):
            m = random_representation(k3, QQ, alpha, rng)
            g = random_group_element(QQ, alpha, rng)
            chi = chi_theta(g, (-1, 1))
            assert semi_invariant(sigma, act(g, m)) == chi**z * semi_invariant(sigma, m)


def test_nonzero_semi_invariant_certifies_semistability(k3):
    from itertools import product as iproduct
    for p in (2, 3):
        fld = PrimeField(p)
        sigma = coord_sigma(k3, "y")
        for m in iproduct(range(p), repeat=3):
            r = rep_k3(k3, fld, m)
            if not fld.scalar_is_zero(semi_invariant(sigma, r)):
                assert is_semistable(r, (-1, 1)).semistable


def test_presentation_a2(a2):
    sigma = SigmaMorphism(a2, (2,), (1,),
                          ((path_combination(1, 2, [(1, Path(1, 2, ("a",)))]),),))
    pres = localization_presentation(a2, [sigma])
    assert set(pres.generators) == {"v1", "v2", "a", "y.s0.1.1"}
    rel_words = {(tuple(t.word for t in r.lhs), r.rhs) for r in pres.relations}
    assert ((("a", "y.s0.1.1"),), "v2") in rel_words
    assert ((("y.s0.1.1", "a"),), "v1") in rel_words


def test_presentation_empty_sigma_list(a2):
    pres = localization_presentation(a2, [])
    assert set(pres.generators) == {"v1", "v2", "a"}
    assert not any(g.startswith("y.") for g in pres.generators)


def test_presentation_k3_sigma1_counts(k3):
    pres = localization_presentation(k3, [make_sigma(k3, (-1, 1), 1, seed=0)])
    ys = [g for g in pres.generators if g.startswith("y.")]
    assert len(ys) == 1
    base = len(localization_presentation(k3, []).relations)
    assert len(pres.relations) - base == 2


def test_presentation_well_typed(k3):
    pres = localization_presentation(k3, [make_sigma(k3, (-1, 1), 2, seed=4)])
    for rel in pres.relations:
        if rel.rhs in ("0", "1"):
            continue  # orthogonality relations mix idempotents on purpose
        typings = {word_typing(pres.typing, t.word) for t in rel.lhs}
        assert None not in typings
        assert typings == {pres.typing[rel.rhs]}


def test_presentation_is_hashable_and_read_only(k2):
    """`typing` is a read-only copy: it cannot gain a generator that
    `generators` does not list, and the frozen presentation hashes."""
    pres = localization_presentation(k2, [make_sigma(k2, (-1, 1), 1)])
    assert hash(pres) == hash(localization_presentation(k2, [make_sigma(k2, (-1, 1), 1)]))
    with pytest.raises(TypeError):
        pres.typing["zz"] = (1, 2)
    assert tuple(pres.typing) == pres.generators and len(pres.generators) == 5


def _y_named_arrow():
    q = quiver(2, [("x", 1, 2), ("y.s0.1.1", 1, 2)])
    return localization_presentation(q, [make_sigma(q, (-1, 1), 1, seed=0)])


@pytest.mark.parametrize("build", [
    lambda: localization_presentation(quiver(2, [("v1", 1, 2)]), []),  # arrow = vertex label
    _y_named_arrow,  # arrow = sigma 0's first y-variable
    lambda: root_presentation(quiver(2, [("v0", 1, 2)]), [], 1),  # arrow = the new vertex
    lambda: localization_presentation(quiver(2, [("0", 1, 2)]), []),  # arrow = a constant
    # arrows a*b, a, b printed `v2*a*b = a*b`, the text of the word (a, b)
    lambda: localization_presentation(quiver(2, [("a*b", 1, 2), ("a", 1, 2), ("b", 1, 2)]), []),
    lambda: localization_presentation(quiver(2, [("a b", 1, 2)]), []),
    lambda: localization_presentation(quiver(2, [("a\tb", 1, 2)]), []),
    lambda: localization_presentation(quiver(2, [("(2)", 1, 2)]), []),
    lambda: localization_presentation(quiver(2, [("a=b", 1, 2)]), []),
    lambda: localization_presentation(quiver(2, [("", 1, 2)]), []),
    lambda: localization_presentation(quiver(2, [], ["v 1", "v2"]), []),  # a vertex label
], ids=["vertex-label", "y-variable", "root-vertex", "constant", "star", "space", "tab",
        "parentheses", "equals", "empty", "label-with-space"])
def test_presentation_refuses_an_ambiguous_generator(build):
    """Each generator is typed once, is named neither like the right-hand
    side constants 0 and 1 nor with the characters `to_text` writes between
    names: such a name makes the relations ambiguous."""
    with pytest.raises(SigmaError, match="ambiguous"):
        build()


def test_check_localized_point(k3):
    s = coord_sigma(k3, "x")
    good = check_localized_point([s], rep_k3(k3, QQ, (1, 0, 0)))
    assert good.invertible and good.relations_verified
    assert good.inverses[0].tolist() == [[1]]
    bad = check_localized_point([s], rep_k3(k3, QQ, (0, 1, 0)))
    assert not bad.invertible and bad.failing_sigma == 0
    with pytest.raises(NonSquareError):
        check_localized_point([s], zero_representation(k3, QQ, (2, 1)))


def test_check_localized_point_at_largest_prime(k3):
    p = 2**31 - 1
    fld = PrimeField(p)
    sigma = make_sigma(k3, (-1, 1), 2, seed=3)
    m = random_representation(k3, fld, (3, 3), random.Random(5))
    v = check_localized_point([sigma], m)
    assert v.invertible and v.relations_verified
    mat = [[int(x) for x in row] for row in evaluate_sigma(sigma, m)]
    inv = [[int(x) for x in row] for row in v.inverses[0]]
    assert [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*inv)]
            for row in mat] == [[int(i == j) for j in range(6)] for i in range(6)]


def test_check_localized_point_stops_at_first_vanishing_determinant(k3):
    """A singular second sigma: both determinants reported, no inverses."""
    m = rep_k3(k3, QQ, (2, 0, 0))
    v = check_localized_point([coord_sigma(k3, "x"), coord_sigma(k3, "y")], m)
    assert not v.invertible and v.failing_sigma == 1
    assert v.determinants == [Fraction(2), Fraction(0)]
    assert v.inverses is None and not v.relations_verified


def test_check_localized_point_eliminates_once_per_sigma(k3, monkeypatch):
    """One elimination per sigma gives its determinant and its inverse, each
    distinct path is evaluated once per sigma, and both relation families,
    M N = I and N M = I, are checked for each sigma, on the encoded rows of
    sigma(m) and of its inverse, without evaluate_sigma, det or matmul."""
    import quivermod.linalg as linalg
    import quivermod.localization as localization
    eliminations, paths, products, public = [], [], [], []
    eliminate, evaluate = linalg._eliminate, localization.evaluate_path
    is_identity = linalg._product_is_identity
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: eliminations.append(args[2]) or eliminate(*args))
    monkeypatch.setattr(localization, "evaluate_path",
                        lambda m, path: paths.append(path) or evaluate(m, path))
    monkeypatch.setattr(linalg, "_product_is_identity",
                        lambda fld, a, b: products.append((a, b)) or is_identity(fld, a, b))

    def decoded(fld, rows):
        return linalg._matrix(fld, rows, len(rows))

    for fld in (QQ, PrimeField(101), PrimeField(2**31 - 1)):
        sigmas = [make_sigma(k3, (-1, 1), 2, seed=seed) for seed in (3, 4)]
        m = random_representation(k3, fld, (3, 3), random.Random(5))
        mats = [evaluate_sigma(s, m) for s in sigmas]
        del eliminations[:], paths[:], products[:]
        with monkeypatch.context() as patch:
            for module, name in ((localization, "evaluate_sigma"), (linalg, "det"),
                                 (linalg, "matmul")):
                patch.setattr(module, name, lambda *args, name=name: public.append(name))
            v = check_localized_point(sigmas, m)
        assert v.invertible and v.relations_verified and public == []
        assert eliminations == [12, 12]  # [sigma(m) | I], 6 x 12, once per sigma
        assert [(decoded(fld, a), decoded(fld, b)) for a, b in products] == [
            pair for mat, inverse in zip(mats, v.inverses)
            for pair in ((mat, inverse), (inverse, mat))]
        # 12 terms per sigma over the 3 distinct paths x, y, z
        assert sum(len(c.terms) for s in sigmas for row in s.entries for c in row) == 24
        assert sorted(p.arrows for p in paths) == [(a,) for a in "xxyyzz"]


def test_semi_invariant_eliminates_the_evaluated_rows_once(k3, monkeypatch):
    """semi_invariant evaluates each distinct path once and eliminates the
    evaluated rows once, without evaluate_sigma or det."""
    import quivermod.linalg as linalg
    import quivermod.localization as localization
    eliminations, paths, public = [], [], []
    eliminate, evaluate = linalg._eliminate, localization.evaluate_path
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: eliminations.append(args[2]) or eliminate(*args))
    monkeypatch.setattr(localization, "evaluate_path",
                        lambda m, path: paths.append(path) or evaluate(m, path))
    sigma = make_sigma(k3, (-1, 1), 2, seed=3)
    for fld in (QQ, PrimeField(101), PrimeField(2**31 - 1)):
        m = random_representation(k3, fld, (3, 3), random.Random(5))
        want = linalg.det(fld, evaluate_sigma(sigma, m))
        del eliminations[:], paths[:]
        with monkeypatch.context() as patch:
            for module, name in ((localization, "evaluate_sigma"), (linalg, "det")):
                patch.setattr(module, name, lambda *args, name=name: public.append(name))
            assert semi_invariant(sigma, m) == want
        assert public == [] and eliminations == [6]
        assert sorted(p.arrows for p in paths) == [("x",), ("y",), ("z",)]


@pytest.mark.parametrize("place", [(0, 0), (0, 5), (5, 5)])
def test_check_localized_point_catches_a_wrong_inverse(k3, monkeypatch, place):
    """With one entry of the inverse off, the point is still invertible but the
    relations M N = I and N M = I fail, as the products built in full say."""
    import quivermod.linalg as linalg
    det_inv = linalg._det_inv
    r, c = place

    def perturbed(fld, rows):
        d, inverse = det_inv(fld, rows)
        entries = [list(fld.elements(ns, e)) for e, ns in inverse]
        entries[r][c] = fld.coerce(entries[r][c] + 1)
        return d, [fld.ints(row) for row in entries]

    sigma = make_sigma(k3, (-1, 1), 2, seed=3)
    for fld in (QQ, PrimeField(101), PrimeField(2**31 - 1)):
        m = random_representation(k3, fld, (3, 3), random.Random(5))
        assert check_localized_point([sigma], m).relations_verified
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_det_inv", perturbed)
            v = check_localized_point([sigma], m)
        assert v.invertible and not v.relations_verified
        mat, ident = evaluate_sigma(sigma, m), fld.identity(6)
        assert not linalg.equal(fld, linalg.matmul(fld, mat, v.inverses[0]), ident)
        assert not linalg.equal(fld, linalg.matmul(fld, v.inverses[0], mat), ident)


def fermat_residue(c, p):
    return c.numerator * pow(c.denominator, p - 2, p) % p


def reference_sigma(sigma, m):
    """sigma evaluated at m term by term: each term through evaluate_path, the
    block entries as plain `Fraction` or mod-p sums."""
    fld = m.field
    p = fld.p if isinstance(fld, PrimeField) else None
    rows = []
    for i, entry_row in zip(sigma.domain, sigma.entries):
        lines = [[] for _ in range(m.dim[i - 1])]
        for j, comb in zip(sigma.codomain, entry_row):
            block = [[Fraction(0)] * m.dim[j - 1] for _ in lines]
            for c, path in comb.terms:
                mat = evaluate_path(m, path).tolist()
                block = [[x + c * y for x, y in zip(brow, prow)]
                         for brow, prow in zip(block, mat)]
            for line, brow in zip(lines, block):
                line.extend(brow if p is None else [
                    fermat_residue(x, p) for x in brow])
        rows.extend(lines)
    return rows


def random_sigma(q, rng, max_len, dens=range(1, 10)):
    """A morphism with random vertex lists, each entry 0 to 4 terms drawn with
    repetition from the paths between its vertices, the coefficients'
    denominators drawn from `dens`."""
    k = q.vertex_count
    domain = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 3)))
    codomain = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 3)))
    entries = []
    for i in domain:
        row = []
        for j in codomain:
            paths = paths_between(q, j, i, max_len)
            terms = [(Fraction(rng.randint(-9, 9), rng.choice(dens)), rng.choice(paths))
                     for _ in range(rng.randint(0, 4) if paths else 0)]
            row.append(path_combination(j, i, terms))
        entries.append(tuple(row))
    return SigmaMorphism(q, domain, codomain, tuple(entries))


def reference_make_sigma(q, theta, z, max_path_len, seed):
    """`make_sigma` as it was first written: the paths of each entry from
    their own `paths_between` call."""
    domain, codomain = sigma_family_for_weight(theta, z)
    rng = random.Random(seed)
    entries = tuple(
        tuple(path_combination(j, i, [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), path)
                                      for path in paths_between(q, j, i, max_path_len)])
              for j in codomain)
        for i in domain)
    return SigmaMorphism(q, domain, codomain, entries, name=f"sigma.z{z}.seed{seed}")


def test_make_sigma_matches_per_entry_paths():
    """K3, the path 1 -> 2 -> 3 with a shortcut and a 4-vertex quiver with
    parallel paths: the same morphism as with one `paths_between` per entry."""
    quivers = [
        (quiver(2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)]), (-1, 1)),
        (quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]), (-1, 0, 1)),
        (quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4), ("e", 2, 4)]),
         (-2, 1, -1, 2)),
    ]
    cases = 0
    for q, theta in quivers:
        for z in (1, 2, 3):
            for seed in range(5):
                for max_len in (None, 0, 1, 2):
                    assert (make_sigma(q, theta, z, max_len, seed)
                            == reference_make_sigma(q, theta, z, max_len, seed))
                    cases += 1
    assert cases == 180


def random_point(q, fld, dim, rng):
    if fld is QQ:  # entries with denominators, unlike random_representation's
        return representation(q, QQ, dim, {
            a.id: [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(dim[a.src - 1])] for _ in range(dim[a.tgt - 1])]
            for a in q.arrows})
    return random_representation(q, fld, dim, rng)


SIGMA_FIELDS = [QQ, PrimeField(101), PrimeField(2**31 - 1)]


@pytest.mark.parametrize("fld", SIGMA_FIELDS, ids=str)
def test_evaluate_sigma_matches_term_by_term_reference(fld):
    """Paths repeated within and across entries, empty combinations and
    zero-dimensional blocks, on quivers with paths of length 0, 1 and 2."""
    q3 = quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3), ("d", 1, 2)])
    k3 = quiver(2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)])
    rng = random.Random(f"evaluate_sigma/{fld}")
    element = int if isinstance(fld, PrimeField) else Fraction
    for q in (q3, k3) * 20:
        sigma = random_sigma(q, rng, max_len=2)
        dim = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        m = random_point(q, fld, dim, rng)
        got = evaluate_sigma(sigma, m)
        want = reference_sigma(sigma, m)
        assert got.shape == (sum(dim[i - 1] for i in sigma.domain),
                             sum(dim[j - 1] for j in sigma.codomain))
        assert got.tolist() == want
        assert all(type(x) is element for row in got for x in row)


@pytest.mark.parametrize("fld", SIGMA_FIELDS, ids=str)
def test_evaluate_sigma_keeps_trivial_paths_at_two_vertices_apart(k3, fld):
    """e_1 and e_2 have the same (empty) arrow list but are different paths."""
    e1, e2 = Path(1, 1, ()), Path(2, 2, ())
    entries = ((path_combination(1, 1, [(2, e1)]), path_combination(2, 1, [])),
               (path_combination(1, 2, [(1, Path(1, 2, ("x",)))]),
                path_combination(2, 2, [(3, e2), ("1/2", e2)])))
    sigma = SigmaMorphism(k3, (1, 2), (1, 2), entries)
    m = random_point(k3, fld, (2, 3), random.Random(9))
    got = evaluate_sigma(sigma, m)
    assert got.shape == (5, 5) and got.tolist() == reference_sigma(sigma, m)
    assert got.tolist()[2][2:] == [fld.coerce("7/2"), 0, 0]


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(101), PrimeField(2**31 - 1)],
                         ids=str)
def test_integer_path_matches_fraction_reference(fld):
    """semi_invariant, check_localized_point and act, which stay on the field's
    integer encoding, against the `Fraction` (or mod-p) reference: d_sigma is
    the det of `reference_sigma`, each inverse gives the identity through
    matmul in both orders, and act is matmul(matmul(g_j, M_a), g_i^-1). Over
    Q the matrices have denominators, so the rows of sigma(m) carry different
    scales; the coefficients' denominators are odd and prime to 101."""
    q3 = quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3), ("d", 1, 2)])
    k3 = quiver(2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)])
    rng = random.Random(f"integer path/{fld}")
    squares = invertible = 0
    for q in (q3, k3) * 60:
        sigma = random_sigma(q, rng, max_len=2, dens=(1, 3, 7, 9))
        dim = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        m = random_point(q, fld, dim, rng)
        if not numerical_condition(sigma, dim):
            continue
        squares += 1
        mat = fld.array(reference_sigma(sigma, m))
        det = linalg.det(fld, mat)
        assert semi_invariant(sigma, m) == det
        v = check_localized_point([sigma], m)
        assert v.determinants == [det] and v.invertible is bool(det)
        if det:
            invertible += 1
            ident = fld.identity(mat.shape[0])
            assert v.relations_verified
            assert linalg.matmul(fld, mat, v.inverses[0]) == ident
            assert linalg.matmul(fld, v.inverses[0], mat) == ident
        g = random_group_element(fld, dim, rng)
        moved = act(g, m)
        for a in q.arrows:
            assert moved.matrix(a.id) == linalg.matmul(
                fld, linalg.matmul(fld, g.mats[a.tgt - 1], m.matrix(a.id)),
                linalg.inv(fld, g.mats[a.src - 1]))
    assert squares >= 20 and invertible >= 5


@pytest.mark.parametrize("place", ["first", "second", "zero block"])
def test_coefficient_not_in_f5_raises_field_error(k3, place):
    """Over F_5 a coefficient 1/5 raises coerce's FieldError from
    evaluate_sigma, semi_invariant and check_localized_point, also after a
    good term, and also where the block has no entries or is zero."""
    x, y = Path(1, 2, ("x",)), Path(1, 2, ("y",))
    terms = {"first": [("1/5", x)], "second": [("1/3", y), ("1/5", x)],
             "zero block": [("2/5", x)]}[place]
    sigma = SigmaMorphism(k3, (2,), (1,), ((path_combination(1, 2, terms),),))
    fld = PrimeField(5)
    dim = (0, 0) if place == "zero block" else (2, 2)
    m = random_representation(k3, fld, dim, random.Random(1))
    bad = "2/5" if place == "zero block" else "1/5"
    for call in (evaluate_sigma, semi_invariant, lambda s, m: check_localized_point([s], m)):
        with pytest.raises(FieldError, match=f"^denominator of {bad} not invertible mod 5$"):
            call(sigma, m)
    zero = representation(k3, fld, (2, 2), {})
    with pytest.raises(FieldError, match=f"^denominator of {bad} not invertible mod 5$"):
        semi_invariant(sigma, zero)


def test_inverse_relations_random(k3):
    import quivermod.linalg as linalg
    rng = random.Random(77)
    sigma = make_sigma(k3, (-1, 1), 2, seed=5)
    hits = 0
    while hits < 3:
        m = random_representation(k3, QQ, (2, 2), rng)
        v = check_localized_point([sigma], m)
        if v.invertible:
            hits += 1
            mat = evaluate_sigma(sigma, m)
            ident = QQ.identity(4)
            assert linalg.equal(QQ, linalg.matmul(QQ, mat, v.inverses[0]), ident)
            assert linalg.equal(QQ, linalg.matmul(QQ, v.inverses[0], mat), ident)
            # the same relations from naive `Fraction` products, independent of matmul
            want = [[int(i == j) for j in range(4)] for i in range(4)]
            assert fraction_product(mat.tolist(), v.inverses[0].tolist()) == want
            assert fraction_product(v.inverses[0].tolist(), mat.tolist()) == want


def fraction_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def laplace_det(rows):
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def test_check_localized_point_rational_entries(k3):
    """Over Q with non-integer matrix entries: the determinant, the inverse and
    both relations agree with naive `Fraction` arithmetic."""
    rng = random.Random(13)
    sigma = make_sigma(k3, (-1, 1), 2, seed=8)
    hits = 0
    while hits < 3:
        mats = {a: [[Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(2)]
                    for _ in range(2)] for a in "xyz"}
        m = representation(k3, QQ, (2, 2), mats)
        assert any(x.denominator > 1 for a in "xyz" for row in m.matrix(a) for x in row)
        v = check_localized_point([sigma], m)
        mat = evaluate_sigma(sigma, m).tolist()
        assert v.determinants == [laplace_det(mat)]
        if not v.invertible:
            continue
        hits += 1
        assert v.relations_verified
        inverse = v.inverses[0].tolist()
        assert all(type(x) is Fraction for row in inverse for x in row)
        want = [[int(i == j) for j in range(4)] for i in range(4)]
        assert fraction_product(mat, inverse) == want
        assert fraction_product(inverse, mat) == want


def test_extended_quiver_renames_a_colliding_arrow():
    """A fresh arrow whose id the quiver already uses gets a leading "_"."""
    q = quiver(2, [("x_1_1", 1, 2), ("_x_2_1", 2, 1)])
    ext = extended_quiver(q, 1)
    assert [a.id for a in ext.arrows] == ["x_1_1", "_x_2_1", "_x_1_1", "x_2_1"]
    assert [(a.src, a.tgt) for a in ext.arrows[2:]] == [(3, 1), (3, 2)]


def test_extended_quiver(a2):
    e2 = extended_quiver(a2, 2)
    assert (e2.vertex_count, len(e2.arrows)) == (3, 5)
    e1 = extended_quiver(a2, 1)
    assert (e1.vertex_count, len(e1.arrows)) == (3, 3)
    single = extended_quiver(quiver(1, []), 1)
    assert (single.vertex_count, len(single.arrows)) == (2, 1)
    assert e2.acyclic and e2.labels[-1] == "v0"
    with pytest.raises(Exception):
        extended_quiver(a2, 0)


def test_tau_morphism(a2):
    tau = tau_morphism(a2, 2)
    assert tau.domain == (1, 2) and tau.codomain == (3, 3)
    words = [[[p.arrows for _, p in comb.terms] for comb in row]
             for row in tau.entries]
    assert words == [[[("x_1_1",)], [("x_1_2",)]],
                     [[("x_2_1",)], [("x_2_2",)]]]
    # entry (p, q): source v0, target v_p
    for p, row in enumerate(tau.entries):
        for comb in row:
            assert (comb.source, comb.target) == (3, p + 1)
    one = tau_morphism(quiver(1, []), 1)
    assert len(one.entries) == 1 and len(one.entries[0]) == 1


def test_tau_numerical_condition(a2):
    tau = tau_morphism(a2, 3)
    # square iff a_1 + a_2 = 3 * a_0 (vertex v0 is index 3)
    assert numerical_condition(tau, (2, 1, 1))
    assert not numerical_condition(tau, (2, 2, 1))


def test_root_presentation_single_vertex():
    pres, loops = root_presentation(quiver(1, []), [], 1, 2)
    assert loops == [("v0",), ("y.s0.1.1", "x_1_1")]
    assert "v0" in pres.generators


def test_root_presentation_bound_zero(a2):
    _, loops = root_presentation(a2, [], 1, 0)
    assert loops == [("v0",)]


def test_root_presentation_a2_roundtrips(a2):
    _, loops = root_presentation(a2, [], 1, 2)
    assert len([w for w in loops if len(w) == 2]) == a2.vertex_count


def test_root_presentation_default_bound_reaches_the_arrows(a2):
    """The default loop words generate the corner algebra v0*B*v0, so they
    must see the arrow a, through the loop v0 -> 1 -> 2 -> v0; words of
    length 2 never leave v0's neighbours."""
    _, loops = root_presentation(a2, [], 1)
    assert ("y.s0.1.2", "a", "x_1_1") in loops
    assert not any("a" in w for w in root_presentation(a2, [], 1, 2)[1])


def test_root_presentation_with_sigma(k3):
    sigma = make_sigma(k3, (-1, 1), 1, seed=0)
    pres, loops = root_presentation(k3, [sigma], 1, 2)
    assert any(g.startswith("y.s0.") for g in pres.generators)
    assert any(g.startswith("y.s1.") for g in pres.generators)  # tau's block
    for w in loops[1:]:
        assert word_typing(pres.typing, w) == (3, 3)


def test_root_presentation_refuses_sigma_of_another_quiver(k2, k3):
    """A K2 sigma used to be lifted to K3's extended quiver and give a
    27-relation presentation; localization_presentation refused it."""
    sigma = make_sigma(k2, (-1, 1), 1, seed=0)
    with pytest.raises(SigmaError):
        localization_presentation(k3, [sigma])
    with pytest.raises(SigmaError):
        root_presentation(k3, [sigma], 1, 1)


def test_sigma_serialization_round_trip(k3):
    sigma = make_sigma(k3, (-1, 1), 2, seed=9)
    doc = sigma.to_json()
    back = sigma_from_json(doc, k3)
    assert back.domain == sigma.domain and back.codomain == sigma.codomain
    assert back.entries == sigma.entries


def test_sigma_from_json_rejects_bad_path(k3):
    doc = {"domain": [2], "codomain": [1],
           "entries": [[[{"coeff": "1", "path": ["x", "x"]}]]]}
    with pytest.raises(SigmaError):
        sigma_from_json(doc, k3)
    doc["entries"] = [[[{"coeff": "0", "path": ["bogus"]}]]]
    with pytest.raises(SigmaError):
        sigma_from_json(doc, k3)


@pytest.mark.parametrize("arrows", [("bogus",), ("y", "x")],
                         ids=["unknown arrow", "not composable"])
def test_sigma_rejects_paths_outside_its_quiver(k2, arrows):
    """Such a term used to reach the presentation, as `bogus*y.s0.1.1 = v2`."""
    comb = path_combination(1, 2, [(1, Path(1, 2, arrows))])
    with pytest.raises(SigmaError):
        SigmaMorphism(k2, (2,), (1,), ((comb,),))


def test_evaluate_sigma_refuses_a_representation_of_another_quiver(k2, k3):
    with pytest.raises(RepresentationError, match="different quivers"):
        evaluate_sigma(coord_sigma(k3, "x"), zero_representation(k2, QQ, (1, 1)))


@pytest.mark.parametrize("call", [semi_invariant, lambda s, m: check_localized_point([s], m)],
                         ids=["semi_invariant", "check_localized_point"])
def test_sigma_of_another_quiver_is_refused_as_evaluate_sigma_refuses_it(k3, call):
    """The squareness check used to run first and read a Q3 dimension vector
    against K3: `QuiverError` "dimension vector: expected 2 entries, got 3"."""
    q3 = quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)])
    s, m = coord_sigma(k3, "x"), zero_representation(q3, QQ, (1, 1, 1))
    with pytest.raises(RepresentationError) as want:
        evaluate_sigma(s, m)
    with pytest.raises(RepresentationError) as got:
        call(s, m)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("call", [semi_invariant, lambda s, m: check_localized_point([s], m)],
                         ids=["semi_invariant", "check_localized_point"])
def test_non_square_sigma_with_a_coefficient_outside_the_field(k3, call):
    """Squareness is read off the evaluated rows, so a coefficient that is not
    in the field (1/5 over F_5) is reported before the shape."""
    comb = path_combination(1, 2, [(Fraction(1, 5), Path(1, 2, ("x",)))])
    s = SigmaMorphism(k3, (2,), (1,), ((comb,),))
    with pytest.raises(FieldError):
        call(s, zero_representation(k3, PrimeField(5), (2, 1)))


def test_presentation_text_of_an_empty_sum():
    pres = Presentation(("v1",), (Relation((), "0"), Relation((Term(Fraction(2), ("v1",)),), "v1")),
                        {"v1": (1, 1)})
    assert pres.to_text() == "generators: v1\n  0 = 0\n  (2)*v1 = v1"


def test_word_typing_of_words_that_do_not_compose(a3):
    typing = localization_presentation(a3, []).typing
    assert word_typing(typing, ("b", "a")) == (1, 3)
    for word in [(), ("bogus",), ("a", "b"), ("a", "a")]:
        assert word_typing(typing, word) is None


def test_trivial_path_entry_is_written_as_its_vertex(k3):
    """An entry c*e_1 of a sigma from vertex 1 to itself is the word (v1, y)."""
    e1 = path_combination(1, 1, [(3, Path(1, 1, ()))])
    pres = localization_presentation(k3, [SigmaMorphism(k3, (1,), (1,), ((e1,),))])
    words = [t.word for r in pres.relations for t in r.lhs]
    assert ("v1", "y.s0.1.1") in words and ("y.s0.1.1", "v1") in words
