"""Tests of the benchmark itself: python3 -m pytest bench -q"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import quivermod  # noqa: E402
import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Ledger, run_traced_round  # noqa: E402


def first(rounds, kind, **spec):
    return next(q for rnd in rounds for q in rnd
                if q.kind == kind and all(q.spec.get(k) == v for k, v in spec.items()))


def answer(query):
    return workloads.record(query, workloads.call(query))


def test_checker_counts_a_wrong_witness():
    rounds = workloads.build_rounds("stability-scan", 3)
    query = first(rounds, "check-ss", construction="planted")
    rec = answer(query)
    assert checker.check(query.kind, query.spec, rec) == []
    u = rec["witness"]["bases"]["1"][0]  # spans the planted kernel at vertex 1
    dim = len(u)
    # a coordinate vector not proportional to u lies outside the kernel
    e = next([int(i == j) for j in range(dim)] for i in range(dim)
             if sum(x != 0 for x in u) > 1 or u[i] == 0)
    rec["witness"]["bases"]["1"] = [e]
    assert any("not stable under arrow" in p for p in checker.check(query.kind, query.spec, rec))


def test_checker_counts_a_wrong_determinant_and_inverse():
    rounds = workloads.build_rounds("localization", 3)
    for p in (None, 101):
        law = next(q for rnd in rounds for q in rnd if q.kind == "law" and q.spec["rep"]["p"] == p)
        rec = answer(law)
        assert checker.check(law.kind, law.spec, rec) == []
        rec["d"] = str(int(rec["d"]) + 1) if p else str(checker.Fraction(rec["d"]) + 1)
        assert any("d_sigma(M)" in x for x in checker.check(law.kind, law.spec, rec))

        point = next(q for rnd in rounds for q in rnd
                     if q.kind == "check-point" and q.spec["rep"]["p"] == p)
        rec = answer(point)
        assert rec["invertible"] and checker.check(point.kind, point.spec, rec) == []
        bad = dict(rec, determinants=["0"] + rec["determinants"][1:])
        assert checker.check(point.kind, point.spec, bad)
        inverse = [list(row) for row in rec["inverses"][0]]
        inverse[0][0] = str(checker.Fraction(inverse[0][0]) + 1)
        bad = dict(rec, inverses=[inverse] + rec["inverses"][1:])
        assert "returned inverse fails M N = N M = I" in checker.check(point.kind, point.spec, bad)


def test_exceptions_and_bad_answers_count_as_failures():
    rounds = workloads.build_rounds("localization", 3)
    ledger = Ledger(workloads, checker)
    query = rounds[0][0]
    ledger.settle(query, RuntimeError("boom"))
    ledger.settle(rounds[0][1], object())  # an answer record() cannot read
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert not ledger.correct()


def test_failures_count_distinct_queries_and_excuse_only_the_overflow():
    rounds = workloads.build_rounds("localization", 3)
    big = [q for rnd in rounds for q in rnd if q.known_defect and q.kind == "law"]
    ledger = Ledger(workloads, checker)
    d, d_g, chi = workloads.call(big[0])
    wrong = ((int(d) + 1) % workloads.BIG_PRIME, d_g, chi)  # the overflow's signature
    for _ in range(3):
        ledger.settle(big[0], wrong)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.correct()
    ledger.settle(big[0], (d, d_g, chi))  # a later run that answers differently
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert not ledger.correct()

    ledger = Ledger(workloads, checker)
    ledger.settle(big[1], RuntimeError("boom"))  # at p = 2^31 - 1, but not the overflow
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert not ledger.correct()


def test_same_seed_same_queries_and_digest():
    def digest_of(seed):
        rounds = workloads.build_rounds("localization", seed)[:2]
        ledger = Ledger(workloads, checker)
        for rnd in rounds:
            for q in rnd:
                ledger.settle(q, workloads.call(q))
        return [q.describe() for rnd in rounds for q in rnd], ledger.output_digest()

    queries, digest = digest_of(5)
    assert digest_of(5) == (queries, digest)
    assert digest_of(6)[0] != queries
    for name in ("stability-scan", "generic-ext"):
        a, b = (workloads.build_rounds(name, 5) for _ in range(2))
        assert [q.describe() for r in a for q in r] == [q.describe() for r in b for q in r]


def test_traced_self_times_fit_in_query_wall_time():
    small = {"stability-scan": lambda q: sum(q.spec.get("rep", {}).get("dim", [9])) <= 6,
             "generic-ext": lambda q: q.kind == "hom-ext",
             "localization": lambda q: True}
    for name, keep in small.items():
        tracer = tracing.Tracer()
        ledger = Ledger(workloads, checker)
        rnd = [q for q in workloads.build_rounds(name, 4)[0] if keep(q)]
        run_traced_round(workloads, ledger, tracer, rnd)
        assert ledger.correct()
        walls, layer_self = {}, {}
        for i, s in enumerate(tracer.self_times()):
            q = tracer.span_query[i]
            span = tracer.names[tracer.span_name[i]]
            assert s >= -1e-9, span
            if span.startswith("query."):
                walls[q] = tracer.span_end[i] - tracer.span_start[i]
            else:
                assert span.split(".", 1)[0] in tracing.LAYERS
                layer_self[q] = layer_self.get(q, 0.0) + s
        assert set(layer_self) <= set(walls) and len(walls) == len(rnd)
        for q, total in layer_self.items():
            assert total <= walls[q] + 1e-9, (name, q, total, walls[q])
    assert quivermod.is_semistable is quivermod.stability.is_semistable  # restored
    assert "wrapper" not in quivermod.GenericExtTable.ext.__qualname__


def test_subspace_count_matches_the_program():
    from quivermod.stability import _all_subspaces
    for p, n in ((2, 3), (3, 2), (5, 2)):
        assert tracing.subspace_count(p, n) == len(_all_subspaces(p, n))
