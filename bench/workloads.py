"""Seeded query sets that drive quivermod's public API.

A workload is a fixed list of rounds. Every round has the same composition
of query kinds and sizes (the slots below); the seed chooses the data. A run
executes whole rounds, so the mix it measures does not depend on where the
clock stops.

Each query is one call that a CLI subcommand makes. Its inputs are built
here, through the public constructors, before the first query runs; this is
the work a set-up probe times. Every query also carries a plain-data copy of
its inputs (ints, Fractions, lists), which the independent checker reads.

The program is always reached through attribute lookups on the `quivermod`
package at call time, so a traced run sees every call.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import quivermod as qm

BIG_PRIME = 2**31 - 1

QUIVERS = {
    "K3": (2, (("x", 1, 2), ("y", 1, 2), ("z", 1, 2))),  # 3-arrow Kronecker
    "K2": (2, (("x", 1, 2), ("y", 1, 2))),
    "Q3": (3, (("a", 1, 2), ("b", 2, 3), ("c", 1, 3))),  # acyclic, a path of length 2
    "C2": (2, (("a", 1, 2), ("b", 2, 1))),               # oriented 2-cycle
}

# weight used by the stability oracle on each quiver
STABILITY_THETA = {"K3": (-1, 1), "Q3": (-2, 1, 1), "C2": (-1, 1)}

# stability-scan: (quiver, p, dimension vector, construction, command).
# One 45k-tuple scan per round sets the pace; the three ~4.5k-tuple scans sit
# at the 90th percentile; the rest spread over acyclic and cyclic quivers.
# "alt" alternates check-ss and check-st between rounds.
STABILITY_SLOTS = (
    ("K3", 3, (4, 4), "random", "alt"),
    ("K3", 2, (4, 4), "polystable", "check-st"),
    ("K3", 2, (4, 4), "planted", "check-ss"),
    ("K3", 5, (3, 3), "random", "check-st"),
    ("K3", 3, (3, 3), "random", "check-ss"),
    ("K3", 3, (3, 3), "planted", "check-st"),
    ("K3", 2, (3, 3), "polystable", "check-ss"),
    ("K3", 5, (2, 2), "random", "check-st"),
    ("Q3", 3, (2, 2, 2), "random", "check-ss"),
    ("Q3", 3, (2, 2, 2), "planted", "check-st"),
    ("Q3", 2, (2, 2, 2), "random", "check-st"),
    ("C2", 3, (2, 2), "random", "check-ss"),
    ("C2", 5, (2, 2), "polystable", "check-st"),
    ("C2", 2, (3, 3), "planted", "check-ss"),
)
# check-ss on rational K3 inputs of dimension (2,2): construction and primes.
# "planted" lifts to a PROOF, "hidden" usually stays HEURISTIC, "denominator"
# makes the oracle skip the prime 3.
RATIONAL_SLOTS = (
    ("random", (2, 3, 5)),
    ("planted", (3, 5)),
    ("hidden", (5, 7)),
    ("denominator", (3, 5, 7)),
)

# generic-ext: cold GenericExtTable queries, one per slot and round ...
TABLE_SLOTS = (("K3", (5, 5)), ("K3", (7, 7)), ("K3", (9, 9)),
               ("Q3", (2, 2, 2)), ("Q3", (3, 3, 3)), ("Q3", (4, 4, 4)))
TABLE_THETAS = {
    "K3": ((-1, 1), (1, -1), (-2, 2)),
    "Q3": ((-2, 1, 1), (1, 1, -2), (-1, 0, 1), (1, 0, -1), (0, -1, 1), (-1, 2, -1)),
}
# ... and F_5 Hom/Ext sampling pairs (alpha, beta), each once per round. The
# sizes are fixed so that every seed's round costs the same; the seed draws
# the matrices and the order.
SAMPLING_PAIRS = {
    "K3": (((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 2), (2, 2)),
           ((0, 2), (3, 1)), ((3, 1), (1, 0)), ((1, 3), (2, 2)), ((2, 3), (3, 2)),
           ((3, 3), (1, 1)), ((2, 2), (3, 3))),
    "K2": (((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 2), (2, 2)),
           ((0, 2), (3, 1)), ((3, 1), (1, 0)), ((1, 3), (2, 2)), ((2, 3), (3, 2)),
           ((3, 3), (1, 1)), ((2, 2), (3, 3))),
    "Q3": (((1, 1, 1), (1, 1, 1)), ((1, 0, 1), (0, 1, 1)), ((2, 1, 1), (1, 2, 1)),
           ((1, 2, 2), (2, 1, 0)), ((2, 2, 2), (1, 1, 1)), ((0, 1, 2), (2, 1, 0)),
           ((2, 2, 1), (1, 2, 2)), ((1, 1, 2), (2, 1, 1)), ((2, 1, 2), (2, 2, 2)),
           ((3, 1, 1), (1, 1, 3))),
}

# localization: (quiver, dimension vector, z) for each query kind; every
# law and check-point slot runs once per field.
LOCALIZATION_THETA = {"K3": (-1, 1), "Q3": (-1, 0, 1)}
LOCALIZATION_FIELDS = ("Q", 101, BIG_PRIME)
LAW_SLOTS = (("K3", (3, 3), 2), ("Q3", (2, 3, 2), 2))
POINT_SLOTS = (("K3", (3, 3), 2), ("Q3", (2, 2, 2), 3))
LOCALIZE_SLOTS = (("K3", (1, 2)), ("Q3", (2, 1)))      # z of each sigma
ROOT_SLOTS = (("K3", 1, 2, 2), ("Q3", 1, 1, 3))        # z, n, loop bound

ROUNDS = {"stability-scan": 6, "generic-ext": 4, "localization": 20}
WORKLOADS = tuple(ROUNDS)


@dataclass
class Query:
    qid: int
    kind: str
    spec: dict          # plain data: the checker's copy of the inputs
    args: tuple         # program objects passed to the call
    known_defect: bool  # F_p with p = 2^31 - 1: int64 matmul overflow

    def describe(self) -> str:
        return canonical({"qid": self.qid, "kind": self.kind, "spec": self.spec})


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- plain-data copies of program objects -------------------------------

def plain_matrix(a) -> list:
    return [[x if isinstance(x, Fraction) else int(x) for x in row] for row in a.tolist()]


def plain_quiver(name: str) -> dict:
    k, arrows = QUIVERS[name]
    return {"name": name, "vertices": k, "arrows": [list(a) for a in arrows]}


def plain_field(fld):
    return fld.p if isinstance(fld, qm.PrimeField) else None


def plain_rep(m) -> dict:
    return {"p": plain_field(m.field), "dim": list(m.dim),
            "matrices": {aid: plain_matrix(a) for aid, a in sorted(m.matrices.items())}}


def plain_sigma(sigma) -> dict:
    return {"domain": list(sigma.domain), "codomain": list(sigma.codomain),
            "entries": [[[(c, p.source, list(p.arrows)) for c, p in comb.terms]
                         for comb in row] for row in sigma.entries]}


# --- input construction ----------------------------------------------------

class Builder:
    """Builds one workload's query set; all randomness comes from `rng`."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.quivers = {name: qm.quiver(k, arrows) for name, (k, arrows) in QUIVERS.items()}
        self.queries: list[Query] = []

    def add(self, kind, spec, args, p=None) -> Query:
        q = Query(len(self.queries), kind, spec, args, p == BIG_PRIME)
        self.queries.append(q)
        return q

    def field(self, p):
        return qm.QQ if p in (None, "Q") else qm.PrimeField(p)

    def hide(self, m):
        """Random base change: same isomorphism class, no visible structure."""
        g = qm.random_group_element(m.field, m.dim, self.rng)
        return qm.act(g, m)

    def planted(self, name, fld, dim):
        """A representation with a subrepresentation of dimension e_1, which
        every weight used here makes destabilizing: vertex 1's first basis
        vector is killed by every arrow leaving vertex 1."""
        q = self.quivers[name]
        mats = {}
        for aid, src, tgt in QUIVERS[name][1]:
            rows, cols = dim[tgt - 1], dim[src - 1]
            mat = [[self.entry(fld) for _ in range(cols)] for _ in range(rows)]
            if src == 1:
                for row in mat:
                    row[0] = 0
            mats[aid] = mat
        return qm.representation(q, fld, dim, mats)

    def entry(self, fld):
        if isinstance(fld, qm.PrimeField):
            return self.rng.randrange(fld.p)
        return self.rng.randint(-5, 5)

    def polystable(self, name, fld, n):
        """Direct sum of n pairwise non-isomorphic stable (1,1) representations:
        semistable, and not stable once n >= 2."""
        q = self.quivers[name]
        p = fld.p
        if name == "K3":
            points = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)
                      if (a, b, c) != (0, 0, 0)
                      and next(x for x in (a, b, c) if x) == 1]  # projective points
            chosen = self.rng.sample(points, n)
            parts = [{"x": [[a]], "y": [[b]], "z": [[c]]} for a, b, c in chosen]
        else:  # C2: a = 1, and the invariant a*b tells the summands apart
            parts = [{"a": [[1]], "b": [[t]]} for t in self.rng.sample(range(p), n)]
        out = None
        for mats in parts:
            s = qm.representation(q, fld, (1,) * q.vertex_count, mats)
            out = s if out is None else qm.direct_sum(out, s)
        return self.hide(out)

    # stability-scan ------------------------------------------------------

    def stability_round(self, r: int):
        for name, p, dim, construction, command in STABILITY_SLOTS:
            fld = self.field(p)
            if construction == "random":
                m = qm.random_representation(self.quivers[name], fld, dim, self.rng)
            elif construction == "planted":
                m = self.hide(self.planted(name, fld, dim))
            else:
                m = self.polystable(name, fld, dim[0])
            if command == "alt":
                command = "check-ss" if r % 2 == 0 else "check-st"
            theta = STABILITY_THETA[name]
            self.add(command, {"quiver": plain_quiver(name), "rep": plain_rep(m),
                               "theta": list(theta), "construction": construction},
                     (m, theta), p)
        k3 = self.quivers["K3"]
        for construction, primes in RATIONAL_SLOTS:
            if construction == "random":
                m = qm.random_representation(k3, qm.QQ, (2, 2), self.rng)
            elif construction == "planted":
                m = self.planted("K3", qm.QQ, (2, 2))
            elif construction == "hidden":
                m = self.hide(self.planted("K3", qm.QQ, (2, 2)))
            else:
                mats = {aid: [[Fraction(self.rng.randint(-5, 5), self.rng.choice((1, 3)))
                               for _ in range(2)] for _ in range(2)] for aid in "xyz"}
                mats["x"][0][0] = Fraction(1, 3)
                m = qm.representation(k3, qm.QQ, (2, 2), mats)
            self.add("check-ss-q", {"quiver": plain_quiver("K3"), "rep": plain_rep(m),
                                    "theta": [-1, 1], "primes": list(primes),
                                    "construction": construction},
                     (m, (-1, 1), primes))
        f5 = qm.PrimeField(5)
        points = [(1, b, c) for b in range(5) for c in range(5)]
        first, second = self.rng.sample(points, 2)
        summands = [qm.representation(k3, f5, (1, 1),
                                      {"x": [[a]], "y": [[b]], "z": [[c]]})
                    for a, b, c in (first, second)]
        mults = (1, 2)
        self.add("local-quiver",
                 {"quiver": plain_quiver("K3"), "reps": [plain_rep(s) for s in summands],
                  "mults": list(mults), "theta": [-1, 1]},
                 (list(zip(summands, mults)), (-1, 1)), 5)

    # generic-ext -----------------------------------------------------------

    def generic_round(self, r: int):
        slots = [("table",) + s for s in TABLE_SLOTS]
        slots += [("pair", name, alpha, beta) for name, pairs in SAMPLING_PAIRS.items()
                  for alpha, beta in pairs]
        self.rng.shuffle(slots)
        for slot in slots:
            if slot[0] == "table":
                _, name, alpha = slot
                command = self.rng.choice(("ssne", "stne", "dim"))
                theta = self.rng.choice(TABLE_THETAS[name])
                self.add(command, {"quiver": plain_quiver(name), "alpha": list(alpha),
                                   "theta": list(theta)},
                         (self.quivers[name], alpha, theta))
                continue
            _, name, alpha, beta = slot
            rep_seed = self.rng.randrange(2**32)
            self.add("hom-ext", {"quiver": plain_quiver(name), "p": 5, "alpha": list(alpha),
                                 "beta": list(beta), "rep_seed": rep_seed},
                     (self.quivers[name], qm.PrimeField(5), alpha, beta, rep_seed), 5)

    # localization -----------------------------------------------------------

    def sigma(self, name, z):
        return qm.make_sigma(self.quivers[name], LOCALIZATION_THETA[name], z,
                             seed=self.rng.randrange(10**6))

    def localization_round(self, r: int):
        for p in LOCALIZATION_FIELDS:
            fld = self.field(p)
            for name, dim, z in LAW_SLOTS:
                sigma = self.sigma(name, z)
                m = qm.random_representation(self.quivers[name], fld, dim, self.rng)
                g = qm.random_group_element(fld, dim, self.rng)
                theta = LOCALIZATION_THETA[name]
                self.add("law", {"quiver": plain_quiver(name), "sigma": plain_sigma(sigma),
                                 "rep": plain_rep(m), "g": [plain_matrix(x) for x in g.mats],
                                 "theta": list(theta), "z": z},
                         (sigma, m, g, theta), p)
            for name, dim, z in POINT_SLOTS:
                sigma = self.sigma(name, z)
                m = qm.random_representation(self.quivers[name], fld, dim, self.rng)
                self.add("check-point", {"quiver": plain_quiver(name),
                                         "sigmas": [plain_sigma(sigma)], "rep": plain_rep(m)},
                         ([sigma], m), p)
        for name, zs in LOCALIZE_SLOTS:
            sigmas = [self.sigma(name, z) for z in zs]
            self.add("localize", {"quiver": plain_quiver(name),
                                  "sigmas": [plain_sigma(s) for s in sigmas]},
                     (self.quivers[name], sigmas))
        for name, z, n, bound in ROOT_SLOTS:
            sigmas = [self.sigma(name, z)]
            self.add("root", {"quiver": plain_quiver(name),
                              "sigmas": [plain_sigma(s) for s in sigmas], "n": n,
                              "loop_bound": bound},
                     (self.quivers[name], sigmas, n, bound))


ROUND_MAKERS = {"stability-scan": Builder.stability_round,
                "generic-ext": Builder.generic_round,
                "localization": Builder.localization_round}


def build_rounds(workload: str, seed: int) -> list[list[Query]]:
    """The workload's fixed query set, as rounds of identical composition."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    builder = Builder(workload, seed)
    rounds = []
    for r in range(ROUNDS[workload]):
        start = len(builder.queries)
        ROUND_MAKERS[workload](builder, r)
        rounds.append(builder.queries[start:])
    return rounds


# --- the calls ---------------------------------------------------------------

def _table(q, alpha):
    table = qm.GenericExtTable(q)
    return table, table.generic_subdimvectors(alpha)


def _ssne(q, alpha, theta):
    table, subs = _table(q, alpha)
    return subs, qm.semistable_nonempty(q, alpha, theta, table=table)


def _stne(q, alpha, theta):
    table, subs = _table(q, alpha)
    return subs, qm.stable_nonempty(q, alpha, theta, table=table)


def _dim(q, alpha, theta):
    table, subs = _table(q, alpha)
    return subs, qm.moduli_dimension(q, alpha, theta, table=table)


def _hom_ext(q, fld, alpha, beta, rep_seed):
    rng = random.Random(rep_seed)
    m = qm.random_representation(q, fld, alpha, rng)
    n = qm.random_representation(q, fld, beta, rng)
    return m, n, qm.hom_space(m, n), qm.ext_space(m, n), qm.generic_ext(q, alpha, beta)


def _local_quiver(stables, theta):
    data = qm.local_quiver(stables, theta)
    return data, qm.local_model_dimension(data)


def _law(sigma, m, g, theta):
    return (qm.semi_invariant(sigma, m), qm.semi_invariant(sigma, qm.act(g, m)),
            qm.chi_theta(g, theta))


def _localize(q, sigmas):
    pres = qm.localization_presentation(q, sigmas)
    return json.dumps({"presentation": pres.to_json()}, sort_keys=True)


def _root(q, sigmas, n, bound):
    pres, loops = qm.root_presentation(q, sigmas, n, bound)
    return json.dumps({"presentation": pres.to_json(), "loops": [list(w) for w in loops]},
                      sort_keys=True)


CALLS = {
    "check-ss": lambda m, theta: qm.is_semistable(m, theta),
    "check-st": lambda m, theta: qm.is_stable(m, theta),
    "check-ss-q": lambda m, theta, primes: qm.check_over_rationals(m, theta, primes),
    "local-quiver": _local_quiver,
    "ssne": _ssne,
    "stne": _stne,
    "dim": _dim,
    "hom-ext": _hom_ext,
    "law": _law,
    "check-point": lambda sigmas, m: qm.check_localized_point(sigmas, m),
    "localize": _localize,
    "root": _root,
}


def call(query: Query):
    return CALLS[query.kind](*query.args)


# --- results as plain data ---------------------------------------------------

def _scalar(x, fld):
    return fld.format_scalar(x)


def _witness(w):
    if w is None:
        return None
    return {"beta": list(w.beta), "theta_value": w.theta_value,
            "bases": {str(v): plain_matrix(b) for v, b in sorted(w.bases.items())}}


def record(query: Query, out) -> dict:
    """The query's answer as plain data; its digest enters the output digest."""
    kind = query.kind
    if kind == "check-ss":
        return {"semistable": out.semistable, "theta_of_m": out.theta_of_m,
                "witness": _witness(out.witness), "budget_used": out.budget_used}
    if kind == "check-st":
        return {"stable": out.stable, "semistable": out.semistable,
                "theta_of_m": out.theta_of_m, "witness": _witness(out.witness),
                "budget_used": out.budget_used}
    if kind == "check-ss-q":
        return {"verdict": out.verdict, "certainty": out.certainty,
                "theta_of_m": out.theta_of_m, "primes_tested": list(out.primes_tested),
                "skipped": [p for p, _ in out.skipped],
                "witness_beta": None if out.witness_beta is None else list(out.witness_beta),
                "witness_theta": out.witness_theta, "witness_prime": out.witness_prime,
                "lifted": out.witness_lifted}
    if kind == "local-quiver":
        data, model_dim = out
        return {"arrow_counts": [list(r) for r in data.arrow_counts],
                "multiplicities": list(data.multiplicities), "verified": data.verified,
                "model_dimension": model_dim}
    if kind in ("ssne", "stne", "dim"):
        subs, value = out
        return {"generic_subs": [list(s) for s in subs], "value": value}
    if kind == "hom-ext":
        m, n, hom, ext, generic = out
        return {"m": plain_rep(m), "n": plain_rep(n), "hom": hom.dim, "ext": ext.dim,
                "generic_ext": generic,
                "hom_basis": [{str(v): plain_matrix(f) for v, f in sorted(b.items())}
                              for b in hom.basis],
                "cokernel": [list(t) for t in ext.cokernel]}
    if kind == "law":
        fld = query.args[1].field
        return {"d": _scalar(out[0], fld), "d_g": _scalar(out[1], fld),
                "chi": _scalar(out[2], fld)}
    if kind == "check-point":
        fld = query.args[1].field
        return {"invertible": out.invertible,
                "determinants": [_scalar(d, fld) for d in out.determinants],
                "failing_sigma": out.failing_sigma,
                "relations_verified": out.relations_verified,
                "inverses": None if out.inverses is None else
                [[[_scalar(x, fld) for x in row] for row in inv] for inv in out.inverses]}
    return {"text": out}  # localize, root: the serialised machine record
