"""Spans around quivermod's public functions, for a traced run only.

`Tracer.install()` replaces each listed function by a wrapper in every
`quivermod` module that binds it (names imported with `from ... import`
included), and each listed method on its class; `uninstall()` restores the
originals. A wrapper records a span (name, query id, parent span, start, end)
in flat arrays kept in memory, and counts work from the arguments and return
value it sees. A layer's self time is its spans' time minus the time their
child spans cover.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("fields", "linalg", "quiver", "rep", "stability", "moduli", "localization")

# (module, function names) wrapped in every module that binds them. Trivial
# quiver helpers called once per loop step (theta_pairing, total_dim) are left
# out: their cost is their caller's self time.
FUNCTIONS = {
    "linalg": ("matmul", "kron", "block_diag", "rref", "rank", "nullspace", "det", "inv",
               "is_zero", "equal"),
    "quiver": ("quiver", "validate_quiver", "enumerate_paths", "paths_between",
               "euler_form", "enumerate_dimvectors"),
    "rep": ("representation", "zero_representation", "random_representation",
            "representation_from_json", "evaluate_path", "direct_sum", "group_element",
            "random_group_element", "compose_group", "act", "hom_space", "ext_space"),
    "stability": ("enumerate_subreps", "is_semistable", "is_stable", "verify_witness",
                  "check_over_rationals"),
    "moduli": ("generic_ext", "generic_subdimvectors", "semistable_nonempty",
               "stable_nonempty", "moduli_dimension", "local_quiver",
               "local_model_dimension"),
    "localization": ("make_sigma", "sigma_from_json", "path_combination", "numerical_condition",
                     "evaluate_sigma", "semi_invariant", "chi_theta",
                     "localization_presentation", "check_localized_point",
                     "extended_quiver", "tau_morphism", "root_presentation"),
}
# (module, class, method names) wrapped on the class, which also catches
# recursive calls through self
METHODS = (
    ("fields", "Rationals", ("array",)),
    ("fields", "PrimeField", ("array",)),
    ("moduli", "GenericExtTable", ("__init__", "ext", "generic_subdimvectors")),
)


def subspace_count(p: int, n: int) -> int:
    """Number of subspaces of F_p^n (sum of Gaussian binomials)."""
    total = 0
    for d in range(n + 1):
        num = den = 1
        for t in range(d):
            num *= p**n - p**t
            den *= p**d - p**t
        total += num // den
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_query = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.query_id = -1          # -1 marks set-up
        self.counts: Counter = Counter()
        self._ext_keys: set = set()
        self._table_serial: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_query.append(self.query_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, fname: str, fn):
        tracer = self
        counter = COUNTERS.get(f"{layer}.{fname}")
        if layer == "linalg":
            ids = {True: self.name_id(f"linalg.{fname}#fp"),
                   False: self.name_id(f"linalg.{fname}#q")}
            from quivermod.fields import PrimeField

            def span_id(args):
                return ids[isinstance(args[0], PrimeField)]
        else:
            fixed = self.name_id(f"{layer}.{fname}")

            def span_id(args):
                return fixed

        def wrapper(*args, **kwargs):
            idx = tracer.open(span_id(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "quivermod" or name.startswith("quivermod.")) and m is not None]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"quivermod.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        self._patches.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        for layer, cls_name, methods in METHODS:
            cls = getattr(sys.modules[f"quivermod.{layer}"], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def self_times(self):
        """Per span: self time = duration minus the time its children cover."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def summary(self) -> tuple[dict[str, float], Counter]:
        """Self time and span count by span name."""
        by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, s in enumerate(self.self_times()):
            name = self.names[self.span_name[i]]
            by_name[name] += s
            calls[name] += 1
        return by_name, calls

    def write(self, path) -> None:
        """All spans, gzipped: a JSON header line with the span names, then one
        line per span: name index, query id, parent span, start s, end s."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "query", "parent", "start_s", "end_s"]})
                     + "\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_name[i]},{self.span_query[i]},{self.span_parent[i]},"
                         f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f}\n")


# --- counts taken at the boundary ---------------------------------------------

def _rref(tr, args, kwargs, out):
    tr.counts["linalg.rref.cells"] += args[1].shape[0] * args[1].shape[1]


def _system(tr, args, kwargs, out):
    m, n = args[0], args[1]
    rows = sum(n.dim[a.tgt - 1] * m.dim[a.src - 1] for a in m.quiver.arrows)
    cols = sum(x * y for x, y in zip(n.dim, m.dim))
    tr.counts["rep.system_cells"] += rows * cols


def _subreps(tr, args, kwargs, out):
    m = args[0]
    tuples = 1
    for d in m.dim:
        tuples *= subspace_count(m.field.p, d)
    tr.counts["stability.tuples_product"] += tuples
    tr.counts["stability.subreps"] += len(out)


def _rational(tr, args, kwargs, out):
    tr.counts["stability.primes_tested"] += len(out.primes_tested)
    tr.counts["stability.primes_skipped"] += len(out.skipped)
    tr.counts["stability.rational_verdicts"] += 1
    tr.counts["stability.proofs"] += out.certainty == "PROOF"


def _table(tr, args, kwargs, out):
    tr._table_serial[id(args[0])] = tr.counts["moduli.tables"]
    tr.counts["moduli.tables"] += 1


def _ext(tr, args, kwargs, out):
    key = (tr._table_serial.get(id(args[0])), tuple(args[1]), tuple(args[2]))
    if key not in tr._ext_keys:
        tr._ext_keys.add(key)
        tr.counts["moduli.ext.distinct"] += 1


def _sigma(tr, args, kwargs, out):
    tr.counts["localization.sigma_cells"] += out.shape[0] * out.shape[1]


def _presentation(tr, args, kwargs, out):
    tr.counts["localization.relations"] += len(out.relations)
    tr.counts["localization.terms"] += sum(len(r.lhs) for r in out.relations)


def _root(tr, args, kwargs, out):
    tr.counts["localization.loops"] += len(out[1])


COUNTERS = {
    "linalg.rref": _rref,
    "rep.hom_space": _system,
    "rep.ext_space": _system,
    "stability.enumerate_subreps": _subreps,
    "stability.check_over_rationals": _rational,
    "moduli.GenericExtTable.__init__": _table,
    "moduli.GenericExtTable.ext": _ext,
    "localization.evaluate_sigma": _sigma,
    "localization.localization_presentation": _presentation,
    "localization.root_presentation": _root,
}
