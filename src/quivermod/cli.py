"""Command-line surface.

Exit codes: 0 affirmative/success, 1 negative verdict, 2 usage/validation
error (malformed input files included), 3 budget exceeded, 4 internal error
(an oracle self-check failed).
Machine output is one JSON record per line with sorted keys, so identical
inputs and seed give byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

# lets values like "-1,1" follow --theta/--alpha without being read as options
_NEGATIVE_LIST = re.compile(r"^-\d+(,-?\d+)*$")

from . import __version__
from .fields import Rationals
from .moduli import (GenericExtTable, local_model_dimension,
                     local_quiver, moduli_dimension, semistable_nonempty,
                     stable_nonempty)
from .localization import (SigmaError, check_localized_point,
                           evaluate_sigma, extended_quiver,
                           localization_presentation, make_sigma,
                           numerical_condition, root_presentation,
                           semi_invariant, sigma_from_json)
from .quiver import (QuiverError, enumerate_dimvectors, enumerate_paths,
                     euler_form, validate_quiver)
from .rep import RepresentationError, representation_from_json
from .stability import (DEFAULT_BUDGET, BudgetExceededError, WitnessCheckError,
                        check_over_rationals, is_semistable, is_stable)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_rep(path: str, q):
    """A representation file; one without a "quiver" key lives over q."""
    data = _load_json(path)
    own_quiver = isinstance(data, dict) and "quiver" in data
    return representation_from_json(data, None if own_quiver else q)


def _load_sigmas(args, q):
    return [sigma_from_json(_load_json(path), q) for path in args.sigma]


def _witness_json(w):
    if w is None:
        return None
    return {
        "beta": list(w.beta),
        "theta_value": w.theta_value,
        "bases": {str(v): b.tolist() for v, b in sorted(w.bases.items())},
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quivermod",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, rep=False, sigma=False, theta=False,
            alpha=False, beta=False, budgets=False):
        sp = sub.add_parser(name, help=help_text)
        sp._negative_number_matcher = _NEGATIVE_LIST
        sp.add_argument("--format", choices=["text", "machine"], default="text")
        sp.add_argument("-q", "--quiver", required=True, help="quiver JSON file")
        if rep:
            sp.add_argument("-r", "--rep", required=True, help="representation JSON file")
        if sigma:
            sp.add_argument("-s", "--sigma", action="append", default=[],
                            help="sigma morphism JSON file (repeatable)")
        if theta:
            sp.add_argument("--theta", type=_int_list, required=True)
        if alpha:
            sp.add_argument("--alpha", type=_int_list, required=True)
        if beta:
            sp.add_argument("--beta", type=_int_list, required=True)
        if budgets:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        return sp

    sp = add("paths", "enumerate oriented paths")
    sp.add_argument("--max-len", type=int, default=None)

    add("euler", "Euler form <alpha, beta>", alpha=True, beta=True)

    sp = add("dimvecs", "dimension vectors with d(alpha)=n and theta(alpha)=0", theta=True)
    sp.add_argument("-n", type=int, required=True)

    add("ssne", "is the semistable locus generically nonempty?", alpha=True, theta=True)
    add("stne", "is the stable locus generically nonempty?", alpha=True, theta=True)
    add("dim", "moduli space dimension 1 - <alpha, alpha>", alpha=True, theta=True)

    for name, help_text in (("check-ss", "exhaustive semistability check"),
                            ("check-st", "exhaustive stability check")):
        sp = add(name, help_text, rep=True, theta=True, budgets=True)
        sp.add_argument("-p", "--primes", type=_int_list, default=None,
                        help="primes for rational representations")

    sp = add("sigma-gen", "generate a random member of Sigma_z", theta=True)
    sp.add_argument("-z", type=int, default=1)
    sp.add_argument("--max-path-len", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", default=None, help="write sigma JSON here")

    sp = add("sigma-eval", "evaluate a sigma morphism at a representation",
             rep=True, sigma=True)

    add("localize", "emit the universal localization presentation", sigma=True)

    add("check-point", "does the representation invert every sigma?",
        rep=True, sigma=True)

    sp = add("local-quiver", "local quiver data at a semisimple point",
             theta=True, budgets=True)
    sp.add_argument("-r", "--rep", action="append", required=True,
                    help="stable summand JSON file (repeatable)")
    sp.add_argument("--mults", type=_int_list, default=None,
                    help="multiplicities, default all 1")
    sp.add_argument("--assert-stable", action="store_true",
                    help="skip oracle verification (result flagged unverified)")

    sp = add("extend", "extended quiver with fresh source vertex v0")
    sp.add_argument("-n", type=int, required=True)

    sp = add("root", "root-construction presentation and v0 loop words", sigma=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--loop-bound", type=int, default=2)

    return parser


def _emit(args, payload: dict, text_lines: list[str]):
    if args.format == "machine":
        record = {
            "tool": "quivermod",
            "version": __version__,
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("command", "format") and not callable(v)},
        }
        record.update(payload)
        print(json.dumps(record, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


def _run(args) -> int:
    cmd = args.command
    q = validate_quiver(_load_json(args.quiver))

    if cmd == "paths":
        paths = enumerate_paths(q, args.max_len)
        _emit(args, {"paths": [str(p) for p in paths], "count": len(paths)},
              [f"{len(paths)} paths:"] + [f"  {p}" for p in paths])
        return 0

    if cmd == "euler":
        val = euler_form(q, args.alpha, args.beta)
        _emit(args, {"value": val}, [str(val)])
        return 0

    if cmd == "dimvecs":
        vecs = enumerate_dimvectors(q, args.n, args.theta)
        _emit(args, {"dimvectors": [list(v) for v in vecs]},
              [",".join(map(str, v)) for v in vecs])
        return 0

    if cmd in ("ssne", "stne", "dim"):
        table = GenericExtTable(q)
        subs = table.generic_subdimvectors(args.alpha)
        if cmd == "ssne":
            ok = semistable_nonempty(q, args.alpha, args.theta, table=table)
            _emit(args, {"semistable_nonempty": ok,
                         "generic_subs": [list(s) for s in subs]},
                  [f"semistable_nonempty: {ok}"])
            return 0 if ok else 1
        if cmd == "stne":
            ok = stable_nonempty(q, args.alpha, args.theta, table=table)
            _emit(args, {"stable_nonempty": ok,
                         "generic_subs": [list(s) for s in subs]},
                  [f"stable_nonempty: {ok}"])
            return 0 if ok else 1
        d = moduli_dimension(q, args.alpha, args.theta, table=table)
        if d is None:
            _emit(args, {"dimension": None, "reason": "stable locus empty"},
                  ["undefined: stable locus empty"])
            return 1
        _emit(args, {"dimension": d}, [str(d)])
        return 0

    if cmd in ("check-ss", "check-st"):
        m = _load_rep(args.rep, q)
        if isinstance(m.field, Rationals):
            if cmd == "check-st":
                raise RepresentationError(
                    "check-st needs a representation over F_p")
            if not args.primes:
                raise RepresentationError(
                    "rational representation: supply --primes")
            rv = check_over_rationals(m, args.theta, args.primes,
                                      budget=args.budget)
            payload = {
                "verdict": rv.verdict, "certainty": rv.certainty,
                "theta_of_M": rv.theta_of_m,
                "primes_tested": rv.primes_tested,
                "skipped": [{"prime": p, "notice": msg} for p, msg in rv.skipped],
                "witness": None if rv.witness_beta is None else {
                    "beta": list(rv.witness_beta),
                    "theta_value": rv.witness_theta,
                    "prime": rv.witness_prime,
                    "lifted": rv.witness_lifted},
            }
            lines = [f"{rv.verdict} ({rv.certainty})"]
            lines += [f"notice: prime {p} skipped: {msg}" for p, msg in rv.skipped]
            if rv.witness_beta is not None:
                lines.append(f"witness beta={list(rv.witness_beta)} "
                             f"theta={rv.witness_theta}")
            _emit(args, payload, lines)
            return 0 if rv.verdict == "semistable" else 1
        if cmd == "check-ss":
            v = is_semistable(m, args.theta, budget=args.budget)
            payload = {"verdict": "semistable" if v.semistable else "unstable",
                       "theta_of_M": v.theta_of_m,
                       "witness": _witness_json(v.witness),
                       "budget_used": v.budget_used,
                       "reason": v.reason}
            _emit(args, payload, [payload["verdict"]] +
                  ([f"witness beta={list(v.witness.beta)} theta={v.witness.theta_value}"]
                   if v.witness else []))
            return 0 if v.semistable else 1
        v = is_stable(m, args.theta, budget=args.budget)
        payload = {"verdict": "stable" if v.stable else "not stable",
                   "semistable": v.semistable,
                   "theta_of_M": v.theta_of_m,
                   "witness": _witness_json(v.witness),
                   "budget_used": v.budget_used,
                   "reason": v.reason}
        _emit(args, payload, [payload["verdict"]] +
              ([f"reason: {v.reason}"] if v.reason else []))
        return 0 if v.stable else 1

    if cmd == "sigma-gen":
        sigma = make_sigma(q, args.theta, args.z, args.max_path_len, args.seed)
        doc = sigma.to_json()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
            _emit(args, {"sigma": doc, "written": args.output},
                  [f"wrote {args.output}"])
        else:
            _emit(args, {"sigma": doc}, [json.dumps(doc, sort_keys=True, indent=2)])
        return 0

    if cmd == "sigma-eval":
        m = _load_rep(args.rep, q)
        if len(args.sigma) != 1:
            raise SigmaError("sigma-eval needs exactly one -s file")
        sigma = _load_sigmas(args, q)[0]
        mat = evaluate_sigma(sigma, m)
        rows = [[m.field.format_scalar(x) for x in row] for row in mat]
        payload = {"matrix": rows, "square": numerical_condition(sigma, m.dim)}
        lines = ["[" + " ".join(r) + "]" for r in rows]
        if payload["square"]:
            d = semi_invariant(sigma, m)
            payload["det"] = m.field.format_scalar(d)
            lines.append(f"det = {payload['det']}")
        _emit(args, payload, lines)
        return 0

    if cmd == "localize":
        sigmas = _load_sigmas(args, q)
        pres = localization_presentation(q, sigmas)
        _emit(args, {"presentation": pres.to_json()}, [pres.to_text()])
        return 0

    if cmd == "check-point":
        m = _load_rep(args.rep, q)
        sigmas = _load_sigmas(args, q)
        verdict = check_localized_point(sigmas, m)
        payload = {
            "invertible": verdict.invertible,
            "determinants": [m.field.format_scalar(d) for d in verdict.determinants],
            "failing_sigma": verdict.failing_sigma,
            "relations_verified": verdict.relations_verified,
            "inverses": None if verdict.inverses is None else [
                [[m.field.format_scalar(x) for x in row] for row in inv_mat]
                for inv_mat in verdict.inverses],
        }
        lines = [f"invertible: {verdict.invertible}"]
        if not verdict.invertible:
            lines.append(f"reason: det of sigma #{verdict.failing_sigma} vanishes")
        _emit(args, payload, lines)
        return 0 if verdict.invertible else 1

    if cmd == "local-quiver":
        reps = [_load_rep(path, q) for path in args.rep]
        mults = args.mults if args.mults else tuple([1] * len(reps))
        if len(mults) != len(reps):
            raise QuiverError("--mults length must match the number of summands")
        data = local_quiver(list(zip(reps, mults)), args.theta,
                            assert_stable=args.assert_stable,
                            budget=args.budget)
        payload = {"local_quiver": data.to_json(),
                   "model_dimension": local_model_dimension(data)}
        _emit(args, payload,
              [f"classes: {data.num_classes}",
               f"arrow_counts: {[list(r) for r in data.arrow_counts]}",
               f"beta_y: {list(data.multiplicities)}",
               f"model_dimension: {payload['model_dimension']}",
               f"verified: {data.verified}"])
        return 0

    if cmd == "extend":
        ext = extended_quiver(q, args.n)
        _emit(args, {"quiver": ext.to_json()},
              [json.dumps(ext.to_json(), sort_keys=True, indent=2)])
        return 0

    if cmd == "root":
        sigmas = _load_sigmas(args, q)
        pres, loops = root_presentation(q, sigmas, args.n, args.loop_bound)
        payload = {"presentation": pres.to_json(),
                   "loops": [list(w) for w in loops]}
        _emit(args, payload,
              [pres.to_text(), "loops at v0:"] +
              [f"  {'*'.join(w)}" for w in loops])
        return 0

    raise QuiverError(f"unknown subcommand {cmd!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc.name} (bound {exc.bound}, required {exc.required})",
              file=sys.stderr)
        return 3
    except WitnessCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:  # package errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
