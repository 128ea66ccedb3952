"""Command-line surface.

Exit codes: 0 affirmative/success, 1 negative verdict, 2 usage/validation
error (malformed input files included), 3 budget exceeded, 4 internal error
(an oracle self-check failed).
Machine output is one JSON record per line with sorted keys, so identical
inputs and seed give byte-identical output.

A subcommand is one function `(args, quiver) -> (exit code, payload, text
lines)` plus one `add` call in `_build_parser`. `add` declares `--format` and
`-q`, then exactly the `_arg` declarations it is given, in that order (shared
ones such as `theta` or `rep` are declared once as values), and registers the
function as the parser's `run` default. `_run` calls it and
`_emit` prints the result; `run` stays out of the machine record's `config`
because `_emit` drops callable values.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial

# lets values like "-1,1" follow --theta/--alpha without being read as options
_NEGATIVE_LIST = re.compile(r"^-\d+(,-?\d+)*$")

from . import __version__, linalg
from .fields import Rationals
from .moduli import (GenericExtTable, local_model_dimension,
                     local_quiver, moduli_dimension, semistable_nonempty,
                     stable_nonempty)
from .localization import (SigmaError, check_localized_point,
                           evaluate_sigma, extended_quiver,
                           localization_presentation, make_sigma,
                           root_presentation, sigma_from_json)
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


def _verdict_json(v, verdict: str, **extra) -> dict:
    """The payload of an exhaustive check over F_p."""
    w = v.witness
    witness = None if w is None else {
        "beta": list(w.beta), "theta_value": w.theta_value,
        "bases": {str(i): b.tolist() for i, b in sorted(w.bases.items())}}
    return {"verdict": verdict, "theta_of_M": v.theta_of_m, "witness": witness,
            "budget_used": v.budget_used, "reason": v.reason, **extra}


def _paths(args, q):
    paths = enumerate_paths(q, args.max_len)
    return (0, {"paths": [str(p) for p in paths], "count": len(paths)},
            [f"{len(paths)} paths:"] + [f"  {p}" for p in paths])


def _euler(args, q):
    val = euler_form(q, args.alpha, args.beta)
    return 0, {"value": val}, [str(val)]


def _dimvecs(args, q):
    vecs = enumerate_dimvectors(q, args.n, args.theta)
    return 0, {"dimvectors": [list(v) for v in vecs]}, [",".join(map(str, v)) for v in vecs]


def _nonempty(key, decide, args, q):
    """ssne and stne: the verdict of `decide`, named `key`, and the generic subvectors."""
    table = GenericExtTable(q)
    subs = table.generic_subdimvectors(args.alpha)
    ok = decide(q, args.alpha, args.theta, table=table)
    return 0 if ok else 1, {key: ok, "generic_subs": [list(s) for s in subs]}, [f"{key}: {ok}"]


def _dim(args, q):
    d = moduli_dimension(q, args.alpha, args.theta)
    if d is None:
        return (1, {"dimension": None, "reason": "stable locus empty"},
                ["undefined: stable locus empty"])
    return 0, {"dimension": d}, [str(d)]


def _check_over_q(args, m):
    """The rational branch of check-ss: the reductions of `m` modulo --primes."""
    if not args.primes:
        raise RepresentationError("rational representation: supply --primes")
    rv = check_over_rationals(m, args.theta, args.primes, budget=args.budget)
    payload = {
        "verdict": rv.verdict, "certainty": rv.certainty, "theta_of_M": rv.theta_of_m,
        "primes_tested": rv.primes_tested,
        "skipped": [{"prime": p, "notice": msg} for p, msg in rv.skipped],
        "witness": None if rv.witness_beta is None else {
            "beta": list(rv.witness_beta), "theta_value": rv.witness_theta,
            "prime": rv.witness_prime, "lifted": rv.witness_lifted},
    }
    lines = [f"{rv.verdict} ({rv.certainty})"]
    lines += [f"notice: prime {p} skipped: {msg}" for p, msg in rv.skipped]
    if rv.witness_beta is not None:
        lines.append(f"witness beta={list(rv.witness_beta)} theta={rv.witness_theta}")
    return 0 if rv.verdict == "semistable" else 1, payload, lines


def _check_ss(args, q):
    m = _load_rep(args.rep, q)
    if isinstance(m.field, Rationals):
        return _check_over_q(args, m)
    v = is_semistable(m, args.theta, budget=args.budget)
    verdict, w = "semistable" if v.semistable else "unstable", v.witness
    return (0 if v.semistable else 1, _verdict_json(v, verdict),
            [verdict] + ([f"witness beta={list(w.beta)} theta={w.theta_value}"] if w else []))


def _check_st(args, q):
    m = _load_rep(args.rep, q)
    if isinstance(m.field, Rationals):
        raise RepresentationError("check-st needs a representation over F_p")
    v = is_stable(m, args.theta, budget=args.budget)
    verdict = "stable" if v.stable else "not stable"
    return (0 if v.stable else 1, _verdict_json(v, verdict, semistable=v.semistable),
            [verdict] + ([f"reason: {v.reason}"] if v.reason else []))


def _sigma_gen(args, q):
    doc = make_sigma(q, args.theta, args.z, args.max_path_len, args.seed).to_json()
    if not args.output:
        return 0, {"sigma": doc}, [json.dumps(doc, sort_keys=True, indent=2)]
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
    return 0, {"sigma": doc, "written": args.output}, [f"wrote {args.output}"]


def _sigma_eval(args, q):
    m = _load_rep(args.rep, q)
    if len(args.sigma) != 1:
        raise SigmaError("sigma-eval needs exactly one -s file")
    sigma = _load_sigmas(args, q)[0]
    mat = evaluate_sigma(sigma, m)
    rows = [[m.field.format_scalar(x) for x in row] for row in mat]
    payload = {"matrix": rows, "square": mat.shape[0] == mat.shape[1]}
    lines = ["[" + " ".join(r) + "]" for r in rows]
    if payload["square"]:
        payload["det"] = m.field.format_scalar(linalg.det(m.field, mat))
        lines.append(f"det = {payload['det']}")
    return 0, payload, lines


def _localize(args, q):
    pres = localization_presentation(q, _load_sigmas(args, q))
    return 0, {"presentation": pres.to_json()}, [pres.to_text()]


def _check_point(args, q):
    m = _load_rep(args.rep, q)
    verdict = check_localized_point(_load_sigmas(args, q), m)
    fmt = m.field.format_scalar
    payload = {
        "invertible": verdict.invertible,
        "determinants": [fmt(d) for d in verdict.determinants],
        "failing_sigma": verdict.failing_sigma,
        "relations_verified": verdict.relations_verified,
        "inverses": None if verdict.inverses is None else [
            [[fmt(x) for x in row] for row in inv_mat] for inv_mat in verdict.inverses],
    }
    lines = [f"invertible: {verdict.invertible}"]
    if not verdict.invertible:
        lines.append(f"reason: det of sigma #{verdict.failing_sigma} vanishes")
    return 0 if verdict.invertible else 1, payload, lines


def _local_quiver(args, q):
    reps = [_load_rep(path, q) for path in args.rep]
    mults = args.mults if args.mults else tuple([1] * len(reps))
    if len(mults) != len(reps):
        raise QuiverError("--mults length must match the number of summands")
    data = local_quiver(list(zip(reps, mults)), args.theta,
                        assert_stable=args.assert_stable, budget=args.budget)
    dim = local_model_dimension(data)
    return 0, {"local_quiver": data.to_json(), "model_dimension": dim}, [
        f"classes: {data.num_classes}", f"arrow_counts: {[list(r) for r in data.arrow_counts]}",
        f"beta_y: {list(data.multiplicities)}", f"model_dimension: {dim}",
        f"verified: {data.verified}"]


def _extend(args, q):
    doc = extended_quiver(q, args.n).to_json()
    return 0, {"quiver": doc}, [json.dumps(doc, sort_keys=True, indent=2)]


def _root(args, q):
    pres, loops = root_presentation(q, _load_sigmas(args, q), args.n, args.loop_bound)
    (v0,) = loops[0]  # the first loop word is the fresh vertex's label, "v0" unless taken
    return (0, {"presentation": pres.to_json(), "loops": [list(w) for w in loops]},
            [pres.to_text(), f"loops at {v0}:"] + [f"  {'*'.join(w)}" for w in loops])


def _arg(*flags, **kwargs):
    """One argument of a subcommand, as `add_argument` takes it."""
    return flags, kwargs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quivermod",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, *arguments):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run)
        sp._negative_number_matcher = _NEGATIVE_LIST
        sp.add_argument("--format", choices=["text", "machine"], default="text")
        sp.add_argument("-q", "--quiver", required=True, help="quiver JSON file")
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)

    rep = _arg("-r", "--rep", required=True, help="representation JSON file")
    sigma = _arg("-s", "--sigma", action="append", default=[],
                 help="sigma morphism JSON file (repeatable)")
    theta = _arg("--theta", type=_int_list, required=True)
    alpha = _arg("--alpha", type=_int_list, required=True)
    beta = _arg("--beta", type=_int_list, required=True)
    budget = _arg("--budget", type=int, default=DEFAULT_BUDGET)
    n = _arg("-n", type=int, required=True)
    primes = _arg("-p", "--primes", type=_int_list, default=None,
                  help="primes for rational representations")
    add("paths", "enumerate oriented paths", _paths, _arg("--max-len", type=int, default=None))
    add("euler", "Euler form <alpha, beta>", _euler, alpha, beta)
    add("dimvecs", "dimension vectors with d(alpha)=n and theta(alpha)=0", _dimvecs, theta, n)
    add("ssne", "is the semistable locus generically nonempty?",
        partial(_nonempty, "semistable_nonempty", semistable_nonempty), theta, alpha)
    add("stne", "is the stable locus generically nonempty?",
        partial(_nonempty, "stable_nonempty", stable_nonempty), theta, alpha)
    add("dim", "moduli space dimension 1 - <alpha, alpha>", _dim, theta, alpha)
    add("check-ss", "exhaustive semistability check", _check_ss, rep, theta, budget, primes)
    add("check-st", "exhaustive stability check", _check_st, rep, theta, budget)
    add("sigma-gen", "generate a random member of Sigma_z", _sigma_gen, theta,
        _arg("-z", type=int, default=1), _arg("--max-path-len", type=int, default=None),
        _arg("--seed", type=int, default=0),
        _arg("-o", "--output", default=None, help="write sigma JSON here"))
    add("sigma-eval", "evaluate a sigma morphism at a representation", _sigma_eval,
        rep, sigma)
    add("localize", "emit the universal localization presentation", _localize, sigma)
    add("check-point", "does the representation invert every sigma?", _check_point,
        rep, sigma)
    add("local-quiver", "local quiver data at a semisimple point", _local_quiver,
        theta, budget,
        _arg("-r", "--rep", action="append", required=True,
             help="stable summand JSON file (repeatable)"),
        _arg("--mults", type=_int_list, default=None, help="multiplicities, default all 1"),
        _arg("--assert-stable", action="store_true",
             help="skip oracle verification (result flagged unverified)"))
    add("extend", "extended quiver with fresh source vertex v0", _extend, n)
    add("root", "root-construction presentation and v0 loop words", _root, sigma, n,
        _arg("--loop-bound", type=int, default=3,
             help="longest loop word at v0 (default 3, which generates the corner algebra)"))
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
    q = validate_quiver(_load_json(args.quiver))
    code, payload, text_lines = args.run(args, q)
    _emit(args, payload, text_lines)
    return code


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
