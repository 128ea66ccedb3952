import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quivermod
from quivermod.cli import _build_parser, main

K3 = {"vertices": 2,
      "arrows": [{"id": "x", "src": 1, "tgt": 2},
                 {"id": "y", "src": 1, "tgt": 2},
                 {"id": "z", "src": 1, "tgt": 2}]}
A2 = {"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": 2}]}


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2))
    return str(path)


def write_rep(tmp_path, name, field, m):
    doc = {"field": field, "dim": [1, 1],
           "matrices": {"x": [[m[0]]], "y": [[m[1]]], "z": [[m[2]]]}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_euler(k3_file, capsys):
    assert main(["euler", "-q", k3_file, "--alpha", "1,1", "--beta", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_paths(a2_file, capsys):
    assert main(["paths", "-q", a2_file]) == 0
    out = capsys.readouterr().out
    assert "3 paths" in out and "a" in out


def test_dimvecs(k3_file, capsys):
    assert main(["dimvecs", "-q", k3_file, "--theta", "-1,1", "-n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "2,2"


def test_ssne_exit_codes(k3_file, capsys):
    assert main(["ssne", "-q", k3_file, "--alpha", "2,2", "--theta", "-1,1"]) == 0
    assert main(["ssne", "-q", k3_file, "--alpha", "2,1", "--theta", "-1,1"]) == 1
    assert main(["stne", "-q", k3_file, "--alpha", "1,1", "--theta", "-1,1"]) == 0


def test_dim(k3_file, capsys):
    assert main(["dim", "-q", k3_file, "--alpha", "2,2", "--theta", "-1,1"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["dim", "-q", k3_file, "--alpha", "2,1", "--theta", "-1,1"]) == 1
    assert "undefined" in capsys.readouterr().out


def test_check_ss(tmp_path, k3_file, capsys):
    good = write_rep(tmp_path, "good.json", {"p": 2}, [1, 0, 0])
    bad = write_rep(tmp_path, "bad.json", {"p": 2}, [0, 0, 0])
    assert main(["check-ss", "-q", k3_file, "-r", good, "--theta", "-1,1"]) == 0
    assert main(["check-ss", "-q", k3_file, "-r", bad, "--theta", "-1,1"]) == 1
    out = capsys.readouterr().out
    assert "witness beta=[1, 0]" in out


@pytest.mark.parametrize("key", ["field", "dim"])
def test_rep_file_without_a_key_names_it(tmp_path, k3_file, capsys, key):
    """Such a file used to fail with a bare `KeyError`, printed as "error: 'field'"."""
    path = Path(write_rep(tmp_path, "rep.json", {"p": 2}, [1, 0, 0]))
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    assert main(["check-ss", "-q", k3_file, "-r", str(path), "--theta", "-1,1"]) == 2
    assert f"no '{key}'" in capsys.readouterr().err


def test_failed_self_check_exit_code(tmp_path, k3_file, capsys, monkeypatch):
    import quivermod.stability
    monkeypatch.setattr(quivermod.stability, "verify_witness", lambda m, w: False)
    bad = write_rep(tmp_path, "bad.json", {"p": 2}, [0, 0, 0])
    assert main(["check-ss", "-q", k3_file, "-r", bad, "--theta", "-1,1"]) == 4
    assert capsys.readouterr().err.startswith("internal error: ")


def test_check_st(tmp_path, k3_file, capsys):
    good = write_rep(tmp_path, "good.json", {"p": 2}, [1, 0, 0])
    assert main(["check-st", "-q", k3_file, "-r", good, "--theta", "-1,1"]) == 0


def test_check_st_rational_rejected(tmp_path, k3_file, capsys):
    r = write_rep(tmp_path, "q.json", "Q", ["1", "0", "0"])
    assert main(["check-st", "-q", k3_file, "-r", r, "--theta", "-1,1"]) == 2


def test_check_ss_rational(tmp_path, k3_file, capsys):
    r = write_rep(tmp_path, "q.json", "Q", ["1/3", "0", "0"])
    assert main(["check-ss", "-q", k3_file, "-r", r, "--theta", "-1,1"]) == 2
    assert main(["check-ss", "-q", k3_file, "-r", r, "--theta", "-1,1",
                 "-p", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "HEURISTIC" in out and "prime 3 skipped" in out
    assert main(["check-ss", "-q", k3_file, "-r", r, "--theta", "-1,1",
                 "-p", str(2**61 - 1)]) == 2


def test_check_ss_rational_without_a_tested_prime(tmp_path, k3_file, capsys):
    zero = [[0, 0], [0, 0]]
    doc = {"field": "Q", "dim": [2, 2], "matrices": {"x": [["1/3", 0], [0, 0]], "y": zero,
                                                     "z": zero}}
    path = tmp_path / "q22.json"
    path.write_text(json.dumps(doc))
    argv = ["check-ss", "-q", k3_file, "-r", str(path), "--theta", "-1,1", "--primes"]
    assert main(argv + ["3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no prime could be tested (prime 3 divides a denominator)\n"
    assert main(argv + ["5"]) == 1
    assert capsys.readouterr().out.startswith("unstable (PROOF)")


def test_check_ss_refuses_a_repeated_prime(tmp_path, k3_file, capsys):
    """--primes 5,5 used to run the F_5 search twice and list 5 twice."""
    doc = {"field": "Q", "dim": [2, 2], "matrices": {"x": [[1, 0], [0, 1]], "y": [[0, 1], [1, 0]],
                                                     "z": [[1, 1], [0, 1]]}}
    path = tmp_path / "q22.json"
    path.write_text(json.dumps(doc))
    argv = ["check-ss", "-q", k3_file, "-r", str(path), "--theta", "-1,1", "--primes"]
    assert main(argv + ["5,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: prime 5 is given more than once\n"
    assert main(argv + ["5"]) == 0
    assert capsys.readouterr().out.startswith("semistable (HEURISTIC)")


def test_budget_exit_code(tmp_path, k3_file):
    doc = {"field": {"p": 3}, "dim": [2, 2],
           "matrices": {"x": [[0, 0], [0, 0]], "y": [[0, 0], [0, 0]],
                        "z": [[0, 0], [0, 0]]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["check-ss", "-q", k3_file, "-r", str(path),
                 "--theta", "-1,1", "--budget", "3"]) == 3


@pytest.mark.parametrize("budget", ["-1", "0", "1.5"])
def test_budget_not_a_positive_integer_exit_code(tmp_path, k3_file, capsys, budget):
    rep = write_rep(tmp_path, "f3.json", {"p": 3}, [1, 0, 0])
    mults = ["--mults", "1"]
    for argv in (["check-ss", "-r", rep], ["check-st", "-r", rep],
                 ["check-ss", "-r", write_rep(tmp_path, "q.json", "Q", ["1", "0", "0"]),
                  "-p", "5"],
                 ["local-quiver", "-r", rep] + mults,
                 ["local-quiver", "-r", rep, "--assert-stable"] + mults):
        assert main(argv + ["-q", k3_file, "--theta", "-1,1", "--budget", budget]) == 2, argv
        assert "budget" in capsys.readouterr().err


def test_machine_format_deterministic(k3_file, capsys):
    argv = ["ssne", "-q", k3_file, "--alpha", "1,1", "--theta", "-1,1",
            "--format", "machine"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["tool"] == "quivermod"
    assert record["semistable_nonempty"] is True
    assert list(record) == sorted(record)


def test_sigma_pipeline(tmp_path, k3_file, capsys):
    sig = str(tmp_path / "sig.json")
    assert main(["sigma-gen", "-q", k3_file, "--theta", "-1,1",
                 "-z", "1", "--seed", "0", "-o", sig]) == 0
    capsys.readouterr()
    rep = write_rep(tmp_path, "m.json", "Q", ["1", "0", "0"])
    assert main(["sigma-eval", "-q", k3_file, "-r", rep, "-s", sig]) == 0
    assert "det = " in capsys.readouterr().out


def test_sigma_eval_evaluates_sigma_once(tmp_path, k3_file, capsys, monkeypatch):
    """The printed det is that of the printed matrix: sigma is evaluated once."""
    import quivermod.localization as localization
    calls = []
    sigma_rows = localization._sigma_rows
    monkeypatch.setattr(localization, "_sigma_rows",
                        lambda *args: calls.append(args) or sigma_rows(*args))
    sig = str(tmp_path / "sig.json")
    assert main(["sigma-gen", "-q", k3_file, "--theta", "-1,1", "-z", "1", "-o", sig]) == 0
    rep = write_rep(tmp_path, "m.json", "Q", ["1", "2", "3"])
    assert main(["sigma-eval", "-q", k3_file, "-r", rep, "-s", sig]) == 0
    assert "det = " in capsys.readouterr().out
    assert len(calls) == 1


def test_sigma_gen_deterministic(k3_file, capsys):
    argv = ["sigma-gen", "-q", k3_file, "--theta", "-1,1", "--seed", "5",
            "--format", "machine"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_localize(tmp_path, a2_file, capsys):
    sig = {"domain": [2], "codomain": [1],
           "entries": [[[{"coeff": "1", "path": ["a"]}]]]}
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(sig))
    assert main(["localize", "-q", a2_file, "-s", str(path)]) == 0
    out = capsys.readouterr().out
    assert "y.s0.1.1" in out


def test_check_point(tmp_path, k3_file, capsys):
    sig = {"domain": [2], "codomain": [1],
           "entries": [[[{"coeff": "1", "path": ["x"]}]]]}
    spath = tmp_path / "sig.json"
    spath.write_text(json.dumps(sig))
    good = write_rep(tmp_path, "good.json", "Q", ["1", "0", "0"])
    bad = write_rep(tmp_path, "bad.json", "Q", ["0", "1", "0"])
    assert main(["check-point", "-q", k3_file, "-r", good, "-s", str(spath)]) == 0
    assert "invertible: True" in capsys.readouterr().out
    assert main(["check-point", "-q", k3_file, "-r", bad, "-s", str(spath)]) == 1
    assert "sigma #0 vanishes" in capsys.readouterr().out


def test_local_quiver(tmp_path, k3_file, capsys):
    m = write_rep(tmp_path, "m.json", {"p": 5}, [1, 0, 0])
    n = write_rep(tmp_path, "n.json", {"p": 5}, [0, 1, 0])
    assert main(["local-quiver", "-q", k3_file, "-r", m, "-r", n,
                 "--theta", "-1,1"]) == 0
    out = capsys.readouterr().out
    assert "model_dimension: 5" in out
    assert main(["local-quiver", "-q", k3_file, "-r", m, "-r", m,
                 "--theta", "-1,1"]) == 2  # isomorphic summands
    assert main(["local-quiver", "-q", k3_file, "-r", m, "-r", n,
                 "--theta", "-1,1", "--mults", "1"]) == 2


def test_extend(a2_file, capsys):
    assert main(["extend", "-q", a2_file, "-n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 3 and len(doc["arrows"]) == 5


def test_root(a2_file, capsys):
    assert main(["root", "-q", a2_file, "-n", "1", "--loop-bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "loops at v0:" in out and "v0" in out


def test_extend_and_root_on_a_quiver_labelled_v0(tmp_path, capsys):
    """The fresh vertex's label is "v0" with leading underscores until it is new;
    it used to be "v0" always, which a quiver labelled v0, v1 already has."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({**A2, "labels": ["v0", "v1"]}))
    assert main(["extend", "-q", str(path), "-n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["labels"] == ["v0", "v1", "_v0"]
    assert main(["root", "-q", str(path), "-n", "1"]) == 0
    assert "loops at _v0:\n  _v0\n" in capsys.readouterr().out
    assert main(["root", "-q", str(path), "-n", "1", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["presentation"]["generators"][:3] == ["v0", "v1", "_v0"]
    assert ["_v0"] in doc["loops"] and ["v0"] not in doc["loops"]


def test_root_default_loop_bound(a2_file, capsys):
    assert main(["root", "-q", a2_file, "-n", "1", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["loop_bound"] == 3
    assert ["y.s0.1.2", "a", "x_1_1"] in doc["loops"]


@pytest.mark.parametrize("command, arrow", [(["localize"], "v1"), (["root", "-n", "1"], "v0"),
                                            (["localize"], "a*b"), (["root", "-n", "1"], "a b")])
def test_repeated_generator_name_exit_code(tmp_path, capsys, command, arrow):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [{"id": arrow, "src": 1, "tgt": 2}]}))
    assert main([command[0], "-q", str(path), *command[1:]]) == 2
    assert "ambiguous" in capsys.readouterr().err


def test_usage_errors(tmp_path, k3_file, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["euler", "-q", str(tmp_path / "missing.json"),
                 "--alpha", "1,1", "--beta", "1,1"]) == 2
    assert main(["ssne", "-q", k3_file, "--alpha", "1,1,1",
                 "--theta", "-1,1"]) == 2
    capsys.readouterr()
    assert main(["ssne", "-q", k3_file, "--alpha", "1,1", "--theta", "1,x"]) == 2
    assert "expected comma-separated integers: '1,x'" in capsys.readouterr().err


def test_sigma_eval_takes_one_sigma(tmp_path, k3_file, capsys):
    rep = write_rep(tmp_path, "m.json", "Q", ["1", "0", "0"])
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps(SIGMA))
    assert main(["sigma-eval", "-q", k3_file, "-r", rep, "-s", str(sig), "-s", str(sig)]) == 2
    assert "exactly one -s file" in capsys.readouterr().err


MALFORMED_REPS = {
    "zero denominator": {"field": "Q", "dim": [1, 1],
                         "matrices": {"x": [["1/0"]], "y": [["0"]], "z": [["0"]]}},
    "dim not a list": {"field": "Q", "dim": 2, "matrices": {}},
    "prime not a number": {"field": {"p": None}, "dim": [1, 1], "matrices": {}},
    "matrices not a mapping": {"field": "Q", "dim": [1, 1], "matrices": [[1]]},
    "matrix not a list of rows": {"field": "Q", "dim": [1, 1], "matrices": {"x": 3}},
    "prime a float": {"field": {"p": 5.5}, "dim": [1, 1], "matrices": {}},
    "prime above 2^31": {"field": {"p": 2**61 - 1}, "dim": [1, 1], "matrices": {}},
    "dim a string": {"field": "Q", "dim": "11", "matrices": {}},
    "top-level list": [{"field": "Q", "dim": [1, 1], "matrices": {}}],
    "unknown arrow": {"field": "Q", "dim": [1, 1], "matrices": {"w": [[1]]}},
    "matrix entry a bool": {"field": {"p": 3}, "dim": [1, 1], "matrices": {"x": [[True]]}},
    "rational entry a bool": {"field": "Q", "dim": [1, 1], "matrices": {"x": [[False]]}},
    "prime a bool": {"field": {"p": True}, "dim": [1, 1], "matrices": {}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REPS))
def test_malformed_rep_file_exit_code(name, tmp_path, k3_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_REPS[name]))
    assert main(["check-ss", "-q", k3_file, "-r", str(path),
                 "--theta", "-1,1", "-p", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_quiver_file_exit_code(tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({**K3, "labels": 5}))
    assert main(["euler", "-q", str(path), "--alpha", "1,1", "--beta", "1,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_quiver_file_with_labels_as_a_string_exit_code(tmp_path, capsys):
    """"ab" used to be read as the labels a and b."""
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({**K3, "labels": "ab"}))
    assert main(["euler", "-q", str(path), "--alpha", "1,1", "--beta", "1,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_quiver_file_with_list_arrows_names_the_expected_form(tmp_path, capsys):
    """The message used to be "list indices must be integers or slices, not str"."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [["x", 1, 2]]}))
    assert main(["euler", "-q", str(path), "--alpha", "1,1", "--beta", "1,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and '{"id", "src", "tgt"} objects' in err


@pytest.mark.parametrize("change", [{"vertices": 2.0}, {"vertices": "2"},
                                    {"arrows": [{"id": "x", "src": 1.5, "tgt": 2}]},
                                    {"arrows": [{"id": "x", "src": 1, "tgt": "2"}]}],
                         ids=["vertices-float", "vertices-string", "src-float", "tgt-string"])
def test_non_integer_quiver_file_exit_code(change, tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({**K3, **change}))
    assert main(["euler", "-q", str(path), "--alpha", "1,1", "--beta", "1,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_st_zero_representation_exit_code(tmp_path, k3_file, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"field": {"p": 2}, "dim": [0, 0]}))
    assert main(["check-ss", "-q", k3_file, "-r", str(path), "--theta", "-1,1"]) == 0
    capsys.readouterr()
    assert main(["check-st", "-q", k3_file, "-r", str(path), "--theta", "-1,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SIGMA = {"domain": [2], "codomain": [1], "entries": [[[{"coeff": "1", "path": ["x"]}]]]}
MALFORMED_SIGMAS = {
    "top-level list": [SIGMA],
    "domain not a list": {**SIGMA, "domain": 2},
    "entries not a list": {**SIGMA, "entries": 5},
    "null coeff": {**SIGMA, "entries": [[[{"coeff": None, "path": ["x"]}]]]},
    "zero denominator": {**SIGMA, "entries": [[[{"coeff": "1/0", "path": ["x"]}]]]},
    "integer term": {**SIGMA, "entries": [[[5]]]},
    "vertex 0": {**SIGMA, "domain": [0], "entries": [[[]]]},
    "vertex past the last": {**SIGMA, "domain": [3], "entries": [[[]]]},
    "row missing": {**SIGMA, "entries": []},
    "row too long": {**SIGMA, "entries": [[[], []]]},
    "arrow id a number": {**SIGMA, "entries": [[[{"coeff": "1", "path": [1]}]]]},
    "coeff a bool": {**SIGMA, "entries": [[[{"coeff": True, "path": ["x"]}]]]},
    "name a number": {**SIGMA, "name": 5},
    "name a list": {**SIGMA, "name": ["s"]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SIGMAS))
def test_malformed_sigma_file_exit_code(name, tmp_path, k3_file, capsys):
    rep = write_rep(tmp_path, "m.json", "Q", ["1", "0", "0"])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(SIGMA))
    bad.write_text(json.dumps(MALFORMED_SIGMAS[name]))
    assert main(["sigma-eval", "-q", k3_file, "-r", rep, "-s", str(good)]) == 0
    capsys.readouterr()
    assert main(["sigma-eval", "-q", k3_file, "-r", rep, "-s", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("domain", [0, 3])
def test_localize_rejects_vertex_out_of_range(domain, tmp_path, k3_file, capsys):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({**SIGMA, "domain": [domain], "entries": [[[]]]}))
    assert main(["localize", "-q", k3_file, "-s", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_sigma_gen_rejects_weight_length(k3_file, capsys):
    assert main(["sigma-gen", "-q", k3_file, "--theta", "-1,0,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["paths", "--max-len", "-1"],
                                  ["sigma-gen", "--theta", "-1,1", "--max-path-len", "-1"]],
                         ids=["paths", "sigma-gen"])
def test_negative_path_length_bound_exit_code(argv, k3_file, capsys):
    assert main(argv + ["-q", k3_file]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_every_subcommand_has_a_run_function():
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 15
    for name, parser in sub.choices.items():
        assert callable(parser.get_default("run")), name


def test_cli_import_leaves_numpy_out():
    """A fresh interpreter that imports the CLI loads no numpy module."""
    src = str(Path(quivermod.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import quivermod.cli, sys; print(sorted(m for m in sys.modules if 'numpy' in m))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
