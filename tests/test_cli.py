import json

import pytest

from quivermod.cli import main

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


def test_budget_exit_code(tmp_path, k3_file):
    doc = {"field": {"p": 3}, "dim": [2, 2],
           "matrices": {"x": [[0, 0], [0, 0]], "y": [[0, 0], [0, 0]],
                        "z": [[0, 0], [0, 0]]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["check-ss", "-q", k3_file, "-r", str(path),
                 "--theta", "-1,1", "--budget", "3"]) == 3


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


def test_usage_errors(tmp_path, k3_file, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["euler", "-q", str(tmp_path / "missing.json"),
                 "--alpha", "1,1", "--beta", "1,1"]) == 2
    assert main(["ssne", "-q", k3_file, "--alpha", "1,1,1",
                 "--theta", "-1,1"]) == 2


MALFORMED_REPS = {
    "zero denominator": {"field": "Q", "dim": [1, 1],
                         "matrices": {"x": [["1/0"]], "y": [["0"]], "z": [["0"]]}},
    "dim not a list": {"field": "Q", "dim": 2, "matrices": {}},
    "prime not a number": {"field": {"p": None}, "dim": [1, 1], "matrices": {}},
    "matrices not a mapping": {"field": "Q", "dim": [1, 1], "matrices": [[1]]},
    "matrix not a list of rows": {"field": "Q", "dim": [1, 1], "matrices": {"x": 3}},
    "prime a float": {"field": {"p": 5.5}, "dim": [1, 1], "matrices": {}},
    "dim a string": {"field": "Q", "dim": "11", "matrices": {}},
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


SIGMA = {"domain": [2], "codomain": [1], "entries": [[[{"coeff": "1", "path": ["x"]}]]]}
MALFORMED_SIGMAS = {
    "top-level list": [SIGMA],
    "domain not a list": {**SIGMA, "domain": 2},
    "entries not a list": {**SIGMA, "entries": 5},
    "null coeff": {**SIGMA, "entries": [[[{"coeff": None, "path": ["x"]}]]]},
    "zero denominator": {**SIGMA, "entries": [[[{"coeff": "1/0", "path": ["x"]}]]]},
    "integer term": {**SIGMA, "entries": [[[5]]]},
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
