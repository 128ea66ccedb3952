"""Every subcommand's output in both formats, byte for byte.

The commands run from a temporary working directory on relative file names,
so the `config` key of each machine record holds no absolute path. The
expected outputs are `cli_machine_golden.txt` (one record per command) and
`cli_text_golden.txt` next to this file, in the order of COMMANDS.
`cli_usage_golden.txt` holds what the top level and each subcommand print when
run without arguments: the `usage:` line and the missing-arguments error.
"""
import json
from pathlib import Path

from quivermod.cli import main

GOLDEN = Path(__file__).with_name("cli_machine_golden.txt")
TEXT_GOLDEN = Path(__file__).with_name("cli_text_golden.txt")
USAGE_GOLDEN = Path(__file__).with_name("cli_usage_golden.txt")

K3 = {"vertices": 2,
      "arrows": [{"id": "x", "src": 1, "tgt": 2},
                 {"id": "y", "src": 1, "tgt": 2},
                 {"id": "z", "src": 1, "tgt": 2}]}
# K3 with its arrows reversed, 2 -> 1: against the numbering
K3OP = {"vertices": 2,
        "arrows": [{"id": "x", "src": 2, "tgt": 1},
                   {"id": "y", "src": 2, "tgt": 1},
                   {"id": "z", "src": 2, "tgt": 1}]}
A2 = {"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": 2}]}
# the acyclic triangle 1 -> 2 -> 3, 1 -> 3
Q3 = {"vertices": 3,
      "arrows": [{"id": "a", "src": 1, "tgt": 2},
                 {"id": "b", "src": 2, "tgt": 3},
                 {"id": "c", "src": 1, "tgt": 3}]}

FILES = {
    "k3.json": K3,
    "k3op.json": K3OP,
    "a2.json": A2,
    "q3.json": Q3,
    # F_3, dimension (2, 2): every arrow kills e_2, so (1, 0) destabilizes
    "f3.json": {"field": {"p": 3}, "dim": [2, 2],
                "matrices": {"x": [[1, 0], [2, 0]], "y": [[0, 0], [1, 0]],
                             "z": [[2, 0], [0, 0]]}},
    # F_2, polystable: the sum of two non-isomorphic stable (1, 1) representations
    "f2_sum.json": {"field": {"p": 2}, "dim": [2, 2],
                    "matrices": {"x": [[1, 0], [0, 0]], "y": [[0, 0], [0, 1]],
                                 "z": [[0, 0], [0, 0]]}},
    "f5_m.json": {"field": {"p": 5}, "dim": [1, 1],
                  "matrices": {"x": [[1]], "y": [[0]], "z": [[0]]}},
    "f5_n.json": {"field": {"p": 5}, "dim": [1, 1],
                  "matrices": {"x": [[0]], "y": [[1]], "z": [[0]]}},
    # over Q with denominator 3: prime 3 is skipped
    "q_third.json": {"field": "Q", "dim": [1, 1],
                     "matrices": {"x": [["1/3"]], "y": [["0"]], "z": [["2"]]}},
    "q_zero.json": {"field": "Q", "dim": [2, 2],
                    "matrices": {"x": [["0", "0"], ["0", "0"]],
                                 "y": [["1", "0"], ["0", "0"]],
                                 "z": [["0", "0"], ["3", "0"]]}},
    "q_point.json": {"field": "Q", "dim": [1, 1],
                     "matrices": {"x": [["2"]], "y": [["-1/2"]], "z": [["5"]]}},
}

COMMANDS = [
    (["paths", "-q", "a2.json"], 0),
    (["paths", "-q", "k3.json", "--max-len", "1"], 0),
    (["euler", "-q", "k3.json", "--alpha", "1,1", "--beta", "2,1"], 0),
    (["dimvecs", "-q", "k3.json", "--theta", "-1,1", "-n", "4"], 0),
    (["ssne", "-q", "k3.json", "--alpha", "2,2", "--theta", "-1,1"], 0),
    (["ssne", "-q", "k3.json", "--alpha", "2,1", "--theta", "-1,1"], 1),
    (["stne", "-q", "k3.json", "--alpha", "3,2", "--theta", "-2,3"], 0),
    (["dim", "-q", "k3.json", "--alpha", "2,2", "--theta", "-1,1"], 0),
    (["dim", "-q", "k3.json", "--alpha", "2,1", "--theta", "-1,1"], 1),
    # Schofield tables with many generic subvectors and pruned duals
    (["ssne", "-q", "k3.json", "--alpha", "9,9", "--theta", "-1,1"], 0),
    (["stne", "-q", "k3.json", "--alpha", "9,9", "--theta", "-1,1"], 0),
    (["dim", "-q", "k3.json", "--alpha", "9,9", "--theta", "-1,1"], 0),
    # the same three with the vertices swapped
    (["ssne", "-q", "k3op.json", "--alpha", "9,9", "--theta", "1,-1"], 0),
    (["stne", "-q", "k3op.json", "--alpha", "9,9", "--theta", "1,-1"], 0),
    (["dim", "-q", "k3op.json", "--alpha", "9,9", "--theta", "1,-1"], 0),
    (["ssne", "-q", "q3.json", "--alpha", "3,3,3", "--theta", "-1,0,1"], 0),
    (["stne", "-q", "q3.json", "--alpha", "3,3,3", "--theta", "-2,1,1"], 1),
    (["dim", "-q", "q3.json", "--alpha", "3,3,3", "--theta", "-1,0,1"], 1),
    (["check-ss", "-q", "k3.json", "-r", "f3.json", "--theta", "-1,1"], 1),
    (["check-ss", "-q", "k3.json", "-r", "f2_sum.json", "--theta", "-1,1"], 0),
    (["check-ss", "-q", "k3.json", "-r", "q_third.json", "--theta", "-1,1",
      "-p", "3,5"], 0),
    (["check-ss", "-q", "k3.json", "-r", "q_zero.json", "--theta", "-1,1",
      "-p", "2,3"], 1),
    (["check-st", "-q", "k3.json", "-r", "f2_sum.json", "--theta", "-1,1"], 1),
    (["check-st", "-q", "k3.json", "-r", "f5_m.json", "--theta", "-1,1"], 0),
    (["local-quiver", "-q", "k3.json", "-r", "f5_m.json", "-r", "f5_n.json",
      "--theta", "-1,1", "--mults", "1,2"], 0),
    (["sigma-gen", "-q", "k3.json", "--theta", "-1,1", "-z", "1", "--seed", "3",
      "-o", "sig.json"], 0),
    (["sigma-gen", "-q", "k3.json", "--theta", "-2,3", "-z", "1", "--seed", "4"], 0),
    (["sigma-eval", "-q", "k3.json", "-r", "q_point.json", "-s", "sig.json"], 0),
    (["sigma-eval", "-q", "k3.json", "-r", "f5_m.json", "-s", "sig.json"], 0),
    (["check-point", "-q", "k3.json", "-r", "q_point.json", "-s", "sig.json"], 0),
    (["check-point", "-q", "k3.json", "-r", "f5_n.json", "-s", "sig.json"], 1),
    (["localize", "-q", "k3.json", "-s", "sig.json"], 0),
    (["extend", "-q", "a2.json", "-n", "2"], 0),
    (["root", "-q", "k3.json", "-s", "sig.json", "-n", "1", "--loop-bound", "2"], 0),
]


def run_commands(workdir: Path, capsys, monkeypatch, fmt: str = "machine") -> str:
    """Write FILES into `workdir`, run COMMANDS there in format `fmt`, return
    their stdout."""
    monkeypatch.chdir(workdir)
    for name, doc in FILES.items():
        (workdir / name).write_text(json.dumps(doc))
    capsys.readouterr()
    out = []
    for argv, code in COMMANDS:
        assert main(argv + ["--format", fmt]) == code, argv
        out.append(capsys.readouterr().out)
    return "".join(out)


def test_machine_output_matches_golden(tmp_path, capsys, monkeypatch):
    got = run_commands(tmp_path, capsys, monkeypatch)
    assert got == GOLDEN.read_text()


def test_text_output_matches_golden(tmp_path, capsys, monkeypatch):
    got = run_commands(tmp_path, capsys, monkeypatch, "text")
    assert got == TEXT_GOLDEN.read_text()


SUBCOMMANDS = ["paths", "euler", "dimvecs", "ssne", "stne", "dim", "check-ss", "check-st",
               "sigma-gen", "sigma-eval", "localize", "check-point", "local-quiver",
               "extend", "root"]


def test_usage_errors_match_golden(capsys, monkeypatch):
    # wide enough that no usage line wraps; the lines are the same on 3.10-3.13
    monkeypatch.setenv("COLUMNS", "200")
    out = []
    for argv in [[]] + [[name] for name in SUBCOMMANDS]:
        assert main(argv) == 2, argv
        out.append(capsys.readouterr().err)
    assert "".join(out) == USAGE_GOLDEN.read_text()


def test_reversed_k3_golden_lines_are_k3_swapped():
    """The k3op.json records are the k3.json (9, 9) records with the two
    vertices swapped: same verdicts and dimension, swapped subvectors."""
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]

    def at(name):
        return {r["command"]: r for r in records
                if r["config"].get("quiver") == name and r["config"].get("alpha") == [9, 9]}

    k3, k3op = at("k3.json"), at("k3op.json")
    assert sorted(k3) == sorted(k3op) == ["dim", "ssne", "stne"]
    for command, r in k3.items():
        swapped = k3op[command]
        assert swapped["config"]["theta"] == r["config"]["theta"][::-1]
        if "generic_subs" in r:
            assert swapped["generic_subs"] == sorted(s[::-1] for s in r["generic_subs"])
        strip = {"config", "generic_subs"}
        assert ({k: v for k, v in swapped.items() if k not in strip}
                == {k: v for k, v in r.items() if k not in strip})
