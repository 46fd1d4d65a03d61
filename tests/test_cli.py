import json
import os
import subprocess
import sys

from lengrp.cli import main

CONNER_ARG = "[[0,0,0,-1],[1,0,0,2],[0,1,0,-1],[0,0,1,2]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_golden(capsys):
    code, out, _ = run(capsys, "classify", "--matrix", CONNER_ARG)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "lengrp/1"
    report = payload["dossier"]["report"]
    assert report["purely_positive_stable_word_length"] == "yes"
    assert {"claim": "purely positive (stable word length)", "lemma": "Corollary"} \
        in payload["dossier"]["verdicts"]


def test_classify_identity(capsys):
    code, out, _ = run(capsys, "classify", "--matrix", "[[1,0],[0,1]]")
    assert code == 0
    assert json.loads(out)["dossier"]["report"]["finite_order"] == 1


def test_classify_matrix_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[0,-1],[1,0]]")
    code, out, _ = run(capsys, "classify", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["dossier"]["report"]["finite_order"] == 4


def test_classify_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "--matrix", "[[2,0],[0,1]]")
    assert code == 2 and "det" in err
    code, _, err = run(capsys, "classify", "--matrix", "not json")
    assert code == 1 and "parse" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_wordlen(capsys):
    code, out, _ = run(capsys, "wordlen", "0", "0", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 16 and payload["path"] == "formula"
    code, out, _ = run(capsys, "wordlen", "0", "0", "0")
    assert json.loads(out)["length"] == 0
    code, out, _ = run(capsys, "wordlen", "2", "1", "2")
    payload = json.loads(out)
    assert payload["length"] == 3 and payload["path"] == "oracle"


def test_stable(capsys):
    code, out, _ = run(capsys, "stable", "1,1,0", "--k-max", "5")
    assert code == 0
    payload = json.loads(out)
    assert [s["ratio"] for s in payload["samples"]] == ["2/1"] * 5
    assert payload["declared_limit"] == 2
    code, _, _ = run(capsys, "stable", "1,1", "--k-max", "5")
    assert code == 1
    code, _, _ = run(capsys, "stable", "1,1,0", "--k-max", "0")
    assert code == 1


def test_axioms(capsys):
    code, out, _ = run(capsys, "axioms", "--length", "swl", "--samples", "200",
                       "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    code, out, _ = run(capsys, "axioms", "--length", "wordlen", "--samples", "300",
                       "--seed", "7")
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["report"]["homogeneity"]["counterexample"] is not None
    code, _, _ = run(capsys, "axioms", "--length", "no-such")
    assert code == 1


def test_ball(capsys, tmp_path):
    out_path = tmp_path / "ball.csv"
    code, out, _ = run(capsys, "ball", "--group", "heis", "--radius", "4",
                       "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["sphere_sizes"] == [1, 4, 12, 36, 82]
    assert out_path.read_text().startswith("coordinates,length")


def test_ball_sdp(capsys):
    code, out, _ = run(capsys, "ball", "--group", "sdp", "--matrix",
                       "[[2,1],[1,1]]", "--radius", "3")
    assert code == 0
    assert json.loads(out)["ball_size"] > 0
    code, _, _ = run(capsys, "ball", "--group", "sdp", "--radius", "3")
    assert code == 1


def test_ball_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("LENGRP_MEMORY_BUDGET", "50")
    code, _, err = run(capsys, "ball", "--group", "heis", "--radius", "8")
    assert code == 3 and "budget" in err
    monkeypatch.setenv("LENGRP_MEMORY_BUDGET", "many")
    code, _, _ = run(capsys, "ball", "--group", "heis", "--radius", "2")
    assert code == 1


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]",
                      "--evidence", "estimates", "--k-max", "4", "--radius", "8")
    _, second, _ = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]",
                       "--evidence", "estimates", "--k-max", "4", "--radius", "8")
    assert first == second


def test_malformed_matrix_is_a_parse_error(capsys):
    code, out, err = run(capsys, "classify", "--matrix", "[[1,2,3]]")
    assert code == 1 and "parse" in err and out == ""


def test_axioms_rejects_nan_tolerance(capsys):
    code, out, _ = run(capsys, "axioms", "--length", "wordlen", "--tolerance", "nan")
    assert code == 1 and out == ""


def test_axioms_rejects_negative_tolerance(capsys):
    code, out, _ = run(capsys, "axioms", "--length", "swl", "--tolerance", "-0.5")
    assert code == 1 and out == ""


def test_ball_unwritable_output(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = run(capsys, "ball", "--radius", "40", "--out", str(missing))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not missing.parent.exists()


def test_import_does_not_load_sympy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, lengrp; assert 'sympy' not in sys.modules, 'sympy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_classify_does_not_load_sympy():
    """Irreducibility of a quartic without a rational root needs no sympy."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; from lengrp.cli import main; "
            "assert main(['classify', '--matrix', '[[0,0,0,-1],[1,0,0,2],[0,1,0,-1],[0,0,1,2]]']) == 0; "
            "assert 'sympy' not in sys.modules, 'sympy imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)
