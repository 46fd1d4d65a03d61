import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lengrp.cli import main
from lengrp.groups import BallTable

CONNER_ARG = "[[0,0,0,-1],[1,0,0,2],[0,1,0,-1],[0,0,1,2]]"
GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("matrix, golden", [
    (CONNER_ARG, "classify_full_r11_conner.json"),
    ("[[2,1],[1,1]]", "classify_full_r11_hyperbolic.json"),
])
def test_classify_full_odd_radius_golden(capsys, monkeypatch, matrix, golden):
    # odd radius: e_i^12 lies beyond it, so every estimate stops at k = 11
    monkeypatch.delenv("LENGRP_MEMORY_BUDGET", raising=False)
    code, out, _ = run(capsys, "classify", "--matrix", matrix, "--evidence", "full",
                       "--radius", "11")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


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


def test_ball_heis_rejects_a_matrix(capsys):
    code, out, err = run(capsys, "ball", "--group", "heis", "--matrix", "[[2,1],[1,1]]",
                         "--radius", "3")
    assert code == 1 and out == ""
    assert err == "lengrp: --matrix applies to --group sdp only\n"


def test_ball_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("LENGRP_MEMORY_BUDGET", "50")
    code, _, err = run(capsys, "ball", "--group", "heis", "--radius", "8")
    assert code == 3 and "budget" in err
    monkeypatch.setenv("LENGRP_MEMORY_BUDGET", "many")
    code, _, _ = run(capsys, "ball", "--group", "heis", "--radius", "2")
    assert code == 1


def test_huge_radius_stops_at_the_budget(capsys, monkeypatch):
    # SDP keys widen with the radius a search reaches, not the one asked for
    monkeypatch.setenv("LENGRP_MEMORY_BUDGET", "200")
    code, out, err = run(capsys, "ball", "--group", "sdp", "--matrix", "[[2,1],[1,1]]",
                         "--radius", "1000000")
    assert code == 3 and out == "" and "state budget 200 exceeded at radius 4" in err
    code, out, _ = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]", "--evidence", "full",
                       "--radius", "100000")
    assert code == 0
    # budget 200 keeps radius 3 (103 states): with sphere 3 scanned it
    # excludes every length <= 6, and the word e_i^7 gives 7
    for entry in json.loads(out)["dossier"]["evidence"]["stable_length"].values():
        assert entry["ks"] == list(range(1, 8)) and entry["partial"]


def test_heisenberg_commands_read_the_memory_budget(capsys, monkeypatch):
    monkeypatch.setenv("LENGRP_MEMORY_BUDGET", "abc")
    for argv in (["wordlen", "5", "3", "12"], ["stable", "1,1,0", "--length", "swl"],
                 ["axioms", "--length", "swl", "--samples", "5"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "LENGRP_MEMORY_BUDGET" in err, argv
    # the oracle ball holds 17 states at radius 2 and would need 53 at radius 3
    monkeypatch.setenv("LENGRP_MEMORY_BUDGET", "50")
    code, out, err = run(capsys, "wordlen", "3", "1", "5")
    assert code == 3 and out == "" and "state budget 50 exceeded at radius 3" in err
    code, out, _ = run(capsys, "stable", "3,1,5", "--k-max", "3")
    payload = json.loads(out)
    assert code == 0 and payload["partial"] and payload["skipped"] == [1, 2]
    # axiom cases past the budget are skipped, as stable skips such powers
    code, out, _ = run(capsys, "axioms", "--length", "wordlen", "--samples", "100")
    assert code == 0 and json.loads(out)["report"]["samples"] == 100
    monkeypatch.delenv("LENGRP_MEMORY_BUDGET")
    code, out, _ = run(capsys, "wordlen", "3", "1", "5")
    assert code == 0 and json.loads(out)["length"] == 6


def test_memory_budget_below_one_is_a_parse_error(capsys, monkeypatch):
    for bad in ("0", "-3"):
        monkeypatch.setenv("LENGRP_MEMORY_BUDGET", bad)
        code, out, err = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]",
                             "--evidence", "estimates", "--k-max", "2", "--radius", "4")
        assert code == 1 and out == "" and "LENGRP_MEMORY_BUDGET" in err
        code, out, err = run(capsys, "ball", "--group", "heis", "--radius", "2")
        assert code == 1 and out == "" and "LENGRP_MEMORY_BUDGET" in err


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]",
                      "--evidence", "estimates", "--k-max", "4", "--radius", "8")
    _, second, _ = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]",
                       "--evidence", "estimates", "--k-max", "4", "--radius", "8")
    assert first == second


def test_malformed_matrix_is_a_parse_error(capsys):
    code, out, err = run(capsys, "classify", "--matrix", "[[1,2,3]]")
    assert code == 1 and "parse" in err and out == ""


@pytest.mark.parametrize("matrix", [
    "[[1.5]]", "[[true]]", '[["1"]]', "[[1e400]]", "DIRECTORY", "[" * 10 ** 4 + "]" * 10 ** 4,
], ids=["float", "bool", "string", "overflow", "directory", "nested"])
def test_bad_matrix_input_is_one_parse_error_line(capsys, tmp_path, matrix):
    if matrix == "DIRECTORY":
        matrix = str(tmp_path)
    code, out, err = run(capsys, "classify", "--matrix", matrix)
    assert code == 1 and out == ""
    assert err.startswith("lengrp: cannot parse matrix") and err.count("\n") == 1
    assert "Traceback" not in err


def test_axioms_rejects_nan_tolerance(capsys):
    code, out, _ = run(capsys, "axioms", "--length", "wordlen", "--tolerance", "nan")
    assert code == 1 and out == ""


def test_axioms_rejects_negative_tolerance(capsys):
    code, out, _ = run(capsys, "axioms", "--length", "swl", "--tolerance", "-0.5")
    assert code == 1 and out == ""


@pytest.mark.parametrize("argv, golden", [
    (["--radius", "22"], "cli_ball_heis_r22.json"),
    (["--group", "sdp", "--matrix", "[[2,1],[1,1]]", "--radius", "10"], "cli_ball_sdp_r10.json"),
], ids=["heis", "sdp"])
def test_ball_golden(capsys, argv, golden):
    assert run(capsys, "ball", *argv) == (0, (GOLDEN / golden).read_text(), "")


def test_ball_csv_golden(capsys, tmp_path):
    out_path = tmp_path / "ball.csv"
    code, out, err = run(capsys, "ball", "--radius", "4", "--out", str(out_path))
    expected = (GOLDEN / "cli_ball_heis.json").read_text().replace(
        '"out": null', f'"out": {json.dumps(str(out_path))}')
    assert (code, out, err) == (0, expected, "")
    assert out_path.read_bytes() == (GOLDEN / "ball_heis_r4.csv").read_bytes()


def test_ball_overruns_the_budget_with_and_without_out(capsys, monkeypatch, tmp_path):
    # --out keeps the whole ball and the sphere sizes alone keep two
    # spheres; the budget counts every state of the ball either way
    out_path = str(tmp_path / "ball.csv")
    for budget in (32, 33, 34, 52, 53, 54, 102, 103, 104, 134, 135, 136):
        monkeypatch.setenv("LENGRP_MEMORY_BUDGET", str(budget))
        for argv in (["--radius", "4"], ["--group", "sdp", "--matrix", "[[2,1],[1,1]]",
                                         "--radius", "3"]):
            code, out, err = run(capsys, "ball", *argv, "--out", out_path)
            assert (code == 0) == (out != "") and (code == 3) == ("state budget" in err)
            out = out.replace(json.dumps(out_path), "null")
            assert run(capsys, "ball", *argv) == (code, out, err)


def test_ball_unwritable_output(capsys, monkeypatch, tmp_path):
    missing = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = run(capsys, "ball", "--radius", "40", "--out", str(missing))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not missing.parent.exists()

    # the write itself fails after the search: one message line, exit 2
    def full_disk(self, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(BallTable, "to_csv", full_disk)
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "ball", "--radius", "3", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == (f"lengrp: precondition failed: cannot write CSV output to {str(out_path)!r}: "
                   "No space left on device\n")


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports lengrp from this
    checkout, with the default memory budget; it must exit 0."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("LENGRP_MEMORY_BUDGET", None)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done


def test_import_does_not_load_sympy():
    run_python("import sys, lengrp; assert 'sympy' not in sys.modules, 'sympy imported'")


def test_classify_does_not_load_sympy():
    """Irreducibility of a quartic without a rational root needs no sympy."""
    run_python("import sys; from lengrp.cli import main; "
               "assert main(['classify', '--matrix', '[[0,0,0,-1],[1,0,0,2],[0,1,0,-1],[0,0,1,2]]']) == 0; "
               "assert 'sympy' not in sys.modules, 'sympy imported'")


def test_only_numeric_evidence_loads_mpmath():
    """Word lengths and "none" dossiers need no mpmath; a full dossier
    imports it on demand and still prints its golden."""
    code = (
        "import contextlib, io, sys\n"
        "import lengrp.cli\n"
        "from lengrp import HeisElem, HeisWordOracle, IntMatrix, build_dossier\n"
        f"build_dossier(IntMatrix.from_rows({CONNER_ARG}), 'none')\n"
        "assert HeisWordOracle().word_length(HeisElem(2, 1, 2)) == (3, 'oracle')\n"
        "assert 'mpmath' not in sys.modules, 'mpmath imported'\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = lengrp.cli.main(['classify', '--matrix', '{CONNER_ARG}',\n"
        "                            '--evidence', 'full', '--radius', '11'])\n"
        "assert code == 0 and 'mpmath' in sys.modules\n"
        "sys.stdout.write(out.getvalue())\n")
    done = run_python(code)
    assert done.stdout == (GOLDEN / "classify_full_r11_conner.json").read_text()


def test_import_loads_no_submodule():
    run_python("import sys, lengrp\n"
               "loaded = [m for m in sys.modules if m.startswith('lengrp.')]\n"
               "assert not loaded, loaded\n")


HEISENBERG_LAYERS = {"cli", "errors", "groups", "lengths"}
# dataclasses imports inspect (with ast, dis, tokenize); fractions imports decimal
NO_DATACLASSES = {"dataclasses", "inspect"}
NO_FRACTIONS = NO_DATACLASSES | {"fractions"}


@pytest.mark.parametrize("argv, layers, unloaded, golden", [
    (["wordlen", "2", "1", "2"], HEISENBERG_LAYERS, NO_FRACTIONS, "cli_wordlen.json"),
    (["stable", "1,1,0", "--k-max", "5"], HEISENBERG_LAYERS, NO_DATACLASSES,
     "cli_stable.json"),
    (["axioms", "--length", "swl", "--samples", "200", "--seed", "7"],
     HEISENBERG_LAYERS, NO_FRACTIONS, "cli_axioms.json"),
    (["ball", "--group", "heis", "--radius", "4"], {"cli", "errors", "groups"},
     NO_FRACTIONS, "cli_ball_heis.json"),
    (["ball", "--group", "sdp", "--matrix", "[[2,1],[1,1]]", "--radius", "3"],
     {"cli", "errors", "groups", "matrices"}, NO_DATACLASSES, "cli_ball_sdp.json"),
    (["classify", "--matrix", CONNER_ARG],
     {"cli", "errors", "matrices", "polynomials", "spectral", "classify"},
     NO_DATACLASSES, "cli_classify_none.json"),
], ids=["wordlen", "stable", "axioms", "ball-heis", "ball-sdp", "classify-none"])
def test_each_command_loads_only_its_layers(argv, layers, unloaded, golden):
    """A command imports the layers it runs and no other: the Heisenberg
    commands never load the polynomial, matrix, spectral or classify code,
    and a "none" classification never loads lengths.  No command loads
    dataclasses, and the commands that make no rational never load
    fractions."""
    code = ("import sys\n"
            "from lengrp.cli import main\n"
            f"code = main({argv!r})\n"
            "loaded = {m[len('lengrp.'):] for m in sys.modules if m.startswith('lengrp.')}\n"
            f"assert code == 0 and loaded == {layers!r}, (code, sorted(loaded))\n"
            f"assert not {unloaded!r} & set(sys.modules), sorted({unloaded!r} & set(sys.modules))\n")
    done = run_python(code)
    assert done.stdout == (GOLDEN / golden).read_text()


def test_public_names_resolve_to_their_defining_modules():
    code = (
        "import sys, lengrp\n"
        "assert set(lengrp.__all__) <= set(dir(lengrp))\n"
        "names = {}\n"
        "exec('from lengrp import *', names)\n"
        "assert set(lengrp.__all__) <= set(names)\n"
        "for name in lengrp.__all__:\n"
        "    obj = getattr(lengrp, name)\n"
        "    assert obj.__module__.startswith('lengrp.'), name\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj is names[name], name\n")
    run_python(code)


def test_unknown_package_name_is_an_attribute_error():
    import lengrp

    with pytest.raises(AttributeError, match="module 'lengrp' has no attribute 'no_such_name'"):
        lengrp.no_such_name


def test_classify_full_evidence_rank_one_seminorm(capsys):
    # companion of x^4 - x^3 - x^2 - 1, lambda = -1: every |P e_i| / |P| is 1/2
    code, out, _ = run(capsys, "classify", "--matrix", "[[0,0,0,1],[1,0,0,0],[0,1,0,1],[0,0,1,1]]",
                       "--evidence", "full", "--k-max", "2", "--radius", "6")
    assert code == 0
    values = json.loads(out)["dossier"]["evidence"]["eigen_seminorm"]["values"]
    assert set(values) == {"e1", "e2", "e3", "e4"}
    assert all(abs(v - 0.5) < 1e-12 for v in values.values())
