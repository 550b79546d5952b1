import json

import pytest

from sqindex.cli import MAX_BRUTE_BOX, main
from sqindex.driver import DEFAULT_THUE_BOUND
from sqindex.goldens import EXCEPTIONAL_T, GENERIC_SAMPLE_T


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_ok(capsys):
    code, out, _ = run(capsys, "basis", "2")
    assert code == 0
    assert "(x + x^3)/2" in out
    assert "n = I(xi) = 4" in out


def test_basis_invalid_inputs(capsys):
    assert run(capsys, "basis", "3")[0] == 2
    code, _, err = run(capsys, "basis", "22")
    assert code == 2 and "odd square factor 25" in err
    assert run(capsys, "basis", "-1")[0] == 2


def test_index_examples(capsys):
    code, out, _ = run(capsys, "index", "5", "--coords", "1,0,0")
    assert code == 0 and "= 2" in out
    code, out, _ = run(capsys, "index", "2", "--coords", "1,1,0")
    assert code == 0 and "= 1" in out
    code, out, _ = run(capsys, "index", "5", "--coords", "0,0,0")
    assert code == 0 and "degenerate" in out


def test_index_power_input(capsys):
    code, out, _ = run(capsys, "--json", "index", "12", "--power", "3,19,11,-1,4")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["index_oracle"] == 3
    assert doc["results"]["agree"] is True
    # without a suitable constant the value is not an algebraic integer
    assert run(capsys, "index", "12", "--power", "0,19,11,-1,4")[0] == 2


@pytest.mark.parametrize("power", ["1,1,1,1,0", "3,19,11,-1,-4"])
def test_index_power_rejects_nonpositive_denominator(capsys, power):
    code, out, err = run(capsys, "index", "5", "--power=" + power)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "d >= 1" in err


def test_thue_command(capsys):
    code, out, _ = run(capsys, "--json", "thue", "4", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["solutions"] == [[0, 1], [1, 0], [2, 3], [3, -2]]
    assert doc["results"]["complete"] is True
    code, out, _ = run(capsys, "--json", "thue", "5", "2")
    doc = json.loads(out)
    assert doc["results"]["solutions"] == [] and doc["results"]["complete"] is True
    code, out, _ = run(capsys, "--json", "thue", "5", "16")
    assert json.loads(out)["results"]["solutions"] == [[0, 2], [2, 0]]
    assert run(capsys, "thue", "5", "0")[0] == 2
    # non-power right sides go through the bounded search
    code, out, _ = run(capsys, "--json", "thue", "5", "12", "--bound", "50")
    doc = json.loads(out)
    assert code == 0 and doc["results"]["complete"] is False


def test_minimal_index_command(capsys):
    code, out, _ = run(capsys, "--json", "minimal-index", "12", "--brute-check",
                       "--box", "30")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["m"] == 3
    assert doc["results"]["brute_agrees"] is True
    assert len(doc["results"]["elements"]) == 6
    assert doc["results"]["rigor"] == f"BoundedSearchOnly({DEFAULT_THUE_BOUND})"


@pytest.mark.parametrize("argv", [
    ("minimal-index", "12", "--thue-bound", "0"),
    ("verify-paper", "--t", "6", "--thue-bound", "0"),
    ("thue", "5", "12", "--bound", "0"),
    ("minimal-index", "12", "--brute-check", "--box", "0"),
])
def test_box_flags_reject_values_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, box", [
    (("minimal-index", "12", "--brute-check", "--box", "10000"), 10000),
    (("minimal-index", "1000", "--brute-check"), 1040),  # the default box t + 40
])
def test_brute_check_box_is_capped(capsys, argv, box):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: --brute-check box {box} exceeds the cap {MAX_BRUTE_BOX}\n"


def test_box_without_brute_check_is_rejected(capsys):
    code, out, err = run(capsys, "minimal-index", "12", "--box", "5")
    assert code == 2 and out == ""
    assert err == "error: --box needs --brute-check\n"


def test_brute_check_cap_covers_golden_default_boxes():
    assert MAX_BRUTE_BOX >= max(EXCEPTIONAL_T + GENERIC_SAMPLE_T) + 40


def test_minimal_index_hypothesis_violation(capsys):
    assert run(capsys, "minimal-index", "28")[0] == 2
    code, out, _ = run(capsys, "--json", "minimal-index", "28",
                       "--allow-hypothesis-violation")
    doc = json.loads(out)
    assert code == 0 and doc["results"]["m"] == 7
    assert doc["results"]["hypothesis_ok"] is False


def test_enumerate_compare(capsys):
    code, out, _ = run(capsys, "--json", "enumerate", "--t-max", "256",
                       "--compare-paper")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["golden_missing"] == []
    assert doc["results"]["count"] >= 78


def test_verify_paper_subset(capsys):
    code, out, _ = run(capsys, "--json", "verify-paper", "--t", "2,12")
    doc = json.loads(out)
    assert code == 0
    assert [r["t"] for r in doc["results"]["rows"]] == [2, 12]
    assert all(r["ok"] for r in doc["results"]["rows"])


def test_verify_paper_worker_pool(capsys, monkeypatch):
    monkeypatch.setenv("SQINDEX_WORKERS", "2")
    code, out, _ = run(capsys, "--json", "verify-paper", "--t", "5,6")
    doc = json.loads(out)
    assert code == 0
    assert [r["t"] for r in doc["results"]["rows"]] == [5, 6]


def test_json_determinism(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "minimal-index", "5")
        assert code == 0
        doc = json.loads(out)
        doc.pop("timing_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_verify_paper_all_excludes_t(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--all", "--t", "6"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("index", "5", "--coords", "1,x,0"),
    ("index", "5", "--power", "1,x"),
    ("verify-paper", "--t", "1,x"),
])
def test_integer_lists_reject_non_integers(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"argument {argv[-2]}: invalid _int_list value: '{argv[-1]}'" in err


@pytest.mark.parametrize("tlist", ["", ","])
def test_verify_paper_rejects_empty_t_list(capsys, tlist):
    code, out, err = run(capsys, "verify-paper", "--t", tlist)
    assert code == 2 and out == ""
    assert err == "error: --t needs at least one t\n"


@pytest.mark.parametrize("workers", ["x", "0", "-1"])
def test_verify_paper_rejects_bad_worker_count(capsys, monkeypatch, workers):
    monkeypatch.setenv("SQINDEX_WORKERS", workers)
    code, out, err = run(capsys, "verify-paper", "--t", "6")
    assert code == 2 and out == ""
    assert err == f"error: SQINDEX_WORKERS must be an integer >= 1, got '{workers}'\n"


@pytest.mark.parametrize("flag", ["--point-radius", "--point-radius-cap"])
def test_point_radius_flags_are_gone(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["minimal-index", "12", flag, "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
