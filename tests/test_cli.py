import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sqindex import cli, driver, fieldmodel
from sqindex.cli import MAX_BRUTE_BOX, MAX_THUE_BOUND, MAX_THUE_RHS, build_parser, main
from sqindex.fieldmodel import MAX_SUPPORTED_T, V2Class, validate_parameter
from sqindex.driver import DEFAULT_THUE_BOUND, minimal_index
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
    assert doc["results"]["rigor"] == "BoundedSearchOnly(50)"
    code, out, _ = run(capsys, "--json", "thue", "5", "12")
    assert json.loads(out)["results"]["rigor"] == f"BoundedSearchOnly({DEFAULT_THUE_BOUND})"
    # a right side beyond every value of F_5 in the box has no solution there
    code, out, _ = run(capsys, "--json", "thue", "5", str(10 ** 400), "--bound", "5")
    assert code == 0 and json.loads(out)["results"]["solutions"] == []


def test_thue_caps_a_right_side_the_box_reaches(capsys):
    # the search costs time growing like sqrt|w|: without the cap this call
    # was still running after 30 s
    t0 = time.perf_counter()
    code, out, err = run(capsys, "thue", "5", str(10 ** 20), "--bound", str(10 ** 6))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"exceeds the cap {MAX_THUE_RHS}" in err
    assert run(capsys, "thue", "5", str(MAX_THUE_RHS + 1), "--bound", "1000")[0] == 2
    # past the reach of the box the answer is empty at once; +-2^e is solved completely
    code, out, _ = run(capsys, "--json", "thue", "5", str(MAX_THUE_RHS + 1), "--bound", "10")
    assert code == 0 and json.loads(out)["results"]["rigor"] == "BoundedSearchOnly(10)"
    code, out, _ = run(capsys, "--json", "thue", "5", str(2 ** 60))
    assert code == 0 and json.loads(out)["results"]["complete"] is True


def test_thue_huge_power_of_two(capsys):
    # the closed form answers at once; a recursion over e once died here
    t0 = time.perf_counter()
    code, out, err = run(capsys, "thue", "5", str(2 ** 2100))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and "Traceback" not in err
    assert "2 solution pair(s), Proven" in out
    big = 2 ** 525
    assert f"(p,q) = (0,{big})" in out and f"(p,q) = ({big},0)" in out


def test_thue_largest_box_answers_at_once(capsys):
    # rows past q* hold only multiples of convergents: scanning every q up
    # to the box took about 1 s
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "thue", "5", "12", "--bound", str(10 ** 7))
    assert time.perf_counter() - t0 < 0.3
    assert code == 0 and "0 solution pair(s), BoundedSearchOnly(10000000)" in out


@pytest.mark.parametrize("t, message", [
    ("0", "t must be positive, got 0"),
    ("3", "t = 3 is excluded (degenerate field)"),
    (str(10 ** 400), f"t > {MAX_SUPPORTED_T} outside supported range"),
])
def test_thue_rejects_t_outside_the_family(capsys, t, message):
    code, out, err = run(capsys, "thue", t, "12", "--bound", "5")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_minimal_index_command(capsys):
    code, out, _ = run(capsys, "--json", "minimal-index", "12", "--brute-check",
                       "--box", "30")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["m"] == 3
    assert doc["results"]["brute_agrees"] is True
    assert len(doc["results"]["elements"]) == 6
    assert doc["results"]["rigor"] == f"BoundedSearchOnly({DEFAULT_THUE_BOUND})"


@pytest.mark.parametrize("argv, same_m", [
    (("minimal-index", "24", "--brute-check"), True),  # some minimal elements lie outside t + 40
    (("minimal-index", "4", "--brute-check", "--box", "1"), False),  # none lies inside
])
def test_brute_check_agrees_on_what_its_box_holds(capsys, argv, same_m):
    code, out, _ = run(capsys, "--json", *argv)
    results = json.loads(out)["results"]
    brute, box = results["brute_force"], results["brute_force"]["box"]
    inside = [e for e in results["elements"] if max(map(abs, e)) <= box]
    assert code == 0 and results["brute_agrees"] is True
    assert len(inside) < len(results["elements"])
    if same_m:
        assert brute["m"] == results["m"] and brute["elements"] == inside
    else:
        assert brute["m"] > results["m"] and inside == []


def test_brute_check_disagrees_when_an_element_in_the_box_is_missing(capsys, monkeypatch):
    res = minimal_index(validate_parameter(12))
    dropped = next(e for e in res.elements if max(map(abs, e)) <= 30)
    monkeypatch.setattr(cli, "minimal_index", lambda param, thue_bound: replace(
        res, elements=tuple(e for e in res.elements if e != dropped)))
    code, out, _ = run(capsys, "minimal-index", "12", "--brute-check", "--box", "30")
    assert code == 1 and "brute-force box 30: m = 3 (DISAGREES)" in out


def test_a_verification_failure_exits_1_with_one_line(capsys, monkeypatch):
    # with sigma the identity, an image lands on the searched cone, not on the mate
    monkeypatch.setattr(driver, "sigma", lambda e, param: e)
    code, out, err = run(capsys, "minimal-index", "12")
    assert code == 1 and out == ""
    assert err.startswith("verification failure: ") and err.count("\n") == 1
    assert "t=12" in err and "Traceback" not in err


def test_a_failed_exact_check_exits_1_with_one_line(capsys, monkeypatch):
    # any ArithmeticError, not only VerificationError: with n = 3 for the class
    # of t = 5, disc(P_t) = 4 * 41^3 fails the n^2 divisibility check
    monkeypatch.setitem(fieldmodel._CLASS_GN, V2Class.V0, (2, 3))
    code, out, err = run(capsys, "basis", "5")
    assert code == 1 and out == ""
    assert err.startswith("verification failure: ") and err.count("\n") == 1
    assert "not divisible by n^2 = 9" in err and "Traceback" not in err


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


_THUE_BOUND_FLAGS = [
    ("thue", "5", "12", "--bound"),
    ("minimal-index", "12", "--thue-bound"),
    ("verify-paper", "--t", "6", "--thue-bound"),
]


@pytest.mark.parametrize("value", [MAX_THUE_BOUND + 1, 10 ** 40])
@pytest.mark.parametrize("argv", _THUE_BOUND_FLAGS)
def test_thue_bounds_are_capped(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(value)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"argument {argv[-1]}: {value} exceeds the cap {MAX_THUE_BOUND}" in err


@pytest.mark.parametrize("argv", _THUE_BOUND_FLAGS)
def test_thue_bound_cap_is_accepted(argv):
    args = build_parser().parse_args([*argv, str(MAX_THUE_BOUND)])
    assert getattr(args, argv[-1].lstrip("-").replace("-", "_")) == MAX_THUE_BOUND


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


def test_json_determinism(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "minimal-index", "5")
        assert code == 0
        doc = json.loads(out)
        doc.pop("timing_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_minimal_index_json_matches_pinned_documents(capsys):
    # m, elements, rigor and trace of `minimal-index --json` for the 24 golden t;
    # a change that alters these documents must regenerate the file and say why
    pinned = json.loads((Path(__file__).parent / "data" / "minimal_index_golden.json").read_text())
    assert sorted(map(int, pinned)) == sorted(EXCEPTIONAL_T + GENERIC_SAMPLE_T)
    for t, want in pinned.items():
        code, out, _ = run(capsys, "--json", "minimal-index", t, "--allow-hypothesis-violation")
        results = json.loads(out)["results"]
        assert code == 0 and {k: results[k] for k in want} == want


_CLI_PINS = json.loads((Path(__file__).parent / "data" / "cli_stdout_golden.json").read_text())
_TIMING = re.compile(r'"timing_ms": [0-9.e+-]+, ')


@pytest.mark.parametrize("pin", _CLI_PINS, ids=lambda pin: " ".join(pin["argv"]))
def test_cli_stdout_matches_pinned_bytes(capsys, pin):
    # the whole stdout and exit code, byte for byte; only the JSON timing is dropped
    code, out, _ = run(capsys, *pin["argv"])
    if pin["argv"][0] == "--json":
        out, n = _TIMING.subn("", out)
        assert n == 1
    assert (code, out) == (pin["exit_code"], pin["stdout"])


def test_verify_paper_all_excludes_t(capsys):
    # the no-op --all flag is gone: the golden set is the default without --t
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--all", "--t", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --all" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", ["--point-radius", "--point-radius-cap"])
def test_point_radius_flags_are_gone(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["minimal-index", "12", flag, "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- the exit-code contract over generated command lines ---------------------

_INTS = st.one_of(st.integers(-50, 300),
                  st.sampled_from([-10 ** 30, 3, 28, 4095, 10 ** 6, 10 ** 6 + 1,
                                   10 ** 30, 10 ** 400]))
_BOUNDS = st.one_of(st.integers(1, 1000), st.sampled_from([0, MAX_THUE_BOUND + 1, 10 ** 40]))


@st.composite
def _command_lines(draw):
    def num():
        return str(draw(_INTS))

    def nums(n):
        return ",".join(num() for _ in range(n))

    def bound(flag):
        value = draw(st.none() | _BOUNDS)
        return [] if value is None else [flag, str(value)]

    cmd = draw(st.sampled_from(["basis", "coords", "power", "thue", "enumerate",
                                "minimal-index", "verify-paper"]))
    if cmd == "basis":
        argv = ["basis", num()]
    elif cmd == "coords":
        argv = ["index", num(), "--coords", nums(draw(st.integers(2, 5)))]
    elif cmd == "power":
        argv = ["index", num(), "--power", nums(draw(st.integers(4, 6)))]
    elif cmd == "thue":
        argv = ["thue", num(), num(), *bound("--bound")]
    elif cmd == "enumerate":
        argv = ["enumerate", "--t-max", num(), *(["--compare-paper"] * draw(st.booleans()))]
    elif cmd == "minimal-index":
        argv = ["minimal-index", num(), *bound("--thue-bound"),
                *(["--allow-hypothesis-violation"] * draw(st.booleans()))]
    else:
        argv = ["verify-paper", "--t", num(), *bound("--thue-bound")]
    return ["--json", *argv] if draw(st.booleans()) else argv


class _Alarm(Exception):
    pass


def _alarm(signum, frame):
    raise _Alarm("the command did not end within 10 s")


_CONTRACT_EXAMPLES = [
    ["thue", str(10 ** 400), "12", "--bound", "5"],
    ["thue", "5", "12", "--bound", str(10 ** 20)],
    ["thue", "5", str(10 ** 20), "--bound", str(10 ** 6)],
    ["minimal-index", "12", "--thue-bound", str(MAX_THUE_BOUND + 1)],
    ["thue", "5", str(2 ** 2100)],
]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_command_lines())
def test_cli_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


for _argv in _CONTRACT_EXAMPLES:
    test_cli_exit_code_contract = example(argv=_argv)(test_cli_exit_code_contract)


def _run_fresh(argv, stdout=subprocess.PIPE):
    """The CLI in a process of its own, killed after the contract's 10 s."""
    src = str(Path(__file__).parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "sqindex.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("argv", _CONTRACT_EXAMPLES)
def test_cli_exit_code_contract_in_a_fresh_process(argv):
    # Hypothesis raises the recursion limit while a test runs, so a fault
    # that depends on the default depth shows only in a process of its own
    done = _run_fresh(argv)
    assert done.returncode in (0, 1, 2), (argv, done.returncode)
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [("enumerate",), ("--json", "verify-paper", "--t", "1")])
def test_closed_stdout_ends_quietly_in_a_fresh_process(argv):
    # the read end is closed before the process starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _run_fresh(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_thue_worst_call_under_the_cap_in_a_fresh_process():
    # t = 1, a prime w just under the cap (so not +-2^e) and the largest box:
    # about 1.1 s on 2 cores, and 4 s at |w| just under 10^12
    w = -99999999977
    assert MAX_THUE_RHS // 2 < abs(w) <= MAX_THUE_RHS
    done = _run_fresh(["thue", "1", str(w), "--bound", str(MAX_THUE_BOUND)])
    assert done.returncode == 0, done.stderr
    assert "0 solution pair(s)" in done.stdout
