"""Command-line behavior: enumeration dumps, scenario runs, renders, exit codes."""

import contextlib
import copy
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistrict import acceptance, cli, linalg, scenario
from epistrict.epistemic import STATE_CAP
from epistrict.fields import MAX_MODULUS, SizeCapExceeded
from epistrict.cli import (
    EXIT_CAP,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REJECT,
    main,
)

COMPARE_SCENARIO = {
    "field": 3,
    "n": 1,
    "mode": "compare",
    "preparation": {"known": [[1, 0]], "valuation": [2, 0]},
    "transformation": {"S": [[0, 1], [2, 0]], "a": [1, 1]},
    "measurement": {"measured": [[0, 1]]},
}

WITNESS_SCENARIO = {
    "field": 2,
    "n": 1,
    "mode": "compare",
    "preparation": {"known": [[1, 1]]},
    "transformation": {"S": [[0, 1], [1, 0]]},
    "measurement": {"measured": [[1, 1]]},
}

RATIONAL_SCENARIO = {
    "field": "rational",
    "n": 2,
    "mode": "epistricted",
    "preparation": {"known": [[1, 0, -1, 0], [0, 1, 0, 1]],
                    "valuation": ["2/3", "-5/7", 0, 0]},
    "measurement": {"measured": [[0, 1, 0, 1]]},
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(data, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)
    return write


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_trit_states(capsys):
    assert main(["enumerate", "--d", "3", "--n", "1", "--what", "states"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "13 states (12 pure, 1 mixed)" in out
    assert len(out.strip().splitlines()) == 14  # summary + one line per state


def test_enumerate_bit_transforms_as_json(capsys):
    assert main(["enumerate", "--d", "2", "--n", "1", "--what", "transforms",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 24
    assert len(payload["records"]) == 24
    assert all(set(rec) == {"S", "a"} for rec in payload["records"])


def test_enumerate_accepts_transformations_alias(capsys):
    assert main(["enumerate", "--d", "2", "--n", "1",
                 "--what", "transformations"]) == EXIT_OK
    assert "24 affine symplectic transformations" in capsys.readouterr().out


def test_enumerate_bit_measurements(capsys):
    assert main(["enumerate", "--d", "2", "--n", "1",
                 "--what", "measurements"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "3 sharp measurements" in out


def test_enumerate_over_the_cap_exits_2(capsys):
    # 3^10000 has more digits than Python will print, so the cap reports it as d^n;
    # 2^89 - 1 is prime but past the modulus that primality testing decides exactly.
    for d, n in (("11", "3"), ("3", "10000"), (str(2 ** 89 - 1), "1")):
        assert main(["enumerate", "--d", d, "--n", n,
                     "--what", "states"]) == EXIT_CAP
        assert "cap" in capsys.readouterr().err


def test_enumerate_respects_max_dim_flag():
    assert main(["enumerate", "--d", "3", "--n", "1", "--what", "states",
                 "--max-dim", "2"]) == EXIT_CAP


@pytest.mark.parametrize("command, value", [
    ("simulate", "256"), ("simulate", "0"), ("enumerate", "129"), ("enumerate", "x"),
])
def test_max_dim_outside_the_engine_cap_is_invalid(capsys, scenario_file,
                                                   command, value):
    # The quantum engine refuses d^n > 128 whatever the flag says, so the flag can
    # only lower the cap; a value it cannot honour is bad input, not a cap hit.
    if command == "simulate":
        unit = [1] + [0] * 15
        args = ["simulate", "--scenario", scenario_file({
            "field": 2, "n": 8, "mode": "quantum",
            "preparation": {"known": [unit]}, "measurement": {"measured": [unit]}})]
    else:
        args = ["enumerate", "--d", "2", "--n", "1", "--what", "states"]
    assert main(args + ["--max-dim", value]) == EXIT_INVALID
    assert "1..128" in capsys.readouterr().err


def test_enumerate_rejects_composite_modulus(capsys):
    assert main(["enumerate", "--d", "4", "--n", "1",
                 "--what", "states"]) == EXIT_INVALID
    assert "prime" in capsys.readouterr().err


def test_enumerate_rejects_unknown_what(capsys):
    assert main(["enumerate", "--d", "3", "--what", "wombats"]) == EXIT_INVALID
    assert "wombats" in capsys.readouterr().err


def test_unknown_subcommand_exits_3():
    assert main(["frobnicate"]) == EXIT_INVALID


def test_no_subcommand_prints_help_and_exits_3(capsys):
    assert main([]) == EXIT_INVALID
    assert "enumerate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_compare_agrees(scenario_file, capsys):
    assert main(["simulate", "--scenario",
                 scenario_file(COMPARE_SCENARIO)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-> agree" in out
    assert "epistricted 1" in out


def test_simulate_json_report(scenario_file, capsys):
    assert main(["simulate", "--scenario", scenario_file(COMPARE_SCENARIO),
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "agree"
    assert report["max_difference"] <= 1e-9


def test_simulate_flags_the_single_bit_witness(scenario_file, capsys):
    assert main(["simulate", "--scenario",
                 scenario_file(WITNESS_SCENARIO)]) == EXIT_OK
    assert "-> differ" in capsys.readouterr().out


def test_simulate_rational_scenario(scenario_file, capsys):
    assert main(["simulate", "--scenario",
                 scenario_file(RATIONAL_SCENARIO)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "deterministic: yes" in out


@pytest.mark.parametrize("known", [[], [[1, 0]]])
def test_simulate_past_the_outcome_cap_exits_2(scenario_file, capsys, monkeypatch,
                                               known):
    # 500009 is the first prime past STATE_CAP, so measuring one functional has more
    # outcomes than the cap allows, whether or not the state knows it.  The refusal
    # comes before any subspace with a direction is listed.
    assert STATE_CAP < 500_009
    listed = linalg.AffineSubspace.points

    def points(self):
        if self.basis:
            raise AssertionError(f"listed the {self.field.modulus}^{len(self.basis)} "
                                 "points of a subspace")
        return listed(self)

    monkeypatch.setattr(linalg.AffineSubspace, "points", points)
    assert main(["simulate", "--scenario", scenario_file({
        "field": 500_009, "n": 1, "mode": "epistricted",
        "preparation": {"known": known},
        "measurement": {"measured": [[1, 0]]}})]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "outcome enumeration: needs 500009^1, cap is 500000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [scenario.MAX_N + 1, 10**9])
def test_simulate_past_the_degrees_of_freedom_cap_exits_2(scenario_file, capsys,
                                                          monkeypatch, n):
    # The refusal comes before the phase space, whose complements cost about n^3.
    def no_space(*args):
        raise AssertionError("built a phase space past the cap")

    monkeypatch.setattr(scenario, "PhaseSpace", no_space)
    assert main(["simulate", "--scenario", scenario_file({
        "field": 2, "n": n, "mode": "epistricted",
        "preparation": {"known": []}, "measurement": {"measured": []}})]) == EXIT_CAP
    err = capsys.readouterr().err
    assert f"degrees of freedom n: needs {n}, cap is {scenario.MAX_N}" in err
    assert "Traceback" not in err


def test_simulate_rational_entry_outside_the_format_exits_3(scenario_file, capsys):
    assert main(["simulate", "--scenario", scenario_file({
        "field": "rational", "n": 1, "mode": "epistricted",
        "preparation": {"known": [[1, 0]], "valuation": ["1e5000", 0]},
        "measurement": {"measured": [[1, 0]]}})]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "preparation.valuation[0]: expected an int or a '[-]num/den' string" in err
    assert "Traceback" not in err


_LONG_LIST, _LONG_TEXT = list(range(200_000)), "x" * 500_000


@pytest.mark.parametrize("message, data, code", [
    ("preparation.valuation[0]: expected an int, got an array",
     {**COMPARE_SCENARIO, "preparation": {"known": [[1, 0]], "valuation": [_LONG_LIST, 0]}},
     EXIT_INVALID),
    ("n: expected a positive int, got an array", {**COMPARE_SCENARIO, "n": _LONG_LIST},
     EXIT_INVALID),
    ("field: expected a prime modulus or 'rational', got an array",
     {**COMPARE_SCENARIO, "field": _LONG_LIST}, EXIT_INVALID),
    ("mode: expected one of ('epistricted', 'quantum', 'compare'), got 'xxxxxxxxxx",
     {**COMPARE_SCENARIO, "mode": _LONG_TEXT}, EXIT_INVALID),
    ("preparation.valuation[0]: expected an int or a '[-]num/den' string, got an object",
     {**RATIONAL_SCENARIO, "preparation": {"known": [[1, 0, -1, 0]],
                                           "valuation": [{"num": 2, "den": 3}, 0, 0, 0]}},
     EXIT_INVALID),
    ("scenario: unknown key 'xxxxxxxxxx", {**COMPARE_SCENARIO, _LONG_TEXT: 1}, EXIT_INVALID),
    ("n: expected a positive int, got a negative int of 4201 digits",
     {**COMPARE_SCENARIO, "n": -10 ** 4200}, EXIT_INVALID),
    ("prime modulus: needs an int of 4201 digits, cap is ",
     {**COMPARE_SCENARIO, "field": 10 ** 4200}, EXIT_CAP),
], ids=["list-entry", "list-n", "list-field", "long-mode", "object-entry-over-Q",
        "long-unknown-key", "huge-negative-n", "huge-field"])
def test_simulate_refusal_names_the_entry_in_a_short_message(scenario_file, capsys,
                                                            message, data, code):
    """A refusal shows a refused array, object or null by its JSON type, a string by
    its first 40 characters and an int of more than 40 digits by its sign and digit
    count, never in full; the exit code is the refusal's own."""
    assert main(["simulate", "--scenario", scenario_file(data)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_simulate_report_past_the_int_string_limit_exits_2(scenario_file, capsys, fmt):
    """Entries in the documented form whose result has more digits than the
    interpreter converts to text are refused as a size cap, not a traceback."""
    nines = "9" * 4000
    assert main(["simulate", "--format", fmt, "--scenario", scenario_file({
        "field": "rational", "n": 1, "mode": "epistricted",
        "preparation": {"known": [[1, 0]], "valuation": [nines, 0]},
        "transformation": {"S": [[nines, 0], [0, "1/" + nines]]},
        "measurement": {"measured": [[1, 0]]}})]) == EXIT_CAP
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (f"decimal digits of a reported rational entry "
            f"(sys.get_int_max_str_digits()): needs more than {limit}, cap is {limit}"
            in captured.err)
    assert "Traceback" not in captured.err and captured.out == ""


FUZZ_SCENARIO = {
    "field": 3,
    "n": 2,
    "mode": "compare",
    "preparation": {"known": [[1, 0, 0, 0], [0, 0, 1, 0]], "valuation": [2, 0, 1, 0]},
    "transformation": {"S": [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
                       "a": [1, 0, 2, 1]},
    "measurement": {"measured": [[0, 1, 0, 0]]},
}

_JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                  st.text(max_size=4), st.integers(-10**30, 10**30),
                  st.sampled_from([[], {}, [[]], "1/0", "2/3"]))
_ENTRY = st.one_of(st.integers(-10**30, 10**30), _JUNK)
_ROW = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@st.composite
def _mutated_scenarios(draw):
    """FUZZ_SCENARIO with one field changed: its type, a length, the modulus, n, the
    rank of a subspace, the mode, an entry, or a key dropped or added."""
    data = copy.deepcopy(FUZZ_SCENARIO)
    kind = draw(st.sampled_from(["type", "length", "modulus", "n", "rank", "mode",
                                 "entry", "drop", "extra"]))
    path = draw(st.sampled_from([("field",), ("n",), ("mode",), ("preparation",),
                                 ("preparation", "known"), ("preparation", "valuation"),
                                 ("transformation",), ("transformation", "S"),
                                 ("transformation", "a"), ("measurement",),
                                 ("measurement", "measured")]))
    *parents, key = path
    where = data
    for p in parents:
        where = where[p]
    if kind == "type":
        where[key] = draw(_JUNK)
    elif kind == "length" and isinstance(where[key], list) and where[key]:
        target = where[key]
        if isinstance(target[0], list) and draw(st.booleans()):
            target = target[draw(st.integers(0, len(target) - 1))]
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(draw(st.integers(0, 2)))
    elif kind == "modulus":
        data["field"] = draw(st.sampled_from(
            [0, 1, 2, 4, 5, 7, 9, 11, 13, -3, 500_009, 2**61 - 1, 10**30, "rational"]))
    elif kind == "n":
        data["n"] = draw(st.sampled_from(
            [-1, 0, 1, 3, scenario.MAX_N, scenario.MAX_N + 1, 10**9, 10**30]))
    elif kind == "rank":
        part, rows = draw(st.sampled_from([("preparation", "known"),
                                           ("measurement", "measured")]))
        data[part][rows] = draw(st.lists(_ROW, max_size=5))
    elif kind == "mode":
        data["mode"] = draw(st.sampled_from(["epistricted", "quantum", "compare", "",
                                             "Compare", "both"]))
    elif kind == "entry":
        part, vector = draw(st.sampled_from([("preparation", "valuation"),
                                             ("transformation", "a")]))
        data[part][vector][draw(st.integers(0, 3))] = draw(_ENTRY)
    elif kind == "drop":
        del where[key]
    elif kind == "extra":
        (where if parents else data)["unexpected"] = draw(_JUNK)
    return data


@given(_mutated_scenarios())
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
def test_simulate_survives_one_mutated_field(tmp_path_factory, data):
    """Every mutation ends in exit 0, 2 or 3 with no traceback, and every scenario that
    parses is a parse -> serialize -> parse fixed point."""
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    text = json.dumps(data)
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", "--scenario", str(path)])
    assert code in (EXIT_OK, EXIT_CAP, EXIT_INVALID), err.getvalue()
    assert "Traceback" not in err.getvalue()
    try:
        once = scenario.serialize_scenario(scenario.parse_scenario(text))
    except (ValueError, SizeCapExceeded):  # ScenarioError is a ValueError
        assert code != EXIT_OK
        return
    assert scenario.serialize_scenario(scenario.parse_scenario(once)) == once


@pytest.mark.parametrize("text", ["[" * 100_000, '{"field": ' + "7" * 5000 + "}"])
def test_simulate_json_past_the_decoder_limits_exits_3(tmp_path, capsys, text):
    # Nesting past the recursion limit, and an int past the 4,300-digit conversion
    # limit, fail inside json.loads with errors other than JSONDecodeError.
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert "Traceback" not in err


def test_simulate_missing_file_exits_3(capsys):
    assert main(["simulate", "--scenario", "/nonexistent/path.json"]) == EXIT_INVALID
    assert "error" in capsys.readouterr().err


def test_simulate_non_isotropic_scenario_names_rows(scenario_file, capsys):
    bad = dict(COMPARE_SCENARIO, preparation={"known": [[1, 0], [0, 1]]})
    assert main(["simulate", "--scenario", scenario_file(bad)]) == EXIT_INVALID
    assert "rows 0 and 1" in capsys.readouterr().err


def test_simulate_non_isotropic_refusal_stays_short_for_huge_rows(scenario_file, capsys):
    """The refusal names the first offending pair by index with a short preview of
    each row and counts the other pairs, so it stays short for 200 entries of 4,000
    digits (it printed every row in full, 806,316 bytes)."""
    big = str(10 ** 3999 + 7)
    rows = [[big if k % 2 == r else str(2 * r + 1) for k in range(200)] for r in (0, 1)]
    bad = {**RATIONAL_SCENARIO, "n": 100, "preparation": {"known": rows},
           "measurement": {"measured": [[1] + [0] * 199]}}
    assert main(["simulate", "--scenario", scenario_file(bad)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: preparation.known: functionals must pairwise "
                          "Poisson-commute (isotropic span); offending rows 0 and 1 "
                          "([100000000000000000000000...] vs [3, 10000000000000")
    assert "Traceback" not in err and len(err.encode()) < 200
    many = {**RATIONAL_SCENARIO, "preparation": {"known": [
        ["1/2", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}
    assert main(["simulate", "--scenario", scenario_file(many)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: preparation.known: functionals must pairwise Poisson-commute (isotropic "
        "span); offending rows 0 and 1 ([1/2, 0, 0, 0] vs [0, 1, 0, 0]) and 1 more\n")


@pytest.mark.parametrize("section, key", [("preparation", "known"),
                                          ("measurement", "measured")])
def test_simulate_refuses_100000_rows_before_reading_them(scenario_file, capsys,
                                                         monkeypatch, section, key):
    # Pairing every listed row was quadratic in the file: 1,500 rows took 2 s.  The
    # count is refused before any row is coerced, so none is paired either.
    vector_in, vectors = scenario._vector_in, []

    def counted(*args):
        vectors.append(args)
        if len(vectors) > 8:  # the few rows and vectors of the other sections
            raise AssertionError("read a row past the bound")
        return vector_in(*args)

    monkeypatch.setattr(scenario, "_vector_in", counted)
    data = copy.deepcopy(FUZZ_SCENARIO)
    data[section] = {key: [[1, 0, 0, 0]] * 100_000}
    path = scenario_file(data)
    start = time.perf_counter()
    assert main(["simulate", "--scenario", path]) == EXIT_INVALID
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert f"{section}.{key}: expected at most 2n = 4 rows, got 100000" in err
    assert "Traceback" not in err


def test_simulate_writes_out_file(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["simulate", "--scenario", scenario_file(COMPARE_SCENARIO),
                 "--format", "json", "--out", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(out_path.read_text(encoding="utf-8"))["verdict"] == "agree"


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_preparation_state(scenario_file, capsys):
    assert main(["render", "--scenario",
                 scenario_file(COMPARE_SCENARIO)]) == EXIT_OK
    assert capsys.readouterr().out == "..#\n..#\n..#\n"


def test_render_measurement(scenario_file, capsys):
    assert main(["render", "--scenario", scenario_file(COMPARE_SCENARIO),
                 "--what", "measurement"]) == EXIT_OK
    assert capsys.readouterr().out == "000\n111\n222\n"


def test_render_transformed_state(scenario_file, capsys):
    assert main(["render", "--scenario", scenario_file(COMPARE_SCENARIO),
                 "--what", "transformed"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("#") == 3
    assert out != "..#\n..#\n..#\n"  # the map moved the support


def test_render_bytes_are_stable_across_runs(scenario_file, tmp_path):
    path = scenario_file(COMPARE_SCENARIO)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", "--scenario", path, "--format", "svg",
                 "--out", str(a)]) == EXIT_OK
    assert main(["render", "--scenario", path, "--format", "svg",
                 "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert b'version="1.1"' in a.read_bytes()


def test_render_rational_scenario_exits_2(scenario_file, capsys):
    assert main(["render", "--scenario",
                 scenario_file(RATIONAL_SCENARIO)]) == EXIT_CAP
    assert "grid" in capsys.readouterr().err


def test_render_unsupported_modulus_exits_2(scenario_file):
    seven = {
        "field": 7, "n": 1, "mode": "epistricted",
        "preparation": {"known": [[1, 0]]},
        "measurement": {"measured": [[0, 1]]},
    }
    assert main(["render", "--scenario", scenario_file(seven)]) == EXIT_CAP


# ---------------------------------------------------------------------------
# accept
# ---------------------------------------------------------------------------


def test_accept_equivalence_suite_focused_on_d5(capsys):
    assert main(["accept", "--suite", "equivalence", "--d", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ACCEPT" in out
    assert "d=5" in out


def test_accept_json_report_structure(capsys):
    assert main(["accept", "--suite", "equivalence", "--d", "5",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["modulus"] == 5
    assert all(c["passed"] for c in report["checks"])


def test_accept_failure_exits_1(monkeypatch, capsys):
    broken = acceptance.CheckResult(1, "engineered failure", False, "x", "y")
    monkeypatch.setattr(acceptance, "run_suite",
                        lambda suite, seed=None, modulus=None: [broken])
    assert main(["accept", "--suite", "algebra"]) == EXIT_REJECT
    assert "REJECT" in capsys.readouterr().out


def test_accept_unknown_modulus_exits_3(capsys):
    assert main(["accept", "--suite", "equivalence", "--d", "7"]) == EXIT_INVALID
    assert "d=7" in capsys.readouterr().err


def test_accept_runs_only_the_criteria_that_declare_the_modulus(monkeypatch, capsys):
    """``--d`` picks the criteria from ``acceptance.MODULI`` before any of them runs:
    a prime no criterion declares runs none."""
    ran = []

    def fake(k, seed=None):
        ran.append(k)
        return [acceptance.CheckResult(k, f"check {k}", True, "x", "y",
                                       moduli=tuple(sorted(acceptance.MODULI[k])))]

    monkeypatch.setattr(acceptance, "run_criterion", fake)
    assert main(["accept", "--suite", "all", "--d", "7"]) == EXIT_INVALID
    assert ran == []
    assert "no checks in suite 'all' exercise d=7" in capsys.readouterr().err
    assert main(["accept", "--suite", "all", "--d", "5"]) == EXIT_OK
    assert ran == [2, 3, 4]
    assert main(["accept", "--suite", "algebra"]) == EXIT_OK
    assert ran == [2, 3, 4, 1, 2, 7, 8]


def test_accept_refuses_a_non_prime_modulus_before_running_the_suite(monkeypatch, capsys):
    def never(suite, seed=None):
        raise AssertionError("the suite ran before --d was checked")

    monkeypatch.setattr(acceptance, "run_suite", never)
    assert main(["accept", "--suite", "equivalence", "--d", "4"]) == EXIT_INVALID
    assert "--d: modulus must be prime, got 4" in capsys.readouterr().err
    # A modulus past the fixed cap is a cap refusal, as in ``enumerate``.
    assert main(["accept", "--suite", "all", "--d", str(MAX_MODULUS)]) == EXIT_CAP


def test_accept_bad_suite_exits_3():
    assert main(["accept", "--suite", "bogus"]) == EXIT_INVALID


def test_seed_env_var_is_honored(monkeypatch):
    monkeypatch.setenv(acceptance.SEED_ENV, "12345")
    assert acceptance.default_seed() == 12345


def test_bad_seed_env_var_exits_3(monkeypatch, capsys):
    monkeypatch.setenv(acceptance.SEED_ENV, "not-a-number")
    assert main(["accept", "--suite", "inequivalence"]) == EXIT_INVALID
    assert acceptance.SEED_ENV in capsys.readouterr().err


def test_internal_value_error_is_not_reported_as_invalid_input(
        scenario_file, monkeypatch):
    def broken(sc):
        raise ValueError("internal inconsistency")
    monkeypatch.setattr(cli, "run_scenario", broken)
    with pytest.raises(ValueError, match="internal inconsistency"):
        main(["simulate", "--scenario", scenario_file(COMPARE_SCENARIO)])


def test_simulate_non_utf8_file_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"field": "\xe9"}')
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    assert "UTF-8" in capsys.readouterr().err
