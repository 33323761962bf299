"""Scenario files: parsing, validation, canonical serialization, execution."""

import json
from fractions import Fraction

import pytest

from epistrict import quantum, scenario, stabilizer
from epistrict.fields import SizeCapExceeded
from epistrict.scenario import (
    ScenarioError,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)


def make(mode="epistricted", **overrides):
    """A small valid single-trit scenario, tweakable per test."""
    data = {
        "field": 3,
        "n": 1,
        "mode": mode,
        "preparation": {"known": [[1, 0]], "valuation": [2, 0]},
        "measurement": {"measured": [[0, 1]]},
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_minimal_scenario_parses():
    sc = scenario_from_dict(make())
    assert sc.space.d == 3 and sc.space.n == 1
    assert sc.transformation is None
    assert sc.preparation.value_of((1, 0)) == 2


def test_missing_key_is_named():
    data = make()
    del data["measurement"]
    with pytest.raises(ScenarioError, match="measurement"):
        scenario_from_dict(data)


def test_unknown_key_is_named():
    with pytest.raises(ScenarioError, match="frobnicate"):
        scenario_from_dict(make(frobnicate=1))


@pytest.mark.parametrize("n, shown", [
    (-(10 ** 40 - 1), "-" + "9" * 40),
    (-10 ** 40, "a negative int of 41 digits"),
    (-(10 ** 4299 + 1), "a negative int of 4300 digits"),
], ids=["40-digits", "41-digits", "4300-digits"])
def test_a_refused_int_is_shown_in_full_up_to_40_digits(n, shown):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(make(n=n))
    assert str(err.value) == f"n: expected a positive int, got {shown}"


@pytest.mark.parametrize("n, shown", [
    (10 ** 40 - 1, "9" * 40), (10 ** 40, "an int of 41 digits"),
    (2 ** 20000, "an int of 6021 digits")], ids=["40-digits", "41-digits", "2^20000"])
def test_past_the_degrees_of_freedom_cap_names_n_briefly(n, shown):
    with pytest.raises(SizeCapExceeded) as err:
        scenario_from_dict(make(n=n))
    assert str(err.value) == f"scenario degrees of freedom n: needs {shown}, cap is 100"


def test_floats_are_refused():
    data = make()
    data["preparation"]["valuation"] = [0.5, 0]
    with pytest.raises(ScenarioError, match="num/den"):
        scenario_from_dict(data)


@pytest.mark.parametrize("raw", ["1e5000", "1e999999999", "0.5", "1_000", "+1", " 1",
                                 "1 ", "1/-2", "1/2/3", "1/", "/2", "-", "", "\u0661",
                                 "inf", "nan"])
def test_rational_strings_outside_the_documented_form_are_refused(monkeypatch, raw):
    """Only ``[-]digits[/digits]`` is read, and anything else is refused by name before
    a Fraction is built from it, so no exponent is ever expanded."""
    def no_fraction(*args):
        raise AssertionError(f"built a Fraction from {args!r}")

    monkeypatch.setattr(scenario, "Fraction", no_fraction)
    data = make(field="rational")
    data["preparation"]["valuation"] = [raw, 0]
    with pytest.raises(ScenarioError, match=r"^preparation\.valuation\[0\]: expected an "
                                            r"int or a '\[-\]num/den' string, got "):
        scenario_from_dict(data)


def test_rational_strings_in_the_documented_form_are_read():
    data = make(field="rational")
    data["preparation"] = {"known": [["2", "-4/6"]], "valuation": ["-3/1", "007"]}
    data["measurement"] = {"measured": [[1, "-1/3"]]}
    sc = scenario_from_dict(data)
    assert sc.preparation.known.basis == ((1, Fraction(-1, 3)),)
    assert sc.preparation.value_of((3, -1)) == -16


def test_booleans_are_refused_as_scalars():
    data = make()
    data["preparation"]["valuation"] = [True, 0]
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_non_isotropic_preparation_names_the_rows():
    for n, known, named in [
        (1, [[1, 0], [0, 1]], "rows 0 and 1 ([1, 0] vs [0, 1])"),
        # The first nonzero pair is named and the others counted; rows 1 and 2
        # commute, so rows 0 and 2 are the one more.
        (2, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
         "rows 0 and 1 ([1, 0, 1, 0] vs [0, 1, 0, 0]) and 1 more"),
    ]:
        data = make(n=n)
        data["preparation"] = {"known": known}
        data["measurement"] = {"measured": [[0] * (2 * n - 1) + [1]]}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert str(err.value) == ("preparation.known: functionals must pairwise "
                                  "Poisson-commute (isotropic span); offending " + named)


@pytest.mark.parametrize("section, key", [("preparation", "known"),
                                          ("measurement", "measured")])
def test_a_section_lists_at_most_2n_rows(section, key):
    data = make(n=2, preparation={"known": []}, measurement={"measured": [[0, 1, 0, 0]]})
    data[section] = {key: [[1, 0, 0, 0]] * 4}
    sc = scenario_from_dict(data)
    assert getattr(getattr(sc, section), key).basis == ((1, 0, 0, 0),)
    data[section] = {key: [[1, 0, 0, 0]] * 5}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert str(err.value) == f"{section}.{key}: expected at most 2n = 4 rows, got 5"


def test_non_symplectic_transformation_is_rejected():
    data = make(transformation={"S": [[1, 0], [1, 1]], "a": [0, 0]})
    data["transformation"]["S"] = [[1, 1], [1, 1]]
    with pytest.raises(ScenarioError, match="transformation.S"):
        scenario_from_dict(data)


def test_bad_mode_is_rejected():
    with pytest.raises(ScenarioError, match="mode"):
        scenario_from_dict(make(mode="classical"))


def test_quantum_mode_over_rationals_is_rejected():
    data = {
        "field": "rational",
        "n": 1,
        "mode": "quantum",
        "preparation": {"known": [[1, 0]]},
        "measurement": {"measured": [[1, 0]]},
    }
    with pytest.raises(ScenarioError, match="rational"):
        scenario_from_dict(data)


def test_wrong_row_length_is_rejected():
    data = make()
    data["measurement"]["measured"] = [[0, 1, 0]]
    with pytest.raises(ScenarioError, match="measurement.measured"):
        scenario_from_dict(data)


def test_valuation_defaults_to_zero():
    data = make()
    del data["preparation"]["valuation"]
    sc = scenario_from_dict(data)
    assert sc.preparation.value_of((1, 0)) == 0


def test_invalid_json_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="JSON"):
        parse_scenario("{nope")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def test_parse_serialize_parse_is_a_fixed_point():
    text = json.dumps(make(transformation={"S": [[0, 1], [2, 0]], "a": [1, 2]}))
    once = serialize_scenario(parse_scenario(text))
    twice = serialize_scenario(parse_scenario(once))
    assert once == twice


def test_rational_round_trip_is_a_fixed_point_and_float_free():
    data = {
        "field": "rational",
        "n": 2,
        "mode": "epistricted",
        "preparation": {
            "known": [[1, 0, -1, 0], [0, 1, 0, 1]],
            "valuation": ["2/3", "-5/7", 0, 0],
        },
        "measurement": {"measured": [[0, 1, 0, 1]]},
    }
    once = serialize_scenario(scenario_from_dict(data))
    twice = serialize_scenario(parse_scenario(once))
    assert once == twice
    reparsed = json.loads(once)

    def no_floats(node):
        if isinstance(node, float):
            return False
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return True

    assert no_floats(reparsed)


def test_equivalent_generating_rows_serialize_identically():
    a = scenario_from_dict(make())
    b = make()
    b["preparation"]["known"] = [[2, 0]]      # same line, different generator
    b["preparation"]["valuation"] = [2, 1]    # same coset representative class
    assert serialize_scenario(a) == serialize_scenario(scenario_from_dict(b))


def test_to_dict_omits_absent_transformation():
    assert "transformation" not in scenario_to_dict(scenario_from_dict(make()))


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_epistricted_run_gives_exact_thirds():
    report = run_scenario(scenario_from_dict(make()))
    assert report["mode"] == "epistricted"
    assert [row["epistricted"] for row in report["outcomes"]] == ["1/3"] * 3
    assert all("quantum" not in row for row in report["outcomes"])


def test_compare_run_agrees_at_d3():
    data = make(mode="compare",
                transformation={"S": [[0, 1], [2, 0]], "a": [1, 1]})
    report = run_scenario(scenario_from_dict(data))
    assert report["verdict"] == "agree"
    assert report["max_difference"] == 0.0
    total = sum(Fraction(row["epistricted"]) for row in report["outcomes"])
    assert total == 1
    # Both columns are exact: the quantum one is the float of the same Fraction.
    for row in report["outcomes"]:
        assert row["quantum"] == float(Fraction(row["epistricted"]))
        assert row["difference"] == 0.0


def test_compare_run_differs_on_the_single_bit_witness():
    data = {
        "field": 2,
        "n": 1,
        "mode": "compare",
        "preparation": {"known": [[1, 1]]},
        "transformation": {"S": [[0, 1], [1, 0]]},
        "measurement": {"measured": [[1, 1]]},
    }
    report = run_scenario(scenario_from_dict(data))
    assert report["verdict"] == "differ"
    assert report["max_difference"] == 1.0


def test_quantum_run_reports_born_probabilities_only():
    report = run_scenario(scenario_from_dict(make(mode="quantum")))
    assert all("epistricted" not in row for row in report["outcomes"])
    assert sum(row["quantum"] for row in report["outcomes"]) == pytest.approx(1.0)


def test_quantum_runs_build_no_dense_operator(monkeypatch):
    """The quantum and compare columns come from exact Weyl exponents: with every dense
    constructor made to fail, the runs still give the pinned statistics."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    for module in (quantum, stabilizer):
        for name in ("weyl", "metaplectic", "clifford", "quadrature_state",
                     "quadrature_pvm", "born", "_joint_projectors", "_weyl_monomials"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    quantum_run = run_scenario(scenario_from_dict(make(mode="quantum")))
    assert [row["quantum"] for row in quantum_run["outcomes"]] == [1 / 3] * 3
    witness = run_scenario(scenario_from_dict({
        "field": 2, "n": 2, "mode": "compare",
        "preparation": {"known": [[1, 0, 1, 0], [0, 1, 0, 1]]},
        "transformation": {"S": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        "measurement": {"measured": [[1, 1, 1, 1]]},
    }))
    assert [(row["epistricted"], row["quantum"]) for row in witness["outcomes"]] == [
        ("1", 0.0), ("0", 1.0)]
    assert witness["verdict"] == "differ"


def test_quantum_runs_keep_the_hilbert_space_cap():
    data = make(mode="compare", n=7,
                preparation={"known": []},
                measurement={"measured": [[1] + [0] * 13]})
    with pytest.raises(SizeCapExceeded, match="Hilbert space"):
        run_scenario(scenario_from_dict(data))


def test_rational_run_reports_possible_value_sets():
    data = {
        "field": "rational",
        "n": 2,
        "mode": "epistricted",
        "preparation": {
            "known": [[1, 0, -1, 0], [0, 1, 0, 1]],
            "valuation": ["2/3", "-5/7", 0, 0],
        },
        "measurement": {"measured": [[0, 1, 0, 1]]},
    }
    report = run_scenario(scenario_from_dict(data))
    pv = report["possible_values"]
    assert pv["deterministic"] is True
    assert pv["offset"] == ["-5/7"]

    data["measurement"] = {"measured": [[1, 0, 0, 0]]}
    pv = run_scenario(scenario_from_dict(data))["possible_values"]
    assert pv["deterministic"] is False
    assert pv["directions"] == [[1]]
