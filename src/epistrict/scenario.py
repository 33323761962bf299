"""Scenario files: JSON descriptions of prepare / transform / measure experiments.

A scenario fixes a phase space (prime modulus or the rationals), a preparation
(V, v), an optional reversible affine-symplectic transformation (S, a), a sharp
measurement V', and a mode saying which engine(s) to run:

* ``epistricted`` — exact classical statistics (or, over the rationals, the
  affine set of possible measured values);
* ``quantum`` — Born-rule statistics of the matching quadrature eigenstate,
  Clifford unitary and quadrature PVM, computed exactly in the stabilizer formalism
  (``stabilizer._exact_born``: integer Weyl exponents, no density matrix) and
  reported as the float of an exact ``Fraction``, 0 or d^{j-k};
* ``compare`` — both, with the maximum absolute difference and a verdict read off
  exact equality of the two ``Fraction``s.

Numbers in scenario files are exact: integers for prime fields, integers or
strings of the form ``[-]digits[/digits]`` (``"3"``, ``"-1/2"``) for the
rationals.  Floats are refused — they would silently destroy the exactness the
engines guarantee — and so is every other string (``"0.5"``, ``"1e5"``,
``"1_000"``), before any number is built from it.  A reported entry whose
numerator or denominator has more decimal digits than the interpreter converts
to text (``sys.get_int_max_str_digits()``) is refused as a size cap.  Parsing
canonicalizes every subspace and coset representative, so parse → serialize →
parse is a fixed point.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .epistemic import (
    EpistemicState,
    SharpMeasurement,
    _values_at,
    measure,
    possible_values,
    transform,
)
from .fields import RATIONALS, Field, PrimeField, SizeCapExceeded, _int_text
from .linalg import AffineSubspace, Matrix
from .stabilizer import _exact_born
from .symplectic import PhaseSpace, SymplecticAffine, _pair_products

MODES = ("epistricted", "quantum", "compare")

#: Most degrees of freedom a scenario may declare: the full-space complements cost
#: about n^3 time and n^2 memory, under a second at n = 100, hours by n = 5000.
MAX_N = 100


class ScenarioError(ValueError):
    """A scenario file is malformed or describes an invalid experiment."""


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description."""

    space: PhaseSpace
    preparation: EpistemicState
    transformation: Optional[SymplecticAffine]
    measurement: SharpMeasurement
    mode: str


# ---------------------------------------------------------------------------
# scalar and vector I/O
# ---------------------------------------------------------------------------


#: The one string form of a rational entry: an optional minus, digits, and an
#: optional slash and digits (ASCII only).
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _shown(raw) -> str:
    """A refused value as a refusal names it, short whatever its size: the JSON type
    of an array, object or null, a string by its first 40 characters, and an int of
    more than 40 digits by its sign and digit count."""
    if isinstance(raw, list):
        return "an array"
    if isinstance(raw, dict):
        return "an object"
    if raw is None:
        return "null"
    if isinstance(raw, int):
        return _int_text(raw)
    return repr(raw[:40] if isinstance(raw, str) else raw)


def _scalar_in(fld: Field, raw, where: str):
    if isinstance(raw, bool):
        raise ScenarioError(f"{where}: booleans are not field elements")
    if isinstance(raw, float):
        raise ScenarioError(
            f"{where}: floats are not exact; use an int or a 'num/den' string")
    if isinstance(raw, str) and not fld.is_finite and _RATIONAL_TEXT.fullmatch(raw):
        try:
            raw = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{where}: cannot read {_shown(raw)} as a rational") from exc
    elif not isinstance(raw, int):
        expected = "an int" if fld.is_finite else "an int or a '[-]num/den' string"
        raise ScenarioError(f"{where}: expected {expected}, got {_shown(raw)}")
    return fld.element(raw)


def _scalar_out(fld: Field, x):
    if fld.is_finite:
        return int(x)
    frac = Fraction(x)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    big = max(abs(frac.numerator), frac.denominator)
    # 10^limit has more than 3 limit bits, so the power is built only for huge entries.
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise SizeCapExceeded(
            "decimal digits of a reported rational entry (sys.get_int_max_str_digits())",
            f"more than {limit}", limit)
    return frac.numerator if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def _vector_in(fld: Field, raw, length: int, where: str) -> tuple:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list of {length} entries")
    if len(raw) != length:
        raise ScenarioError(f"{where}: expected length {length}, got {len(raw)}")
    return tuple(_scalar_in(fld, x, f"{where}[{i}]") for i, x in enumerate(raw))


def _rows_in(fld: Field, raw, width: int, where: str) -> tuple:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list of row vectors")
    if len(raw) > width:  # more rows span nothing new, and the pairing is quadratic
        raise ScenarioError(
            f"{where}: expected at most 2n = {width} rows, got {len(raw)}")
    return tuple(_vector_in(fld, row, width, f"{where}[{i}]")
                 for i, row in enumerate(raw))


def _vector_out(fld: Field, v) -> list:
    return [_scalar_out(fld, x) for x in v]


def _rows_out(fld: Field, rows) -> list:
    return [_vector_out(fld, r) for r in rows]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _require_keys(data: dict, required: tuple, optional: tuple, where: str) -> None:
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected a JSON object")
    missing = [k for k in required if k not in data]
    if missing:
        raise ScenarioError(f"{where}: missing required keys {missing}")
    unknown = [k for k in data if k not in required + optional]
    if unknown:
        more = f" and {len(unknown) - 1} more" if len(unknown) > 1 else ""
        raise ScenarioError(f"{where}: unknown key {_shown(unknown[0])}{more}")


def _field_in(raw) -> Field:
    if raw == "rational":
        return RATIONALS
    if isinstance(raw, int) and not isinstance(raw, bool):
        try:
            return PrimeField(raw)
        except ValueError as exc:
            raise ScenarioError(f"field: {exc}") from exc
    raise ScenarioError(f"field: expected a prime modulus or 'rational', got {_shown(raw)}")


def _field_out(fld: Field):
    return fld.modulus if fld.is_finite else "rational"


def _row_preview(row: tuple) -> str:
    """A row as a refusal names it: its entries, cut at 24 characters."""
    text = ""
    for k, x in enumerate(row):
        text += f", {x}" if k else str(x)
        if len(text) > 24:
            return f"[{text[:24]}...]"
    return f"[{text}]"


def _require_isotropic(space: PhaseSpace, rows: tuple, where: str) -> None:
    """Pairwise Poisson-commutation check, naming the first offending pair of rows by
    index and a short preview, and counting the rest."""
    bad = [pair for pair, p in _pair_products(space.field, rows) if p]
    if bad:
        (i, j), more = bad[0], len(bad) - 1
        raise ScenarioError(
            f"{where}: functionals must pairwise Poisson-commute (isotropic span); "
            f"offending rows {i} and {j} ({_row_preview(rows[i])} vs "
            f"{_row_preview(rows[j])})" + (f" and {more} more" if more else ""))


def scenario_from_dict(data: dict) -> Scenario:
    """Validate and canonicalize a scenario given as parsed JSON."""
    _require_keys(data, ("field", "n", "preparation", "measurement", "mode"),
                  ("transformation",), "scenario")

    fld = _field_in(data["field"])
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ScenarioError(f"n: expected a positive int, got {_shown(n)}")
    if n > MAX_N:
        raise SizeCapExceeded("scenario degrees of freedom n", _int_text(n), MAX_N)
    space = PhaseSpace(fld, n)
    dim = space.dim

    mode = data["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode: expected one of {MODES}, got {_shown(mode)}")
    if mode in ("quantum", "compare") and not fld.is_finite:
        raise ScenarioError(
            f"mode {mode!r} needs a finite-dimensional quantum engine; "
            "the rational field supports only mode 'epistricted'")

    prep = data["preparation"]
    _require_keys(prep, ("known",), ("valuation",), "preparation")
    known_rows = _rows_in(fld, prep["known"], dim, "preparation.known")
    _require_isotropic(space, known_rows, "preparation.known")
    valuation = (_vector_in(fld, prep["valuation"], dim, "preparation.valuation")
                 if "valuation" in prep else space.zero())
    preparation = EpistemicState(space, AffineSubspace.span(fld, known_rows, ambient=dim),
                                 valuation)

    transformation = None
    if "transformation" in data:
        tr = data["transformation"]
        _require_keys(tr, ("S",), ("a",), "transformation")
        s_rows = _rows_in(fld, tr["S"], dim, "transformation.S")
        if len(s_rows) != dim:
            raise ScenarioError(
                f"transformation.S: expected {dim} rows, got {len(s_rows)}")
        a = (_vector_in(fld, tr["a"], dim, "transformation.a")
             if "a" in tr else space.zero())
        try:
            transformation = SymplecticAffine(space, Matrix(fld, s_rows), a)
        except ValueError as exc:
            raise ScenarioError(f"transformation.S: {exc}") from exc

    meas = data["measurement"]
    _require_keys(meas, ("measured",), (), "measurement")
    meas_rows = _rows_in(fld, meas["measured"], dim, "measurement.measured")
    _require_isotropic(space, meas_rows, "measurement.measured")
    measurement = SharpMeasurement(
        space, AffineSubspace.span(fld, meas_rows, ambient=dim))

    return Scenario(space, preparation, transformation, measurement, mode)


def parse_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, digit limit, nesting
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(sc: Scenario) -> dict:
    """Canonical dictionary form; inverse of :func:`scenario_from_dict`."""
    fld = sc.space.field
    data = {
        "field": _field_out(fld),
        "n": sc.space.n,
        "preparation": {
            "known": _rows_out(fld, sc.preparation.known.basis),
            "valuation": _vector_out(fld, sc.preparation.valuation),
        },
        "measurement": {
            "measured": _rows_out(fld, sc.measurement.measured.basis),
        },
        "mode": sc.mode,
    }
    if sc.transformation is not None:
        data["transformation"] = {
            "S": _rows_out(fld, sc.transformation.s.rows),
            "a": _vector_out(fld, sc.transformation.a),
        }
    return data


def serialize_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_scenario(sc: Scenario) -> dict:
    """Execute the scenario and return a JSON-ready report."""
    state = sc.preparation
    if sc.transformation is not None and sc.mode != "quantum":
        state = transform(state, sc.transformation)

    report = {
        "field": _field_out(sc.space.field),
        "n": sc.space.n,
        "mode": sc.mode,
    }

    if not sc.space.field.is_finite:
        fld = sc.space.field
        values = possible_values(state, sc.measurement)
        report["possible_values"] = {
            "functionals": _rows_out(fld, sc.measurement.measured.basis),
            "offset": _vector_out(fld, values.offset),
            "directions": _rows_out(fld, values.basis),
            "deterministic": values.rank == 0,
        }
        return report

    want_classical = sc.mode in ("epistricted", "compare")
    want_quantum = sc.mode in ("quantum", "compare")

    dist = measure(state, sc.measurement) if want_classical else None
    probs = (_exact_born(sc.preparation, sc.transformation, sc.measurement)
             if want_quantum else None)

    rows = []
    max_diff = Fraction(0)
    # The route keys its statistics by ``outcomes()``, in order.
    for label in probs if want_quantum else sc.measurement.outcomes():
        entry = {
            "label": [int(x) for x in label],
            "values": [int(x) for x in _values_at(sc.measurement, label)],
        }
        if want_classical:
            entry["epistricted"] = str(dist[label])
        if want_quantum:
            entry["quantum"] = float(probs[label])
        if want_classical and want_quantum:
            diff = abs(dist[label] - probs[label])
            entry["difference"] = float(diff)
            max_diff = max(max_diff, diff)
        rows.append(entry)
    report["outcomes"] = rows

    if sc.mode == "compare":
        report["max_difference"] = float(max_diff)
        report["verdict"] = "agree" if max_diff == 0 else "differ"
    return report
