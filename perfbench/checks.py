"""Independent checks of each workload's outputs, run in the parent after measuring.

Each ``check_<workload>(inp, result, tracer)`` returns one bool per op; the caller
also fails every op that raised.  The parent
is a fresh interpreter of its own, so nothing here shares a cache with the measured
process.  Where a route can avoid the program altogether it does: the classical
oracle maps every support point with raw ints mod d and counts measured values.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction

from inputs import SIZES, is_symplectic

TOL = 1e-9


def _matvec(s, v, d):
    return [sum(x * y for x, y in zip(row, v)) % d for row in s]


def _values(f_rows, x, d):
    return tuple(sum(a * b for a, b in zip(f, x)) % d for f in f_rows)


def oracle_distribution(basis, offset, s, a, f_rows, d) -> dict:
    """Brute force: every support point, mapped by m -> S m + a, read by the
    measured functionals; measured-value tuple -> exact probability."""
    counts = Counter()
    for coeffs in itertools.product(range(d), repeat=len(basis)):
        x = list(offset)
        for c, row in zip(coeffs, basis):
            x = [(xi + c * ri) % d for xi, ri in zip(x, row)]
        y = [(u + v) % d for u, v in zip(_matvec(s, x, d), a)]
        counts[_values(f_rows, y, d)] += 1
    total = d ** len(basis)
    return {k: Fraction(c, total) for k, c in counts.items()}


def library_distribution(encoded, f_rows, d) -> dict:
    """An encoded OutcomeDistribution re-keyed by measured-value tuples."""
    n = len(encoded[0]) - 2 if encoded else 0
    return {_values(f_rows, row[:n], d): Fraction(row[n], row[n + 1]) for row in encoded}


def check_classical_sweep(inp, res, tracer) -> list:
    from epistrict import AffineSubspace, PrimeField
    sample = set(inp["oracle"])
    fields = {}
    ok = []
    for k, (op, out) in enumerate(zip(inp["ops"], res["outputs"])):
        if out is None:
            ok.append(False)
            continue
        ctx = res["context"][op[0]]
        d, dim = ctx["d"], 2 * ctx["n"]
        basis, offset = ctx["supports"][op[1]]
        s, a = ctx["maps"][str(op[2])]
        rows = tuple(tuple(_matvec(s, b, d)) for b in basis)
        moved = tuple((x + y) % d for x, y in zip(_matvec(s, offset, d), a))
        fld = fields.setdefault(d, PrimeField(d))
        # The pointwise image of the support, canonicalized, is the moved support.
        with tracer.span("linalg.AffineSubspace"):
            image = AffineSubspace(fld, dim, rows, moved)
        good = [[list(r) for r in image.basis], list(image.offset)] == out[0]
        if good and k in sample:
            good = all(oracle_distribution(basis, offset, s, a, f_rows, d)
                       == library_distribution(dist, f_rows, d)
                       for f_rows, dist in zip(ctx["measurements"], out[1]))
        ok.append(good)
    return ok


def _map_ok(encoded_map, d, n) -> bool:
    s, a = encoded_map
    return len(a) == 2 * n and is_symplectic(s, n, d)


def check_wigner_bridge(inp, res, tracer) -> list:
    ok = []
    for op, out in zip(inp["ops"], res["outputs"]):
        if out is None:
            ok.append(False)
            continue
        kind, (d, n) = op[0], op[1]
        if kind == "point_operators":
            ok.append(out[0] == d ** (2 * n) and out[1] <= TOL and out[2] <= TOL)
        elif kind == "equivalence_exhaustive":
            n_states, n_maps, n_iso = SIZES[(d, n)]
            want = [n_states, n_maps, n_iso, n_states * n_maps * n_iso]
            ok.append(out[0] is True and out[1:5] == want)
        elif kind == "equivalence_batch":
            sizes = [len(op[2]), len(op[3]), len(op[4])]
            ok.append(out[0] is True
                      and out[1:5] == sizes + [sizes[0] * sizes[1] * sizes[2]])
        elif kind == "verify_covariance":
            ok.append(_map_ok(out[0], d, n) and out[1] is True and out[2] == 0
                      and out[3] <= TOL)
        else:  # wigner_channel: a 0/1 table whose 1s sit at m -> S m + a
            (s, a), peaks, worst = out
            ok.append(_map_ok(out[0], d, n) and worst <= TOL
                      and len(peaks) == d ** (2 * n)
                      and all([(u + v) % d for u, v in zip(_matvec(s, m, d), a)] == top
                              for m, top in peaks))
    return ok


def _reverify_witness(w, d, n) -> bool:
    """Rebuild the witness triple from plain data; recompute both sides."""
    import epistrict as ep
    sp = ep.PhaseSpace(ep.PrimeField(d), n)
    fld = sp.field
    state = ep.EpistemicState(sp, ep.AffineSubspace.span(fld, w["known"], ambient=sp.dim),
                              tuple(w["valuation"]))
    t = ep.SymplecticAffine(sp, ep.Matrix(fld, tuple(map(tuple, w["map"][0]))),
                            tuple(w["map"][1]))
    measured = ep.AffineSubspace.span(fld, w["measured"], ambient=sp.dim)
    rho = ep.quadrature_state(sp, state.known, state.valuation).rho
    quantum = ep.born(ep.clifford(sp, t).apply(rho), ep.quadrature_pvm(sp, measured))
    reported = {tuple(row[:-1]): row[-1] for row in w["quantum"]}
    classical = {tuple(row[:-2]): Fraction(row[-2], row[-1]) for row in w["classical"]}
    sup = state.support()
    oracle = oracle_distribution([list(r) for r in sup.basis], list(sup.offset),
                                 w["map"][0], w["map"][1], w["measured"], d)
    gap = max(abs(p - float(classical.get(k, 0))) for k, p in quantum.items())
    return (set(quantum) == set(reported)
            and all(abs(p - reported[k]) <= TOL for k, p in quantum.items())
            and oracle == library_distribution(w["classical"], w["measured"], d)
            and gap > TOL and abs(gap - w["max_diff"]) <= TOL)


def check_witness_scan(inp, res, tracer) -> list:
    ok = []
    for op, out in zip(inp["ops"], res["outputs"]):
        if op[0] == "mermin_square":
            ok.append(out is not None and out[:4] == [[1, 1, 1], [1, 1, -1], 512, 0]
                      and out[4] > 0)
        elif op[0] == "ghz_test":
            ok.append(out is not None and out[:3] == [[1, -1, -1, -1], 64, 0]
                      and out[3] > 0)
        else:
            d, n = op[1]
            # At odd d the theories agree: no witness exists.  At d = 2 one must.
            ok.append(out is None if d % 2 else
                      out is not None and _reverify_witness(out, d, n))
    return ok


def check_scenario_mix(inp, res, tracer) -> list:
    from epistrict import parse_scenario, serialize_scenario
    ok = []
    for text, out in zip(inp["ops"], res["outputs"]):
        if out is None:
            ok.append(False)
            continue
        sc = parse_scenario(text)
        with tracer.span("scenario.serialize_scenario"):
            once = serialize_scenario(sc)
        with tracer.span("scenario.serialize_scenario"):
            twice = serialize_scenario(parse_scenario(once))
        data, rep = json.loads(text), json.loads(out)
        good = once == twice and all(rep[key] == data[key] for key in ("field", "n", "mode"))
        if data["field"] == "rational":
            values = rep["possible_values"]
            good = good and values["deterministic"] == (not values["directions"])
        else:
            rows = rep["outcomes"]
            good = good and len(rows) == data["field"] ** len(data["measurement"]["measured"])
            if data["mode"] != "quantum":
                probs = [Fraction(r["epistricted"]) for r in rows]
                good = good and sum(probs) == 1 and min(probs) >= 0
            if data["mode"] != "epistricted":
                probs = [r["quantum"] for r in rows]
                good = good and abs(sum(probs) - 1) <= TOL and min(probs) >= -TOL
            if data["mode"] == "compare":
                agree = rep["max_difference"] <= TOL
                good = (good and rep["verdict"] == ("agree" if agree else "differ")
                        and (agree or data["field"] == 2))
        ok.append(good)
    return ok


CHECKS = {
    "classical-sweep": check_classical_sweep,
    "wigner-bridge": check_wigner_bridge,
    "witness-scan": check_witness_scan,
    "scenario-mix": check_scenario_mix,
}
