"""Top-level acceptance gates.

One test per numbered criterion, so the verbose pytest run shows one pass/fail
line for each.  Every test also prints a human-readable verdict with the
per-check actuals, which pytest surfaces whenever a criterion fails.

Tolerances are the ones the checks themselves carry: exact field/rational
arithmetic wherever the objects are exact, 1e-10 for complex matrix identities,
1e-9 for Born-rule comparisons, and -1e-12 as the nonnegativity floor.
"""

from collections import defaultdict
from itertools import product

import numpy as np

import oracles
from epistrict import acceptance
from epistrict.epistemic import enumerate_states
from epistrict.fields import PrimeField
from epistrict.symplectic import PhaseSpace, symplectic_group_order

D2_2 = PhaseSpace(PrimeField(2), 2)


def run_and_report(k: int) -> None:
    results = acceptance.run_criterion(k)
    assert results, f"criterion {k} produced no checks"
    # ``accept --d`` picks criteria by their declared moduli before running them.
    exercised = set().union(*(r.moduli for r in results))
    assert exercised == acceptance.MODULI[k], \
        f"criterion {k} exercises d in {sorted(exercised)}, declares {sorted(acceptance.MODULI[k])}"
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"  [{mark}] {r.name}: {r.actual} (tolerance {r.tolerance})")
    verdict = "PASS" if all(r.passed for r in results) else "FAIL"
    print(f"ACCEPTANCE CRITERION {k}: {verdict}")
    failures = [r for r in results if not r.passed]
    assert not failures, "; ".join(
        f"{r.name}: expected {r.expected}, got {r.actual}" for r in failures)


def test_criterion_1_enumeration_counts():
    """State, transformation and quadrature counts at one bit and one trit."""
    run_and_report(1)


def test_criterion_2_symplectic_and_weyl_algebra():
    """Form preservation, J^2 = -I, brackets, Weyl product and commutation law."""
    run_and_report(2)


def test_criterion_3_operational_equivalence_at_odd_prime():
    """Exhaustive d=3 n=1 agreement, seeded d=3 n=2 sample, d=5 spot sample."""
    run_and_report(3)


def test_criterion_4_wigner_representation_structure():
    """Point-operator normalization, orthogonality, covariance, nonnegativity."""
    run_and_report(4)


def test_criterion_5_stabilizer_bridge():
    """Eigen-relations, round trips, and the two-qubit sign obstruction."""
    run_and_report(5)


def test_criterion_6_parity_two_inequivalence():
    """Negativity, magic square, three-qubit parity, and witness scans."""
    run_and_report(6)


def test_criterion_7_classical_engine_against_brute_force(monkeypatch):
    """Library statistics equal pointwise ontic simulation on every triple.

    The criterion's (2,2) support-map sweep is also the every-pair check of
    ``transform``: each (2,2) call must land on the state whose support is the
    pointwise image of the state's support, both enumerated from the label (V, v)
    by tests/oracles.py."""
    states = enumerate_states(D2_2)
    index = {(s.known.basis, s.valuation): k for k, s in enumerate(states)}
    points = list(product(range(2), repeat=D2_2.dim))
    code = {x: i for i, x in enumerate(points)}
    member = np.zeros((len(states), len(points)), dtype=bool)
    for (basis, valuation), k in index.items():
        member[k, [code[x] for x in oracles.label_support(2, basis, valuation)]] = True
    weights = 1 << np.arange(len(points))
    by_support = {c: k for k, c in enumerate((member @ weights).tolist())}

    def oracle_moves(t):
        """State k -> the state whose support is the image of k's support under t."""
        image = oracles.affine_map_table(2, t.s.rows, t.a)
        moved = member[:, np.argsort([code[image[x]] for x in points])] @ weights
        moves = [by_support.get(c) for c in moved.tolist()]
        assert None not in moves, f"{t} moves a support off every state's support"
        return moves

    covered = defaultdict(int)  # each map's bitmask of the states it moved
    original = acceptance.transform
    last_map = moves = map_key = None

    def checked(state, t):
        nonlocal last_map, moves, map_key
        moved = original(state, t)
        if state.space == D2_2:
            if t is not last_map:  # the sweep moves every state under one map in turn
                last_map, moves, map_key = t, oracle_moves(t), (t.s.rows, t.a)
            k = index[state.known.basis, state.valuation]
            if index.get((moved.known.basis, moved.valuation)) != moves[k]:
                raise AssertionError(f"{state} under {t} does not move to {moved}")
            covered[map_key] |= 1 << k
        return moved

    monkeypatch.setattr(acceptance, "transform", checked)
    run_and_report(7)
    assert len(covered) == symplectic_group_order(2, 2) * 2 ** D2_2.dim
    assert set(covered.values()) == {2 ** len(states) - 1}


def test_criterion_8_possibilistic_rational_engine():
    """Correlated-pair value sets and repeatability over the rationals."""
    run_and_report(8)


def test_every_criterion_declares_its_moduli():
    assert sorted(acceptance.MODULI) == sorted(acceptance.SUITES["all"])


def test_suites_cover_every_criterion_exactly_once():
    listed = sorted(k for name in ("algebra", "equivalence", "inequivalence")
                    for k in acceptance.SUITES[name])
    assert listed == list(acceptance.SUITES["all"]) == list(range(1, 9))
