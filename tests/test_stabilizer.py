"""Stabilizer translation, parity obstructions, and the operational witness scan."""

import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from epistrict import exponents, quantum, stabilizer, symplectic
from epistrict.fields import PrimeField, SizeCapExceeded
from epistrict.linalg import AffineSubspace, Matrix
from epistrict.symplectic import PhaseSpace, SymplecticAffine, _apply_jt
from epistrict.epistemic import (
    EpistemicState,
    SharpMeasurement,
    enumerate_states,
    measure,
    transform,
)
from epistrict.quantum import (
    _pair_char,
    born,
    clifford,
    metaplectic,
    quadrature_projector,
    quadrature_pvm,
    quadrature_state,
    weyl,
)
from epistrict.stabilizer import (
    GhzReport,
    StabilizerGroup,
    Witness,
    ghz_test,
    mermin_square,
    quadrature_of_stabilizer,
    scan_for_witness,
    stabilizer_of_quadrature,
    state_from_stabilizer,
    weyl_value_report,
)

D2 = PhaseSpace(PrimeField(2), 1)
D3 = PhaseSpace(PrimeField(3), 1)
D2x2 = PhaseSpace(PrimeField(2), 2)
D3x2 = PhaseSpace(PrimeField(3), 2)
D5 = PhaseSpace(PrimeField(5), 1)
D5x2 = PhaseSpace(PrimeField(5), 2)
D7 = PhaseSpace(PrimeField(7), 1)
D3x2_SAMPLE = random.Random(15).sample(enumerate_states(D3x2), 60)


def test_position_state_is_stabilized_by_signed_z():
    qline = AffineSubspace.span(PrimeField(2), [(1, 0)])
    for t in range(2):
        group = stabilizer_of_quadrature(D2, qline, (t, 0))
        assert group.generators == (((0, 1), t),)
        rho = quadrature_state(D2, qline, (t, 0)).rho
        g = group.operator(0)
        assert np.max(np.abs(g @ rho - rho)) < 1e-12


@pytest.mark.parametrize("space", [D2, D3, D2x2])
def test_generators_fix_the_state(space):
    for state in enumerate_states(space):
        group = stabilizer_of_quadrature(space, state.known, state.valuation)
        rho = quadrature_state(space, state.known, state.valuation).rho
        for i in range(len(group.generators)):
            g = group.operator(i)
            assert np.max(np.abs(g @ rho - rho)) < 1e-10


@pytest.mark.parametrize("space", [D2, D3, D2x2])
def test_round_trip_is_identity_on_every_state(space):
    for state in enumerate_states(space):
        group = stabilizer_of_quadrature(space, state.known, state.valuation)
        back = quadrature_of_stabilizer(group)
        assert back == state


def test_round_trip_sampled_at_d3_two_dofs():
    states = enumerate_states(D3x2)
    for state in states[::17]:
        group = stabilizer_of_quadrature(D3x2, state.known, state.valuation)
        assert quadrature_of_stabilizer(group) == state


def _power_sum_projector(space, m, e):
    """Reference route: the +1 eigenprojector (1/d) sum_k g^k of g = char(e) W(m)."""
    d = space.d
    g = _pair_char(d, e) * weyl(space, m)
    power = np.eye(d ** space.n, dtype=complex)
    proj = np.zeros_like(power)
    for _ in range(d):
        proj += power
        power = power @ g
    return proj / d


def _assert_state_from_stabilizer_matches(space, states):
    for state in states:
        group = stabilizer_of_quadrature(space, state.known, state.valuation)
        rho = state_from_stabilizer(group)
        want = quadrature_state(space, state.known, state.valuation).rho
        assert np.max(np.abs(rho - want)) < 1e-10
        for m, e in group.generators:
            # The Weyl-line projector of J^T m is the power-sum eigenprojector.
            got = quadrature_projector(space, _apply_jt(space.field, m), e)
            assert np.max(np.abs(got - _power_sum_projector(space, m, e))) < 1e-10


@pytest.mark.parametrize("space", [D2, D3, D2x2])
def test_state_from_stabilizer_matches_quadrature_state(space):
    _assert_state_from_stabilizer_matches(space, enumerate_states(space))


def test_state_from_stabilizer_matches_sampled_two_qutrit_states():
    states = enumerate_states(D3x2)
    _assert_state_from_stabilizer_matches(D3x2, random.Random(6).sample(states, 40))


def test_trivial_group_gives_the_maximally_mixed_state():
    group = StabilizerGroup(D3, ())
    rho = state_from_stabilizer(group)
    assert np.max(np.abs(rho - np.eye(3) / 3)) < 1e-12


def test_inconsistent_phases_rejected():
    group = StabilizerGroup(D2, (((0, 1), 0), ((0, 1), 1)))   # +Z and -Z
    with pytest.raises(ValueError, match="inconsistent"):
        state_from_stabilizer(group)


def test_noncommuting_generators_rejected():
    for space, gens, named in [
        (D2, ((1, 0), (0, 1)), "(1, 0) and (0, 1)"),                           # X, Z
        # X1 and X2 commute; the first anticommuting pair is X1 with Z1 (reduced).
        (D3x2, ((1, 0, 0, 0), (0, 0, 1, 0), (0, 4, 0, 0)),
         "(1, 0, 0, 0) and (0, 1, 0, 0)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(
                f"generators {named} do not commute (nonzero symplectic product)")):
            StabilizerGroup(space, tuple((m, 0) for m in gens))


@pytest.mark.parametrize("m", [(1, 0, 1, 1), (1,)])
def test_generator_of_the_wrong_length_rejected(m):
    with pytest.raises(ValueError, match=f"length {len(m)} .* 2n = 2"):
        StabilizerGroup(D2, ((m, 0),))


@pytest.mark.parametrize("generator", [((1.7, 0), 0), ((1, 0), 0.9), ((True, 0), 0),
                                       ((1, 0), False), ((np.float64(1), 0), 0)])
def test_generator_entries_must_be_field_elements(generator):
    with pytest.raises(TypeError, match="prime-field element must be an int"):
        StabilizerGroup(D2, (generator,))


def test_generator_entries_may_be_numpy_integers():
    group = StabilizerGroup(D3, ((np.array([1, 4], dtype=np.int64), np.int64(-1)),))
    assert group.generators == (((1, 1), 2),)
    assert all(type(x) is int for x in group.generators[0][0])
    assert type(group.generators[0][1]) is int


def test_generator_entries_are_reduced_in_the_field():
    group = StabilizerGroup(D3, (((4, Fraction(1, 2)), -1),))
    assert group.generators == (((1, 2), 2),)
    assert all(type(x) is int for x in group.generators[0][0])


def test_zero_generator_rejected():
    with pytest.raises(ValueError, match="zero"):
        StabilizerGroup(D2, (((0, 0), 0),))


def test_dependent_generators_rejected_in_translation():
    # XX, ZZ and their product: additively read phases would assume consistency.
    group = StabilizerGroup(
        D2x2,
        (((1, 0, 1, 0), 0), ((0, 1, 0, 1), 0), ((1, 1, 1, 1), 0)),
    )
    with pytest.raises(ValueError, match="dependent"):
        quadrature_of_stabilizer(group)


def test_the_dependent_all_plus_triple_is_also_numerically_empty():
    # ... and the numeric route shows why: +XX, +ZZ force YY = -1, not +1.
    group = StabilizerGroup(
        D2x2,
        (((1, 0, 1, 0), 0), ((0, 1, 0, 1), 0), ((1, 1, 1, 1), 0)),
    )
    with pytest.raises(ValueError, match="inconsistent"):
        state_from_stabilizer(group)


# ---------------------------------------------------------------------------
# value assignments on the full group
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [D3, D3x2])
def test_value_assignment_consistent_on_every_group_element_odd_d(space):
    states = enumerate_states(space)
    sample = states if space.n == 1 else states[::23]
    for state in sample:
        report = weyl_value_report(space, state.known, state.valuation)
        assert report.consistent
        assert report.n_elements == space.d ** state.rank - 1


def test_value_assignment_consistent_for_single_bit():
    for state in enumerate_states(D2):
        report = weyl_value_report(D2, state.known, state.valuation)
        assert report.consistent


def test_two_qubit_correlated_state_has_exactly_one_flip():
    plane = AffineSubspace.span(PrimeField(2), [(1, 0, 1, 0), (0, 1, 0, 1)])
    report = weyl_value_report(D2x2, plane, (0, 0, 0, 0))
    assert report.n_elements == 3
    assert report.n_flips == 1
    assert report.flipped == ((1, 1, 1, 1),)    # the YY functional dissents


def test_some_two_qubit_state_always_flips_but_product_states_do_not():
    flips = {}
    for state in enumerate_states(D2x2):
        if state.rank != 2:
            continue
        report = weyl_value_report(D2x2, state.known, state.valuation)
        flips[state] = report.n_flips
    assert any(n > 0 for n in flips.values())
    assert any(n == 0 for n in flips.values())


@pytest.mark.parametrize("space, states", [
    (D2, None), (D3, None), (D5, None), (D2x2, None), (D3x2, D3x2_SAMPLE)])
def test_value_report_matches_the_dense_weyl_trace(space, states):
    """f dissents exactly when the dense Tr(W(J f) rho) is not conj(char(f . v))."""
    d = space.d
    for state in enumerate_states(space) if states is None else states:
        rho = quadrature_state(space, state.known, state.valuation).rho
        want = []
        for f in state.known.points():
            if not any(f):
                continue
            jf = [x for q, p in zip(f[0::2], f[1::2]) for x in (p, -q % d)]
            value = sum(a * b for a, b in zip(f, state.valuation)) % d
            naive = (-1) ** value if d == 2 else np.exp(-2j * np.pi * value / d)
            if abs(oracles.dense_weyl_trace(d, jf, rho) - naive) > 1e-9:
                want.append(f)
        report = weyl_value_report(space, state.known, state.valuation)
        assert report.flipped == tuple(want)
        assert (report.n_elements, report.n_flips) == (d ** state.rank - 1, len(want))


@pytest.mark.parametrize("d, n", [(2, 8), (11, 3)])
def test_value_report_keeps_the_hilbert_space_cap(d, n):
    space = PhaseSpace(PrimeField(d), n)
    with pytest.raises(SizeCapExceeded, match="Hilbert space"):
        weyl_value_report(space, AffineSubspace.span(space.field, [], ambient=space.dim),
                          None)


def test_the_audits_build_no_dense_state(monkeypatch):
    """Both audits read exact exponents: with every dense builder they could reach
    made to fail, they still return the reports pinned here."""
    def refuse(*args):
        raise AssertionError("a dense operator was built")

    for name in ("weyl", "quadrature_state", "state_from_stabilizer"):
        monkeypatch.setattr(stabilizer, name, refuse)
    reports = Counter()
    for state in enumerate_states(D2x2):
        report = weyl_value_report(D2x2, state.known, state.valuation)
        reports[report.n_elements, report.n_flips, report.flipped] += 1
    assert reports == {(0, 0, ()): 1, (1, 0, ()): 30, (3, 0, ()): 48,
                       (3, 1, ((1, 1, 0, 1),)): 4, (3, 1, ((1, 1, 1, 0),)): 4,
                       (3, 1, ((1, 1, 1, 1),)): 4}
    assert ghz_test() == GhzReport(
        ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 0, 1)),
        ((1, 0, 1, 1, 1, 1), (1, 1, 1, 0, 1, 1), (1, 1, 1, 1, 1, 0)),
        (1, -1, -1, -1), 64, 0, 8)


# ---------------------------------------------------------------------------
# the classic parity obstructions
# ---------------------------------------------------------------------------


def test_mermin_square_has_no_consistent_assignment():
    report = mermin_square()
    assert report.row_signs == (1, 1, 1)
    assert report.col_signs == (1, 1, -1)
    assert report.n_assignments == 512
    assert report.n_satisfying == 0
    assert report.n_satisfying_relaxed > 0


def test_ghz_has_no_local_assignment():
    report = ghz_test()
    assert report.eigenvalues == (1, -1, -1, -1)
    assert report.n_assignments == 64
    assert report.n_satisfying == 0
    assert report.n_satisfying_relaxed > 0


def test_ghz_relaxed_count_is_eight():
    # Three independent parity constraints on six signs leave 2^6 / 2^3 options.
    assert ghz_test().n_satisfying_relaxed == 8


def test_ghz_eigenvalues_are_the_dense_weyl_traces():
    report = ghz_test()
    space = PhaseSpace(PrimeField(2), 3)
    group = StabilizerGroup(space, tuple((m, 0) for m in report.generators))
    rho = state_from_stabilizer(group)
    words = (report.generators[0],) + report.derived    # XXX, then XYY, YXY, YYX
    got = np.array([oracles.dense_weyl_trace(2, m, rho) for m in words])
    assert np.max(np.abs(got - np.array(report.eigenvalues))) < 1e-10


# ---------------------------------------------------------------------------
# operational witness scan
# ---------------------------------------------------------------------------


def _scan_counting(monkeypatch, space):
    """Run the scan, counting symplectic closures; the affine group must not be
    built (a call to enumerate_group fails the test)."""
    calls = []
    original = symplectic._symplectic_closure

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("scan_for_witness built the whole affine group")

    for mod in (symplectic, stabilizer):
        monkeypatch.setattr(mod, "_symplectic_closure", counting)
        monkeypatch.setattr(mod, "enumerate_group", forbidden, raising=False)
    witness = scan_for_witness(space)
    assert len(calls) == 1
    return witness


def test_no_witness_exists_at_d3(monkeypatch):
    assert _scan_counting(monkeypatch, D3) is None


def test_single_bit_witness_is_the_swap_on_the_diagonal_state():
    """Even one qubit separates the theories under the canonical dictionary.

    The classical q <-> p swap fixes every point of the cell {q + p = 0}, but any
    unitary inducing the swap on Weyl labels must flip the sign of W((1,1))
    (conjugation preserves the algebra, and the X and Z images multiply to the
    negated Y image), so the quantum route lands in the other q+p cell.  No
    choice of metaplectic section avoids this: the swap acts on the six states
    as an improper rotation of the state octahedron, and conjugations only
    realize proper ones.
    """
    witness = scan_for_witness(D2)
    assert witness is not None
    assert witness.state.known.basis == ((1, 1),)
    assert witness.transformation.s.rows == ((0, 1), (1, 0))
    assert witness.measurement.measured.basis == ((1, 1),)
    assert witness.max_diff == 1.0


def test_the_section_moves_states_classically_under_every_even_single_bit_map():
    """12 of the 24 maps at (2,1) send every state where the classical theory does.

    Sp(2, 2) permutes the three nonzero vectors.  The other 12 maps have an odd linear
    part (a transposition: S^3 = S, not I), which no conjugation can realize.
    """
    states = enumerate_states(D2)
    rhos = [quadrature_state(D2, s.known, s.valuation).rho for s in states]
    agreeing = []
    for t in symplectic.enumerate_group(D2):
        channel = clifford(D2, t)
        if all(np.max(np.abs(channel.apply(rho)
                             - rhos[states.index(transform(s, t))])) < 1e-10
               for s, rho in zip(states, rhos)):
            agreeing.append(t)
    identity = ((1, 0), (0, 1))
    assert len(agreeing) == 12
    assert all((t.s @ t.s @ t.s).rows == identity for t in agreeing)


@pytest.mark.parametrize("space, known, s_rows, measured", [
    (D2, ((1, 1),), ((0, 1), (1, 0)), ((1, 1),)),
    (D2x2, ((1, 0, 1, 1),),
     ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)), ((1, 1, 0, 1),)),
])
def test_witness_is_the_first_disagreeing_map_in_group_order(
        monkeypatch, space, known, s_rows, measured):
    """The scan walks the affine group in enumerate_group's order without building
    it, so it reports the same first witness."""
    witness = _scan_counting(monkeypatch, space)
    zero = (0,) * space.dim
    assert witness.state.known.basis == known
    assert witness.state.valuation == zero
    assert witness.transformation.s.rows == s_rows
    assert witness.transformation.a == zero
    assert witness.measurement.measured.basis == measured
    assert witness.classical.items() == [(zero, Fraction(1))]
    assert sorted(k for k, p in witness.quantum.items() if p > 0.5) == [
        zero[:-1] + (1,)]
    assert witness.max_diff == pytest.approx(1.0)


def test_two_qubit_witness_found_and_verified():
    witness = scan_for_witness(D2x2)
    assert isinstance(witness, Witness)
    assert witness.max_diff > 0.4

    # Re-derive the classical route from scratch and confirm the reported gap.
    classical = measure(transform(witness.state, witness.transformation),
                        witness.measurement)
    assert classical == witness.classical
    assert abs(sum(witness.quantum.values()) - 1.0) < 1e-10
    diff = max(abs(witness.quantum[k] - float(classical.probability(k)))
               for k in witness.quantum)
    assert abs(diff - witness.max_diff) < 1e-12


# ---------------------------------------------------------------------------
# the scan's permutation tables against their direct routes
# ---------------------------------------------------------------------------



def _spans(space, states):
    """Each state's characteristic function, spread as the scan spreads it."""
    return [exponents._stabilizer_exponents(space, exponents._state_generators(s))
            for s in states]


def _direct_classical_perm(states, t):
    """Reference route: push every state through transform."""
    index = {s: i for i, s in enumerate(states)}
    return [index[transform(s, t)] for s in states]


def _fingerprint(rho):
    # Adding complex zero folds -0.0 into +0.0 so equal matrices share bytes.
    return (np.round(rho, 6) + (0.0 + 0.0j)).tobytes()


def _fingerprint_quantum_perm(rhos, unitary):
    """Reference route: identify each image by its rounded density-matrix bytes."""
    label_of = {_fingerprint(rho): i for i, rho in enumerate(rhos)}
    assert len(label_of) == len(rhos)
    return [label_of[_fingerprint(unitary @ rho @ unitary.conj().T)] for rho in rhos]


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2])
def test_closure_words_replay_to_their_elements(space):
    gens, words = symplectic._symplectic_closure(space)
    assert len(words) == symplectic.symplectic_group_order(space.d, space.n)
    seen = set()
    for rows, (parent, k) in words.items():
        if parent is None:
            assert rows == Matrix.identity(space.field, space.dim).rows
        else:
            assert parent in seen    # breadth-first: parents come first
            assert (Matrix(space.field, parent) @ gens[k]).rows == rows
        seen.add(rows)


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2])
def test_composed_classical_perms_equal_direct_transforms(space):
    states = enumerate_states(space)
    gens, words = symplectic._symplectic_closure(space)
    linear, classical, _ = stabilizer._scan_perms(space, states)
    assert set(linear) == set(words)
    assert len(classical) == len(linear)
    for rows, perm in zip(linear, classical):
        t = SymplecticAffine(space, Matrix(space.field, rows), space.zero())
        assert perm.tolist() == _direct_classical_perm(states, t)
    _, shifts = stabilizer._classical_perms(space, states, gens)
    units = Matrix.identity(space.field, space.dim).rows
    assert len(shifts) == len(units)
    for u, perm in zip(units, shifts):
        t = SymplecticAffine.displacement(space, u)
        assert perm.tolist() == _direct_classical_perm(states, t)


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2, D3x2])
def test_every_displacement_is_its_unit_shifts_on_both_sides(space):
    """What lets the scan check displacements through the 2n unit shifts alone: every
    displacement's matched permutation equals its classical ``transform``
    permutation and the composition of the unit-shift permutations along a walk in
    which each point is an earlier point plus the unit vector of its last nonzero
    coordinate."""
    states = enumerate_states(space)
    points = list(space.points())
    identity = Matrix.identity(space.field, space.dim).rows
    perms = stabilizer._quantum_perms(space, _spans(space, states),
                                      [identity] * len(points), points)
    units = [perms[points.index(u)] for u in identity]
    composed = {space.zero(): np.arange(len(states))}
    for a in points[1:]:
        j = max(i for i, x in enumerate(a) if x)
        parent = tuple(x - (i == j) for i, x in enumerate(a))
        composed[a] = composed[parent][units[j]]
    for a, perm in zip(points, perms):
        t = SymplecticAffine.displacement(space, a)
        assert perm.tolist() == _direct_classical_perm(states, t)
        assert np.array_equal(perm, composed[a])


@pytest.mark.parametrize("space, states", [
    (D2, None), (D3, None), (D5, None), (D2x2, None), (D3x2, D3x2_SAMPLE)])
def test_stabilizer_exponents_are_the_dense_weyl_trace(space, states):
    """Every exact exponent over a state's span, and every vanishing trace off it,
    against dense Tr(W(m) rho): the span holds d^rank points."""
    states = enumerate_states(space) if states is None else states
    root = 1j if space.d == 2 else np.exp(2j * np.pi / space.d)
    points = list(space.points())
    ws = np.array([weyl(space, m) for m in points])
    for state in states:
        exponent = exponents._stabilizer_exponents(
            space, exponents._state_generators(state))
        rho = quadrature_state(space, state.known, state.valuation).rho
        want = np.einsum("mij,ji->m", ws, rho)
        got = np.array([root ** exponent[m] if m in exponent else 0 for m in points])
        assert np.max(np.abs(got - want)) < 1e-10
        assert len(exponent) == space.d ** state.rank


def test_state_labels_are_int16_and_refused_past_it():
    assert stabilizer._label_dtype(2 ** 15) is np.int16
    with pytest.raises(AssertionError, match="32769 state labels do not fit int16"):
        stabilizer._label_dtype(2 ** 15 + 1)
    states = enumerate_states(D2x2)
    gens, shifts = stabilizer._classical_perms(
        D2x2, states, symplectic._symplectic_closure(D2x2)[0])
    _, classical, quantum_perms = stabilizer._scan_perms(D2x2, states)
    assert {perms.dtype for perms in (gens, shifts, classical, quantum_perms)} == {
        np.dtype(np.int16)}
    perms = stabilizer._quantum_perms(D2x2, _spans(D2x2, states), [], [])
    assert perms.dtype == np.int16


def test_two_states_with_one_characteristic_function_are_refused():
    states = enumerate_states(D2)
    with pytest.raises(AssertionError, match="share a characteristic function"):
        stabilizer._quantum_perms(D2, _spans(D2, states + states[:1]), [], [])


def _scan_maps(space):
    """Every symplectic matrix, then the identity with every displacement."""
    symplectics = [s.rows for s in symplectic.enumerate_symplectic(space)]
    points = list(space.points())
    identity = Matrix.identity(space.field, space.dim).rows
    return (symplectics + [identity] * len(points),
            [space.zero()] * len(symplectics) + points)


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2])
def test_quantum_perms_match_each_map_independently_of_the_call(space):
    """Each map is matched on its own: splitting the maps over calls of 1 or 7 maps
    gives the rows, dtype and order of one call over all of them."""
    spans = _spans(space, enumerate_states(space))
    s_rows, shifts = _scan_maps(space)
    default = stabilizer._quantum_perms(space, spans, s_rows, shifts)
    assert len(default) == len(s_rows)
    for size in (1, 7):
        perms = np.concatenate([
            stabilizer._quantum_perms(space, spans, s_rows[i:i + size],
                                      shifts[i:i + size])
            for i in range(0, len(s_rows), size)])
        assert perms.dtype == default.dtype
        assert np.array_equal(perms, default)


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2])
def test_matched_quantum_perms_equal_the_fingerprint_route(space):
    """The matched permutation of every symplectic matrix and every displacement
    equals the dense route's, which conjugates the density matrices."""
    states = enumerate_states(space)
    rhos = np.array([quadrature_state(space, s.known, s.valuation).rho for s in states])
    symplectics = symplectic.enumerate_symplectic(space)
    points = list(space.points())
    identity = Matrix.identity(space.field, space.dim).rows
    perms = stabilizer._quantum_perms(
        space, _spans(space, states), [s.rows for s in symplectics] + [identity] * len(points),
        [space.zero()] * len(symplectics) + points)
    unitaries = [metaplectic(space, s) for s in symplectics]
    unitaries += [clifford(space, SymplecticAffine.displacement(space, a)).unitary
                  for a in points]
    assert len(perms) == len(unitaries)
    for perm, u in zip(perms, unitaries):
        assert perm.tolist() == _fingerprint_quantum_perm(rhos, u)


def test_a_two_qubit_scan_builds_at_most_one_unitary(monkeypatch):
    """The scan's quantum side is exact phase arithmetic: only the witness's dense
    re-verification builds a unitary, so a return to one build per map fails here."""
    calls = []
    original = quantum.metaplectic

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quantum, "metaplectic", counting)
    monkeypatch.setattr(stabilizer, "metaplectic", counting, raising=False)
    monkeypatch.setattr(quantum, "_metaplectic_cache", {})
    assert scan_for_witness(D2x2) is not None
    assert len(calls) == 1  # the counter is live: the re-verification's one build


def _matched_linear_perms(space, states, linear):
    """Reference route: every linear map's permutation matched from the states'
    characteristic functions."""
    return stabilizer._quantum_perms(space, _spans(space, states), linear,
                                     [space.zero()] * len(linear))


@pytest.mark.parametrize("space", [D2, D3, D5, D7, D2x2])
def test_composed_quantum_perms_equal_the_matched_ones_on_every_map(space):
    states = enumerate_states(space)
    linear, _, composed = stabilizer._scan_perms(space, states)
    assert np.array_equal(composed, _matched_linear_perms(space, states, linear))


def test_composed_quantum_perms_equal_the_matched_ones_on_a_two_qutrit_slice():
    states = enumerate_states(D3x2)
    linear, _, composed = stabilizer._scan_perms(D3x2, states)
    assert len(linear) == 51840
    rows = sorted(random.Random(33).sample(range(len(linear)), 3000))
    matched = _matched_linear_perms(D3x2, states, [linear[i] for i in rows])
    assert np.array_equal(composed[rows], matched)


def _corrupt_the_composition(monkeypatch, edit):
    """Let ``edit(image, sigma)`` replace what ``_clifford_image`` returns once the
    scan's one ``_quantum_perms`` match is done, so that only the walk over the
    closure's words sees it: matching also moves phases through ``_clifford_image``."""
    image_of, match = stabilizer._clifford_image, stabilizer._quantum_perms

    def match_then_corrupt(*args):
        perms = match(*args)
        monkeypatch.setattr(stabilizer, "_clifford_image",
                            lambda d, s_rows, m: edit(*image_of(d, s_rows, m)))
        return perms

    monkeypatch.setattr(stabilizer, "_quantum_perms", match_then_corrupt)


@pytest.mark.parametrize("space, wrong", [(D2, 3), (D2x2, 667)])
def test_composing_without_the_pauli_correction_is_wrong_at_d2(monkeypatch, space, wrong):
    """With sigma forced to 0 the composed product is U(A) U(G), not U(A G): it moves
    the states differently on 3 of the 6 maps at (2,1) and 667 of the 720 at (2,2).
    The matched reference is taken first, with the true sigma."""
    states = enumerate_states(space)
    linear = sorted(symplectic._symplectic_closure(space)[1])
    matched = _matched_linear_perms(space, states, linear)
    _corrupt_the_composition(monkeypatch, lambda image, sigma: (image, 0))
    scanned, _, composed = stabilizer._scan_perms(space, states)
    assert scanned == linear
    assert np.count_nonzero((composed != matched).any(axis=1)) == wrong


def test_an_odd_composition_exponent_is_an_internal_fault(monkeypatch):
    """An odd sigma_A(G e_j) would need the correction i^odd, which no displacement
    gives, so the scan raises rather than compose a wrong permutation."""
    _corrupt_the_composition(monkeypatch, lambda image, sigma: (image, sigma + 1))
    with pytest.raises(AssertionError, match="odd exponent at e_1: no Pauli corrects it"):
        scan_for_witness(D2)


def test_no_witness_exists_on_two_qutrits():
    assert scan_for_witness(D3x2) is None


@pytest.mark.parametrize("space", [D2, D3, D2x2])
def test_a_scan_matches_only_the_generators_and_the_unit_shifts(monkeypatch, space):
    """The scan's quantum side matches the 3n - 1 generators of the symplectic closure
    and the 2n unit shifts in one call, 5n - 1 maps, not one map per symplectic matrix
    or displacement."""
    sizes = []
    original = stabilizer._quantum_perms

    def counting(space, spans, s_rows, shifts):
        sizes.append(len(s_rows))
        return original(space, spans, s_rows, shifts)

    monkeypatch.setattr(stabilizer, "_quantum_perms", counting)
    scan_for_witness(space)
    assert sizes == [5 * space.n - 1]


def test_a_unit_shift_that_disagrees_is_an_internal_fault(monkeypatch):
    """Weyl covariance makes the unit shifts agree, so a shift whose channel images are
    another unit's is caught, never reported as a witness."""
    original = stabilizer._channel_image

    def swapped(d, s_rows, c, m):
        return original(d, s_rows, (0, 1) if c == (1, 0) else c, m)

    monkeypatch.setattr(stabilizer, "_channel_image", swapped)
    message = re.escape("unit shift (1, 0) breaks Weyl covariance")
    with pytest.raises(AssertionError, match=message):
        scan_for_witness(D2)


def test_a_generator_that_merges_two_states_is_caught(monkeypatch):
    states = enumerate_states(D2)
    original = stabilizer.transform

    def merging(state, t):
        return original(states[0] if state == states[1] else state, t)

    monkeypatch.setattr(stabilizer, "transform", merging)
    with pytest.raises(AssertionError, match="merged two epistemic states"):
        scan_for_witness(D2)


X, Y, Z = (1, 0), (1, 1), (0, 1)


def _corrupt_channels(monkeypatch, corruptions):
    """Let ``corruptions[a](image_of, m)`` replace ``image_of(m)``, the pair (S m, e(m))
    that ``_channel_image`` gives for the point m under the unit shift m -> m + a at
    (2,1), a map the scan matches.  Its S = 1, and c = -a = a at d = 2."""
    original = stabilizer._channel_image
    identity = ((1, 0), (0, 1))

    def corrupted(d, s_rows, c, m):
        if s_rows == identity and c in corruptions:
            return corruptions[c](lambda x: original(d, s_rows, c, x), m)
        return original(d, s_rows, c, m)

    monkeypatch.setattr(stabilizer, "_channel_image", corrupted)


def _leave_the_state_set(image_of, m):
    image, e = image_of(m)  # Tr(Y rho) picks up a factor i, which no state's has
    return image, e + (m == Y)


def _merge_the_x_eigenstates(image_of, m):
    return image_of(Z if m == X else m)  # X's image reads as Z's


def test_a_unitary_that_leaves_the_state_set_is_caught(monkeypatch):
    _corrupt_channels(monkeypatch, {X: _leave_the_state_set})
    with pytest.raises(AssertionError, match="not exactly one quadrature state"):
        scan_for_witness(D2)


def test_a_map_that_merges_two_states_is_caught(monkeypatch):
    # No channel can merge states, so a broken map stands in.  Its X eigenstates land
    # where its Z eigenstates do, and its Y eigenstates leave the state set: the merge
    # is reported before the miss.
    def merge_and_leave(image_of, m):
        image, e = image_of(Z if m == X else m)
        return image, e + (m == Y)

    _corrupt_channels(monkeypatch, {X: merge_and_leave})
    with pytest.raises(AssertionError, match="merged two quadrature states"):
        scan_for_witness(D2)


def test_a_map_that_merges_states_inside_the_state_set_is_caught(monkeypatch):
    # Every image is a state, but each X eigenstate lands on a Z eigenstate's image.
    states = enumerate_states(D2)
    identity = ((1, 0), (0, 1))
    _corrupt_channels(monkeypatch, {X: _merge_the_x_eigenstates})
    with pytest.raises(AssertionError, match="merged two quadrature states"):
        stabilizer._quantum_perms(D2, _spans(D2, states), [identity], [X])


@pytest.mark.parametrize("earlier, later, message", [
    (_leave_the_state_set, _merge_the_x_eigenstates,
     "not exactly one quadrature state"),
    (_merge_the_x_eigenstates, _leave_the_state_set, "merged two quadrature states"),
])
def test_the_first_bad_map_in_map_order_is_reported(monkeypatch, earlier, later,
                                                    message):
    """The unit shift (1, 0) comes before (0, 1) in the scan's map order (the 2
    generators, then the 2 unit shifts at (2,1)); only the earlier bad map is reported,
    whether it misses the state set (and the later one merges) or the other way."""
    _corrupt_channels(monkeypatch, {(1, 0): earlier, (0, 1): later})
    with pytest.raises(AssertionError, match=message):
        scan_for_witness(D2)


# ---------------------------------------------------------------------------
# exact Born statistics against the dense engine
# ---------------------------------------------------------------------------


def _measurements(space):
    return [SharpMeasurement(space, v) for v in symplectic.enumerate_isotropic(space)
            if v.rank > 0]


def _route_matches_dense(triples):
    """The exact route against ``born`` on the dense state, channel and PVM of every
    (state, map or None, measurement) triple: the same labels in the same order, each
    probability a ``Fraction`` within 1e-9 of the dense one."""
    rhos, pvms, count = {}, {}, 0
    for state, t, meas in triples:
        if (state, t) not in rhos:
            rho = quadrature_state(state.space, state.known, state.valuation).rho
            rhos[state, t] = rho if t is None else clifford(state.space, t).apply(rho)
        if meas not in pvms:
            pvms[meas] = quadrature_pvm(meas.space, meas.measured)
        dense = born(rhos[state, t], pvms[meas])
        exact = exponents._exact_born(state, t, meas)
        assert list(exact) == list(dense)
        assert all(type(p) is Fraction for p in exact.values())
        assert max(abs(float(exact[u]) - dense[u]) for u in exact) < 1e-9
        count += 1
    return count


def test_exact_born_equals_the_dense_engine_on_every_triple_at_d2():
    maps = [None] + symplectic.enumerate_group(D2)
    triples = [(s, t, m) for s in enumerate_states(D2) for t in maps
               for m in _measurements(D2)]
    assert _route_matches_dense(triples) == 525


def test_exact_born_equals_the_dense_engine_at_d3_under_seeded_maps():
    rng = random.Random(31)
    maps = [None, SymplecticAffine(D3, Matrix.identity(D3.field, 2), D3.zero())]
    maps += [symplectic.random_symplectic_affine(D3, rng) for _ in range(40)]
    triples = [(s, t, m) for s in enumerate_states(D3) for t in maps
               for m in _measurements(D3)]
    assert _route_matches_dense(triples) == 13 * 42 * 4


@pytest.mark.parametrize("space, seed", [(D2x2, 41), (D3x2, 43), (D5x2, 47)])
def test_exact_born_equals_the_dense_engine_on_seeded_triples(space, seed):
    rng = random.Random(seed)
    states, measurements = enumerate_states(space), _measurements(space)
    triples = [(rng.choice(states),
                symplectic.random_symplectic_affine(space, rng) if rng.random() < 0.8
                else None,
                rng.choice(measurements)) for _ in range(300)]
    assert _route_matches_dense(triples) == 300


@pytest.mark.parametrize("space, differ", [(D2, 0), (D3, 0), (D5, 0), (D7, 0), (D2x2, 66)])
def test_exact_born_without_a_map_is_the_epistricted_statistics(space, differ):
    """Prepare and measure alone: on every (state, measurement) pair the exact Born
    statistics equal ``measure``'s, except at (2,2), where 66 of the 2,730 pairs
    differ.  ``measure`` lists only the possible outcomes, so only the nonzero
    entries are compared."""
    pairs = [(s, m) for s in enumerate_states(space) for m in _measurements(space)]
    mismatches = [(s, m) for s, m in pairs
                  if {u: p for u, p in exponents._exact_born(s, None, m).items() if p}
                  != dict(measure(s, m).items())]
    assert len(mismatches) == differ
    assert space != D2x2 or len(pairs) == 2730


@pytest.mark.parametrize("space", [D2, D2x2, D3, D5])
def test_the_sigma_walk_moves_the_points_as_s_does(space):
    """Walked per point for every symplectic matrix, ``_clifford_image`` sends m to
    S m, so its images permute the points; sigma_S vanishes everywhere at odd d and
    somewhere not at d = 2."""
    points = list(space.points())
    sigmas = []
    for s in symplectic.enumerate_symplectic(space):
        walked = [exponents._clifford_image(space.d, s.rows, m) for m in points]
        assert [image for image, _ in walked] == [s.matvec(m) for m in points]
        assert sorted(image for image, _ in walked) == points
        sigmas += [sigma for _, sigma in walked]
    assert any(sigmas) == (space.d == 2)


@pytest.mark.parametrize("space, seeded", [(D2, 0), (D3, 0), (D2x2, 60), (D3x2, 8)])
def test_the_sigma_walk_is_a_cocycle_on_every_pair(space, seeded):
    """sigma_S(a + b) = sigma_S(a) + sigma_S(b) + beta(S a, S b) - beta(a, b) on every
    pair of points, as U(S) W(a) W(b) U(S)^dag read both ways requires, whatever order
    the walk adds the unit vectors in: every symplectic matrix at (2,1) and (3,1),
    ``seeded`` random ones at (2,2) and (3,2)."""
    d = space.d
    order = exponents._weyl_lift(d)[0]
    beta = exponents._composition_exponent
    rng = random.Random(34)
    maps = ([symplectic.random_symplectic_affine(space, rng).s for _ in range(seeded)]
            if seeded else symplectic.enumerate_symplectic(space))
    points = list(space.points())
    for s in maps:
        walked = {m: exponents._clifford_image(d, s.rows, m) for m in points}
        for a in points:
            image_a, sigma_a = walked[a]
            for b in points:
                image_b, sigma_b = walked[b]
                image, sigma = walked[tuple((x + y) % d for x, y in zip(a, b))]
                assert image == tuple((x + y) % d for x, y in zip(image_a, image_b))
                assert sigma == (sigma_a + sigma_b + beta(d, image_a, image_b)
                                 - beta(d, a, b)) % order


@pytest.mark.parametrize("space, seeded", [(D2, 0), (D3, 0), (D2x2, 60), (D3x2, 30)])
def test_the_channel_image_is_the_dense_conjugation(space, seeded):
    """V W(m) V^dag = r^e W(S m) with (S m, e) from ``_channel_image``, for V the
    unitary of ``clifford`` on every point m: every affine map at (2,1) and (3,1),
    ``seeded`` random ones at (2,2) and (3,2).  At odd d the U(S) part sigma_S is 0."""
    d = space.d
    root = 1j if d == 2 else np.exp(2j * np.pi / d)
    rng = random.Random(34)
    maps = ([symplectic.random_symplectic_affine(space, rng) for _ in range(seeded)]
            if seeded else symplectic.enumerate_group(space))
    for t in maps:
        v = clifford(space, t).unitary
        c = tuple(-x % d for x in t.a)
        for m in space.points():
            image, e = exponents._channel_image(d, t.s.rows, c, m)
            assert image == t.s.matvec(m)
            assert d == 2 or exponents._clifford_image(d, t.s.rows, m)[1] == 0
            lhs = v @ weyl(space, m) @ v.conj().T
            assert np.max(np.abs(lhs - root ** e * weyl(space, image))) < 1e-10


def test_an_odd_moved_exponent_at_d2_is_an_internal_fault(monkeypatch):
    original = exponents._clifford_image

    def shifted(d, s_rows, m):
        image, sigma = original(d, s_rows, m)
        return image, sigma + 1

    monkeypatch.setattr(exponents, "_clifford_image", shifted)
    state = enumerate_states(D2)[1]
    t = SymplecticAffine(D2, Matrix(D2.field, ((0, 1), (1, 0))), D2.zero())
    with pytest.raises(AssertionError, match="not a real sign"):
        exponents._exact_born(state, t, _measurements(D2)[0])


def test_a_non_additive_character_is_an_internal_fault(monkeypatch):
    """Exponents that break the spread's law leave no outcome possible, and the sum
    check raises rather than report a distribution that does not sum to 1."""
    original = exponents._stabilizer_exponents
    calls = []

    def corrupted(space, generators):
        spread = original(space, generators)
        calls.append(spread)
        if len(calls) == 1:  # the state's spread, not the measurement's
            return {x: (lam + 1) % space.d if any(x) else lam for x, lam in spread.items()}
        return spread

    monkeypatch.setattr(exponents, "_stabilizer_exponents", corrupted)
    state = next(s for s in enumerate_states(D3) if s.known.basis == ((1, 0),))
    meas = SharpMeasurement.of_functional(D3, (1, 0))
    with pytest.raises(AssertionError, match="sum to 0"):
        exponents._exact_born(state, None, meas)


def test_exact_born_keeps_the_hilbert_space_cap():
    space = PhaseSpace(PrimeField(2), 8)
    state = EpistemicState.ignorance(space)
    meas = SharpMeasurement.of_functional(space, (1,) + (0,) * 15)
    with pytest.raises(SizeCapExceeded, match="Hilbert space"):
        exponents._exact_born(state, None, meas)
