"""Epistemic states: enumeration, dynamics, sharp statistics."""

import random
import re
from fractions import Fraction

import pytest

import oracles
from epistrict import epistemic
from epistrict.fields import RATIONALS, PrimeField
from epistrict.linalg import AffineSubspace, Matrix
from epistrict.epistemic import (
    EpistemicState,
    OutcomeDistribution,
    SharpMeasurement,
    enumerate_states,
    measure,
    possible_values,
    transform,
)
from epistrict.symplectic import (
    PhaseSpace,
    SymplecticAffine,
    UnsupportedOperation,
    enumerate_group,
    enumerate_isotropic,
    is_isotropic,
    random_symplectic_affine,
    symplectic_form,
    transvection,
)

D2 = PhaseSpace(PrimeField(2), 1)
D3 = PhaseSpace(PrimeField(3), 1)
D5 = PhaseSpace(PrimeField(5), 1)
D2_2 = PhaseSpace(PrimeField(2), 2)
D3_2 = PhaseSpace(PrimeField(3), 2)
D5_2 = PhaseSpace(PrimeField(5), 2)


def q_state(space, value):
    return EpistemicState(
        space, AffineSubspace.span(space.field, [(1, 0)], ambient=2), (value, 0))


# ---------------------------------------------------------------------------
# states and enumeration
# ---------------------------------------------------------------------------


def test_state_counts_qutrit():
    states = enumerate_states(D3)
    assert len(states) == 13
    assert sum(1 for s in states if s.is_pure()) == 12
    assert sum(1 for s in states if s.rank == 0) == 1


def test_state_counts_bit():
    states = enumerate_states(D2)
    assert len(states) == 7
    assert sum(1 for s in states if s.is_pure()) == 6


def test_state_counts_two_bits():
    states = enumerate_states(D2_2)
    assert len(states) == 91
    assert sum(1 for s in states if s.is_pure()) == 60


def test_states_have_distinct_supports():
    states = enumerate_states(D2_2)
    supports = {s.support() for s in states}
    assert len(supports) == len(states)


def test_support_cardinality_law():
    for s in enumerate_states(D3_2):
        assert sum(1 for _ in s.support().points()) == 3 ** (4 - s.rank)


def test_outcomes_are_every_cell_label_in_order():
    for space in (D2, D3, D5, D2_2, D3_2):
        for v in enumerate_isotropic(space):
            m = SharpMeasurement(space, v)
            assert m.outcomes() == sorted({m.label_of(p) for p in space.points()})


@pytest.mark.parametrize("space", [D2, D3, D2_2, D3_2, D5, D5_2],
                         ids=["2,1", "3,1", "2,2", "3,2", "5,1", "5,2"])
def test_outcomes_read_the_zero_subspace_span_and_build_no_state(monkeypatch, space):
    """``outcomes`` lists the labels that the ignorance state's outcome route lists,
    without building that state (or any other) on the way; a warm call builds no
    ``AffineSubspace`` either, since the zero subspace is built once per space."""
    ms = [SharpMeasurement(space, v) for v in enumerate_isotropic(space)]
    ignorance = EpistemicState.ignorance(space)
    want = [epistemic._labels_and_weight(ignorance, m)[0] for m in ms]
    built = []
    post_init = EpistemicState.__post_init__
    subspace_post_init = AffineSubspace.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_subspace_post_init(self):
        built.append("AffineSubspace")
        subspace_post_init(self)

    monkeypatch.setattr(EpistemicState, "__post_init__", counting_post_init)
    epistemic._outcome_span.cache_clear()
    epistemic._zero_subspace.cache_clear()
    assert [m.outcomes() for m in ms] == want   # cold
    assert built == []
    monkeypatch.setattr(AffineSubspace, "__post_init__", counting_subspace_post_init)
    assert [m.outcomes() for m in ms] == want   # warm
    assert built == []
    EpistemicState.ignorance(space)              # the counters work
    assert "AffineSubspace" in built
    assert any(isinstance(b, EpistemicState) for b in built)


def test_self_skew_direction_still_gives_full_outcome_set():
    """V = span{(1,1)} over Z_2 contains its own perp; the coset parametrization
    still yields two distinct states whose own-quantity outcomes differ."""
    v = AffineSubspace.span(D2.field, [(1, 1)], ambient=2)
    states = [s for s in enumerate_states(D2) if s.known == v]
    assert len(states) == 2
    meas = SharpMeasurement(D2, v)
    outcomes = [measure(s, meas) for s in states]
    assert outcomes[0] != outcomes[1]
    for dist in outcomes:
        assert dist.is_deterministic()


def test_self_skew_direction_mod5():
    # (1,2) has <f,f-perp> degeneracy: 1*1 + 2*2 = 5 = 0 mod 5.
    v = AffineSubspace.span(D5.field, [(1, 2)], ambient=2)
    hidden_dir = [s for s in enumerate_states(D5) if s.known == v]
    assert len(hidden_dir) == 5
    assert len({s.support() for s in hidden_dir}) == 5


def test_invalid_known_rejected():
    with pytest.raises(ValueError):
        EpistemicState(D3_2, AffineSubspace.span(
            D3_2.field, [(1, 0, 0, 0), (0, 1, 0, 0)], ambient=4))


def test_from_support_roundtrip_and_rejection():
    for s in enumerate_states(D2_2):
        assert EpistemicState.from_support(D2_2, s.support()) == s
    bad = AffineSubspace.span(D2_2.field, [(0, 0, 1, 0), (0, 0, 0, 1)], ambient=4)
    with pytest.raises(ValueError):
        EpistemicState.from_support(D2_2, bad)  # would entail knowing q1 and p1 jointly
    with pytest.raises(ValueError):
        EpistemicState.from_support(D2, AffineSubspace.empty(D2.field, 2))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(5)])
def test_from_support_refuses_a_support_over_another_field(field):
    sup = AffineSubspace.span(field, [(1, Fraction(1, 2) if field is RATIONALS else 4)])
    with pytest.raises(ValueError, match=re.escape(
            f"subspace is over {field!r}, but the phase space is over PrimeField(3)")):
        EpistemicState.from_support(D3, sup)


def test_valuation_canonicalized_to_coset_representative():
    a = EpistemicState(D3, AffineSubspace.span(D3.field, [(1, 0)], ambient=2), (1, 0))
    b = EpistemicState(D3, AffineSubspace.span(D3.field, [(1, 0)], ambient=2), (1, 2))
    assert a == b  # (1,0) and (1,2) differ by (0,2) in V-perp
    assert a.valuation == (1, 0)


@pytest.mark.parametrize("valuation", [(1,), (1, 0, 0)])
def test_valuation_of_the_wrong_length_is_refused(valuation):
    known = AffineSubspace.span(D3.field, [(1, 0)], ambient=2)
    with pytest.raises(ValueError, match="length"):
        EpistemicState(D3, known, valuation)


def test_value_of_known_functional():
    epr = EpistemicState(
        D3_2,
        AffineSubspace.span(D3_2.field, [(1, 0, 2, 0), (0, 1, 0, 1)], ambient=4),
        (1, 0, 0, 0))
    assert epr.value_of((1, 0, 2, 0)) == 1   # q1 - q2
    assert epr.value_of((0, 1, 0, 1)) == 0   # p1 + p2
    assert epr.value_of((1, 1, 2, 1)) == 1   # sums of known are known
    with pytest.raises(ValueError):
        epr.value_of((1, 0, 0, 0))           # bare q1 is not known


def test_constructor_keeps_a_valuation_as_given_only_when_canonical():
    """Every valuation comes out as its coset's canonical representative, a tuple of
    canonical scalars: one given that way is kept, an outside ``(4, 0)`` at d = 3 or a
    list is reduced, and a bool or a wrong length is refused."""
    q = AffineSubspace.span(D3.field, [(1, 0)], ambient=2)
    for raw in ((4, 0), (-2, 3), [1, 0], (Fraction(4), 0), (1, 2), (1, 0)):
        st = EpistemicState(D3, q, raw)
        assert st.valuation == (1, 0) and all(type(x) is int for x in st.valuation)
    with pytest.raises(TypeError, match="must be an int"):
        EpistemicState(D3, q, (True, 0))
    with pytest.raises(ValueError, match="valuation of length 3"):
        EpistemicState(D3, q, (1, 0, 0))
    space = PhaseSpace(RATIONALS, 1)
    st = EpistemicState(space, AffineSubspace.span(RATIONALS, [(1, 0)], ambient=2), (2, 0))
    assert st.valuation == (2, 0) and all(type(x) is Fraction for x in st.valuation)


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------


def test_displacement_moves_position_state():
    t = SymplecticAffine.displacement(D3, (1, 0))
    assert transform(q_state(D3, 1), t) == q_state(D3, 2)


def test_swap_maps_position_to_momentum_state_d2():
    swap = SymplecticAffine(D2, Matrix(D2.field, [[0, 1], [1, 0]]))
    out = transform(q_state(D2, 0), swap)
    assert out.known == AffineSubspace.span(D2.field, [(0, 1)], ambient=2)
    assert out.valuation == (0, 0)


@pytest.mark.parametrize("space", [D2, D3])
def test_transform_permutes_the_state_set(space):
    states = enumerate_states(space)
    for t in enumerate_group(space):
        images = {transform(s, t) for s in states}
        assert images == set(states)


def test_transform_wrong_space_rejected():
    with pytest.raises(ValueError):
        transform(q_state(D3, 0), SymplecticAffine.identity(D2))


def test_transform_rational_epr():
    space = PhaseSpace(RATIONALS, 2)
    epr = EpistemicState(
        space,
        AffineSubspace.span(space.field, [(1, 0, -1, 0), (0, 1, 0, 1)], ambient=4),
        (Fraction(1, 2), 0, 0, 0))
    shear = SymplecticAffine(space, Matrix(space.field, [
        [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    out = transform(epr, shear)
    assert out.known.rank == 2
    # The map is a bijection on the ontic level, so supports have matching rank.
    assert out.support().rank == epr.support().rank


# ---------------------------------------------------------------------------
# sharp measurement statistics
# ---------------------------------------------------------------------------


def test_position_state_measured_in_momentum_is_uniform():
    dist = measure(q_state(D3, 1), SharpMeasurement.of_functional(D3, (0, 1)))
    assert [p for _, p in dist.items()] == [Fraction(1, 3)] * 3


def test_measuring_known_quantity_is_deterministic():
    state = q_state(D3, 2)
    dist = measure(state, SharpMeasurement.of_functional(D3, (1, 0)))
    assert dist.is_deterministic()
    (label, p), = dist.items()
    assert p == 1 and label == (2, 0)


def test_epr_correlations():
    epr = EpistemicState(
        D3_2,
        AffineSubspace.span(D3_2.field, [(1, 0, 2, 0), (0, 1, 0, 1)], ambient=4))
    both_q = SharpMeasurement(D3_2, AffineSubspace.span(
        D3_2.field, [(1, 0, 0, 0), (0, 0, 1, 0)], ambient=4))
    dist = measure(epr, both_q)
    assert len([k for k, _ in dist.items()]) == 3
    for label, p in dist.items():
        assert p == Fraction(1, 3)
        values = both_q.values_at(label)
        assert values[0] == values[1]  # q1 = q2 since q1 - q2 = 0 is known


def test_cells_partition_phase_space():
    meas = SharpMeasurement(D3_2, AffineSubspace.span(
        D3_2.field, [(1, 0, 2, 0), (0, 1, 0, 1)], ambient=4))
    total = 0
    for label in meas.outcomes():
        total += sum(1 for _ in meas.cell(label).points())
    assert total == 3 ** 4
    for point in D3_2.points():
        assert meas.cell(meas.label_of(point)).contains(point)


def test_label_of_names_a_point_of_the_wrong_length():
    meas = SharpMeasurement(D3_2, AffineSubspace.span(D3_2.field, [(1, 0, 2, 0)], ambient=4))
    with pytest.raises(ValueError, match="point of length 2 in dimension 4"):
        meas.label_of((1, 2))


@pytest.mark.parametrize("space", [D2_2, D3_2], ids=["2,2", "3,2"])
def test_values_at_kernel_equals_the_checked_route_on_every_label(space):
    """The kernel that ``run_scenario``, ``quadrature_pvm`` and ``possible_values``
    call on canonical labels gives ``values_at``'s values, and those are the dot
    products of the measured basis with the label."""
    fld = space.field
    for v in enumerate_isotropic(space):
        m = SharpMeasurement(space, v)
        for label in space.points():
            got = epistemic._values_at(m, label)
            assert got == m.values_at(label) == tuple(
                sum(a * b for a, b in zip(f, label)) % space.d for f in v.basis)
            assert all(type(x) is int and 0 <= x < fld.modulus for x in got)
        with pytest.raises(ValueError, match="label of length 3 on a phase space"):
            m.values_at((0, 0, 0))


def test_values_at_kernel_over_rationals():
    space = PhaseSpace(RATIONALS, 2)
    m = SharpMeasurement(space, AffineSubspace.span(
        RATIONALS, [(1, 0, -1, 0), (0, 1, 0, 1)], ambient=4))
    label = tuple(Fraction(k, 3) for k in (1, -2, 0, 5))
    got = epistemic._values_at(m, label)
    assert got == m.values_at(label) == (Fraction(1, 3), Fraction(1))
    assert all(type(x) is Fraction for x in got)


def test_probabilities_are_reciprocal_powers_of_d():
    rng = random.Random(3)
    states = enumerate_states(D3_2)
    meas_pool = [SharpMeasurement(D3_2, v) for v in enumerate_isotropic(D3_2)
                 if v.rank > 0]
    for _ in range(40):
        s = states[rng.randrange(len(states))]
        m = meas_pool[rng.randrange(len(meas_pool))]
        for _, p in measure(s, m).items():
            assert p.denominator in (1, 3, 9, 27, 81)
            assert (3 ** 4) % p.denominator == 0


def test_scenario_cross_route_and_ontic_oracle_exhaustive_d2():
    """Every (state, transform, measurement) triple over the single bit, measured
    after the transform and compared against raw ontic pushforward counting."""
    states = enumerate_states(D2)
    transforms = enumerate_group(D2)
    measurements = [SharpMeasurement(D2, v) for v in enumerate_isotropic(D2, rank=1)]
    for s in states:
        support_pts = list(s.support().points())
        for t in transforms:
            for m in measurements:
                got = measure(transform(s, t), m)
                raw = oracles.ontic_distribution(
                    2, support_pts, t.s.rows, t.a, m.measured.basis)
                translated = {m.values_at(label): p for label, p in got.items()}
                assert translated == raw


def test_scenario_matches_oracle_sampled_d3_two_dof():
    rng = random.Random(17)
    states = enumerate_states(D3_2)
    meas_pool = [SharpMeasurement(D3_2, v) for v in enumerate_isotropic(D3_2)
                 if v.rank > 0]
    for _ in range(25):
        s = states[rng.randrange(len(states))]
        t = random_symplectic_affine(D3_2, rng)
        m = meas_pool[rng.randrange(len(meas_pool))]
        got = measure(transform(s, t), m)
        raw = oracles.ontic_distribution(
            3, list(s.support().points()), t.s.rows, t.a, m.measured.basis)
        assert {m.values_at(k): p for k, p in got.items()} == raw


def test_measure_rejects_rationals():
    space = PhaseSpace(RATIONALS, 1)
    state = EpistemicState(space, AffineSubspace.span(space.field, [(1, 0)], ambient=2))
    with pytest.raises(UnsupportedOperation):
        measure(state, SharpMeasurement.of_functional(space, (0, 1)))


def test_outcome_distribution_validates():
    with pytest.raises(ValueError, match="sum to 1/2, not 1"):
        OutcomeDistribution({(0,): Fraction(1, 2)})
    with pytest.raises(ValueError, match="sum to 7/6, not 1"):
        OutcomeDistribution({(0,): Fraction(1, 2), (1,): Fraction(2, 3)})
    with pytest.raises(ValueError, match="negative probability"):
        OutcomeDistribution({(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})
    # Both faults: the sum error comes first.
    with pytest.raises(ValueError, match="sum to 1/2, not 1"):
        OutcomeDistribution({(0,): Fraction(3, 2), (1,): Fraction(-1, 1)})
    with pytest.raises(ValueError, match="sum to 0, not 1"):
        OutcomeDistribution({})
    dist = OutcomeDistribution({(0,): 1, (1,): 0})
    assert dist.items() == [((0,), Fraction(1))]
    assert type(dist.probability((0,))) is Fraction
    # A value object repeated, alone or between others, counts once per entry.
    quarter, half, zero = Fraction(1, 4), Fraction(1, 2), Fraction(0)
    with pytest.raises(ValueError, match="sum to 3/4, not 1"):
        OutcomeDistribution(dict.fromkeys([(0,), (1,), (2,)], quarter))
    mixed = OutcomeDistribution({(0,): quarter, (1,): half, (2,): zero, (3,): quarter,
                                 (4,): zero})
    assert mixed.items() == [((0,), quarter), ((1,), half), ((3,), quarter)]
    assert OutcomeDistribution(dict.fromkeys([(0,), (1,), (2,), (3,)], quarter)) == \
        OutcomeDistribution({(k,): Fraction(1, 4) for k in range(4)})


# ---------------------------------------------------------------------------
# possibilistic layer
# ---------------------------------------------------------------------------


def test_possibilistic_matches_probabilistic_support():
    """Possible labels and probabilities against brute-force cell counting.

    The support is rebuilt from the label (V, v) alone, as every x with f(x) = f(v) for
    f in V, and each support point is read by the measured functionals.
    """
    for space in (D3, D2_2):
        d, dim = space.d, space.dim
        identity = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        meas = [SharpMeasurement(space, v) for v in enumerate_isotropic(space)
                if v.rank > 0]
        for s in enumerate_states(space):
            rows = list(s.known.basis) or [(0,) * dim]
            values = [sum(f * x for f, x in zip(row, s.valuation)) % d for row in rows]
            support_pts = list(oracles.solve_set(d, rows, values))
            for m in meas:
                counted = oracles.ontic_distribution(
                    d, support_pts, identity, (0,) * dim, m.measured.basis)
                labels = [k for k, _ in measure(s, m).items()]
                assert labels == sorted(labels)
                assert sorted(m.values_at(k) for k in labels) == sorted(counted)
                assert {m.values_at(k): p for k, p in measure(s, m).items()} == counted


def _reach_labels(state, m):
    """Reference route: the outcome labels that lie in the reach support + V'-perp."""
    reach = oracles.reach(state, m)
    return [label for label in m.outcomes() if reach.contains(label)]


def _reach_values(state, m):
    """Reference route: the measured functionals applied to the reach support + V'-perp."""
    reach = oracles.reach(state, m)
    return AffineSubspace(state.space.field, m.measured.rank,
                          tuple(m.values_at(b) for b in reach.basis), m.values_at(reach.offset))


@pytest.mark.parametrize("space", [D2_2, D3_2, D5], ids=repr)
def test_possible_values_match_the_reach_route_on_every_pair(space):
    meas = [SharpMeasurement(space, v) for v in enumerate_isotropic(space) if v.rank > 0]
    for s in enumerate_states(space):
        for m in meas:
            assert possible_values(s, m) == _reach_values(s, m)


def _rational_isotropic(space, s, rng, require):
    """A seeded isotropic span of columns of the symplectic ``s``: per degree of
    freedom i, none, S e_{q_i} or S e_{p_i}; at least ``require`` of them."""
    while True:
        picks = [rng.choice((None, 0, 1)) for _ in range(space.n)]
        chosen = [2 * i + k for i, k in enumerate(picks) if k is not None]
        if len(chosen) >= require:
            break
    rows = [tuple(row[j] for row in s.rows) for j in chosen]
    return AffineSubspace.span(space.field, rows or [space.zero()], ambient=space.dim)


def test_possible_values_match_the_reach_route_over_rationals():
    """400 seeded rational states and measurements, n <= 3.  Half of the measurements
    share the state's symplectic frame, so partly known and sharp outcomes occur."""
    rng = random.Random(41)
    ranks = set()

    def small():
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))

    def frame(space):
        s = Matrix.identity(space.field, space.dim)
        for _ in range(3):
            s = s @ transvection(space, [rng.randrange(-2, 3) for _ in range(space.dim)],
                                 small())
        return s

    for _ in range(400):
        space = PhaseSpace(RATIONALS, rng.choice((1, 2, 3)))
        s = frame(space)
        state = EpistemicState(space, _rational_isotropic(space, s, rng, 0),
                               [small() for _ in range(space.dim)])
        m = SharpMeasurement(space, _rational_isotropic(
            space, s if rng.random() < 0.5 else frame(space), rng, 1))
        got = possible_values(state, m)
        assert got == _reach_values(state, m)
        assert all(type(x) is Fraction for x in got.offset)
        ranks.add((got.rank < m.measured.rank, got.rank == 0))
    assert ranks == {(False, False), (True, False), (True, True)}


def test_possible_values_refuses_another_space():
    with pytest.raises(ValueError, match="different phase space"):
        possible_values(q_state(D3, 0), SharpMeasurement.of_functional(D2, (0, 1)))


def _dense_transform(state, t):
    """Reference route: known rows through the dense products J^T (S (J f))."""
    space = state.space
    j = symplectic_form(space)
    known = AffineSubspace(space.field, space.dim,
                           tuple(j.T.matvec(t.s.matvec(j.matvec(f)))
                                 for f in state.known.basis))
    return EpistemicState(space, known, t.apply(state.valuation))


def _states_and_measurements(space, seeded):
    """Every state and measurement (rank 0 included), or seeded samples of them."""
    states = enumerate_states(space)
    meas = [SharpMeasurement(space, v) for v in enumerate_isotropic(space)]
    if seeded:
        rng = random.Random(space.d * 10 + space.n)
        states = [rng.choice(states) for _ in range(60)]
        meas = [rng.choice(meas) for _ in range(6)] + [meas[0]]
    return states, meas


@pytest.mark.parametrize("space, seeded", [
    (D2, False), (D3, False), (D2_2, False), (D3_2, True), (D5, True), (D5_2, True)])
def test_labels_and_measure_match_the_reach_route(space, seeded):
    """Once on a cleared outcome-span memo, once warm; the memo hands out tuples and
    the uniform probability only."""
    states, meas = _states_and_measurements(space, seeded)
    epistemic._outcome_span.cache_clear()
    misses = []
    for m in meas:
        assert m.outcomes() == sorted(m.outcomes())
    for _ in ("cold", "warm"):
        for s in states:
            for m in meas:
                want = _reach_labels(s, m)
                assert epistemic._labels_and_weight(s, m)[0] == want  # in outcome order
                got = measure(s, m)
                assert [k for k, _ in got.items()] == want
                assert got == OutcomeDistribution(
                    {label: Fraction(1, len(want)) for label in want})
        misses.append(epistemic._outcome_span.cache_info().misses)
    assert misses[0] > 0 and misses[1] == misses[0]  # the warm pass only hits
    for s in states:
        for m in meas:
            memo = epistemic._outcome_span(space, s.known, m.measured)
            assert type(memo) is tuple and len(memo) == 3
            for part in memo[:2]:
                assert type(part) is tuple
                assert all(type(row) is tuple for row in part)
            assert type(memo[2]) is Fraction and memo[2] == Fraction(1, len(memo[1]))


def test_warm_measure_builds_no_subspace(monkeypatch):
    """Once the outcome spans are memoized, a measure builds no AffineSubspace, by
    the constructor or the private route, and looks up no complement: a return to
    the subspace route fails here."""
    states = enumerate_states(D2_2)
    meas = [SharpMeasurement(D2_2, v) for v in enumerate_isotropic(D2_2)]
    calls = []
    post_init = AffineSubspace.__post_init__
    trusted = AffineSubspace._trusted
    complement = epistemic._euclidean_complement

    def counting_post_init(self):
        calls.append("AffineSubspace")
        post_init(self)

    def counting_trusted(*args):
        calls.append("AffineSubspace._trusted")
        return trusted(*args)

    def counting_complement(*args):
        calls.append("_euclidean_complement")
        return complement(*args)

    monkeypatch.setattr(AffineSubspace, "__post_init__", counting_post_init)
    monkeypatch.setattr(AffineSubspace, "_trusted", staticmethod(counting_trusted))
    monkeypatch.setattr(epistemic, "_euclidean_complement", counting_complement)
    epistemic._outcome_span.cache_clear()
    cold = [measure(s, m) for s in states for m in meas]
    # The counters work: a cold span is built by the private route.
    assert {"AffineSubspace._trusted", "_euclidean_complement"} <= set(calls)
    calls.clear()
    warm = [measure(s, m) for s in states for m in meas]
    assert calls == []
    assert warm == cold


def test_warm_measure_builds_its_distribution_without_resumming(monkeypatch):
    """A warm measure never enters ``OutcomeDistribution.__init__``: the uniform
    distribution is checked in O(1), not summed entry by entry."""
    states = enumerate_states(D2_2)
    meas = [SharpMeasurement(D2_2, v) for v in enumerate_isotropic(D2_2)]
    cold = [measure(s, m) for s in states for m in meas]
    entered = []
    init = OutcomeDistribution.__init__

    def counting_init(self, entries):
        entered.append(entries)
        init(self, entries)

    monkeypatch.setattr(OutcomeDistribution, "__init__", counting_init)
    warm = [measure(s, m) for s in states for m in meas]
    assert entered == []
    assert warm == cold
    OutcomeDistribution({(0,): 1})
    assert len(entered) == 1  # the counter works


def test_measure_refuses_an_inconsistent_uniform_probability(monkeypatch):
    """A memo that hands back p other than 1/len(labels) is refused with ValueError,
    an exception that ``python -O`` keeps."""
    state = EpistemicState.ignorance(D2_2)
    m = SharpMeasurement.of_functional(D2_2, (1, 0, 0, 0))
    assert len([k for k, _ in measure(state, m).items()]) == 2
    span = epistemic._outcome_span
    for bad in (Fraction(1, 3), Fraction(1, 4), Fraction(-1, 2), Fraction(0), Fraction(1)):
        monkeypatch.setattr(epistemic, "_outcome_span",
                            lambda *key, bad=bad: span(*key)[:2] + (bad,))
        with pytest.raises(ValueError, match=rf"uniform probability {bad} over 2 outcomes"):
            measure(state, m)


def test_warm_transform_builds_no_subspace_and_canonicalizes_once(monkeypatch):
    """Once the (V, S) images are memoized, a transform builds no AffineSubspace, and
    its valuation is made canonical by the one route every state takes: one
    ``_clear_pivots`` call, in the state constructor, and no ``representative``."""
    states = enumerate_states(D2_2)
    rng = random.Random(5)
    maps = [random_symplectic_affine(D2_2, rng) for _ in range(12)]
    epistemic._known_image.cache_clear()
    cold = [transform(s, t) for s in states for t in maps]
    calls = []
    post_init = AffineSubspace.__post_init__
    representative = AffineSubspace.representative
    clear_pivots = epistemic._clear_pivots

    def counting_post_init(self):
        calls.append("AffineSubspace")
        post_init(self)

    def counting_representative(self, x):
        calls.append("representative")
        return representative(self, x)

    def counting_clear_pivots(field, x, rows):
        calls.append("_clear_pivots")
        return clear_pivots(field, x, rows)

    monkeypatch.setattr(AffineSubspace, "__post_init__", counting_post_init)
    monkeypatch.setattr(AffineSubspace, "representative", counting_representative)
    monkeypatch.setattr(epistemic, "_clear_pivots", counting_clear_pivots)
    warm = [transform(s, t) for s in states for t in maps]
    assert calls == ["_clear_pivots"] * len(warm)
    assert warm == cold
    assert [s.valuation for s in warm] == [s.valuation for s in cold]


@pytest.mark.parametrize("space", [D2_2, D3_2, PhaseSpace(RATIONALS, 2)])
def test_known_image_miss_builds_no_matrix(monkeypatch, space):
    """A ``_known_image`` miss reads S's rows as they are: they come from a validated
    map, so no ``Matrix`` is rebuilt from them.  (A first pass fills the complement
    memo, whose own misses build matrices.)"""
    rng = random.Random(9)
    if space.field.is_finite:
        maps = [random_symplectic_affine(space, rng) for _ in range(6)]
        states = enumerate_states(space)[::7]
    else:
        maps = [SymplecticAffine(space, Matrix(space.field, rows), (Fraction(1, 2), 0, 3, 1))
                for rows in ([(1, 0, 0, 0), (Fraction(1, 3), 1, 0, 0), (0, 0, 1, 0),
                              (0, 0, 0, 1)],
                             [(0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 1, Fraction(2, 5)),
                              (0, 0, 0, 1)])]
        states = [EpistemicState(space, AffineSubspace.span(space.field, rows, ambient=4),
                                 (1, Fraction(1, 2), 0, 2))
                  for rows in ([], [(1, 0, 0, 0)], [(1, 0, 0, 0), (0, 0, 1, 0)])]
    want = [_dense_transform(s, t) for s in states for t in maps]
    assert [transform(s, t) for s in states for t in maps] == want
    built = []
    post_init = Matrix.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", counting_post_init)
    epistemic._known_image.cache_clear()
    moved = [transform(s, t) for s in states for t in maps]
    assert built == []
    assert epistemic._known_image.cache_info().misses == len(
        {(s.known, t.s.rows) for s in states for t in maps})
    assert moved == want
    Matrix.identity(space.field, space.dim)
    assert len(built) == 1  # the counter works


def _j(x):
    return tuple(e for q, p in zip(x[0::2], x[1::2]) for e in (p, -q))


def _jt(x):
    return tuple(e for q, p in zip(x[0::2], x[1::2]) for e in (-p, q))


def _rational_map(space, rng, size):
    """A word of 2n + 1 transvections with entries in {-1, 0, 1} and factors c whose
    numerator and denominator have up to log10(size) digits."""
    s = Matrix.identity(space.field, space.dim)
    for _ in range(space.dim + 1):
        u = [rng.choice((-1, 0, 0, 1)) for _ in range(space.dim)]
        if any(u):
            c = Fraction(rng.randrange(1, size + 1) * rng.choice((-1, 1)),
                         rng.randrange(1, size + 1))
            s = s @ transvection(space, u, c)
    return SymplecticAffine(space, s, [Fraction(rng.randrange(-size, size + 1),
                                                 rng.randrange(1, size + 1))
                                       for _ in range(space.dim)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rational_known_image_equals_the_fraction_route(n):
    """Over Q, ``_known_image``'s V' and [P S | P] rows equal the Fraction route: V'
    from the raw products J^T S J f, the complement from the oracle null space, and
    P [S | I] applied column by column; with one-digit and 50-digit factors."""
    space = PhaseSpace(RATIONALS, n)
    dim = space.dim
    rng = random.Random(30 + n)
    for size in (3, 10 ** 50):
        for _ in range(4):
            t = _rational_map(space, rng, size)
            axes = _rational_map(space, rng, size).s.rows
            # The images of the q axes under a symplectic map are isotropic.
            known_rows = [tuple(row[2 * i] for row in axes) for i in range(n)]
            for rank in range(n + 1):
                state = EpistemicState(space, AffineSubspace.span(
                    RATIONALS, known_rows[:rank], ambient=dim),
                    [Fraction(rng.randrange(-size, size), rng.randrange(1, size))
                     for _ in range(dim)])
                image, rows, _ = epistemic._known_image(space, state.known, t.s.rows)
                moved = [_jt([sum(a * b for a, b in zip(r, _j(f))) for r in t.s.rows])
                         for f in state.known.basis]
                reduced, pivots = oracles.rref_fraction(moved) if moved else ([], [])
                assert image.basis == tuple(reduced[:len(pivots)])
                hidden, pivots = oracles.rref_fraction(
                    oracles.null_space_fraction(image.basis, dim))
                aug = [tuple(r) + tuple(Fraction(int(i == j)) for j in range(dim))
                       for i, r in enumerate(t.s.rows)]
                assert list(rows) == oracles.pivot_clearing_rows_fraction(
                    hidden[:len(pivots)], aug)
                assert transform(state, t) == _dense_transform(state, t)


def _spy_on_private_routes(monkeypatch) -> list:
    """Record ``(args, result)`` for every object a private construction route builds."""
    built = []
    for cls in (AffineSubspace, Matrix, EpistemicState):
        def spy(*args, route=cls._trusted):
            out = route(*args)
            built.append((args, out))
            return out
        monkeypatch.setattr(cls, "_trusted", staticmethod(spy))
    return built


def _public_twin(args, out):
    """What the public constructor builds from a private route's arguments."""
    if type(out) is AffineSubspace:
        field, ambient, rows, *offset = args
        return AffineSubspace(field, ambient, tuple(rows), *offset)
    return Matrix(*args)


def _private_route_run(key):
    """``(space, pairs, chained)``: the (state, map) pairs to push through
    ``transform``, and whether each pair's state is the previous pair's result."""
    if key == "Q,2":
        space = PhaseSpace(RATIONALS, 2)
        rng = random.Random(47)
        state = EpistemicState(space, AffineSubspace.span(
            RATIONALS, [(1, 0, Fraction(1, 2), 0)], ambient=4), (Fraction(2, 3), -1, 0, 5))
        maps = [_rational_map(space, rng, size) for size in (3, 10 ** 20, 3, 10 ** 50)]
        return space, [(state, t) for t in maps], True
    space = {"2,1": D2, "3,1": D3, "2,2": D2_2, "3,2": D3_2}[key]
    states, _ = _states_and_measurements(space, seeded=key == "3,2")
    if key == "3,2":
        rng = random.Random(32)
        maps = [random_symplectic_affine(space, rng) for _ in range(8)]
    else:
        maps = enumerate_group(space)
        if key == "2,2":
            # Every S once, with the displacements in turn: every (V, S) pair of the
            # group, 65,520 pairs.  The other (2,2) pairs are criterion 7's: its sweep
            # looks each moved state up among the constructed states, by == and hash.
            maps = [maps[16 * k + k % 16] for k in range(len(maps) // 16)]
    return space, [(s, t) for t in maps for s in states], False


@pytest.mark.parametrize("key", ["2,1", "3,1", "2,2", "3,2", "Q,2"])
def test_private_routes_build_what_the_public_constructors_build(monkeypatch, key):
    """Every AffineSubspace, Matrix and EpistemicState that a private route builds
    on cold memos (moved states, their V' and V'-perp, the closure matrices, the
    support of every state met and, over Z_d, the outcome span of every (V, V')
    pair) equals, and hashes like, what the public constructor builds from the same
    arguments; the states are the moved ones, and each equals, and hashes like, the
    constructors' state of V' = span(J^T S J f) and S v + a from raw products.
    Equal V' are one instance."""
    space, pairs, chained = _private_route_run(key)
    for memo in (epistemic._known_image, epistemic._outcome_span, is_isotropic,
                 epistemic._euclidean_complement, epistemic._interned):
        memo.cache_clear()
    built = _spy_on_private_routes(monkeypatch)
    if space.field.is_finite and key != "3,2":
        enumerate_group(space)
    moves, state = [], pairs[0][0]
    for s, t in pairs:
        moved = transform(state if chained else s, t)
        moves.append((state if chained else s, t, moved))
        state = moved
    met = dict.fromkeys([s for s, _, _ in moves] + [moved for _, _, moved in moves])
    supports = [s.support() for s in met]
    if space.field.is_finite:
        subspaces = enumerate_isotropic(space)
        for v in subspaces:
            for w in subspaces:
                epistemic._outcome_span(space, v, w)
    monkeypatch.undo()
    states = [out for _, out in built if type(out) is EpistemicState]
    assert states == [moved for _, _, moved in moves]
    built = [entry for entry in built if type(entry[1]) is not EpistemicState]
    assert {type(out) for _, out in built} == {AffineSubspace, Matrix}
    for args, out in built:
        twin = _public_twin(args, out)
        assert out == twin and hash(out) == hash(twin), (args, out)
    shifted = [out for args, out in built if len(args) == 4]
    assert shifted == supports
    for s, sup in zip(met, supports):
        twin = AffineSubspace(space.field, space.dim,
                              epistemic._euclidean_complement(space, s.known).basis,
                              s.valuation)
        assert sup == twin and hash(sup) == hash(twin)
    images = {}
    for s, t, moved in moves:
        if (s.known, t.s.rows) not in images:
            images[s.known, t.s.rows] = AffineSubspace(space.field, space.dim, tuple(
                _jt([sum(a * b for a, b in zip(r, _j(f))) for r in t.s.rows])
                for f in s.known.basis))
        twin = EpistemicState(space, images[s.known, t.s.rows], t.apply(s.valuation))
        assert moved == twin and hash(moved) == hash(twin)
    held = [moved.known for _, _, moved in moves]
    assert len({id(v) for v in held}) == len(set(held))


def test_states_and_measurements_hold_one_instance_per_equal_subspace():
    """Constructed and moved states, measurements and the zero subspace that keys
    ``outcomes()`` hold one interned instance per equal subspace, so the memos keyed
    on them match by identity."""
    epistemic._interned.cache_clear()
    epistemic._zero_subspace.cache_clear()
    states = enumerate_states(D2_2)
    meas = [SharpMeasurement(D2_2, AffineSubspace.span(D2_2.field, v.basis, ambient=4))
            for v in enumerate_isotropic(D2_2)]
    rng = random.Random(11)
    moved = [transform(s, random_symplectic_affine(D2_2, rng)) for s in states]
    held = ([s.known for s in states + moved] + [m.measured for m in meas]
            + [epistemic._zero_subspace(D2_2)])
    assert len({id(v) for v in held}) == len(set(held)) == 31


def test_measure_and_transform_accept_an_equal_space_and_refuse_another():
    """The space check tests identity first, then equality: an equal but distinct
    PhaseSpace is the same space, and any other space is refused."""
    twin = PhaseSpace(PrimeField(2), 2)
    assert twin is not D2_2 and twin == D2_2
    rng = random.Random(8)
    maps = [random_symplectic_affine(D2_2, rng) for _ in range(3)]
    for s in enumerate_states(D2_2)[::9]:
        for t in maps:
            moved = transform(s, t)
            assert transform(s, SymplecticAffine(twin, t.s, t.a)) == moved
            for v in enumerate_isotropic(D2_2)[::5]:
                want = measure(moved, SharpMeasurement(D2_2, v))
                assert measure(moved, SharpMeasurement(twin, v)) == want
    state = enumerate_states(D2_2)[40]
    for other in (PhaseSpace(PrimeField(3), 2), PhaseSpace(RATIONALS, 2)):
        t = SymplecticAffine.identity(other)
        m = SharpMeasurement.of_functional(other, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="transformation acts on a different phase space"):
            transform(state, t)
        with pytest.raises(ValueError, match="measurement lives on a different phase space"):
            measure(state, m)


@pytest.mark.parametrize("space, seeded", [
    (D2, False), (D3, False), (D2_2, False), (D3_2, True), (D5, True), (D5_2, True)])
def test_transform_matches_the_dense_route(space, seeded):
    states, _ = _states_and_measurements(space, seeded)
    rng = random.Random(space.d * 100 + space.n)
    maps = [random_symplectic_affine(space, rng) for _ in range(8)]
    for s in states:
        for t in maps:
            got = transform(s, t)
            want = _dense_transform(s, t)
            assert got == want
            assert got.known.basis == want.known.basis
            assert got.valuation == want.valuation


def _oracle_support(state):
    return oracles.label_support(state.space.d, state.known.basis, state.valuation)


def _check_transform_is_pointwise_image(space, states, maps, closed):
    """``transform(s, t)`` has the pointwise image of s's support as its support, both
    supports enumerated from the label (V, v) by tests/oracles.py.  When ``closed``,
    ``states`` is every state of the space, so a moved state outside it is not
    canonical."""
    supports = {(s.known.basis, s.valuation): _oracle_support(s) for s in states}
    sources = [(s, tuple(supports[s.known.basis, s.valuation])) for s in states]
    for t in maps:
        image = oracles.affine_map_table(space.d, t.s.rows, t.a).__getitem__
        for s, source in sources:
            moved = transform(s, t)
            got = supports.get((moved.known.basis, moved.valuation))
            if got is None:
                assert not closed, f"{moved} is not one of the canonical states"
                got = supports[moved.known.basis, moved.valuation] = _oracle_support(moved)
            if got != frozenset(map(image, source)):
                raise AssertionError(f"{s} under {t} does not move to {moved}")


def _clear_classical_memos():
    for memo in (epistemic._known_image, is_isotropic, epistemic._euclidean_complement):
        memo.cache_clear()


@pytest.mark.parametrize("space, seeded", [
    (D2, False), (D3, False), (D3_2, True), (D5_2, True)])
def test_transform_is_the_pointwise_image_cold_and_warm(space, seeded):
    """Every pair at (2,1) and (3,1), seeded pairs at (3,2) and (5,2): once on cleared
    memos, once warm.  The warm pass meets only (V, S) pairs the cold one stored."""
    states, _ = _states_and_measurements(space, seeded)
    if seeded:
        rng = random.Random(space.d * 1000 + space.n)
        maps = [random_symplectic_affine(space, rng) for _ in range(8)]
    else:
        maps = enumerate_group(space)
    _clear_classical_memos()
    _check_transform_is_pointwise_image(space, states, maps, closed=not seeded)
    cold = epistemic._known_image.cache_info()
    assert cold.misses > 0
    _check_transform_is_pointwise_image(space, states, maps, closed=not seeded)
    assert epistemic._known_image.cache_info().misses == cold.misses


def test_transform_is_the_pointwise_image_on_a_slice_of_the_d2_two_dof_group():
    """All 91 states under the first 40 S of the (2,2) group, from cleared memos.  The
    group lists the 16 displacements of each S together, so each (V, S) is computed
    once and met warm on the other 15: 31 V x 40 S misses in all.  Every (2,2) pair is
    checked against its pointwise image on criterion 7's sweep
    (tests/test_acceptance.py)."""
    states = enumerate_states(D2_2)
    maps = enumerate_group(D2_2)[:40 * 16]
    assert all(t.s == maps[k - k % 16].s for k, t in enumerate(maps))
    _clear_classical_memos()
    _check_transform_is_pointwise_image(D2_2, states, maps, closed=True)
    info = epistemic._known_image.cache_info()
    assert info.misses == 31 * 40
    assert info.hits == len(states) * len(maps) - 31 * 40


def test_memos_refuse_bad_input_on_every_call():
    """The memos store results, never refusals: after a warm run each bad input is
    still refused, every time it is passed."""
    states = enumerate_states(D2_2)
    meas = [SharpMeasurement(D2_2, v) for v in enumerate_isotropic(D2_2)]
    rng = random.Random(3)
    maps = [random_symplectic_affine(D2_2, rng) for _ in range(4)]
    for _ in ("cold", "warm"):
        for s in states:
            for t in maps:
                moved = transform(s, t)
                for m in meas:
                    measure(moved, m)
    # {q1, p1} = 1, so q1 and p1 are not jointly knowable.
    q1_p1 = AffineSubspace.span(D2_2.field, [(1, 0, 0, 0), (0, 1, 0, 0)])
    other_ambient = AffineSubspace.span(D2_2.field, [(1, 0)])
    elsewhere = SharpMeasurement.of_functional(D2, (1, 0))
    over_z5 = AffineSubspace.span(PrimeField(5), [(1, 4)])
    over_q = AffineSubspace.span(RATIONALS, [(1, Fraction(1, 2))])
    for _ in range(3):
        for wrong, name in ((over_z5, r"PrimeField\(5\)"), (over_q, r"RationalField\(\)")):
            message = rf"subspace is over {name}, but the phase space is over PrimeField\(3\)"
            with pytest.raises(ValueError, match=message):
                is_isotropic(D3, wrong)
            with pytest.raises(ValueError, match=message):
                EpistemicState(D3, wrong)
            with pytest.raises(ValueError, match=message):
                SharpMeasurement(D3, wrong)
        assert not is_isotropic(D2_2, q1_p1)
        with pytest.raises(ValueError, match="isotropic"):
            EpistemicState(D2_2, q1_p1)
        with pytest.raises(ValueError, match="isotropic"):
            SharpMeasurement(D2_2, q1_p1)
        with pytest.raises(ValueError, match="ambient dimension 2"):
            is_isotropic(D2_2, other_ambient)
        with pytest.raises(ValueError, match="different phase space"):
            measure(states[0], elsewhere)


def test_transform_matches_the_dense_route_over_rationals():
    space = PhaseSpace(RATIONALS, 2)
    fld = space.field
    rng = random.Random(23)

    def small():
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))

    maps = []
    for _ in range(6):
        s = transvection(space, [rng.randrange(-2, 3) for _ in range(4)], small())
        s = s @ transvection(space, [rng.randrange(-2, 3) for _ in range(4)], small())
        maps.append(SymplecticAffine(space, s, [small() for _ in range(4)]))
    knowns = [[], [(1, 0, 0, 0)], [(0, 1, 0, 1)], [(1, 0, -1, 0), (0, 1, 0, 1)],
              [(1, 0, 0, 0), (0, 0, 1, 0)]]
    for rows in knowns:
        state = EpistemicState(
            space, AffineSubspace.span(fld, rows or [(0,) * 4], ambient=4),
            [small() for _ in range(4)])
        for t in maps:
            got = transform(state, t)
            assert got == _dense_transform(state, t)
            assert all(type(x) is Fraction for row in got.known.basis for x in row)
            assert all(type(x) is Fraction for x in got.valuation)
            state = got  # chain, so later maps see non-standard known spaces


def test_outcomes_refuse_rationals_and_measure_refuses_other_spaces():
    space = PhaseSpace(RATIONALS, 1)
    with pytest.raises(UnsupportedOperation, match="cannot enumerate outcomes over Q"):
        SharpMeasurement.of_functional(space, (0, 1)).outcomes()
    with pytest.raises(ValueError, match="different phase space"):
        measure(q_state(D3, 0), SharpMeasurement.of_functional(D2, (0, 1)))


@pytest.mark.parametrize("space, rows", [
    (D2, [(1, 0, 0, 0)]), (D2_2, [(1, 0)]), (D3, [(0, 0, 0)])])
def test_subspace_of_another_dimension_is_refused_at_construction(space, rows):
    wrong = AffineSubspace.span(space.field, rows)
    message = f"ambient dimension {len(rows[0])}.*dimension {space.dim}"
    with pytest.raises(ValueError, match=message):
        SharpMeasurement(space, wrong)
    with pytest.raises(ValueError, match=message):
        EpistemicState(space, wrong)


def test_possibilistic_rational_epr():
    space = PhaseSpace(RATIONALS, 2)
    epr = EpistemicState(
        space,
        AffineSubspace.span(space.field, [(1, 0, -1, 0), (0, 1, 0, 1)], ambient=4),
        (Fraction(1, 3), 0, 0, 0))
    # Measuring q1 alone: every outcome remains possible.
    q1 = SharpMeasurement.of_functional(space, (1, 0, 0, 0))
    assert oracles.reach(epr, q1) == AffineSubspace.full(space.field, 4)
    # Measuring both positions: outcomes confined to the line q1 - q2 = 1/3.
    both = SharpMeasurement(space, AffineSubspace.span(
        space.field, [(1, 0, 0, 0), (0, 0, 1, 0)], ambient=4))
    reach = oracles.reach(epr, both)
    assert reach.contains((Fraction(1, 3), 5, 0, -7))
    assert not reach.contains((0, 0, 0, 0))
    assert reach.rank == 3
    # Measuring the known sum p1 + p2: a single cell.
    psum = SharpMeasurement.of_functional(space, (0, 1, 0, 1))
    cell = oracles.reach(epr, psum)
    assert cell == psum.cell(epr.valuation)
