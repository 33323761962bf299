"""Point-operator algebra and the phase-space tables it induces."""

import random

import numpy as np
import pytest

import oracles
from epistrict import wigner
from epistrict.fields import PrimeField
from epistrict.linalg import AffineSubspace
from epistrict.symplectic import (
    PhaseSpace,
    SymplecticAffine,
    UnsupportedOperation,
    enumerate_group,
    enumerate_isotropic,
    random_symplectic_affine,
    symp_inner,
)
from epistrict.epistemic import (
    EpistemicState,
    OutcomeDistribution,
    SharpMeasurement,
    enumerate_states,
    measure,
    transform,
)
from epistrict.quantum import (
    TOL,
    _pair_char,
    clifford,
    quadrature_pvm,
    quadrature_state,
    weyl,
)
from epistrict.wigner import (
    classical_channel_table,
    classical_meas_table,
    classical_state_table,
    equivalence_suite,
    negativity,
    point_operators,
    verify_covariance,
    wigner_channel,
    wigner_meas,
    wigner_state,
)

D2 = PhaseSpace(PrimeField(2), 1)
D3 = PhaseSpace(PrimeField(3), 1)
D5 = PhaseSpace(PrimeField(5), 1)
D2x2 = PhaseSpace(PrimeField(2), 2)
D3x2 = PhaseSpace(PrimeField(3), 2)


def _eye(space):
    return np.eye(space.d ** space.n)


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2, D3x2])
def test_point_operators_have_unit_trace(space):
    basis = point_operators(space)
    for m in basis.points():
        assert abs(np.trace(basis.op(m)) - 1.0) < 1e-12


@pytest.mark.parametrize("space", [D2, D3, D2x2])
def test_point_operators_are_hermitian(space):
    basis = point_operators(space)
    for m in basis.points():
        a = basis.op(m)
        assert np.max(np.abs(a - a.conj().T)) < 1e-12


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2])
def test_point_operators_sum_to_dn_times_identity(space):
    basis = point_operators(space)
    total = sum(basis.ops)
    dn = space.d ** space.n
    assert np.max(np.abs(total - dn * _eye(space))) < 1e-10


@pytest.mark.parametrize("space", [D2, D3])
def test_point_operators_are_orthogonal(space):
    basis = point_operators(space)
    dn = space.d ** space.n
    for m in basis.points():
        for mp in basis.points():
            val = np.trace(basis.op(m) @ basis.op(mp))
            want = dn if m == mp else 0.0
            assert abs(val - want) < 1e-10


def test_point_operators_orthogonal_sampled_two_dofs():
    basis = point_operators(D3x2)
    pts = basis.points()
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = pts[rng.integers(len(pts))]
        mp = pts[rng.integers(len(pts))]
        val = np.trace(basis.op(m) @ basis.op(mp))
        want = 9.0 if m == mp else 0.0
        assert abs(val - want) < 1e-10


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2, D3x2])
def test_displaced_operators_match_direct_character_sum(space):
    """A(m) must equal the symplectic Fourier transform of the Weyl family."""
    basis = point_operators(space)
    d = space.d
    for m in basis.points():
        direct = sum(_pair_char(d, symp_inner(space, mp, m)) * weyl(space, mp)
                     for mp in space.points())
        direct /= d ** space.n
        assert np.max(np.abs(basis.op(m) - direct)) < 1e-12


def test_qubit_point_operators_are_signed_pauli_sums():
    basis = point_operators(D2)
    i2 = np.eye(2)
    x = weyl(D2, (1, 0))
    z = weyl(D2, (0, 1))
    y = weyl(D2, (1, 1))
    for q in range(2):
        for p in range(2):
            want = (i2 + (-1) ** p * x + (-1) ** (q + p) * y + (-1) ** q * z) / 2
            assert np.max(np.abs(basis.op((q, p)) - want)) < 1e-12


def test_point_operator_stack_is_read_only():
    basis = point_operators(D3x2)
    with pytest.raises(ValueError):
        basis.ops[0, 0, 0] = 0
    for m in basis.points():
        view = basis.op(m)
        assert np.shares_memory(view, basis.ops)
        with pytest.raises(ValueError):
            view[0, 0] = 0
    assert abs(np.trace(basis.op((0, 0, 0, 0))) - 1.0) < 1e-12


def test_op_reads_a_point_as_every_vector_argument_does():
    """``op`` checks its point with ``PhaseSpace.vector``: coordinates are read mod d,
    a float coordinate is refused, and a wrong length is named as a point's."""
    basis = point_operators(D3)
    assert np.array_equal(basis.op((4, 0)), basis.ops[basis.points().index((1, 0))])
    assert np.shares_memory(basis.op([4, -1]), basis.ops)
    with pytest.raises(TypeError):
        basis.op((1.0, 0))
    with pytest.raises(ValueError, match="point of length 1 on a phase space of dimension"):
        basis.op((1,))
    assert basis.points() is basis.points()


def test_a_basis_compares_and_hashes_by_identity():
    basis, again = point_operators(D3), point_operators(D3)
    assert basis == basis and basis != again
    assert hash(basis) == hash(basis)
    assert len({basis, basis, again}) == 2


# ---------------------------------------------------------------------------
# state tables
# ---------------------------------------------------------------------------


def test_maximally_mixed_state_table_is_uniform():
    basis = point_operators(D3)
    table = wigner_state(basis, np.eye(3) / 3)
    for val in table.values():
        assert abs(val - 1 / 9) < 1e-12


def test_quadrature_state_tables_match_classical_distributions_odd_d():
    basis = point_operators(D3)
    for state in enumerate_states(D3):
        rho = quadrature_state(D3, state.known, state.valuation).rho
        table = wigner_state(basis, rho)
        classical = classical_state_table(state)
        for m, val in table.items():
            assert abs(val - float(classical[m])) < 1e-12


def test_single_qubit_quadrature_states_match_classical_and_stay_nonnegative():
    basis = point_operators(D2)
    for state in enumerate_states(D2):
        rho = quadrature_state(D2, state.known, state.valuation).rho
        table = wigner_state(basis, rho)
        classical = classical_state_table(state)
        for m, val in table.items():
            assert abs(val - float(classical[m])) < 1e-12
            assert val > -1e-12


def test_bell_type_quadrature_state_goes_negative():
    state = EpistemicState(D2x2, _correlated_pair_plane(), (0, 0, 0, 0))
    rho = quadrature_state(D2x2, state.known, state.valuation).rho
    basis = point_operators(D2x2)
    table = wigner_state(basis, rho)
    smallest, where = negativity(table)
    assert smallest < -1e-12
    assert abs(table[where] - smallest) < 1e-15


def _correlated_pair_plane():
    from epistrict.linalg import AffineSubspace
    return AffineSubspace.span(PrimeField(2), [(1, 0, 1, 0), (0, 1, 0, 1)])


def test_negativity_reports_the_lexicographically_first_minimum():
    table = {(0, 1): -0.25, (1, 0): -0.25, (0, 0): 0.75, (1, 1): 0.75}
    smallest, where = negativity(table)
    assert smallest == -0.25
    assert where == (0, 1)


def test_negativity_finds_the_exact_minimum_and_reads_an_empty_table():
    # A later entry smaller by less than 1e-15 is still the minimum.
    below = -0.5 - 4e-16
    assert below < -0.5
    assert negativity({(0, 1): -0.5, (1, 0): below}) == (below, (1, 0))
    assert negativity({(1, 0): -0.5, (0, 1): -0.5}) == (-0.5, (0, 1))
    assert negativity({}) == (None, None)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def test_covariance_is_exact_for_every_affine_map_at_odd_d():
    basis = point_operators(D3)
    worst = 0.0
    for t in enumerate_group(D3):
        report = verify_covariance(basis, t)
        assert report.ok
        worst = max(worst, report.max_deviation)
    assert worst < 1e-10


@pytest.mark.parametrize("space, maps", [
    (D3, None), (D3x2, 40), (PhaseSpace(PrimeField(5), 2), 40)])
def test_image_positions_are_the_basis_index_of_each_image(space, maps):
    basis = point_operators(space)
    points = basis.points()
    assert list(points) == list(space.points()) and len(points) == len(basis.ops)
    position = {m: i for i, m in enumerate(points)}
    rng = random.Random(23)
    group = (enumerate_group(space) if maps is None
             else [random_symplectic_affine(space, rng) for _ in range(maps)])
    for t in group:
        want = [position[t.apply(m)] for m in space.points()]
        got = wigner._image_positions(basis, t)
        assert got.dtype == np.int64 and got.tolist() == want


def test_covariance_at_d2_holds_for_displacements_but_not_all_linear_maps():
    basis = point_operators(D2)
    for a in D2.points():
        t = SymplecticAffine.displacement(D2, a)
        assert verify_covariance(basis, t).ok
    failures = sum(0 if verify_covariance(basis, t).ok else 1
                   for t in enumerate_group(D2))
    assert failures > 0


# ---------------------------------------------------------------------------
# channel and measurement tables
# ---------------------------------------------------------------------------


def test_identity_channel_table_is_a_delta():
    basis = point_operators(D3)
    table = wigner_channel(basis, lambda op: op)
    for m_in, col in table.items():
        for m_out, val in col.items():
            want = 1.0 if m_in == m_out else 0.0
            assert abs(val - want) < 1e-10


def test_clifford_channel_table_is_the_permutation_kernel():
    t = SymplecticAffine(D3, _shear3(), (1, 2))
    basis = point_operators(D3)
    table = wigner_channel(basis, clifford(D3, t))
    classical = classical_channel_table(t)
    for m_in, col in table.items():
        for m_out, val in col.items():
            want = float(classical[m_in].get(m_out, 0))
            assert abs(val - want) < 1e-10


def _shear3():
    from epistrict.linalg import Matrix
    return Matrix(PrimeField(3), [(1, 0), (1, 1)])


def test_dephasing_channel_table_randomizes_momentum_only():
    basis = point_operators(D3)
    pvm = quadrature_pvm(D3, _position_line())

    def dephase(op):
        return sum(proj @ op @ proj for proj in pvm.values())

    table = wigner_channel(basis, dephase)
    for m_in, col in table.items():
        for m_out, val in col.items():
            want = 1 / 3 if m_out[0] == m_in[0] else 0.0
            assert abs(val - want) < 1e-10


def test_channel_must_map_the_whole_stack():
    with pytest.raises(ValueError, match="shape"):
        wigner_channel(point_operators(D3), lambda ops: ops[0])


def _position_line():
    from epistrict.linalg import AffineSubspace
    return AffineSubspace.span(PrimeField(3), [(1, 0)])


def test_position_measurement_table_is_the_cell_indicator():
    basis = point_operators(D3)
    meas = SharpMeasurement(D3, _position_line())
    table = wigner_meas(basis, quadrature_pvm(D3, _position_line()))
    classical = classical_meas_table(meas)
    for label, row in table.items():
        for m, val in row.items():
            assert abs(val - float(classical[label][m])) < 1e-10


def test_measurement_tables_sum_to_one_at_each_point_d5():
    from epistrict.linalg import AffineSubspace
    line = AffineSubspace.span(PrimeField(5), [(2, 3)])
    basis = point_operators(D5)
    table = wigner_meas(basis, quadrature_pvm(D5, line))
    for m in basis.points():
        assert abs(sum(table[label][m] for label in table) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# the equivalence engine
# ---------------------------------------------------------------------------


def test_equivalence_suite_on_a_mixed_sample_at_d3():
    states = enumerate_states(D3)
    transforms = enumerate_group(D3)[::18]     # 12 of the 216
    measurements = [SharpMeasurement(D3, v) for v in enumerate_isotropic(D3)]
    report = equivalence_suite(D3, states, transforms, measurements)
    assert report.ok
    assert report.n_triples == len(states) * len(transforms) * len(measurements)
    assert report.max_state_dev < 1e-12
    assert report.max_channel_dev < 1e-12
    assert report.max_meas_dev < 1e-12
    assert report.max_born_dev < 1e-12


def test_equivalence_suite_compares_every_kept_triple_once(monkeypatch):
    """Each distinct moved state is measured once per measurement, in order, every
    triple is still compared, and corrupting any one of those measurements must show."""
    states = enumerate_states(D3)[:3]
    transforms = enumerate_group(D3)[:4]
    measurements = [SharpMeasurement(D3, v) for v in enumerate_isotropic(D3, rank=1)]
    total = len(states) * len(transforms) * len(measurements)
    images = list(dict.fromkeys(transform(s, t) for s in states for t in transforms))
    distinct = len(images) * len(measurements)
    assert len(images) < len(states) * len(transforms)
    real_measure = wigner.measure
    calls = []
    assert equivalence_suite(D3, states, transforms, measurements).ok

    def measure_corrupting(bad):
        def fake(state, meas):
            calls.append((state, meas))
            dist = real_measure(state, meas)
            if len(calls) != bad:
                return dist
            least = min(meas.outcomes(), key=dist.probability)
            return OutcomeDistribution({least: 1})
        return fake

    for bad in range(1, distinct + 1):
        monkeypatch.setattr(wigner, "measure", measure_corrupting(bad))
        calls.clear()
        report = equivalence_suite(D3, states, transforms, measurements)
        assert (report.n_triples, len(calls)) == (total, distinct)
        assert calls == [(image, m) for image in images for m in measurements]
        assert not report.ok


def test_a_corrupted_moved_state_shows_on_exactly_the_triples_that_reach_it(monkeypatch):
    """Corrupting ``measure`` on one moved state changes the classical row of every
    triple whose transform lands on that state, in every measurement's columns, and
    of no other triple.  Each measurement has several outcomes, so the corruption
    always moves mass."""
    states = enumerate_states(D3)
    transforms = enumerate_group(D3)[::18]
    measurements = [SharpMeasurement(D3, v) for v in enumerate_isotropic(D3, rank=1)]
    chosen = transform(states[4], transforms[5])
    classical_born = wigner._classical_born
    recorded = []

    def recording(images, *rest):
        out = classical_born(images, *rest)
        recorded.append((images, out))
        return out

    monkeypatch.setattr(wigner, "_classical_born", recording)
    assert equivalence_suite(D3, states, transforms, measurements).ok
    clean = recorded[:]
    real_measure = wigner.measure

    def corrupting(state, meas):
        dist = real_measure(state, meas)
        if state != chosen:
            return dist
        return OutcomeDistribution({min(meas.outcomes(), key=dist.probability): 1})

    monkeypatch.setattr(wigner, "measure", corrupting)
    recorded.clear()
    assert not equivalence_suite(D3, states, transforms, measurements).ok
    assert len(recorded) == len(clean) == len(states)
    widths = [len(quadrature_pvm(D3, m.measured)) for m in measurements]
    bounds = np.cumsum([0] + widths).tolist()
    hits = 0
    for state, (images, got), (_, want) in zip(states, recorded, clean):
        assert images == [transform(state, t) for t in transforms]
        for image, got_row, want_row in zip(images, got, want):
            for a, b in zip(bounds, bounds[1:]):
                assert (not np.array_equal(got_row[a:b], want_row[a:b])) == (
                    image == chosen)
            hits += image == chosen
    assert hits > 1


def test_equivalence_suite_refuses_d2():
    with pytest.raises(UnsupportedOperation):
        equivalence_suite(D2, [], [], [])


def test_equivalence_spot_check_at_d5():
    states = enumerate_states(D5)[:4]
    f = PrimeField(5)
    from epistrict.linalg import AffineSubspace, Matrix
    transforms = [
        SymplecticAffine.identity(D5),
        SymplecticAffine(D5, Matrix(f, [(1, 0), (3, 1)]), (2, 4)),
    ]
    measurements = [SharpMeasurement(D5, AffineSubspace.span(f, [(0, 1)]))]
    report = equivalence_suite(D5, states, transforms, measurements)
    assert report.ok


# ---------------------------------------------------------------------------
# the suite's positional classical side against the per-label slow route
# ---------------------------------------------------------------------------


def _columns(pvms):
    """The suite's outcome columns: each PVM's labels at consecutive positions."""
    starts = np.cumsum([0] + [len(pvm) for pvm in pvms]).tolist()
    return [dict(zip(pvm, range(a, b))) for pvm, a, b in zip(pvms, starts, starts[1:])]


def _check_positional_rows(space, states, transforms, measurements):
    """The suite's position-written tables equal the exact tables read into floats one
    point or one label at a time, bit for bit."""
    basis = point_operators(space)
    points = basis.points()
    pvms = [quadrature_pvm(space, m.measured) for m in measurements]
    columns = _columns(pvms)
    for state in states:
        supports = wigner._indicator_rows(basis, [state.support()])
        assert np.array_equal(supports / supports.sum(axis=1, keepdims=True),
                              [oracles.dense_table(points, classical_state_table(state))])
        fast = wigner._classical_born([transform(state, t) for t in transforms],
                                      measurements, columns, {})
        dists = [[measure(transform(state, t), m) for m in measurements]
                 for t in transforms]
        assert np.array_equal(fast, oracles.per_label_born_rows(dists, pvms))
    for meas, pvm in zip(measurements, pvms):
        classical = classical_meas_table(meas)
        assert np.array_equal(
            wigner._indicator_rows(basis, [meas.cell(label) for label in pvm]),
            [oracles.dense_table(points, classical[label]) for label in pvm])


def test_positional_rows_equal_the_per_label_route_on_every_triple_at_d3():
    _check_positional_rows(D3, enumerate_states(D3), enumerate_group(D3),
                           [SharpMeasurement(D3, v) for v in enumerate_isotropic(D3)])


@pytest.mark.parametrize("space", [D3x2, D5], ids=["3,2", "5,1"])
def test_positional_rows_equal_the_per_label_route_on_seeded_triples(space):
    rng = random.Random(61)
    states = rng.sample(enumerate_states(space), 12)
    transforms = [random_symplectic_affine(space, rng) for _ in range(10)]
    isotropic = enumerate_isotropic(space)
    measurements = [SharpMeasurement(space, v) for v in rng.sample(isotropic, 6)]
    _check_positional_rows(space, states, transforms, measurements)


def test_a_label_the_pvm_lacks_shows_as_a_born_deviation(monkeypatch):
    """A distribution holding a label that no PVM has is read around, not looked up:
    its mass is missing from the classical row, so the report fails."""
    states = enumerate_states(D3)[:2]
    transforms = enumerate_group(D3)[:3]
    measurements = [SharpMeasurement(D3, _position_line())]
    assert equivalence_suite(D3, states, transforms, measurements).ok
    monkeypatch.setattr(wigner, "measure",
                        lambda state, meas: OutcomeDistribution({(1, 1, 1): 1}))
    report = equivalence_suite(D3, states, transforms, measurements)
    # Every quantum row still holds its outcomes' probabilities, at least 1/3 each.
    assert not report.ok and report.max_born_dev > 0.3


def test_channel_batches_do_not_change_the_report(monkeypatch):
    """Splitting the stacked channel tables into smaller batches, evenly or with a
    short last batch, leaves the report as it is; so does one map per batch."""
    states = enumerate_states(D3)
    transforms = enumerate_group(D3)
    measurements = [SharpMeasurement(D3, v) for v in enumerate_isotropic(D3)]
    image_rows = wigner._image_rows
    batches = []

    def counting_image_rows(basis, images):
        batches.append(len(images) // len(basis.ops))
        return image_rows(basis, images)

    monkeypatch.setattr(wigner, "_image_rows", counting_image_rows)
    whole = equivalence_suite(D3, states, transforms, measurements)
    assert whole.ok and batches == [216]
    per_map = 9 * 3 * 3
    for cap, want in [(5 * per_map, [5] * 43 + [1]), (8 * per_map + 1, [8] * 27),
                      (1, [1] * 216)]:
        monkeypatch.setattr(wigner, "IMAGE_BATCH", cap)
        batches.clear()
        assert equivalence_suite(D3, states, transforms, measurements) == whole
        assert batches == want


def test_classical_tables_are_normalized():
    state = enumerate_states(D3)[5]
    assert sum(classical_state_table(state).values()) == 1
    t = SymplecticAffine.displacement(D3, (1, 2))
    for col in classical_channel_table(t).values():
        assert sum(col.values()) == 1
    meas = SharpMeasurement(D3, _position_line())
    table = classical_meas_table(meas)
    for m in D3.points():
        assert sum(table[k][tuple(m)] for k in table) == 1


# ---------------------------------------------------------------------------
# the stacked tables against the per-point trace loops
# ---------------------------------------------------------------------------


def _loop_state(basis, rho):
    dim = rho.shape[0]
    out = {}
    for m in basis.points():
        val = np.trace(rho @ basis.op(m))
        if abs(val.imag) > TOL:
            raise AssertionError("state table entry has an imaginary part")
        out[m] = float(val.real) / dim
    return out


def _loop_meas(basis, pvm):
    out = {}
    for label, proj in pvm.items():
        row = {}
        for m in basis.points():
            val = np.trace(proj @ basis.op(m))
            if abs(val.imag) > TOL:
                raise AssertionError("effect table entry has an imaginary part")
            row[m] = float(val.real)
        out[label] = row
    return out


def _loop_channel(basis, channel):
    dim = basis.op(basis.points()[0]).shape[0]
    out = {}
    for m_in in basis.points():
        image = channel(basis.op(m_in))
        col = {}
        for m_out in basis.points():
            val = np.trace(basis.op(m_out) @ image)
            if abs(val.imag) > TOL:
                raise AssertionError("channel table entry has an imaginary part")
            col[m_out] = float(val.real) / dim
        out[m_in] = col
    return out


def _loop_covariance(basis, t):
    channel = clifford(basis.space, t)
    worst = 0.0
    failures = []
    for m in basis.points():
        dev = float(np.max(np.abs(channel.apply(basis.op(m))
                                  - basis.op(tuple(t.apply(m))))))
        worst = max(worst, dev)
        if dev > TOL:
            failures.append(m)
    return worst, tuple(failures)


def _nested_dev(fast, slow):
    assert list(fast) == list(slow)
    worst = 0.0
    for key, row in slow.items():
        assert list(fast[key]) == list(row)
        worst = max(worst, max(abs(fast[key][m] - v) for m, v in row.items()))
    return worst


def _dephasing(space):
    """Dephasing in the position of the first degree of freedom (not unitary)."""
    line = AffineSubspace.span(space.field, [(1,) + (0,) * (space.dim - 1)])
    pvm = quadrature_pvm(space, line)
    return lambda op: sum(proj @ op @ proj for proj in pvm.values())


@pytest.mark.parametrize("space", [D2, D3, D5, D2x2, D3x2])
def test_stacked_tables_match_the_per_point_loops(space):
    rng = random.Random(97)
    basis = point_operators(space)
    states = enumerate_states(space)
    for state in rng.sample(states, min(len(states), 25)):
        rho = quadrature_state(space, state.known, state.valuation).rho
        fast, slow = wigner_state(basis, rho), _loop_state(basis, rho)
        assert list(fast) == list(slow)
        assert max(abs(fast[m] - v) for m, v in slow.items()) <= 1e-12
    isotropic = enumerate_isotropic(space)
    for v in rng.sample(isotropic, min(len(isotropic), 12)):
        pvm = quadrature_pvm(space, v)
        assert _nested_dev(wigner_meas(basis, pvm), _loop_meas(basis, pvm)) <= 1e-12
    channels = [clifford(space, random_symplectic_affine(space, rng)) for _ in range(3)]
    for channel in channels + [_dephasing(space)]:
        fast = wigner_channel(basis, channel)
        assert _nested_dev(fast, _loop_channel(basis, channel)) <= 1e-12
    for _ in range(6):
        t = random_symplectic_affine(space, rng)
        report = verify_covariance(basis, t)
        worst, failures = _loop_covariance(basis, t)
        assert abs(report.max_deviation - worst) <= 1e-12
        assert report.ok == (not failures)
        if space.d == 2:
            assert report.failures == failures


def test_covariance_failures_match_the_loop_on_every_qubit_map():
    basis = point_operators(D2)
    for t in enumerate_group(D2):
        assert verify_covariance(basis, t).failures == _loop_covariance(basis, t)[1]


@pytest.mark.parametrize("table", ["state", "meas", "channel"])
def test_non_hermitian_input_still_raises(table):
    basis = point_operators(D3)
    pvm = quadrature_pvm(D3, _position_line())
    skewed = {label: proj + 0.1j * np.eye(3) for label, proj in pvm.items()}
    calls = {
        "state": (wigner_state, _loop_state, np.eye(3) / 3 + 0.1j * np.eye(3)),
        "meas": (wigner_meas, _loop_meas, skewed),
        "channel": (wigner_channel, _loop_channel, lambda op: op + 0.1j * op @ op),
    }
    fast, slow, arg = calls[table]
    for route in (fast, slow):
        with pytest.raises(AssertionError, match="imaginary part"):
            route(basis, arg)
