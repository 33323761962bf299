"""Weyl algebra, metaplectic covariance, quadrature PVMs: the convention audit."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from epistrict.fields import RATIONALS, PrimeField
from epistrict.linalg import AffineSubspace, Matrix
from epistrict.epistemic import (
    SharpMeasurement,
    enumerate_states,
    measure,
)
from epistrict import quantum
from epistrict.stabilizer import _clifford_image, mermin_square
from epistrict.quantum import (
    born,
    born_table,
    chi,
    clifford,
    hilbert_dim,
    metaplectic,
    quadrature_projector,
    quadrature_pvm,
    quadrature_state,
    weyl,
    weyl_phase,
)
from epistrict.symplectic import (
    PhaseSpace,
    SizeCapExceeded,
    SymplecticAffine,
    UnsupportedOperation,
    enumerate_group,
    enumerate_isotropic,
    enumerate_symplectic,
    random_symplectic_affine,
    symp_inner,
)

D2 = PhaseSpace(PrimeField(2), 1)
D3 = PhaseSpace(PrimeField(3), 1)
D5 = PhaseSpace(PrimeField(5), 1)
D2_2 = PhaseSpace(PrimeField(2), 2)
D3_2 = PhaseSpace(PrimeField(3), 2)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def vectors(space):
    return [a for a in space.points()]


# ---------------------------------------------------------------------------
# characters and single-dof generators
# ---------------------------------------------------------------------------


def test_chi_conventions():
    assert chi(PrimeField(2), 1) == 1j
    assert chi(PrimeField(2), 2) == -1
    assert abs(chi(PrimeField(3), 1) - np.exp(2j * np.pi / 3)) < 1e-12
    assert abs(chi(RATIONALS, Fraction(1, 2)) - np.exp(0.5j)) < 1e-12


def _bits(values) -> bytes:
    """The exact bytes of a complex array, signed zeros included."""
    return np.ascontiguousarray(values).tobytes()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_roots_equal_the_former_character_formulas_bit_for_bit(d):
    # The formulas ``chi``, ``_pair_char`` and the Weyl phases wrote before they
    # shared ``_roots``: i^c and (-1)^c at d = 2, exp(2 pi i c / d) at odd d.
    order = 4 if d == 2 else d
    e = np.arange(-3 * order, 3 * order)
    roots = quantum._roots(d, e)
    assert roots.dtype == np.complex128
    if d == 2:
        old_chi = [1j ** (c % 4) for c in e.tolist()]
        old_pair = [float((-1) ** (c % 2)) for c in e.tolist()]
        old_weyl = quantum._I_POWERS[e % order]
    else:
        old_chi = [complex(np.exp(2j * np.pi * (c % d) / d)) for c in e.tolist()]
        old_pair = old_chi
        old_weyl = np.exp(2j * np.pi * (e % order) / d)
    assert _bits(roots) == _bits(np.array(old_chi)) == _bits(old_weyl)
    pair = quantum._pair_char(d, e)
    assert pair.dtype == np.complex128
    assert _bits(pair) == _bits(np.array(old_pair, dtype=complex))
    for c, want in zip(e.tolist(), old_chi):
        got = chi(PrimeField(d), c)
        assert type(got) is complex and _bits(np.array(got)) == _bits(np.array(want))
        assert _bits(quantum._roots(d, c)) == _bits(roots[c + 3 * order])


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (3, 2), (5, 2), (2, 4), (3, 4),
                                  (2, 6), (5, 3)])
def test_digits_list_the_points_in_order_and_codes_invert_them(d, m):
    points = list(itertools.product(range(d), repeat=m))
    if m % 2 == 0:
        assert points == list(PhaseSpace(PrimeField(d), m // 2).points())
    digits = quantum._digits(d, m)
    assert digits.dtype == np.int64
    assert np.array_equal(digits, np.array(points))
    assert np.array_equal(quantum._codes(d, digits), np.arange(d ** m))
    # Codes read the last axis, whatever the leading ones.
    stacked = np.stack([digits, digits[::-1]])
    assert np.array_equal(quantum._codes(d, stacked),
                          [np.arange(d ** m), np.arange(d ** m)[::-1]])


@pytest.mark.parametrize("d, dim", [(2, 2), (3, 2), (5, 2), (2, 4), (3, 4), (2, 6)])
def test_every_walk_step_adds_the_last_unit_vector_to_an_earlier_point(d, dim):
    """The sigma walk of ``_clifford_image``: each point b is an earlier point a plus
    the unit vector e_j of its last nonzero coordinate, and
    sigma_S(b) = sigma_S(a) + beta(S a, S e_j) - beta(a, e_j) for random symplectic S.
    At odd d both sides are 0, the beta terms cancelling since S keeps the form."""
    space = PhaseSpace(PrimeField(d), dim // 2)
    order = quantum._weyl_lift(d)[0]
    beta = quantum._composition_exponent
    rng = random.Random(34)
    points = list(space.points())
    for s in [random_symplectic_affine(space, rng).s for _ in range(6)]:
        walked = [_clifford_image(d, s.rows, m) for m in points]
        assert walked[0] == (space.zero(), 0)
        for b in range(1, len(points)):
            j = max(i for i in range(dim) if points[b][i])
            parent = b - d ** (dim - 1 - j)
            unit = tuple(int(i == j) for i in range(dim))
            assert points[parent] == tuple(x - y for x, y in zip(points[b], unit))
            (image, sigma), (parent_image, parent_sigma) = walked[b], walked[parent]
            column = s.matvec(unit)
            assert image == s.matvec(points[b]) == tuple(
                (x + y) % d for x, y in zip(parent_image, column))
            assert sigma == (parent_sigma + beta(d, parent_image, column)
                             - beta(d, points[parent], unit)) % order
            assert sigma == 0 or d == 2


def test_shift_example_d3():
    s = oracles.shift(3, 1)
    e0 = np.zeros(3)
    e0[0] = 1
    out = s @ e0
    assert out[2] == 1 and out[0] == 0 and out[1] == 0


def test_boost_doubled_character_d2():
    assert np.allclose(oracles.boost(2, 1), Z)


def test_weyl_recovers_paulis():
    assert np.allclose(weyl(D2, (0, 0)), np.eye(2))
    assert np.allclose(weyl(D2, (1, 0)), X)
    assert np.allclose(weyl(D2, (0, 1)), Z)
    assert np.allclose(weyl(D2, (1, 1)), Y)


def test_weyl_accepts_numpy_integers_but_not_floats_or_bools():
    assert np.array_equal(weyl(D3, np.array([1, 0])), weyl(D3, (1, 0)))
    assert np.array_equal(weyl(D3, np.array([4, -1], dtype=np.int64)), weyl(D3, (1, 2)))
    for bad in (np.array([1.0, 0.0]), (True, 0), (np.float64(1), 0)):
        with pytest.raises(TypeError, match="prime-field element must be an int"):
            weyl(D3, bad)


@pytest.mark.parametrize("a", [(1, 0, 1, 1), (1,), ()])
def test_weyl_rejects_a_vector_of_the_wrong_length(a):
    with pytest.raises(ValueError, match=f"length {len(a)} .* 2n = 2"):
        weyl(D2, a)


def _chain_weyl(space, a):
    """Reference route: the prefactored shift-boost product, tensored dof by dof."""
    d = space.d
    out = np.eye(1)
    for i in range(space.n):
        q, p = a[2 * i], a[2 * i + 1]
        if d == 2:
            prefactor = 1j ** ((q * p) % 4)
        else:
            prefactor = chi(space.field, -((d + 1) // 2) * q * p)
        out = np.kron(out, prefactor * oracles.shift(d, q) @ oracles.boost(d, p))
    return out


@pytest.mark.parametrize("space", [D2, D3, D5, D2_2, D3_2])
def test_monomial_weyl_matches_the_kron_chain(space):
    for a in vectors(space):
        assert np.max(np.abs(weyl(space, a) - _chain_weyl(space, a))) < 1e-12


# ---------------------------------------------------------------------------
# Weyl composition law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [D3, D5])
def test_composition_law_exhaustive_odd(space):
    ws = {a: weyl(space, a) for a in vectors(space)}
    fld = space.field
    for a, wa in ws.items():
        for b, wb in ws.items():
            target = weyl_phase(space, a, b) * ws[
                tuple(fld.reduce(x + y) for x, y in zip(a, b))]
            assert np.max(np.abs(wa @ wb - target)) < 1e-10


def test_composition_law_d2_phases_and_commutation():
    ws = {a: weyl(D2, a) for a in vectors(D2)}
    fld = D2.field
    allowed = [1, 1j, -1, -1j]
    for a, wa in ws.items():
        for b, wb in ws.items():
            prod = wa @ wb
            target = ws[tuple(fld.reduce(x + y) for x, y in zip(a, b))]
            phases = [p for p in allowed if np.max(np.abs(prod - p * target)) < 1e-10]
            assert len(phases) == 1
            sign = (-1) ** symp_inner(D2, a, b)
            assert np.max(np.abs(prod - sign * wb @ wa)) < 1e-10


def test_composition_exponents_and_mermin_signs_match_dense_products():
    """W(a) W(b) = r^beta(a, b) W(a + b) for every pair, r = i at d = 2 and omega at
    odd d; the Mermin square's exact signs are those of its dense products."""
    for space in (D2, D2_2, D3, D5):
        d, fld = space.d, space.field
        order = 4 if d == 2 else d
        ws = {a: weyl(space, a) for a in vectors(space)}
        for a, wa in ws.items():
            for b, wb in ws.items():
                beta = quantum._composition_exponent(d, a, b)
                assert type(beta) is int
                target = ws[tuple(fld.reduce(x + y) for x, y in zip(a, b))]
                assert 0 <= beta < order
                assert np.max(np.abs(wa @ wb
                                     - np.exp(2j * np.pi * beta / order) * target)) < 1e-10
                if d > 2:
                    assert weyl_phase(space, a, b) == chi(fld, beta)
    with pytest.raises(UnsupportedOperation, match="not a character"):
        weyl_phase(D2, (1, 0), (0, 1))

    report = mermin_square()
    lines = [list(row) for row in report.grid] + [list(col) for col in zip(*report.grid)]
    for line, sign in zip(lines, report.row_signs + report.col_signs):
        product = np.linalg.multi_dot([weyl(D2_2, m) for m in line])
        assert np.max(np.abs(product - sign * np.eye(4))) < 1e-10


@pytest.mark.parametrize("space", [D2, D2_2, D3, D5])
def test_composition_exponent_is_a_cocycle_with_the_symplectic_commutator(space):
    """beta is the exponent of a projective representation: it vanishes next to 0, is
    associative, beta(a, b) + beta(a + b, c) = beta(b, c) + beta(a, b + c), and its
    antisymmetric part is the commutator, W(a) W(b) = r^{k <a, b>} W(b) W(a), on every
    pair and triple of points."""
    d = space.d
    order, _, k = quantum._weyl_lift(d)
    beta = quantum._composition_exponent
    points = list(space.points())

    def add(a, b):
        return tuple((x + y) % d for x, y in zip(a, b))

    zero = space.zero()
    for a in points:
        assert beta(d, a, zero) == beta(d, zero, a) == 0
        for b in points:
            assert (beta(d, a, b) - beta(d, b, a)) % order == (
                k * symp_inner(space, a, b)) % order
            ab = beta(d, a, b)
            for c in points:
                assert (ab + beta(d, add(a, b), c)) % order == (
                    beta(d, b, c) + beta(d, a, add(b, c))) % order


def test_composition_law_random_two_dof():
    rng = random.Random(23)
    fld = D3_2.field
    for _ in range(200):
        a = tuple(rng.randrange(3) for _ in range(4))
        b = tuple(rng.randrange(3) for _ in range(4))
        lhs = weyl(D3_2, a) @ weyl(D3_2, b)
        rhs = weyl_phase(D3_2, a, b) * weyl(
            D3_2, tuple(fld.reduce(x + y) for x, y in zip(a, b)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("space", [D3, D5, D3_2])
def test_adjoint_is_negation_odd(space):
    fld = space.field
    for a in vectors(space):
        neg = tuple(fld.reduce(-x) for x in a)
        assert np.max(np.abs(weyl(space, a).conj().T - weyl(space, neg))) < 1e-10


@pytest.mark.parametrize("space", [D2, D2_2])
def test_weyls_hermitian_d2(space):
    for a in vectors(space):
        w = weyl(space, a)
        assert np.max(np.abs(w - w.conj().T)) < 1e-12


@pytest.mark.parametrize("space", [D2, D3, D2_2])
def test_traces_vanish_off_origin(space):
    dim = space.d ** space.n
    for a in vectors(space):
        tr = np.trace(weyl(space, a))
        expected = dim if not any(a) else 0.0
        assert abs(tr - expected) < 1e-10


def test_hilbert_dimension_cap():
    with pytest.raises(SizeCapExceeded):
        hilbert_dim(PhaseSpace(PrimeField(5), 4))
    with pytest.raises(UnsupportedOperation):
        hilbert_dim(PhaseSpace(RATIONALS, 1))


# ---------------------------------------------------------------------------
# metaplectic unitaries
# ---------------------------------------------------------------------------


def test_fourier_case_is_the_dft():
    j_mat = [[0, 1], [2, 0]]  # J over Z_3
    u = metaplectic(D3, j_mat)
    omega = np.exp(2j * np.pi / 3)
    dft = np.array([[omega ** (x * y) for x in range(3)] for y in range(3)]) / np.sqrt(3)
    assert np.max(np.abs(u - dft)) < 1e-10


def test_covariance_all_linear_maps_odd_d():
    """At odd d the construction is exactly covariant: no stray phases at all."""
    for space in (D3, D5):
        for s in enumerate_symplectic(space):
            u = metaplectic(space, s)
            for a in vectors(space):
                lhs = u @ weyl(space, a) @ u.conj().T
                rhs = weyl(space, s.matvec(a))
                assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_covariance_up_to_sign_d2():
    """U W(a) U^dag = i^sigma W(S a) on every point, with the one sign that the walk
    ``stabilizer._clifford_image`` gives: sigma vanishes on the unit vectors, and a sum
    of them can pick up the sign of a product."""
    for space in (D2, D2_2):
        flips = 0
        for s in enumerate_symplectic(space):
            u = metaplectic(space, s)
            for a in vectors(space):
                image, sigma = _clifford_image(2, s.rows, a)
                assert image == s.matvec(a)
                assert sigma in (0, 2)
                assert sigma == 0 or sum(a) > 1
                lhs = u @ weyl(space, a) @ u.conj().T
                assert np.max(np.abs(lhs - 1j ** sigma * weyl(space, image))) < 1e-10
                flips += sigma != 0
        assert flips > 0


def test_covariance_random_two_dof():
    rng = random.Random(5)
    for _ in range(5):
        t = random_symplectic_affine(D3_2, rng)
        u = metaplectic(D3_2, t.s)
        for _ in range(8):
            a = tuple(rng.randrange(3) for _ in range(4))
            lhs = u @ weyl(D3_2, a) @ u.conj().T
            rhs = weyl(D3_2, t.s.matvec(a))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_singular_momentum_block_is_handled():
    shear = [[1, 0], [1, 1]]
    u = metaplectic(D3, shear)
    s = Matrix(D3.field, shear)
    for a in vectors(D3):
        lhs = u @ weyl(D3, a) @ u.conj().T
        assert np.max(np.abs(lhs - weyl(D3, s.matvec(a)))) < 1e-9


@pytest.mark.parametrize("space", [D2_2, D3_2])
def test_covariance_check_catches_a_flipped_column(space):
    rng = random.Random(17)
    for _ in range(5):
        s = random_symplectic_affine(space, rng).s
        u = np.array(metaplectic(space, s))
        quantum._verify_generator_covariance(space, s, u)
        u[:, rng.randrange(len(u))] *= -1
        with pytest.raises(AssertionError, match="lost Weyl covariance"):
            quantum._verify_generator_covariance(space, s, u)


def test_metaplectic_rejects_non_symplectic():
    with pytest.raises(ValueError):
        metaplectic(D3, [[1, 0], [0, 2]])


def test_metaplectic_deterministic_and_cached():
    a = metaplectic(D5, [[1, 1], [0, 1]])
    b = metaplectic(D5, [[1, 1], [0, 1]])
    assert a is b  # same object back from the cache


def test_cached_metaplectic_is_read_only():
    u = metaplectic(D3, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        u[0, 0] = 0
    assert metaplectic(D3, [[1, 1], [0, 1]])[0, 0] == u[0, 0]


def test_metaplectic_cache_holds_only_the_requested_matrices(monkeypatch):
    monkeypatch.setattr(quantum, "_metaplectic_cache", {})
    requested = [[[1, 0], [1, 1]], [[1, 0], [2, 1]], [[2, 0], [0, 2]], [[0, 1], [2, 0]]]
    for s in requested:  # the first three have a zero momentum block
        metaplectic(D3, s)
    assert len(quantum._metaplectic_cache) == len(requested)


def test_metaplectic_keys_its_memo_on_the_canonical_matrix(monkeypatch):
    monkeypatch.setattr(quantum, "_metaplectic_cache", {})
    u = metaplectic(D3, Matrix.identity(D3.field, 2))
    assert metaplectic(D3, Matrix(D3.field, ((4, 0), (0, 1)))) is u
    assert metaplectic(D3, [[-2, 3], [0, 1]]) is u
    assert len(quantum._metaplectic_cache) == 1


def test_metaplectic_refuses_a_float_or_foreign_matrix_before_its_memo():
    metaplectic(D3, Matrix.identity(D3.field, 2))  # the identity is cached from here on
    for rows in (((1.0, 0), (0, 1)), [[1, 0], [0, 1.0]]):
        with pytest.raises(TypeError, match="prime-field element must be an int"):
            metaplectic(D3, rows)
    for field in (PrimeField(5), RATIONALS):
        with pytest.raises(ValueError, match="matrix is over .*, but the phase space is "
                                             "over PrimeField\\(3\\)"):
            metaplectic(D3, Matrix.identity(field, 2))


def test_metaplectic_cache_clears_at_its_limit(monkeypatch):
    monkeypatch.setattr(quantum, "_metaplectic_cache", {})
    monkeypatch.setattr(quantum, "_METAPLECTIC_CACHE_LIMIT", 2)
    for s in enumerate_symplectic(D3)[:5]:
        metaplectic(D3, s)
        assert len(quantum._metaplectic_cache) <= 2


# ---------------------------------------------------------------------------
# Clifford channels
# ---------------------------------------------------------------------------


def test_clifford_composition_projective():
    rng = random.Random(31)
    for _ in range(50):
        t1 = random_symplectic_affine(D3_2, rng)
        t2 = random_symplectic_affine(D3_2, rng)
        u12 = clifford(D3_2, t1.compose(t2)).unitary
        u1u2 = clifford(D3_2, t1).unitary @ clifford(D3_2, t2).unitary
        # Proportional with a unit phase: equal as superoperators.
        idx = np.unravel_index(np.argmax(np.abs(u12)), u12.shape)
        phase = u1u2[idx] / u12[idx]
        assert abs(abs(phase) - 1) < 1e-9
        assert np.max(np.abs(u1u2 - phase * u12)) < 1e-8


def test_clifford_superoperator_action_matches_composition():
    rng = random.Random(7)
    rand = np.array([[rng.random() + 1j * rng.random() for _ in range(3)]
                     for _ in range(3)])
    herm = rand + rand.conj().T
    t1 = random_symplectic_affine(D3, rng)
    t2 = random_symplectic_affine(D3, rng)
    once = clifford(D3, t1.compose(t2)).apply(herm)
    twice = clifford(D3, t1).apply(clifford(D3, t2).apply(herm))
    assert np.max(np.abs(once - twice)) < 1e-9


def test_cliffords_permute_single_bit_quadrature_states():
    states = [s for s in enumerate_states(D2) if s.is_pure()]
    rhos = [quadrature_state(D2, s.known, s.valuation).rho for s in states]
    for t in enumerate_group(D2):
        channel = clifford(D2, t)
        perm = []
        for rho in rhos:
            image = channel.apply(rho)
            matches = [k for k, other in enumerate(rhos)
                       if np.max(np.abs(image - other)) < 1e-10]
            assert len(matches) == 1
            perm.append(matches[0])
        assert sorted(perm) == list(range(len(rhos)))


# ---------------------------------------------------------------------------
# quadrature observables
# ---------------------------------------------------------------------------


def _dense_projector(space, f, t):
    """Reference route: the character sum (1/d) sum_s pair(t s) W(s Jf) of dense Weyls."""
    d = space.d
    jf = [x for q, p in zip(f[0::2], f[1::2]) for x in (p, -q % d)]
    out = np.zeros((d ** space.n,) * 2, dtype=complex)
    for s in range(d):
        out += quantum._pair_char(d, t * s) * weyl(space, [s * x % d for x in jf])
    return out / d


@pytest.mark.parametrize("space", [D2, D3, D5, D2_2])
def test_projector_matches_the_dense_character_sum(space):
    for f in vectors(space):
        if any(f):
            for t in range(space.d):
                got = quadrature_projector(space, f, t)
                assert np.max(np.abs(got - _dense_projector(space, f, t))) < 1e-13


@pytest.mark.parametrize("space", [D2_2, D3_2])
def test_pvm_is_the_product_of_dense_projectors_over_the_canonical_basis(space):
    """At d = 2 the canonical basis is part of the definition; this pins it."""
    d = space.d
    for v in enumerate_isotropic(space):
        pvm = quadrature_pvm(space, v)
        assert list(pvm) == SharpMeasurement(space, v).outcomes()
        for label, proj in pvm.items():
            want = np.eye(d ** space.n, dtype=complex)
            for f in v.basis:
                value = sum(int(x) * int(y) for x, y in zip(f, label)) % d
                want = want @ _dense_projector(space, f, value)
            assert np.max(np.abs(proj - want)) < 1e-13


def test_position_projectors_are_basis_projectors():
    for t in range(3):
        proj = quadrature_projector(D3, (1, 0), t)
        direct = np.zeros((3, 3), dtype=complex)
        direct[t, t] = 1
        assert np.max(np.abs(proj - direct)) < 1e-10


def test_momentum_projectors_are_fourier_conjugated_positions():
    # Functionals transform contragrediently: J maps the q-line PVM to the
    # (0,-1)-line PVM, so momentum value t comes from position value -t.
    f = metaplectic(D3, [[0, 1], [2, 0]])  # the DFT
    for t in range(3):
        pos = quadrature_projector(D3, (1, 0), (-t) % 3)
        mom = quadrature_projector(D3, (0, 1), t)
        assert np.max(np.abs(mom - f @ pos @ f.conj().T)) < 1e-10


@pytest.mark.parametrize("space", [D2, D3, D5])
def test_pvm_complete_orthogonal_every_functional(space):
    d = space.d
    for fvec in vectors(space):
        if not any(fvec):
            continue
        projs = [quadrature_projector(space, fvec, t) for t in range(d)]
        total = sum(projs)
        assert np.max(np.abs(total - np.eye(d))) < 1e-10
        for i, p in enumerate(projs):
            assert abs(np.trace(p).real - d ** (space.n - 1)) < 1e-10
            for k, q in enumerate(projs):
                target = p if i == k else np.zeros_like(p)
                assert np.max(np.abs(p @ q - target)) < 1e-10


def test_scaling_invariance_of_level_sets():
    # c*f measured at value c*t is the same projector as f at t.
    fld = D5.field
    f = (2, 3)
    for c in range(1, 5):
        for t in range(5):
            lhs = quadrature_projector(D5, tuple(fld.reduce(c * x) for x in f),
                                       fld.reduce(c * t))
            rhs = quadrature_projector(D5, f, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_commuting_iff_symplectically_orthogonal():
    vs = [a for a in vectors(D3) if any(a)]
    for f in vs:
        for g in vs:
            pf = quadrature_projector(D3, f, 1)
            pg = quadrature_projector(D3, g, 2)
            comm = np.max(np.abs(pf @ pg - pg @ pf))
            if symp_inner(D3, f, g) == 0:
                assert comm < 1e-10
            else:
                assert comm > 1e-3


def test_joint_projector_basis_independent_odd_d():
    rng = random.Random(13)
    lagrangians = [v for v in enumerate_isotropic(D3_2, rank=2)]
    cases = 0
    while cases < 10:
        v = lagrangians[rng.randrange(len(lagrangians))]
        val = tuple(rng.randrange(3) for _ in range(4))
        meas = SharpMeasurement(D3_2, v)
        label = meas.label_of(val)
        canonical = quadrature_pvm(D3_2, v)[label]
        # Rebuild from a scrambled basis of the same subspace.
        fld = D3_2.field
        b1, b2 = v.basis
        alt = [tuple(fld.reduce(x + y) for x, y in zip(b1, b2)), b2]
        if AffineSubspace.span(fld, alt, ambient=4) != v:
            continue
        prod = np.eye(9, dtype=complex)
        for f in alt:
            value = sum(int(fi) * int(li) for fi, li in zip(f, label)) % 3
            prod = prod @ quadrature_projector(D3_2, f, value)
        assert np.max(np.abs(prod - canonical)) < 1e-10
        cases += 1


def test_effect_transformation_law_odd_d():
    """The channel for m -> S m + a sends P_f(t) to P_{S^-T f}(t + (S^-T f)(a)):
    the functional transforms contragrediently and the displacement shifts the
    outcome the same way it shifts the phase-space cell {f = t}."""
    fld = D3.field
    j = Matrix(fld, [[0, 1], [2, 0]])
    for s in enumerate_symplectic(D3):
        s_inv_t = (j.T @ s.T @ j).T
        for a in [(0, 0), (1, 0), (2, 1)]:
            u = clifford(D3, SymplecticAffine(D3, s, a)).unitary
            for f in [(1, 0), (0, 1), (1, 1), (2, 1)]:
                f_new = s_inv_t.matvec(f)
                for t in range(3):
                    lhs = u @ quadrature_projector(D3, f, t) @ u.conj().T
                    shift_val = sum(int(x) * int(y) for x, y in zip(f_new, a)) % 3
                    rhs = quadrature_projector(D3, f_new, (t + shift_val) % 3)
                    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_quadrature_state_ranks():
    for s in enumerate_states(D3_2):
        qs = quadrature_state(D3_2, s.known, s.valuation)
        assert abs(np.trace(qs.rho).real - 1) < 1e-10
        # Purity reflects the classical rank: Tr rho^2 = d^(rank - n).
        purity = np.trace(qs.rho @ qs.rho).real
        assert abs(purity - 3.0 ** (s.rank - 2)) < 1e-10


def test_quadrature_state_refuses_a_non_isotropic_v_as_a_state():
    """A non-isotropic V is refused with the state's message, and the valuation is
    made canonical as a state's is."""
    both = AffineSubspace.span(D3.field, [(1, 0), (0, 1)], ambient=2)
    with pytest.raises(ValueError, match="known quadratures must span an isotropic"):
        quadrature_state(D3, both, (0, 0))
    q = AffineSubspace.span(D3.field, [(1, 0)], ambient=2)
    qs = quadrature_state(D3, q, (4, 2))
    assert qs.valuation == (1, 0) and np.array_equal(qs.rho, quadrature_state(D3, q, (1, 0)).rho)


def test_born_uniform_for_conjugate_quadrature():
    state = quadrature_state(D3, AffineSubspace.span(D3.field, [(1, 0)], ambient=2),
                             (0, 0))
    pvm = quadrature_pvm(D3, AffineSubspace.span(D3.field, [(0, 1)], ambient=2))
    probs = born(state.rho, pvm)
    assert all(abs(p - 1 / 3) < 1e-10 for p in probs.values())


def test_born_matches_classical_measure_spot():
    rng = random.Random(41)
    states = enumerate_states(D3)
    meas_subs = [v for v in enumerate_isotropic(D3, rank=1)]
    for _ in range(10):
        s = states[rng.randrange(len(states))]
        v = meas_subs[rng.randrange(len(meas_subs))]
        classical = measure(s, SharpMeasurement(D3, v))
        rho = quadrature_state(D3, s.known, s.valuation).rho
        quantum = born(rho, quadrature_pvm(D3, v))
        for label, p in quantum.items():
            assert abs(p - float(classical.probability(label))) < 1e-10


def test_born_matches_the_per_projector_trace():
    rng = random.Random(11)
    for space in (D3, D2_2, D3_2):
        states = enumerate_states(space)
        for v in enumerate_isotropic(space)[:6]:
            pvm = quadrature_pvm(space, v)
            s = states[rng.randrange(len(states))]
            t = random_symplectic_affine(space, rng)
            rho = quadrature_state(space, s.known, s.valuation).rho
            rho = clifford(space, t).apply(rho)
            probs = born(rho, pvm)
            assert list(probs) == list(pvm)
            for label, proj in pvm.items():
                assert abs(probs[label] - np.trace(rho @ proj).real) < 1e-12


def test_born_table_checks_every_stacked_pvm():
    pvms = [quadrature_pvm(D3, v) for v in enumerate_isotropic(D3)]
    projectors = np.stack([p for pvm in pvms for p in pvm.values()])
    starts = np.cumsum([0] + [len(pvm) for pvm in pvms])[:-1]
    rhos = np.stack([quadrature_state(D3, s.known, s.valuation).rho
                     for s in enumerate_states(D3)])
    table = born_table(rhos, projectors, starts)
    assert table.shape == (len(rhos), len(projectors))
    for i, rho in enumerate(rhos):
        assert np.allclose(table[i], [np.trace(rho @ p).real for p in projectors],
                           atol=1e-12)
    with pytest.raises(AssertionError, match="sum to"):
        born_table(rhos, projectors[:-1], starts)
    with pytest.raises(AssertionError, match="imaginary"):
        born_table(rhos + 0.1j * np.eye(3), projectors, starts)


def test_displaced_scenario_statistics_match_classical():
    """Transform-then-measure agrees through both routes, displacement included.

    Regression guard: the shift unitary translates kets opposite to outcome
    labels, so building the channel from W(+a) silently realizes m -> S m - a.
    """
    from epistrict.epistemic import transform
    rng = random.Random(53)
    states = enumerate_states(D3)
    meas_subs = [v for v in enumerate_isotropic(D3, rank=1)]
    for _ in range(12):
        s = states[rng.randrange(len(states))]
        t = random_symplectic_affine(D3, rng)
        v = meas_subs[rng.randrange(len(meas_subs))]
        classical = measure(transform(s, t), SharpMeasurement(D3, v))
        rho = quadrature_state(D3, s.known, s.valuation).rho
        evolved = clifford(D3, t).apply(rho)
        quantum = born(evolved, quadrature_pvm(D3, v))
        for label, p in quantum.items():
            assert abs(p - float(classical.probability(label))) < 1e-10


def test_zero_functional_rejected():
    with pytest.raises(ValueError):
        quadrature_projector(D3, (0, 0), 0)


@pytest.mark.parametrize("f", [(1, 0, 0), (1,)])
def test_projector_rejects_a_functional_of_the_wrong_length(f):
    with pytest.raises(ValueError, match=f"functional of length {len(f)}"):
        quadrature_projector(D3, f, 0)


def test_projector_constant_shifts_label():
    from epistrict.symplectic import QuadratureFunctional
    f_plain = quadrature_projector(D3, (1, 0), 2)
    f_const = quadrature_projector(
        D3, QuadratureFunctional(D3, (1, 0), c=1), 0)
    # f + 1 = 0 exactly when f = -1 = 2.
    assert np.max(np.abs(f_plain - f_const)) < 1e-12
