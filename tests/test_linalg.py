"""Exact linear algebra: frozen examples, brute-force cross-checks, canonical forms."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epistrict.epistemic import EpistemicState, enumerate_states, transform
from epistrict.fields import MAX_MODULUS, RATIONALS, PrimeField, SizeCapExceeded, _is_prime
from epistrict.linalg import (
    AffineSubspace,
    Matrix,
    _clear_pivots,
    _pivot_clearing_rows,
    _rref_rows,
    null_space,
    rref,
    solve_affine,
    vec,
    vec_dot,
)
from epistrict.symplectic import (
    PhaseSpace,
    SymplecticAffine,
    enumerate_isotropic,
    symplectic_form,
    transvection,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# scalar layer
# ---------------------------------------------------------------------------


def test_prime_field_requires_prime_modulus():
    # 561 is a Carmichael number; 3215031751 fools Miller-Rabin on bases 2, 3, 5, 7.
    for bad in (0, 1, 4, 6, 9, 12, 561, 3215031751):
        with pytest.raises(ValueError):
            PrimeField(bad)
    PrimeField(7919)  # large primes accepted
    assert PrimeField(2 ** 61 - 1).modulus == 2 ** 61 - 1


def test_prime_field_refuses_a_non_int_modulus():
    # A float modulus used to equal and hash like the int one, with float elements.
    for bad in (3.0, Fraction(3), "3", True, False):
        with pytest.raises(TypeError, match="modulus must be an int"):
            PrimeField(bad)
    field = PrimeField(np.int64(3))
    assert type(field.modulus) is int and field == PrimeField(3)
    assert type(field.element(4)) is int and field.inv(2) == 2


def test_primality_agrees_with_trial_division_below_10_000():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(10_000) if _is_prime(n)] == [
        n for n in range(10_000) if trial(n)]


def test_prime_field_refuses_moduli_past_the_exact_test():
    # MAX_MODULUS is the least strong pseudoprime to every fixed base, so the test
    # passes it although it is composite; it and everything above it is refused.
    assert MAX_MODULUS == 399165290221 * 798330580441 and _is_prime(MAX_MODULUS)
    for big in (MAX_MODULUS, 2 ** 89 - 1):
        with pytest.raises(SizeCapExceeded):
            PrimeField(big)


def test_prime_field_canonical_representatives():
    assert F3.element(-1) == 2
    assert F3.element(7) == 1
    assert F5.inv(3) == 2  # 3 * 2 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        F2.inv(0)


def test_rationals_reject_floats_and_reduce():
    with pytest.raises(TypeError):
        RATIONALS.element(0.5)
    x = RATIONALS.element(Fraction(4, -6))
    assert (x.numerator, x.denominator) == (-2, 3)


def test_rationals_refuse_bools_as_prime_fields_do():
    # True would otherwise read as Fraction(1) over Q, where Z_d refuses it.
    for coerce in (lambda: RATIONALS.element(True),
                   lambda: vec(RATIONALS, [True, 0]),
                   lambda: PhaseSpace(RATIONALS, 1).vector((True, 0), "x")):
        with pytest.raises(TypeError, match="rational element must be .* got True"):
            coerce()


def test_rationals_pass_fractions_through_unchanged():
    f = Fraction(-2, 3)
    assert RATIONALS.element(f) is f
    assert RATIONALS.reduce(f) is f
    assert RATIONALS.zero is RATIONALS.zero and RATIONALS.one is RATIONALS.one
    assert (RATIONALS.zero, RATIONALS.one) == (Fraction(0), Fraction(1))
    assert type(RATIONALS.reduce(3)) is Fraction


def test_prime_field_accepts_compatible_fractions():
    # Scenario files may carry rational literals; 1/2 means inv(2) when it exists.
    assert F3.element(Fraction(1, 2)) == 2
    assert F5.element(Fraction(3, 4)) == F5.reduce(3 * F5.inv(4))
    assert F5.element(Fraction(-1, 2)) == 2
    # A denominator divisible by d has no image in Z_d: an input error, not a crash.
    for fld, bad in ((F3, Fraction(1, 3)), (F3, Fraction(2, 9)), (F5, Fraction(4, 5))):
        with pytest.raises(ValueError, match=f"{bad}.*Z_{fld.modulus}"):
            fld.element(bad)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


def test_rref_dependent_rows_mod3():
    m = Matrix(F3, [[1, 2], [2, 4]])
    echelon, rank = rref(m)
    assert rank == 1
    assert echelon.rows == ((1, 2), (0, 0))


def test_rref_rational_proportional_rows():
    m = Matrix(RATIONALS, [[1, Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 6)]])
    echelon, rank = rref(m)
    assert rank == 1
    assert echelon.rows[0] == (Fraction(1), Fraction(1, 2))
    assert all(x == 0 for x in echelon.rows[1])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_rref_preserves_row_space_exhaustively(d):
    """Row space of the echelon form equals that of the input, as point sets.

    Exhaustive over small shapes; the comparison set is built by the raw-combination
    oracle, which never row-reduces.
    """
    field = PrimeField(d)
    shapes = [(1, 2), (2, 2), (2, 3)] if d == 5 else [(1, 2), (2, 2), (3, 2), (2, 3)]
    for nrows, ncols in shapes:
        seen = 0
        for flat in product(range(d), repeat=nrows * ncols):
            rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
            echelon, rank = rref(Matrix(field, rows))
            before = oracles.combo_set(d, rows, (0,) * ncols)
            after = oracles.combo_set(d, echelon.rows, (0,) * ncols)
            assert before == after
            assert len(after) == d ** rank
            seen += 1
        assert seen == d ** (nrows * ncols)


#: Rational entries with 50-digit numerators and denominators.
BIG_FRACTIONS = st.builds(Fraction, st.integers(-10 ** 50, 10 ** 50),
                          st.integers(1, 10 ** 50))


@given(st.integers(2, 4), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_rational(nrows, ncols, data):
    """Idempotent, and equal to the Fraction-route elimination, on small and on
    50-digit entries."""
    entries = data.draw(st.lists(
        st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                  BIG_FRACTIONS),
        min_size=nrows * ncols, max_size=nrows * ncols))
    rows = [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    once, rank1 = rref(Matrix(RATIONALS, rows))
    twice, rank2 = rref(once)
    assert once == twice and rank1 == rank2
    want, pivots = oracles.rref_fraction(rows)
    assert once.rows == tuple(want) and rank1 == len(pivots)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_prime_field_arithmetic_matches_raw_ints(d, nrows, ncols, kcols, data):
    """vec_dot, matvec, @ and rref over Z_d against raw-int computations mod d."""
    field = PrimeField(d)

    def draw_rows(r, c):
        return [data.draw(st.lists(st.integers(0, d - 1), min_size=c, max_size=c))
                for _ in range(r)]

    a_rows, b_rows = draw_rows(nrows, ncols), draw_rows(ncols, kcols)
    x = draw_rows(1, ncols)[0]
    a, b = Matrix(field, a_rows), Matrix(field, b_rows)
    for row in a_rows:
        assert vec_dot(field, tuple(row), tuple(x)) \
            == sum(r * e for r, e in zip(row, x)) % d
    assert a.matvec(tuple(x)) == tuple(sum(r * e for r, e in zip(row, x)) % d
                                       for row in a_rows)
    assert (a @ b).rows == tuple(
        tuple(sum(a_rows[i][k] * b_rows[k][j] for k in range(ncols)) % d
              for j in range(kcols))
        for i in range(nrows))
    echelon, rank = rref(a)
    assert (list(echelon.rows), rank) == oracles.rref_mod(d, a_rows)


def test_vec_dot_rejects_length_mismatch():
    with pytest.raises(ValueError):
        vec_dot(F3, (1, 2), (1, 2, 0))


@given(st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_rational_results_are_fractions(n, data):
    """Over Q every entry the exact layers produce is a Fraction, also from int input."""
    space = PhaseSpace(RATIONALS, n)
    dim = space.dim
    scalar = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4),
                       BIG_FRACTIONS)
    vector = st.lists(scalar, min_size=dim, max_size=dim)
    nonzero = vector.filter(lambda v: any(v))

    def all_fractions(*groups):
        return all(type(x) is Fraction for g in groups for row in g for x in row)

    u, f = data.draw(nonzero), data.draw(nonzero)
    c = data.draw(scalar.filter(lambda x: x != 0))
    s = transvection(space, u, c)
    t = SymplecticAffine(space, s, data.draw(vector))
    sub = AffineSubspace.span(RATIONALS, [u, f], ambient=dim, offset=data.draw(vector))
    state = EpistemicState(space, AffineSubspace.span(RATIONALS, [f], ambient=dim),
                           data.draw(vector))
    moved = transform(state, t)
    inv = t.inverse()
    assert all_fractions(symplectic_form(space).rows, s.rows, sub.basis, [sub.offset],
                         moved.known.basis, [moved.valuation], inv.s.rows, [inv.a])
    assert inv.compose(t) == SymplecticAffine.identity(space)


# ---------------------------------------------------------------------------
# the integer-row kernels over Q against the Fraction route
# ---------------------------------------------------------------------------


def _rational_matrices(seed):
    """Seeded rational matrices: generic ones, and the same with a zero row, a
    duplicate row, a proportional row and a combination of two rows (rank deficient);
    half the entries zero; negative entries throughout; entries of one digit and of
    50 digits over denominators as large."""
    rng = random.Random(seed)

    def entry(size):
        return Fraction(rng.randrange(-size, size + 1), rng.randrange(1, size + 1))

    cases = [[[Fraction(0)] * 3] * 2]
    for size in (3, 10 ** 50):
        for nrows, ncols in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (4, 4), (4, 6),
                             (6, 4), (6, 6)):
            rows = [[entry(size) for _ in range(ncols)] for _ in range(nrows)]
            sparse = [[e if rng.random() < 0.5 else Fraction(0) for e in r] for r in rows]
            c = entry(size) or Fraction(-1)
            cases += [rows, sparse,
                      rows[:-1] + [[Fraction(0)] * ncols],
                      rows + [list(rows[0])],
                      rows + [[c * e for e in rows[-1]]],
                      rows + [[c * a - b for a, b in zip(rows[0], rows[-1])]]]
    return cases


RATIONAL_MATRICES = _rational_matrices(27)


def _vector(rng, ncols):
    big = 10 ** 50
    return tuple(Fraction(rng.randrange(-big, big), rng.randrange(1, big))
                 for _ in range(ncols))


def test_rational_rref_rows_equal_the_fraction_route():
    """Same rows in the same order, zero rows at the bottom, same pivots, every entry a
    Fraction."""
    for rows in RATIONAL_MATRICES:
        reduced, pivots = _rref_rows(RATIONALS, Matrix(RATIONALS, rows).rows)
        assert (list(reduced), pivots) == oracles.rref_fraction(rows)
        assert all(type(e) is Fraction for r in reduced for e in r)


def test_rational_pivot_clearing_equals_the_fraction_route():
    """``_clear_pivots`` on a vector and ``_pivot_clearing_rows`` on a matrix, against
    every reduced basis of the seeded matrices, with 50-digit entries."""
    rng = random.Random(28)
    for rows in RATIONAL_MATRICES:
        reduced, pivots = oracles.rref_fraction(rows)
        basis = reduced[:len(pivots)]
        ncols = len(rows[0])
        for x in (_vector(rng, ncols), tuple(Fraction(rng.randrange(-3, 4))
                                             for _ in range(ncols))):
            cleared = _clear_pivots(RATIONALS, x, basis)
            assert cleared == oracles.clear_pivots_fraction(x, basis)
            assert all(type(e) is Fraction for e in cleared)
        m_rows = [_vector(rng, 3) for _ in range(ncols)]
        got = _pivot_clearing_rows(RATIONALS, basis, m_rows)
        assert list(got) == oracles.pivot_clearing_rows_fraction(basis, m_rows)
        assert all(type(e) is Fraction for r in got for e in r)


def test_rational_null_space_inverse_and_solve_equal_the_fraction_route():
    rng = random.Random(29)
    for rows in RATIONAL_MATRICES:
        m = Matrix(RATIONALS, rows)
        nrows, ncols = m.shape
        assert null_space(m) == oracles.null_space_fraction(rows, ncols)
        if nrows == ncols:
            want = oracles.inverse_fraction(rows)
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
            else:
                assert m.inverse().rows == tuple(want)
        # One consistent right-hand side (an image) and one drawn at random.
        for b in (m.matvec(_vector(rng, ncols)), _vector(rng, nrows)):
            got = solve_affine(m, b)
            want = oracles.solve_fraction(rows, b)
            if want is None:
                assert got.is_empty
                continue
            particular, kernel = want
            reduced, pivots = oracles.rref_fraction(kernel) if kernel else ([], [])
            basis = tuple(reduced[:len(pivots)])
            assert got.basis == basis
            assert got.offset == oracles.clear_pivots_fraction(particular, basis)


# ---------------------------------------------------------------------------
# solve / null space
# ---------------------------------------------------------------------------


def test_solve_inconsistent_system_is_empty_mod3():
    a = Matrix(F3, [[1, 1], [2, 2]])
    sol = solve_affine(a, (1, 0))
    assert sol.is_empty
    assert list(sol.points()) == []
    assert sol == AffineSubspace.empty(F3, 2)


def test_solve_single_constraint_line():
    sol = solve_affine(Matrix(F3, [[1, 0]]), (1,))
    assert not sol.is_empty
    assert sol.rank == 1
    assert sol.contains((1, 0)) and sol.contains((1, 2))
    assert not sol.contains((0, 0))
    assert len(list(sol.points())) == 3


def test_solve_empty_constraint_matrix_gives_full_space():
    sol = solve_affine(Matrix(F2, ()), ())
    # An empty constraint list constrains nothing... but has no column count either,
    # so the result is the 0-dimensional full space.
    assert sol.ambient == 0


@pytest.mark.parametrize("d", [2, 3])
def test_solve_matches_enumeration(d):
    field = PrimeField(d)
    ncols = 3
    for nrows in (1, 2):
        for flat in product(range(d), repeat=nrows * (ncols + 1)):
            rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
            b = flat[nrows * ncols:]
            sol = solve_affine(Matrix(field, rows), b)
            expect = oracles.solve_set(d, rows, b)
            got = frozenset(sol.points())
            assert got == expect


def test_null_space_orthogonality():
    m = Matrix(F5, [[1, 2, 3], [0, 1, 4]])
    for v in null_space(m):
        assert m.matvec(v) == (0, 0)


def test_rational_solve_exact():
    a = Matrix(RATIONALS, [[Fraction(1, 2), 1], [1, 3]])
    sol = solve_affine(a, (1, Fraction(5, 2)))
    assert sol.rank == 0
    x = sol.offset
    assert a.matvec(x) == (Fraction(1), Fraction(5, 2))


# ---------------------------------------------------------------------------
# affine subspaces: canonical form and set operations
# ---------------------------------------------------------------------------


def test_empty_set_is_not_a_point():
    e = AffineSubspace.empty(F3, 2)
    p = AffineSubspace.point(F3, (0, 0))
    assert e != p
    assert list(e.points()) == [] and list(p.points()) == [(0, 0)]


@pytest.mark.parametrize("d, n", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)])
def test_points_list_in_the_product_order(d, n):
    """Every coset of every isotropic subspace, and every state's support, lists its
    points in the order of the ``itertools.product`` route: the first row's
    coefficient varying slowest."""
    space = PhaseSpace(PrimeField(d), n)
    field = space.field
    subspaces = {AffineSubspace(field, space.dim, v.basis, x)
                 for v in enumerate_isotropic(space) for x in space.points()}
    subspaces.update(s.support() for s in enumerate_states(space))
    assert any(sub.rank and any(sub.offset) for sub in subspaces)
    for sub in subspaces:
        points = sub.points()
        assert iter(points) is points
        assert list(points) == oracles.product_points(d, sub.basis, sub.offset)


def test_points_of_the_empty_set_a_point_and_a_rational_subspace():
    assert list(AffineSubspace.empty(F3, 2).points()) == []
    point = AffineSubspace.point(F5, (7, 3))
    assert list(point.points()) == [(2, 3)] == oracles.product_points(5, (), (2, 3))
    q_point = AffineSubspace.point(RATIONALS, (Fraction(1, 2), 3))
    assert list(q_point.points()) == [(Fraction(1, 2), Fraction(3))]
    line = AffineSubspace.span(RATIONALS, [(1, 2)])
    with pytest.raises(ValueError, match="positive-dimensional rational subspace"):
        list(line.points())


def test_canonical_offset_has_zero_pivot_coordinates():
    s = AffineSubspace.span(F3, [(1, 2)], offset=(2, 0))
    # Pivot coordinate 0 must be zeroed: (2,0) - 2*(1,2) = (0,-4) = (0,2).
    assert s.offset == (0, 2)
    # Same coset, different raw offset, identical canonical value.
    assert s == AffineSubspace.span(F3, [(2, 4)], offset=(0, 2))


def test_canonicalization_idempotent_exhaustive_f3():
    for rows, offset in oracles.all_subspace_data(3, 2):
        s = AffineSubspace.span(F3, rows, ambient=2, offset=offset)
        again = AffineSubspace.span(F3, s.basis, ambient=2, offset=s.offset)
        assert s == again
        assert s.basis == again.basis and s.offset == again.offset


@pytest.mark.parametrize("d", [2, 3])
def test_equality_is_point_set_equality_exhaustive(d):
    """Group every affine subspace of (Z_d)^2 by its oracle point set.

    Canonical structural equality must induce exactly the same partition.
    """
    field = PrimeField(d)
    by_points = {}
    for rows, offset in oracles.all_subspace_data(d, 2):
        pts = oracles.combo_set(d, rows, offset) if rows else frozenset({offset})
        s = AffineSubspace.span(field, rows, ambient=2, offset=offset)
        by_points.setdefault(pts, set()).add(s)
    for pts, reps in by_points.items():
        assert len(reps) == 1, f"distinct canonical forms for point set {pts}"
        assert frozenset(next(iter(reps)).points()) == pts


@pytest.mark.parametrize("d", [2, 3])
def test_equal_subspaces_hash_equal_exhaustive(d):
    """The hash is stored on construction, so it must be a function of the point set:
    every spanning set and offset of one point set gives one hash."""
    field = PrimeField(d)
    hashes = {}
    for rows, offset in oracles.all_subspace_data(d, 2):
        pts = oracles.combo_set(d, rows, offset) if rows else frozenset({offset})
        hashes.setdefault(pts, set()).add(hash(AffineSubspace.span(field, rows, ambient=2,
                                                                   offset=offset)))
    assert hashes and all(len(h) == 1 for h in hashes.values())


def test_equal_subspaces_hash_equal_empty_and_rational():
    empties = [AffineSubspace.empty(F3, 2),
               AffineSubspace(F3, 2, ((1, 0),), (1, 1), is_empty=True),
               solve_affine(Matrix(F3, ((1, 0), (1, 0))), (0, 1))]
    assert all(e == empties[0] and hash(e) == hash(empties[0]) for e in empties)
    line = AffineSubspace.span(RATIONALS, [(2, 4)], offset=(1, 1))
    same = AffineSubspace.span(RATIONALS, [(Fraction(1, 2), 1)],
                               offset=(Fraction(3, 2), 2))
    assert line == same and hash(line) == hash(same)
    assert line != AffineSubspace.span(RATIONALS, [(2, 4)], offset=(1, 0))


def test_pickled_subspace_and_space_rehash_in_another_process():
    """The stored hash goes through the field's string-seeded hash, so an unpickled
    object must hash as one built in the loading process."""
    objects = [AffineSubspace.span(F3, [(1, 2, 0)], offset=(1, 1, 1)),
               AffineSubspace.empty(F2, 2),
               AffineSubspace.span(RATIONALS, [(Fraction(1, 2), 1)], offset=(0, 1)),
               PhaseSpace(F5, 2), PhaseSpace(RATIONALS, 1)]
    check = ("import pickle, sys\n"
             "from epistrict import AffineSubspace, PhaseSpace\n"
             "objects = pickle.loads(sys.stdin.buffer.read())\n"
             "fresh = [AffineSubspace(o.field, o.ambient, o.basis, o.offset, o.is_empty)\n"
             "         if isinstance(o, AffineSubspace) else PhaseSpace(o.field, o.n)\n"
             "         for o in objects]\n"
             "assert objects == fresh\n"
             "assert [hash(o) for o in objects] == [hash(o) for o in fresh]\n")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", check], input=pickle.dumps(objects),
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_rational_affine_membership_against_independent_elimination():
    rows = [(1, 0, Fraction(1, 2), 0), (0, 1, 1, Fraction(-1, 3))]
    offset = (Fraction(1, 4), 0, 0, 1)
    s = AffineSubspace.span(RATIONALS, rows, offset=offset)
    probes = [
        (Fraction(1, 4), 0, 0, 1),
        (Fraction(5, 4), 0, Fraction(1, 2), 1),
        (Fraction(1, 4), 1, 1, Fraction(2, 3)),
        (0, 0, 0, 0),
        (1, 1, 1, 1),
    ]
    for x in probes:
        assert s.contains(x) == oracles.rational_combo_contains(rows, offset, x)
    with pytest.raises(ValueError, match="rational"):
        next(s.points())
    assert list(AffineSubspace.point(RATIONALS, (1, 2)).points()) == [(1, 2)]


def test_representative_depends_only_on_coset():
    s = AffineSubspace.span(F3, [(1, 0, 2, 0)], ambient=4)
    x = (2, 1, 0, 1)
    shifted = (0, 1, 2, 1)  # x - 2*(1,0,2,0) mod 3 = (0,1,-4,1) = (0,1,2,1)
    assert s.representative(x) == s.representative(shifted)
    assert AffineSubspace.span(F3, s.basis, ambient=4, offset=x).contains(shifted)


def test_span_reads_an_offset_iterator_once():
    s = AffineSubspace.span(F3, [], offset=(x for x in (1, 2)))
    assert s == AffineSubspace.point(F3, (1, 2))
    line = AffineSubspace.span(F3, [(1, 0)], offset=iter((2, 2)))
    assert line.offset == (0, 2)


def test_representative_names_a_point_of_the_wrong_length():
    s = AffineSubspace.span(F3, [(1, 0, 2, 0)], ambient=4)
    with pytest.raises(ValueError, match="point of length 3 in dimension 4"):
        s.representative((1, 2, 0))


def test_matrix_inverse_and_product():
    m = Matrix(F5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(F5, 2)
    with pytest.raises(ValueError):
        Matrix(F5, [[1, 2], [2, 4]]).inverse()
    q = Matrix(RATIONALS, [[2, 1], [1, 1]])
    assert q.inverse() @ q == Matrix.identity(RATIONALS, 2)


# ---------------------------------------------------------------------------
# Matrix is canonical on construction
# ---------------------------------------------------------------------------


def test_a_matrix_reduces_its_entries_on_construction():
    m = Matrix(F3, ((4, -1), (Fraction(1, 2), Fraction(6, 2))))
    assert m.rows == ((1, 2), (2, 0))
    assert m == Matrix(F3, [[1, 2], [2, 0]])
    assert all(type(x) is int for row in m.rows for x in row)
    half = Matrix(RATIONALS, ((2, Fraction(2, 4)),))
    assert half.rows == ((Fraction(2), Fraction(1, 2)),) and type(half.rows[0][0]) is Fraction
    exact = Matrix(F3, np.array([[4, 0], [0, 1]]))
    assert exact == Matrix.identity(F3, 2)
    assert all(type(x) is int for row in exact.rows for x in row)


def test_a_matrix_refuses_floats_bools_and_ragged_rows():
    for entry in (1.0, True):
        with pytest.raises(TypeError, match="prime-field element must be an int"):
            Matrix(F3, ((entry, 0), (0, 1)))
    with pytest.raises(TypeError, match="floats are not exact"):
        Matrix(RATIONALS, ((0.5,),))
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(F3, ((1, 0), (1,)))


def test_rref_and_solve_read_an_unreduced_entry_as_its_residue():
    # 3 is 0 in Z_3, so the row (3, 1) has its pivot in the second column.
    echelon, rank = rref(Matrix(F3, ((3, 1),)))
    assert echelon.rows == ((0, 1),) and rank == 1
    line = solve_affine(Matrix(F3, ((3, 1),)), (1,))
    assert line == AffineSubspace.span(F3, [(1, 0)], offset=(0, 1))
    assert sorted(line.points()) == [(0, 1), (1, 1), (2, 1)]


def test_products_stay_in_one_field():
    m = Matrix(F3, ((1, 2), (0, 1)))
    for other in (Matrix.identity(F5, 2), Matrix.identity(RATIONALS, 2)):
        with pytest.raises(ValueError, match="matrix is over .*, but the left factor "
                                             "is over PrimeField\\(3\\)"):
            m @ other
    assert m.matvec((4, -1)) == (2, 2)
    with pytest.raises(TypeError, match="prime-field element must be an int"):
        m.matvec((1.5, 0))
    with pytest.raises(ValueError, match="product of a \\(2, 2\\) matrix"):
        m.matvec((1, 0, 0))
