"""Symplectic form, brackets, isotropic enumeration, group machinery."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from epistrict import symplectic
from epistrict.epistemic import EpistemicState, SharpMeasurement
from epistrict.fields import RATIONALS, PrimeField, RationalField
from epistrict.linalg import AffineSubspace, Matrix, null_space
from epistrict.quantum import quadrature_projector, quadrature_state, weyl, weyl_phase
from epistrict.stabilizer import StabilizerGroup, stabilizer_of_quadrature, weyl_value_report
from epistrict.symplectic import (
    ISOTROPIC_CAP,
    PhaseSpace,
    _apply_j,
    _apply_jt,
    _euclidean_complement,
    _symplectic_closure,
    QuadratureFunctional,
    SizeCapExceeded,
    SymplecticAffine,
    UnsupportedOperation,
    enumerate_group,
    enumerate_isotropic,
    enumerate_symplectic,
    extend_to_symplectic,
    is_isotropic,
    is_symplectic,
    poisson_bracket_fd,
    random_symplectic_affine,
    symp_inner,
    symplectic_form,
    symplectic_group_order,
    transvection,
)
from epistrict.wigner import point_operators

SPACES = {
    (2, 1): PhaseSpace(PrimeField(2), 1),
    (3, 1): PhaseSpace(PrimeField(3), 1),
    (5, 1): PhaseSpace(PrimeField(5), 1),
    (2, 2): PhaseSpace(PrimeField(2), 2),
    (3, 2): PhaseSpace(PrimeField(3), 2),
}


# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------


def test_form_renders_with_canonical_representatives():
    assert symplectic_form(SPACES[2, 1]).rows == ((0, 1), (1, 0))
    assert symplectic_form(SPACES[3, 1]).rows == ((0, 1), (2, 0))
    j22 = symplectic_form(SPACES[2, 2])
    assert j22.rows == (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )


@pytest.mark.parametrize("key", list(SPACES))
def test_j_squared_is_minus_identity(key):
    space = SPACES[key]
    j = symplectic_form(space)
    assert j @ j == -Matrix.identity(space.field, space.dim)


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (5, 1)])
def test_inner_product_canonical_pair(key):
    space = SPACES[key]
    assert symp_inner(space, (1, 0), (0, 1)) == 1


@pytest.mark.parametrize("key", list(SPACES))
def test_inner_product_antisymmetric_exhaustive_or_sampled(key):
    space = SPACES[key]
    fld = space.field
    pts = list(space.points())
    if len(pts) > 30:
        rng = random.Random(7)
        pts = [tuple(rng.randrange(space.d) for _ in range(space.dim)) for _ in range(30)]
    for f in pts:
        for g in pts:
            assert symp_inner(space, f, g) == fld.reduce(-symp_inner(space, g, f))


def test_inner_product_rejects_wrong_lengths():
    space = SPACES[2, 1]
    with pytest.raises(ValueError, match="first vector of length 3 .* dimension 2n = 2"):
        symp_inner(space, (1, 0, 5), (0, 1, 7))
    with pytest.raises(ValueError, match="first vector of length 1 "):
        symp_inner(space, (1,), (0, 1))
    with pytest.raises(ValueError, match="first vector of length 4 "):
        symp_inner(space, (1, 0, 0, 0), (0, 1, 0, 0))


D3 = SPACES[3, 1]
D3_POSITION = EpistemicState(D3, AffineSubspace.span(D3.field, [(1, 0)]))
D3_POSITION_MEAS = SharpMeasurement.of_functional(D3, (1, 0))

#: Every public entry that reads a phase-space vector or a functional, called on D3
#: with ``x`` in that argument.
VECTOR_ENTRIES = [
    pytest.param(lambda x: symp_inner(D3, x, (1, 0)), id="symp_inner-f"),
    pytest.param(lambda x: symp_inner(D3, (1, 0), x), id="symp_inner-g"),
    pytest.param(lambda x: QuadratureFunctional(D3, x), id="QuadratureFunctional"),
    pytest.param(lambda x: QuadratureFunctional.position(D3).evaluate(x),
                 id="QuadratureFunctional.evaluate"),
    pytest.param(lambda x: SymplecticAffine(D3, Matrix.identity(D3.field, 2), x),
                 id="SymplecticAffine-a"),
    pytest.param(lambda x: SymplecticAffine.displacement(D3, x),
                 id="SymplecticAffine.displacement"),
    pytest.param(lambda x: SymplecticAffine.identity(D3).apply(x),
                 id="SymplecticAffine.apply"),
    pytest.param(lambda x: transvection(D3, x, 1), id="transvection"),
    pytest.param(lambda x: extend_to_symplectic(D3, x), id="extend_to_symplectic"),
    pytest.param(lambda x: EpistemicState(D3, D3_POSITION.known, x),
                 id="EpistemicState-valuation"),
    pytest.param(D3_POSITION.value_of, id="EpistemicState.value_of"),
    pytest.param(D3_POSITION_MEAS.label_of, id="SharpMeasurement.label_of"),
    pytest.param(D3_POSITION_MEAS.values_at, id="SharpMeasurement.values_at"),
    pytest.param(D3_POSITION_MEAS.cell, id="SharpMeasurement.cell"),
    pytest.param(AffineSubspace.full(D3.field, 2).contains, id="AffineSubspace.contains"),
    pytest.param(lambda x: quadrature_projector(D3, x, 0), id="quadrature_projector"),
    pytest.param(lambda x: weyl(D3, x), id="weyl"),
    pytest.param(lambda x: weyl_phase(D3, x, (1, 0)), id="weyl_phase-a"),
    pytest.param(lambda x: weyl_phase(D3, (1, 0), x), id="weyl_phase-b"),
    pytest.param(lambda x: StabilizerGroup(D3, ((x, 0),)), id="StabilizerGroup"),
    pytest.param(point_operators(D3).op, id="PointOperatorBasis.op"),
]


@pytest.mark.parametrize("call", VECTOR_ENTRIES)
@pytest.mark.parametrize("x", [(1,), (1, 0, 1)], ids=["short", "long"])
def test_every_vector_argument_refuses_a_wrong_length(call, x):
    with pytest.raises(ValueError, match=f"of length {len(x)} "):
        call(x)


@pytest.mark.parametrize("call", [EpistemicState, quadrature_state, stabilizer_of_quadrature,
                                  weyl_value_report])
def test_a_wrong_length_valuation_is_refused_by_its_name(call):
    with pytest.raises(ValueError, match="valuation of length 3 on a phase space of "
                                         "dimension 2n = 2"):
        call(D3, D3_POSITION.known, (1, 0, 0))


def test_a_functional_from_another_space_is_refused():
    assert D3_POSITION.value_of(QuadratureFunctional.position(D3, c=1)) == 1
    # Z_5 on a Z_3 state used to be evaluated without complaint.
    for other in (SPACES[5, 1], PhaseSpace(PrimeField(3), 2)):
        f = QuadratureFunctional.position(other)
        with pytest.raises(ValueError, match="functional lives on a different phase"):
            D3_POSITION.value_of(f)
        with pytest.raises(ValueError, match="functional lives on a different phase"):
            quadrature_projector(D3, f, 0)


def test_phase_space_refuses_a_non_int_dof_count():
    # A float n used to equal and hash like the int one, then fail in zero().
    for bad in (1.0, Fraction(1), "1", True):
        with pytest.raises(TypeError, match="degrees of freedom must be an int"):
            PhaseSpace(PrimeField(3), bad)
    space = PhaseSpace(PrimeField(3), np.int64(1))
    assert type(space.n) is int and space == SPACES[3, 1]
    assert space.zero() == (0, 0)


@pytest.mark.parametrize("key", list(SPACES) + ["Q2"])
def test_signed_swaps_match_the_dense_form(key):
    space = PhaseSpace(RATIONALS, 2) if key == "Q2" else SPACES[key]
    fld = space.field
    j = symplectic_form(space)
    rng = random.Random(11)
    if fld.is_finite:
        pts = [tuple(rng.randrange(space.d) for _ in range(space.dim)) for _ in range(40)]
    else:
        pts = [tuple(Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
                     for _ in range(space.dim)) for _ in range(40)]
    for x in pts:
        x = tuple(fld.element(e) for e in x)
        assert _apply_j(fld, x) == j.matvec(x)
        assert _apply_jt(fld, x) == j.T.matvec(x)
        assert [type(e) for e in _apply_j(fld, x)] == [type(e) for e in j.matvec(x)]


def test_inner_product_over_rationals():
    space = PhaseSpace(RATIONALS, 2)
    f = (Fraction(1, 2), 0, 1, 0)
    g = (0, Fraction(2, 3), 0, -1)
    # q1 p1' - p1 q1' + q2 p2' - p2 q2' = (1/2)(2/3) + 1*(-1)
    assert symp_inner(space, f, g) == Fraction(1, 3) - 1


# ---------------------------------------------------------------------------
# finite-difference Poisson bracket
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bracket_of_all_quadrature_pairs_is_the_inner_product(d):
    space = SPACES[d, 1]
    vectors = [v for v in space.points() if any(v)]
    tables = {v: QuadratureFunctional(space, v).table() for v in vectors}
    for f in vectors:
        for g in vectors:
            bracket = poisson_bracket_fd(space, tables[f], tables[g])
            expected = symp_inner(space, f, g)
            assert all(val == expected for val in bracket.values())


def test_bracket_constants_absorbed():
    space = SPACES[3, 1]
    f = QuadratureFunctional(space, (1, 0), c=2).table()
    g = QuadratureFunctional(space, (0, 1), c=1).table()
    bracket = poisson_bracket_fd(space, f, g)
    assert set(bracket.values()) == {1}


def test_bracket_nonlinear_table_differs_from_any_constant():
    # x -> q*p is not affine, and its bracket with q is not constant; the finite
    # difference sees genuine structure beyond the quadrature sector.
    space = SPACES[3, 1]
    table = {m: space.field.reduce(m[0] * m[1]) for m in space.points()}
    q = QuadratureFunctional(space, (0, 1)).table()
    bracket = poisson_bracket_fd(space, table, q)
    assert len(set(bracket.values())) > 1


def test_bracket_refuses_rationals():
    space = PhaseSpace(RATIONALS, 1)
    with pytest.raises(UnsupportedOperation):
        poisson_bracket_fd(space, {}, {})


def test_point_enumeration_cap():
    big = PhaseSpace(PrimeField(11), 2)  # 11^4 = 14641 > 10000
    f = QuadratureFunctional.position(big)
    with pytest.raises(SizeCapExceeded):
        f.table()


# ---------------------------------------------------------------------------
# isotropic subspaces
# ---------------------------------------------------------------------------


def test_isotropic_enumeration_refuses_past_its_cap_by_a_power():
    # At (3, 5000) one pivot leaves 9999 free entries: 3^9999 has too many digits to
    # print, so the refusal names the count as a power and never builds it.
    with pytest.raises(SizeCapExceeded, match=rf"needs 3\^9999, cap is {ISOTROPIC_CAP}"):
        enumerate_isotropic(PhaseSpace(PrimeField(3), 5000), rank=1)


@pytest.mark.parametrize("key,expected", [((2, 1), 3), ((3, 1), 4), ((5, 1), 6),
                                          ((2, 2), 15), ((3, 2), 40)])
def test_lagrangian_counts(key, expected):
    space = SPACES[key]
    lagrangians = enumerate_isotropic(space, rank=space.n)
    assert len(lagrangians) == expected
    assert len(set(lagrangians)) == expected
    assert all(is_isotropic(space, v) and v.rank == space.n for v in lagrangians)


def test_isotropic_listing_complete_d2_n2():
    space = SPACES[2, 2]
    got = {v.basis for v in enumerate_isotropic(space)}
    # Independent route: scan every subset-span via solve-free brute force.
    from itertools import combinations, product
    lines = set()
    all_vectors = [v for v in product(range(2), repeat=4) if any(v)]
    for v in all_vectors:
        lines.add(AffineSubspace.span(space.field, [v], ambient=4).basis)
    planes = set()
    for u, w in combinations(all_vectors, 2):
        s = AffineSubspace.span(space.field, [u, w], ambient=4)
        if s.rank == 2 and symp_inner(space, u, w) == 0:
            planes.add(s.basis)
    expected = {()} | lines | planes
    assert got == expected
    assert len(got) == 1 + 15 + 15


def test_rank_one_subspaces_always_isotropic():
    space = SPACES[3, 2]
    assert len(enumerate_isotropic(space, rank=1)) == (3 ** 4 - 1) // 2


def test_isotropic_rejects_offsets_and_overranked():
    space = SPACES[3, 1]
    shifted = AffineSubspace.span(space.field, [(1, 0)], offset=(0, 1))
    assert not is_isotropic(space, shifted)
    assert not is_isotropic(space, AffineSubspace.full(space.field, 2))


def test_isotropic_refuses_another_ambient_dimension():
    for space, rows in ((SPACES[2, 1], [(1, 0, 0, 0)]), (SPACES[2, 2], [(1, 0)])):
        with pytest.raises(ValueError, match="ambient dimension"):
            is_isotropic(space, AffineSubspace.span(space.field, rows))


# ---------------------------------------------------------------------------
# the complement identity (V-perp)^C = J V
# ---------------------------------------------------------------------------


def test_complements_of_position_line_mod3():
    space = SPACES[3, 1]
    fld = space.field
    v = AffineSubspace.span(fld, [(1, 0)], ambient=2)
    momentum = AffineSubspace.span(fld, [(0, 1)], ambient=2)
    hidden = _euclidean_complement(space, v)
    assert hidden == momentum
    # V^C = {x : f^T J x = 0 for f in V}: a Lagrangian line is its own complement.
    symp = AffineSubspace.span(fld, null_space(Matrix(fld, v.basis) @ symplectic_form(space)),
                               ambient=2)
    assert symp == v
    assert AffineSubspace.span(fld, [_apply_j(fld, f) for f in v.basis], ambient=2) == momentum


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_complement_identity_all_isotropic(key):
    """(V-perp)^C == J V for every isotropic V: the identity ``quantum`` relies on.

    W^C = {x : <h, x> = 0 for h in W}, and <h, x> = (J^T h) . x, so (V-perp)^C is the
    null space of the rows J^T h, h spanning V-perp; those rows are the literal
    products h^T J.
    """
    space = SPACES[key]
    fld, j = space.field, symplectic_form(space)
    for v in enumerate_isotropic(space):
        hidden = _euclidean_complement(space, v)
        rows = Matrix(fld, [_apply_jt(fld, h) for h in hidden.basis])
        assert rows == Matrix(fld, hidden.basis) @ j
        symp = AffineSubspace.span(fld, null_space(rows), ambient=space.dim)
        j_image = AffineSubspace.span(fld, [_apply_j(fld, f) for f in v.basis],
                                      ambient=space.dim)
        assert symp == j_image and symp.rank == v.rank


# ---------------------------------------------------------------------------
# symplectic matrices, composition, enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key,count", [((2, 1), 6), ((3, 1), 24), ((2, 2), 720)])
def test_symplectic_group_sizes(key, count):
    space = SPACES[key]
    group = enumerate_symplectic(space)
    assert len(group) == count == symplectic_group_order(space.d, space.n)
    j = symplectic_form(space)
    assert all(s.T @ j @ s == j for s in group)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_closure_matches_the_exhaustive_filter_at_one_dof(d):
    """One degree of freedom goes through the same transvection closure as more."""
    space = PhaseSpace(PrimeField(d), 1)
    assert [s.rows for s in enumerate_symplectic(space)] == oracles.symplectic_2x2(d)


def _closure_by_products(space, gens):
    """Reference route: the breadth-first closure with one dense ``Matrix @`` per step;
    each parent is coerced through the public constructor once."""
    identity = Matrix.identity(space.field, space.dim).rows
    words = {identity: (None, None)}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            parent = Matrix(space.field, m)
            for k, g in enumerate(gens):
                prod = (parent @ g).rows
                if prod not in words:
                    words[prod] = (m, k)
                    nxt.append(prod)
        frontier = nxt
    return words


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_closure_column_updates_match_dense_products(key):
    """Same elements, parents, generator indices and breadth-first insertion order."""
    space = SPACES[key]
    gens, words = _symplectic_closure(space)
    assert list(words.items()) == list(_closure_by_products(space, gens).items())


def _literal_is_symplectic(space, s):
    """S^T J S == J as two dense products: the reference for ``is_symplectic``."""
    j = symplectic_form(space)
    return s.T @ j @ s == j


@pytest.mark.parametrize("d", [2, 3, 5])
def test_is_symplectic_on_every_2x2_matrix(d):
    space = PhaseSpace(PrimeField(d), 1)
    every = [Matrix(space.field, rows)
             for rows in product(product(range(d), repeat=2), repeat=2)]
    got = [s.rows for s in every if is_symplectic(space, s)]
    assert got == [s.rows for s in every if _literal_is_symplectic(space, s)]
    assert sorted(got) == oracles.symplectic_2x2(d)


def _seeded_symplectic(space, rng):
    """A seeded symplectic matrix; over Q a word of four rational transvections."""
    if space.field.is_finite:
        return random_symplectic_affine(space, rng).s
    s = Matrix.identity(space.field, space.dim)
    for _ in range(4):
        u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(space.dim)]
        s = s @ transvection(space, u, Fraction(rng.randint(1, 4), rng.randint(1, 4)))
    return s


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fld", [PrimeField(2), PrimeField(3), PrimeField(5), RATIONALS],
                         ids=repr)
def test_is_symplectic_matches_the_literal_form_product(fld, n):
    """The identity and seeded symplectic matrices, and each one-entry perturbation of
    them; bumping the identity's (q_i, p_i) entry gives a shear, which stays symplectic."""
    space = PhaseSpace(fld, n)
    rng = random.Random(31 * n + (fld.modulus if fld.is_finite else 0))
    verdicts = set()
    seeded = [_seeded_symplectic(space, rng) for _ in range(6)]
    for s in [Matrix.identity(fld, space.dim)] + seeded:
        assert is_symplectic(space, s) and _literal_is_symplectic(space, s)
        for i, k in product(range(space.dim), repeat=2):
            rows = [list(r) for r in s.rows]
            rows[i][k] = fld.reduce(rows[i][k] + 1)
            bent = Matrix(fld, tuple(map(tuple, rows)))
            verdicts.add(is_symplectic(space, bent))
            assert is_symplectic(space, bent) == _literal_is_symplectic(space, bent)
    assert verdicts == {True, False}


def test_is_symplectic_refuses_wrong_shapes_and_fields():
    space = SPACES[3, 1]
    for rows in ((), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0, 0), (0, 1, 0, 0)),
                 ((1, 0), (0, 1), (0, 0), (0, 0)), ((1,),)):
        assert not is_symplectic(space, Matrix(space.field, rows))
    other = Matrix.identity(PrimeField(5), 2)
    assert not is_symplectic(space, other)
    # The dense reference cannot even form S^T J S: a product across fields is refused.
    with pytest.raises(ValueError, match="matrix is over PrimeField"):
        _literal_is_symplectic(space, other)


def _dense_random_affine(space, rng):
    """Reference route: the draws of ``random_symplectic_affine``, one dense
    ``Matrix @ transvection(u, c)`` per nonzero u."""
    d = space.d
    s = Matrix.identity(space.field, space.dim)
    for _ in range(2 * space.dim + 2):
        u = tuple(rng.randrange(d) for _ in range(space.dim))
        if any(u):
            s = s @ transvection(space, u, rng.randrange(1, d))
    return SymplecticAffine(space, s, tuple(rng.randrange(d) for _ in range(space.dim)))


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                  (5, 2), (7, 2), (11, 2)])
def test_random_affine_is_the_dense_transvection_word(d, n):
    space = PhaseSpace(PrimeField(d), n)
    for seed in range(200):
        got = random_symplectic_affine(space, random.Random(seed))
        assert got == _dense_random_affine(space, random.Random(seed))
        assert all(type(x) is int for row in got.s.rows for x in row)


def test_an_affine_map_holds_its_matrix_in_canonical_form():
    space = SPACES[3, 1]
    raw = SymplecticAffine(space, Matrix(space.field, ((4, 0), (-2, 1))))
    assert raw.s.rows == ((1, 0), (1, 1))
    assert raw == SymplecticAffine(space, Matrix(space.field, [[1, 0], [1, 1]]))
    assert SymplecticAffine(space, Matrix(space.field, ((4, 0), (0, 1)))) == (
        SymplecticAffine.identity(space))
    # A float never reaches the exact side through the raw constructor.
    with pytest.raises(TypeError, match="prime-field element must be an int"):
        SymplecticAffine(space, Matrix(space.field, ((1.0, 0), (0, 1))))
    # A matrix over another field is refused, not coerced into this one.
    for field in (PrimeField(5), RATIONALS):
        with pytest.raises(ValueError, match="matrix is over .*, but the phase space is "
                                             "over PrimeField"):
            SymplecticAffine(space, Matrix.identity(field, 2))
    shift = SymplecticAffine.displacement(space, (x for x in (4, -1)))
    assert shift.a == (1, 2) and shift.apply((1, 2)) == (2, 1)


def test_affine_group_size_d2():
    assert len(enumerate_group(SPACES[2, 1])) == 24


@pytest.mark.parametrize("d, n", [(2, 1), (3, 1), (2, 2)])
def test_enumerate_group_checks_each_matrix_once(monkeypatch, d, n):
    """One symplecticity check per S, not one per (S, a); every map equals the one
    the checking constructor builds from the same S and a."""
    space = SPACES[d, n]
    checked = []

    def counting(space, s):
        checked.append(s.rows)
        return is_symplectic(space, s)

    monkeypatch.setattr(symplectic, "is_symplectic", counting)
    group = enumerate_group(space)
    monkeypatch.undo()
    matrices = enumerate_symplectic(space)
    assert checked == [s.rows for s in matrices]
    assert len(group) == len(matrices) * d ** space.dim
    points = list(space.points())
    for k, t in enumerate(group):
        s, a = matrices[k // len(points)], points[k % len(points)]
        assert t == SymplecticAffine(space, s, a) and type(t.a) is tuple


def test_equal_spaces_hash_equal():
    # The hash is stored on construction; equal spaces built from distinct field
    # objects must still share it.
    for make in (lambda: PrimeField(3), lambda: PrimeField(2), RationalField):
        for n in (1, 2):
            a, b = PhaseSpace(make(), n), PhaseSpace(make(), n)
            assert a.field is not b.field
            assert a == b and hash(a) == hash(b)
    assert PhaseSpace(RATIONALS, 2) == PhaseSpace(RationalField(), 2)
    assert PhaseSpace(PrimeField(3), 2) != PhaseSpace(PrimeField(3), 1)


def test_enumeration_respects_cap():
    # |Sp(4, Z_5)| = 9,360,000 is refused before any closure step; |Sp(200, Z_3)| has
    # thousands of digits, too many to print, so the refusal names it symbolically.
    for d, n in [(5, 2), (3, 100)]:
        for enumerate_ in (enumerate_symplectic, enumerate_group):
            with pytest.raises(SizeCapExceeded, match=rf"\|Sp\({2 * n}, Z_{d}\)\|"):
                enumerate_(PhaseSpace(PrimeField(d), n))


def test_compose_and_inverse_roundtrip():
    space = SPACES[3, 1]
    rng = random.Random(11)
    ident = SymplecticAffine.identity(space)
    for _ in range(20):
        t = random_symplectic_affine(space, rng)
        assert t.compose(t.inverse()) == ident
        assert t.inverse().compose(t) == ident


def test_compose_order_conventions():
    space = SPACES[3, 1]
    shift = SymplecticAffine.displacement(space, (1, 0))
    s = SymplecticAffine(space, Matrix(space.field, [[1, 1], [0, 1]]))
    both = s.compose(shift)  # shift first, then shear
    m = (2, 2)
    assert both.apply(m) == s.apply(shift.apply(m))


def test_inverse_uses_form_not_elimination():
    # S^{-1} = J^T S^T J must hold entrywise for an explicit witness.
    space = SPACES[5, 1]
    s = Matrix(space.field, [[2, 1], [3, 2]])  # det = 1 mod 5
    t = SymplecticAffine(space, s)
    j = symplectic_form(space)
    assert t.inverse().s == j.T @ s.T @ j


@pytest.mark.parametrize("key", [(2, 1), (3, 1)])
def test_inner_product_invariance_under_full_group(key):
    space = SPACES[key]
    pts = [v for v in space.points()]
    for s in enumerate_symplectic(space):
        for f in pts:
            for g in pts:
                assert symp_inner(space, s.matvec(f), s.matvec(g)) == \
                    symp_inner(space, f, g)


@given(st.sampled_from([(2, 2), (3, 2), (5, 1)]), st.data())
@settings(max_examples=40, deadline=None)
def test_transvections_are_symplectic(key, data):
    space = SPACES.get(key) or PhaseSpace(PrimeField(key[0]), key[1])
    u = data.draw(st.lists(st.integers(0, space.d - 1), min_size=space.dim,
                           max_size=space.dim).filter(lambda v: any(v)))
    c = data.draw(st.integers(1, space.d - 1))
    t = transvection(space, tuple(u), c)
    assert is_symplectic(space, t)


def test_time_reversal_is_the_canonical_non_example():
    """(q, p) -> (q, -p) flips the form's sign: isotropy survives, symplecticity dies."""
    for key in [(3, 1), (5, 1), (3, 2)]:
        space = SPACES.get(key) or PhaseSpace(PrimeField(key[0]), key[1])
        fld = space.field
        rows = [[fld.zero] * space.dim for _ in range(space.dim)]
        for i in range(space.n):
            rows[2 * i][2 * i] = fld.one
            rows[2 * i + 1][2 * i + 1] = fld.reduce(-fld.one)
        t = Matrix(fld, rows)
        assert not is_symplectic(space, t)
        j = symplectic_form(space)
        assert t.T @ j @ t == -j  # anti-symplectic
        for v in enumerate_isotropic(space):
            image = AffineSubspace.span(fld, [t.matvec(b) for b in v.basis] or [space.zero()],
                                        ambient=space.dim)
            assert is_isotropic(space, image)


# ---------------------------------------------------------------------------
# extend_to_symplectic
# ---------------------------------------------------------------------------


def test_extension_momentum_d2_matches_form():
    s = extend_to_symplectic(SPACES[2, 1], (0, 1))
    assert s.rows == ((0, 1), (1, 0))


def test_extension_position_is_identity():
    assert extend_to_symplectic(SPACES[3, 1], (1, 0)) == Matrix.identity(PrimeField(3), 2)


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_extension_first_column_and_symplectic(key):
    space = SPACES[key]
    rng = random.Random(5)
    vectors = [v for v in space.points() if any(v)]
    # Only spaces with more than 25 nonzero f are sampled: (2,1), (3,1), (5,1) and
    # (2,2) check every one.
    if len(vectors) > 25:
        vectors = [vectors[rng.randrange(len(vectors))] for _ in range(25)]
    for f in vectors:
        s = extend_to_symplectic(space, f)
        assert tuple(r[0] for r in s.rows) == f
        assert is_symplectic(space, s)
        # Deterministic: same input, same matrix.
        assert extend_to_symplectic(space, f) == s


def _q(*entries):
    return tuple(Fraction(e) for e in entries)


#: Completions over Q, pinned to the Gram-Schmidt output: f, then the matrix rows.
#: The first f is the first one criterion 8 extends at seed 2026.
PINNED_RATIONAL_EXTENSIONS = [
    (_q("-1/6", "2/7", "7/2", "1/2"),
     (_q("-1/6", "-7/2", 0, -1), _q("2/7", 0, 0, 0),
      _q("7/2", 0, "-49/4", "4/7"), _q("1/2", 0, "-7/4", 0))),
    (_q("1/2", "1/3"), (_q("1/2", -3), _q("1/3", 0))),
    (_q(0, 5), (_q(0, "-1/5"), _q(5, 0))),
    (_q(0, 0, 0, 1), (_q(0, 0, 1, 0), _q(0, 0, 0, 1), _q(0, -1, 0, 0), _q(1, 0, 0, 0))),
    (_q("1/2", "1/3", 1, 0),
     (_q("1/2", -3, 0, -1), _q("1/3", 0, 0, 0), _q(1, 0, -3, 0), _q(0, 0, 0, "-1/3"))),
    (_q(0, -2, 0, 0, "3/4", 0),
     (_q(0, "1/2", 0, -1, 0, 0), _q(-2, 0, 0, 0, 0, 0), _q(0, 0, 0, 0, 1, 0),
      _q(0, 0, 0, 0, 0, 1), _q("3/4", 0, "3/8", 0, 0, 0), _q(0, 0, 0, "8/3", 0, 0))),
]


@pytest.mark.parametrize("f,rows", PINNED_RATIONAL_EXTENSIONS)
def test_extension_over_rationals_is_pinned(f, rows):
    s = extend_to_symplectic(PhaseSpace(RATIONALS, len(f) // 2), f)
    assert s.rows == rows
    assert all(type(x) is Fraction for row in s.rows for x in row)


def test_extension_rejects_zero():
    with pytest.raises(ValueError):
        extend_to_symplectic(SPACES[3, 1], (0, 0))
    # A functional of another length is refused before any product is formed.
    for f in [(1,), (1, 0, 0), (0, 1, 0, 0)]:
        with pytest.raises(ValueError, match=f"length {len(f)} on a phase space"):
            extend_to_symplectic(SPACES[3, 1], f)


def test_extension_over_rationals():
    space = PhaseSpace(RATIONALS, 2)
    f = (Fraction(1, 2), Fraction(1, 3), 1, 0)
    s = extend_to_symplectic(space, f)
    assert is_symplectic(space, s)
    assert tuple(r[0] for r in s.rows) == f


@pytest.mark.parametrize("key", [(2, 1), (3, 1)])
def test_extension_preserves_isotropy_of_spans(key):
    space = SPACES[key]
    for f in (v for v in space.points() if any(v)):
        s = extend_to_symplectic(space, f)
        for v in enumerate_isotropic(space):
            image = AffineSubspace.span(space.field,
                                        [s.matvec(b) for b in v.basis] or [space.zero()],
                                        ambient=space.dim)
            assert is_isotropic(space, image)
