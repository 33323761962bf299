"""Weyl stabilizer groups and the classical/quantum comparison they support.

A quadrature state with known functionals V and valuation v is stabilized by the
abelian group generated by

    g_i = char(v . f_i) * W(J f_i)        for a basis {f_i} of V,

since W(J f) acts on the value-t eigenspace of the functional f as char(-t).  This
module translates in both directions between that presentation and the (V, v) one,
rebuilds density matrices from generator lists, and measures how far value
assignments on the full group can be pushed:

  * at odd d the naive additive assignment a = J f  ->  char(v . f) is consistent on
    every group element, because Weyl products over an isotropic subspace carry no
    extra phase;
  * at d = 2 products of commuting generators can flip sign (the XX.ZZ = -YY effect),
    and `weyl_value_report` counts exactly how many group elements the additive
    assignment gets wrong.

The same obstruction is packaged in two classic finite forms (`mermin_square`,
`ghz_test`) with exhaustive assignment searches, and `scan_for_witness` performs the
full operational comparison: from one state permutation per theory for each symplectic
matrix and unit shift, it returns the first (state, transformation, measurement) triple
whose outcome statistics differ, or None when the two theories agree on every triple.
Both sides compose those permutations from the generators of the symplectic group;
Clifford unitaries compose as their symplectic matrices do only up to a Weyl
displacement (Aaronson-Gottesman), which the scan computes exactly and which vanishes
at odd d (Gross).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

import numpy as np

from .fields import PrimeField
from .linalg import AffineSubspace, Matrix, solve_affine, vec_dot
from .symplectic import (
    PhaseSpace,
    SymplecticAffine,
    _apply_j,
    _apply_jt,
    _pair_products,
    _symplectic_closure,
    enumerate_isotropic,
)
from .epistemic import (
    EpistemicState,
    OutcomeDistribution,
    SharpMeasurement,
    enumerate_states,
    measure,
    transform,
)
from .exponents import (
    _channel_image,
    _clifford_image,
    _composition_exponent,
    _stabilizer_exponents,
    _state_generators,
    _weyl_lift,
    hilbert_dim,
)
from .quantum import (
    PROB_TOL,
    TOL,
    _joint_projectors,
    _pair_char,
    born,
    clifford,
    quadrature_pvm,
    quadrature_state,
    weyl,
)


@dataclass(frozen=True)
class StabilizerGroup:
    """Generators (m_i, e_i) standing for the operators char(e_i) W(m_i)."""

    space: PhaseSpace
    generators: tuple

    def __post_init__(self):
        fld = self.space.field
        if not fld.is_finite:
            raise ValueError("stabilizer groups live over finite fields")
        gens = []
        for m, e in self.generators:
            m = self.space.vector(m, "Weyl vector")
            if all(x == 0 for x in m):
                raise ValueError("zero vector cannot generate a stabilizer")
            gens.append((m, fld.element(e)))
        ms = [m for m, _ in gens]
        for (i, j), p in _pair_products(fld, ms):
            if p:
                raise ValueError(f"generators {ms[i]} and {ms[j]} do not commute "
                                 "(nonzero symplectic product)")
        object.__setattr__(self, "generators", tuple(gens))

    def operator(self, i: int) -> np.ndarray:
        m, e = self.generators[i]
        return _pair_char(self.space.d, e) * weyl(self.space, m)


def stabilizer_of_quadrature(space: PhaseSpace, known, valuation) -> StabilizerGroup:
    """Stabilizer generators of the quadrature state (known, valuation)."""
    state = EpistemicState(space, known, valuation)
    gens = []
    for f in state.known.basis:
        m = _apply_j(space.field, f)
        e = vec_dot(space.field, f, state.valuation)
        gens.append((m, e))
    return StabilizerGroup(space, tuple(gens))


def state_from_stabilizer(group: StabilizerGroup) -> np.ndarray:
    """Density matrix of the joint +1 eigenspace of the generators.

    The +1 eigenprojector of char(e) W(m) is the projector onto value e of the
    functional J^T m, since W(m)^s = W(s m) on the isotropic line.  The projectors
    commute, so their product is the joint projector; a vanishing trace means the
    phases are mutually inconsistent and no state exists.
    """
    space = group.space
    functionals = [_apply_jt(space.field, m) for m, _ in group.generators]
    proj = _joint_projectors(space, functionals, [[e for _, e in group.generators]])[0]
    tr = np.trace(proj)
    if abs(tr) < TOL:
        raise ValueError("inconsistent stabilizer phases: the joint eigenspace is empty")
    return proj / tr


def quadrature_of_stabilizer(group: StabilizerGroup) -> EpistemicState:
    """Recover (known, valuation) from independent stabilizer generators.

    Requires the Weyl vectors to be linearly independent; a dependent list is
    rejected because at d = 2 the phase of a product of generators is not the sum
    of their phases, so reading dependent generators additively would silently
    assume the very consistency this package is built to probe.
    """
    space = group.space
    f = space.field
    if not group.generators:
        return EpistemicState.ignorance(space)
    # J^T = J^{-1}: J^2 = -I and J is antisymmetric (symmetric at d = 2)
    functionals = [_apply_jt(f, m) for m, _ in group.generators]
    known = AffineSubspace.span(f, functionals, ambient=space.dim)
    if known.rank != len(group.generators):
        raise ValueError("generators are dependent; phases cannot be read additively")
    sol = solve_affine(Matrix(f, functionals), [e for _, e in group.generators])
    if sol.is_empty:
        raise AssertionError("independent generators gave an inconsistent phase system")
    return EpistemicState(space, known, sol.offset)


@dataclass(frozen=True)
class ValueReport:
    """Additive value assignment audited against actual Weyl eigenvalues."""

    n_elements: int
    n_flips: int
    flipped: tuple          # the functionals whose group element dissents

    @property
    def consistent(self) -> bool:
        return self.n_flips == 0


def weyl_value_report(space: PhaseSpace, known, valuation) -> ValueReport:
    """Check char(v . f) against the true eigenvalue r^lambda(J f) of W(J f) for every
    f in V: the assignment holds where lambda(J f) = -k v.f (``_weyl_lift``)."""
    state = EpistemicState(space, known, valuation)
    hilbert_dim(space)  # the domain of the state the report describes
    order, _, k = _weyl_lift(space.d)
    exponent = _stabilizer_exponents(space, _state_generators(state))
    elements = [f for f in state.known.points() if any(f)]
    flipped = tuple(f for f in elements if exponent[_apply_j(space.field, f)]
                    != -k * vec_dot(space.field, f, state.valuation) % order)
    return ValueReport(len(elements), len(flipped), flipped)


# ---------------------------------------------------------------------------
# parity obstructions in their classic finite forms
# ---------------------------------------------------------------------------


def _sign_of_product(space: PhaseSpace, vectors) -> int:
    """Sign s with W(m1) W(m2) ... = s * I, for vectors summing to zero: the product's
    exponent is the sum of the composition exponents met while multiplying in."""
    d = space.d
    order = _weyl_lift(d)[0]
    total, exponent = space.zero(), 0
    for m in vectors:
        exponent += _composition_exponent(d, total, m)
        total = tuple((a + b) % d for a, b in zip(total, m))
    exponent %= order
    if any(total):
        raise AssertionError("Weyl product is not a multiple of the identity")
    if 2 * exponent % order:
        raise AssertionError(f"Weyl product phase r^{exponent} is not a real sign")
    return -1 if exponent else 1


@dataclass(frozen=True)
class MerminReport:
    grid: tuple             # 3 x 3 Weyl vectors on two qubits
    row_signs: tuple
    col_signs: tuple
    n_assignments: int
    n_satisfying: int
    n_satisfying_relaxed: int


def mermin_square() -> MerminReport:
    """The 3 x 3 square of two-qubit Weyl operators with an odd constraint cycle.

    Each row and column multiplies to +-identity; five contexts give +1 and one
    gives -1, so the 512 candidate noncontextual +-1 assignments all fail, while
    dropping the negative context leaves satisfying assignments.
    """
    space = PhaseSpace(PrimeField(2), 2)
    x, z, y, i = (1, 0), (0, 1), (1, 1), (0, 0)

    def pair(a, b):
        return (a[0], a[1], b[0], b[1])

    grid = (
        (pair(x, i), pair(i, x), pair(x, x)),
        (pair(i, z), pair(z, i), pair(z, z)),
        (pair(x, z), pair(z, x), pair(y, y)),
    )
    row_signs = tuple(_sign_of_product(space, row) for row in grid)
    col_signs = tuple(_sign_of_product(space, [grid[r][c] for r in range(3)])
                      for c in range(3))
    # One +-1 value per cell, cell (r, c) at index 3 r + c.
    constraints = [([3 * r + c for c in range(3)], row_signs[r]) for r in range(3)]
    constraints += [([3 * r + c for r in range(3)], col_signs[c]) for c in range(3)]

    negative = [k for k, (_, sign) in enumerate(constraints) if sign == -1]
    if len(negative) != 1:
        raise AssertionError("the Mermin square needs exactly one negative constraint")
    relaxed = [c for k, c in enumerate(constraints) if k != negative[0]]
    return MerminReport(grid, row_signs, col_signs, 512,
                        _count_assignments(9, constraints),
                        _count_assignments(9, relaxed))


@dataclass(frozen=True)
class GhzReport:
    generators: tuple
    derived: tuple          # the three Weyl vectors with forced -1 values
    eigenvalues: tuple      # (XXX, then the three derived)
    n_assignments: int
    n_satisfying: int
    n_satisfying_relaxed: int


def ghz_test() -> GhzReport:
    """Three-qubit stabilizer state whose single-site +-1 values cannot exist.

    The state stabilized by XXX, ZZI, IZZ assigns +1 to XXX and -1 to each of
    XYY, YXY, YYX; multiplying the four constraints squares every single-site
    value yet leaves a -1, so all 64 local assignments fail.
    """
    space = PhaseSpace(PrimeField(2), 3)
    gens = ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 0, 1))
    # Every phase e is 0, so every exponent lambda = -k e is 0: the pairs serve as is.
    group = StabilizerGroup(space, tuple((m, 0) for m in gens))
    exponent = _stabilizer_exponents(space, group.generators)
    xxx = (1, 0, 1, 0, 1, 0)
    xyy = (1, 0, 1, 1, 1, 1)
    yxy = (1, 1, 1, 0, 1, 1)
    yyx = (1, 1, 1, 1, 1, 0)
    if any(m not in exponent for m in (xyy, yxy, yyx)):
        raise AssertionError("derived observables must lie in the stabilizer span")
    words = (xxx, xyy, yxy, yyx)
    if any(exponent[m] not in (0, _weyl_lift(2)[0] // 2) for m in words):
        raise AssertionError("a GHZ word's eigenvalue is not a real sign")
    eigs = tuple(-1 if exponent[m] else 1 for m in words)
    # Local assignments give one +-1 value to each of X_i (index i) and Y_i (index
    # 3 + i); site i of a word is Y exactly when its p bit is set.
    full = [([i + 3 * m[2 * i + 1] for i in range(3)], eig) for m, eig in zip(words, eigs)]
    return GhzReport(gens, (xyy, yxy, yyx), eigs, 64,
                     _count_assignments(6, full), _count_assignments(6, full[1:]))


def _count_assignments(size: int, constraints) -> int:
    """How many of the 2^size assignments of +-1 values satisfy every constraint
    ``(indices, sign)``: the values at ``indices`` multiply to ``sign``."""
    return sum(all(math.prod(bits[i] for i in indices) == sign
                   for indices, sign in constraints)
               for bits in iproduct((1, -1), repeat=size))


# ---------------------------------------------------------------------------
# the exhaustive operational comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A triple whose classical and quantum outcome statistics disagree."""

    state: EpistemicState
    transformation: SymplecticAffine
    measurement: SharpMeasurement
    classical: OutcomeDistribution
    quantum: dict
    max_diff: float


def _label_dtype(count: int) -> type:
    """int16, the dtype of the scan's state permutations, once ``count`` state labels
    0 .. count - 1 are known to fit it: it holds the K labels of every space the group
    and point caps let a scan reach (K = 2,863 at (53, 1))."""
    if count > 2 ** 15:
        raise AssertionError(f"{count} state labels do not fit int16")
    return np.int16


def _quantum_perms(space: PhaseSpace, spans: list, s_rows: list,
                   shifts: list) -> np.ndarray:
    """The (M, K) state permutations of the Clifford channels of the maps
    m -> S_i m + a_i, one map at a time in map order.  ``spans`` holds each state's
    characteristic function Tr(W(m) rho) = r^lambda(m), its span's pairs (m, lambda(m))
    from ``_stabilizer_exponents``; a map moves them to (S m, lambda(m) - e(m)), with
    (S m, e(m)) from ``_channel_image`` (c = -a), and the moved pairs are looked up as
    exactly one state's.  A pair is the plain int order * (m's position) + lambda, so
    a map moves every state through one list.  The first map whose images merge two
    states or leave the state set raises ``AssertionError``, a merge before a miss."""
    d = space.d
    order = _weyl_lift(d)[0]
    labels = _label_dtype(len(spans))
    position = {m: i for i, m in enumerate(space.points())}
    pairs = [tuple(order * position[m] + lam for m, lam in span.items()) for span in spans]
    label_of = {frozenset(p): i for i, p in enumerate(pairs)}
    if len(label_of) < len(pairs):
        raise AssertionError("two quadrature states share a characteristic function")
    perms = np.empty((len(s_rows), len(spans)), dtype=labels)
    for perm, s, a in zip(perms, s_rows, shifts):
        c = tuple(-x % d for x in a)
        moved = []  # moved[pair] for every pair (m, lambda), indexed by its int
        for m in position:
            image, e = _channel_image(d, s, c, m)
            moved += [order * position[image] + (lam - e) % order for lam in range(order)]
        images = [label_of.get(frozenset(map(moved.__getitem__, p))) for p in pairs]
        hits = [i for i in images if i is not None]
        if len(set(hits)) < len(hits):
            raise AssertionError("a Clifford unitary merged two quadrature states")
        if len(hits) < len(images):
            raise AssertionError("a Clifford image of a quadrature state is not "
                                 "exactly one quadrature state")
        perm[:] = images
    return perms


def _classical_perms(space: PhaseSpace, states: list, gens: list) -> tuple:
    """The classical state permutations of the generators and of the 2n unit shifts (in
    the order of the identity's rows), as two ``_label_dtype`` arrays with one row per
    map, each row pushed through ``transform`` and checked to be a bijection."""
    index_of_state = {s: i for i, s in enumerate(states)}
    labels = _label_dtype(len(states))

    def direct(t: SymplecticAffine) -> list:
        perm = [index_of_state[transform(s, t)] for s in states]
        if len(set(perm)) != len(perm):
            raise AssertionError("a classical generator merged two epistemic states")
        return perm

    units = Matrix.identity(space.field, space.dim).rows
    return (np.array([direct(SymplecticAffine(space, g, space.zero())) for g in gens],
                     dtype=labels),
            np.array([direct(SymplecticAffine.displacement(space, u)) for u in units],
                     dtype=labels))


def _scan_perms(space: PhaseSpace, states: list) -> tuple:
    """``(linear, classical, quantum)``: every symplectic matrix's rows in sorted order
    and both theories' (M, K) state permutations of them, row i for ``linear[i]``.

    Only the closure's 3n - 1 generators and the 2n unit shifts are computed directly:
    the classical ones by ``transform`` (``_classical_perms``), the quantum ones by one
    ``_quantum_perms`` match of the states' characteristic functions.  The unit shifts
    must agree on both sides, or Weyl covariance is broken and ``AssertionError``
    raised.

    One walk over the closure's words composes every other matrix E = A G (A its
    parent, G a generator) from its parent's permutations.  Classically E acts as
    perm[A][perm[G]].  U(A) U(G) conjugates W(m) to r^{sigma_G(m) + sigma_A(G m)} W(E m),
    which differs from U(E)'s r^sigma_E(m) by a character delta with
    delta(e_j) = -sigma_A(G e_j), since the section fixes sigma(e_j) = 0; delta is
    nonzero only where G e_j != e_j.  W(c) conjugates W(m) to r^{k <c, m>} W(m), so
    U(E) = U(A) U(G) W(c) up to a phase for c = J(delta / k) (the tableau composition
    of Aaronson-Gottesman), and quantum[E] = quantum[A][quantum[G][shift[c]]], where
    the channel W(c) is the displacement a = -c, composed from the unit shifts.  At
    odd d sigma vanishes and c = 0 (Gross); at d = 2 an odd delta is no Pauli
    correction and raises ``AssertionError``.
    """
    d = space.d
    gens, words = _symplectic_closure(space)
    c_gens, c_units = _classical_perms(space, states, gens)
    identity = Matrix.identity(space.field, space.dim).rows
    spans = [_stabilizer_exponents(space, _state_generators(s)) for s in states]
    matched = _quantum_perms(space, spans,
                             [g.rows for g in gens] + [identity] * len(identity),
                             [space.zero()] * len(gens) + list(identity))
    q_gens, q_units = matched[:len(gens)], matched[len(gens):]
    for u, c_u, q_u in zip(identity, c_units, q_units):
        if not np.array_equal(c_u, q_u):
            raise AssertionError(f"the unit shift {u} breaks Weyl covariance")

    # Per generator: its columns G e_j != e_j, where delta can be nonzero (nowhere at
    # odd d).  At d = 2, c = J(delta / 2) = sum of e_{j ^ 1} over the moved columns with
    # delta(e_j) / 2 odd, and W(c) is the product of those unit shifts, which commute.
    moved = [[(j, col) for j, col in enumerate(zip(*g.rows)) if col != identity[j]]
             if d == 2 else [] for g in gens]

    linear = sorted(words)
    row_of = {rows: i for i, rows in enumerate(linear)}
    classical = np.empty((len(linear), len(states)), dtype=c_gens.dtype)
    quantum = np.empty_like(classical)
    for rows, (parent, k) in words.items():
        i = row_of[rows]
        if parent is None:
            classical[i] = quantum[i] = np.arange(len(states))
            continue
        perm = q_gens[k]
        for j, col in moved[k]:
            sigma = _clifford_image(d, parent, col)[1]
            if sigma % 2:
                raise AssertionError(f"composing {parent} with generator {k} needs an "
                                     f"odd exponent at e_{j}: no Pauli corrects it")
            if sigma == 2:  # delta(e_j) / 2 = -sigma / 2 = 1 mod 2
                perm = perm[q_units[j ^ 1]]
        p = row_of[parent]
        np.take(classical[p], c_gens[k], out=classical[i])
        np.take(quantum[p], perm, out=quantum[i])
    return linear, classical, quantum


def scan_for_witness(space: PhaseSpace) -> Optional[Witness]:
    """Exhaustively compare the two theories over every scenario triple.

    Both theories act on the same finite state set, so each map is first reduced on
    each side to a permutation of state labels (``_scan_perms``).  Only the symplectic
    closure's 3n - 1 generators and the 2n unit shifts are computed directly:
    classically by ``transform``, quantumly by moving each state's exact characteristic
    function with the map's conjugation exponents and looking it up as a state's.  Every
    other symplectic matrix is composed from them along the closure's generator words,
    the quantum side with an exact Pauli correction: U(AB) and U(A) U(B) can induce
    different channels at d = 2, but U(AB) = U(A) U(B) W(c) up to a phase for a
    displacement c read off sigma_A, a product of unit shifts, and c = 0 at odd d.

    The scan compares maps, not (S, a) pairs: on both sides (S, a) acts as S followed
    by the displacement by a, and displacements compose exactly (classical shifts add;
    W(a) W(b) = r^beta W(a + b)).  So once the 2n unit shifts agree, as checked first
    (a disagreeing one would break Weyl covariance and raises ``AssertionError``),
    every displacement does; (S, a) then disagrees on a state exactly when S does, and
    the first disagreeing map in ``enumerate_group`` order is the first disagreeing S
    with a = 0.  For its disagreeing states the measurements are scanned in
    enumeration order for distinguishing statistics, and the winning triple is
    re-verified through an honest Born computation.  Returns None when the exhaustive
    scan finds no disagreement anywhere.
    """
    states = enumerate_states(space)
    linear, classical, quantum = _scan_perms(space, states)

    measurements = [SharpMeasurement(space, v) for v in enumerate_isotropic(space)
                    if v.rank > 0]

    # The linear parts in enumerate_group's order; a map is built only to be reported.
    for rows, c_perm, q_perm in zip(linear, classical, quantum):
        for i in np.flatnonzero(q_perm != c_perm):
            for meas in measurements:
                c_dist = measure(states[c_perm[i]], meas)
                if c_dist == measure(states[q_perm[i]], meas):
                    continue
                # Honest re-verification through the dense quantum route.
                t = SymplecticAffine(space, Matrix(space.field, rows), space.zero())
                rho = quadrature_state(space, states[i].known, states[i].valuation).rho
                evolved = clifford(space, t).apply(rho)
                q_dist = born(evolved, quadrature_pvm(space, meas.measured))
                diff = max(abs(q_dist[k] - float(c_dist.probability(k)))
                           for k in q_dist)
                if not diff > PROB_TOL:
                    raise AssertionError(
                        "label mismatch must show up in some statistics")
                return Witness(states[i], t, meas, c_dist, q_dist, diff)
            raise AssertionError(
                "distinct quadrature states must differ in some sharp measurement")
    return None
