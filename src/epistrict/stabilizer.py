"""Weyl stabilizer groups and the classical/quantum comparison they support.

A quadrature state with known functionals V and valuation v is stabilized by the
abelian group generated by

    g_i = char(v . f_i) * W(J f_i)        for a basis {f_i} of V,

since W(J f) acts on the value-t eigenspace of the functional f as char(-t).  This
module translates in both directions between that presentation and the (V, v) one,
rebuilds density matrices from generator lists by multiplying eigenprojectors, and
measures how far value assignments on the full group can be pushed:

  * at odd d the naive additive assignment a = J f  ->  char(v . f) is consistent on
    every group element, because Weyl products over an isotropic subspace carry no
    extra phase;
  * at d = 2 products of commuting generators can flip sign (the XX.ZZ = -YY effect),
    and `weyl_value_report` counts exactly how many group elements the additive
    assignment gets wrong.

The same obstruction is packaged in two classic finite forms (`mermin_square`,
`ghz_test`) with exhaustive assignment searches, and `scan_for_witness` performs the
full operational comparison: it enumerates every (state, transformation, measurement)
triple and returns the first whose classical and quantum outcome statistics differ,
or None when the exhaustive scan finds perfect agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

import numpy as np

from .linalg import AffineSubspace, Matrix, solve_affine, vec, vec_dot
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
from .quantum import (
    PROB_TOL,
    TOL,
    _joint_projectors,
    _pair_char,
    born,
    clifford,
    metaplectic,
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
            m = vec(fld, m)
            if len(m) != self.space.dim:
                raise ValueError(f"Weyl vector of length {len(m)} on a phase space of "
                                 f"dimension 2n = {self.space.dim}")
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
    rows = Matrix.from_rows(f, functionals)
    known = AffineSubspace.span(f, functionals, ambient=space.dim)
    if known.rank != len(group.generators):
        raise ValueError("generators are dependent; phases cannot be read additively")
    targets = vec(f, [e for _, e in group.generators])
    sol = solve_affine(rows, targets)
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
    """Check char(v . f) against the true eigenvalue of W(J f) for every f in V."""
    state = EpistemicState(space, known, valuation)
    rho = quadrature_state(space, state.known, state.valuation).rho
    elements = [f for f in state.known.points() if any(f)]
    flipped = []
    for f in elements:
        naive = vec_dot(space.field, f, state.valuation)
        actual = _weyl_value(space, _apply_j(space.field, f), rho)
        if abs(actual - np.conj(_pair_char(space.d, naive))) > PROB_TOL:
            flipped.append(f)
    return ValueReport(len(elements), len(flipped), tuple(flipped))


def _weyl_value(space: PhaseSpace, m, rho: np.ndarray) -> complex:
    """Tr(W(m) rho) / Tr rho: the eigenvalue of W(m) on a state in one of its
    eigenspaces, read off the trace."""
    return np.trace(weyl(space, m) @ rho) / np.trace(rho).real


# ---------------------------------------------------------------------------
# parity obstructions in their classic finite forms
# ---------------------------------------------------------------------------


def _sign_of_product(space: PhaseSpace, vectors) -> int:
    """Sign s with W(m1) W(m2) ... = s * I, for vectors summing to zero."""
    dim = space.d ** space.n
    prod = np.eye(dim, dtype=complex)
    for m in vectors:
        prod = prod @ weyl(space, m)
    val = prod[0, 0]
    if not np.max(np.abs(prod - val * np.eye(dim))) < PROB_TOL:
        raise AssertionError("Weyl product is not a multiple of the identity")
    if not (abs(abs(val) - 1) < PROB_TOL and abs(val.imag) < PROB_TOL):
        raise AssertionError(f"Weyl product phase {val} is not a real sign")
    return int(round(val.real))


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
    from .fields import PrimeField
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
    from .fields import PrimeField
    space = PhaseSpace(PrimeField(2), 3)
    gens = ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 0, 1))
    group = StabilizerGroup(space, tuple((m, 0) for m in gens))
    rho = state_from_stabilizer(group)
    xxx = (1, 0, 1, 0, 1, 0)
    xyy = (1, 0, 1, 1, 1, 1)
    yxy = (1, 1, 1, 0, 1, 1)
    yyx = (1, 1, 1, 1, 1, 0)
    span = AffineSubspace.span(space.field, gens)
    for m in (xyy, yxy, yyx):
        if not span.contains(m):
            raise AssertionError("derived observables must lie in the stabilizer span")
    words = (xxx, xyy, yxy, yyx)
    eigs = tuple(int(round(_weyl_value(space, m, rho).real)) for m in words)
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


def _close_pairs(images: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Mask of the (image, state) pairs within TOL in squared Hilbert-Schmidt distance.

    ||X - rho||^2 = ||X||^2 + ||rho||^2 - 2 Re <X, rho>, and Re <X, rho> is the dot
    product of the float views, so all pairs take one real matrix product.
    """
    x, r = (np.ascontiguousarray(m).reshape(len(m), -1).view(np.float64)
            for m in (images, rhos))
    dist = np.sum(x ** 2, axis=1)[:, None] + np.sum(r ** 2, axis=1) - 2 * (x @ r.T)
    return dist < TOL


def _quantum_perm(rhos: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """The state permutation of a unitary: each image matched to exactly one state."""
    hits = _close_pairs(unitary @ rhos @ unitary.conj().T, rhos)
    if np.any(hits.sum(axis=0) > 1):
        raise AssertionError("a Clifford unitary merged two quadrature states")
    if not np.all(hits.sum(axis=1) == 1):
        raise AssertionError(
            "a Clifford image of a quadrature state is not exactly one quadrature state")
    return hits.argmax(axis=1)


def _classical_perms(space: PhaseSpace, states: list, gens: list, words: dict) -> tuple:
    """Classical state permutations of every symplectic matrix (keyed by rows) and
    every displacement (keyed by point, in lexicographic order).

    Only the generators and the 2n unit shifts go through ``transform``, each checked
    to be a bijection; element = parent @ gens[k] acts as perm[parent][perm[k]], and
    shifts compose additively, so products of bijections give the rest.
    """
    index_of_state = {s: i for i, s in enumerate(states)}

    def direct(t: SymplecticAffine) -> np.ndarray:
        perm = [index_of_state[transform(s, t)] for s in states]
        if len(set(perm)) != len(perm):
            raise AssertionError("a classical generator merged two epistemic states")
        return np.array(perm)

    gen_perms = [direct(SymplecticAffine(space, g, space.zero())) for g in gens]
    linear = {}
    for rows, (parent, k) in words.items():
        linear[rows] = (np.arange(len(states)) if parent is None
                        else linear[parent][gen_perms[k]])
    units = Matrix.identity(space.field, space.dim).rows
    shift_perms = [direct(SymplecticAffine.displacement(space, u)) for u in units]
    shifts = {}
    for a in map(tuple, space.points()):
        # a - e_j, for the last nonzero coordinate j, precedes a lexicographically.
        j = max((i for i, x in enumerate(a) if x), default=None)
        shifts[a] = (np.arange(len(states)) if j is None else
                     shifts[a[:j] + (a[j] - 1,) + a[j + 1:]][shift_perms[j]])
    return linear, shifts


def scan_for_witness(space: PhaseSpace) -> Optional[Witness]:
    """Exhaustively compare the two theories over every scenario triple.

    Both theories act on the same finite state set, so every affine map is first
    reduced on each side to a permutation of state labels: classical ones composed
    along the symplectic closure's generator words, quantum ones by matching each
    element's conjugated density matrices to the states (at d = 2 U(AB) and
    U(A) U(B) can induce different channels, so these are not composed).  A (state,
    transformation) pair whose two labels agree yields equal statistics for every
    measurement and is skipped; on the first disagreeing pair the measurements are
    scanned in enumeration order for distinguishing statistics, and the winning
    triple is re-verified through an honest Born computation.  Returns None when
    the exhaustive scan finds no disagreement anywhere.
    """
    states = enumerate_states(space)
    rhos = np.array([quadrature_state(space, s.known, s.valuation).rho for s in states])
    if np.count_nonzero(_close_pairs(rhos, rhos)) != len(states):
        raise AssertionError("two quadrature states share a density matrix")
    c_lin, c_disp = _classical_perms(space, states, *_symplectic_closure(space))
    symplectics = [Matrix(space.field, rows) for rows in sorted(c_lin)]
    q_lin = [_quantum_perm(rhos, metaplectic(space, s)) for s in symplectics]
    q_disp = [_quantum_perm(rhos, clifford(
        space, SymplecticAffine.displacement(space, a)).unitary) for a in c_disp]

    measurements = [SharpMeasurement(space, v) for v in enumerate_isotropic(space)
                    if v.rank > 0]

    # The affine group in enumerate_group's order; a map is built only to be reported.
    for s, q_s in zip(symplectics, q_lin):
        for (a, c_a), q_a in zip(c_disp.items(), q_disp):
            q_perm = q_a[q_s]
            c_perm = c_a[c_lin[s.rows]]
            if np.array_equal(q_perm, c_perm):
                continue
            t = SymplecticAffine(space, s, a)
            for i in range(len(states)):
                if q_perm[i] == c_perm[i]:
                    continue
                classical_image = states[c_perm[i]]
                quantum_image = states[q_perm[i]]
                for meas in measurements:
                    c_dist = measure(classical_image, meas)
                    q_dist_exact = measure(quantum_image, meas)
                    if c_dist == q_dist_exact:
                        continue
                    # Honest re-verification through the quantum route.
                    evolved = clifford(space, t).apply(rhos[i])
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
