"""Discrete phase-space representation: point operators and operational tables.

The point operators are the symplectic Fourier transforms of the Weyl family,

    A(m) = d^{-n} * sum_{m'} char(<m', m>) W(m'),      A(m) = W(-m) A(0) W(-m)^dag,

with the doubled character at d = 2, where the same formula reproduces, degree of
freedom by degree of freedom, the familiar real point operators (I ± X ± Y ± Z)/2 of
one fixed qubit net: every Weyl line enters with sign +1.

Normalization is fixed by Tr A(m) = 1.  The family then resolves the identity only up
to the constant d^n — sum_m A(m) = d^n * I, since tracing the sum counts all d^{2n}
phase-space points — and the representation carries the constant asymmetrically:

    states        W_rho(m)  = d^{-n} Tr(rho A(m))            (sums to 1 over m)
    measurements  W_O(k|m)  = Tr(Pi_k A(m))                  (sums to 1 over k)
    channels      W_E(m|m') = d^{-n} Tr(A(m) E(A(m')))       (columns sum to 1)

With these choices Born contraction is exact:  Tr(Pi rho) = sum_m W_O(m) W_rho(m).
At odd prime d every table of a quadrature scenario is the exact classical object
(nonnegative, and equal to the epistemic-theory distributions); at d = 2 negativity and
covariance failures appear and are reported, not asserted away.

The basis stores the d^{2n} operators once, as one read-only (N, D, D) stack with
N = d^{2n} and D = d^n, built from the monomial (index plus phase) form of the Weyl
operators.  Every table is then one matrix product over the flattened (N, D^2) stack,
Tr(X A(m)) = sum_ij X_ij A(m)_ji, through the trace kernel behind ``quantum.born``,
and a channel acts once on the whole stack.  The equivalence suite works on arrays
indexed by position, the classical side included: its state and response tables are
written at the ``quantum._codes`` of their points and its Born rows at each outcome's
column, and its channel tables conjugate the stack by as many maps at once as fit in
the fixed ``IMAGE_BATCH``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .symplectic import PhaseSpace, SymplecticAffine, UnsupportedOperation
from .epistemic import EpistemicState, SharpMeasurement, measure, transform
from .quantum import (
    TOL,
    _codes,
    _digits,
    _traces,
    _weyl_monomials,
    born_table,
    clifford,
    hilbert_dim,
    quadrature_pvm,
    quadrature_state,
)


@dataclass(frozen=True, eq=False)
class PointOperatorBasis:
    """The full family {A(m)} indexed by phase-space points.

    ``ops`` is one read-only (N, D, D) array and ``pts`` the tuple of its N points, in
    ``points()`` order.  ``op(m)`` is a view of ``ops``, not a copy: ``PhaseSpace.vector``
    checks ``m`` (read mod d) and ``quantum._codes`` gives its position.  A basis
    compares and hashes by identity: the array field has no elementwise truth value.
    """

    space: PhaseSpace
    ops: np.ndarray
    pts: tuple

    def op(self, m) -> np.ndarray:
        return self.ops[_codes(self.space.d, self.space.vector(m, "point"))]

    def points(self) -> tuple:
        return self.pts


def point_operators(space: PhaseSpace) -> PointOperatorBasis:
    """Build the point-operator basis: one formula at every d."""
    dim = hilbert_dim(space)
    d, n = space.d, space.n
    pts = _digits(d, space.dim)
    rows, phases = _weyl_monomials(d, n, pts)
    # char(<0, m'>) = 1 for every m', so A(0) is the plain Weyl average.
    a0 = np.zeros((dim, dim), dtype=complex)
    np.add.at(a0, (rows, np.arange(dim)), phases)
    a0 /= dim
    # W(-m), not W(m): kets translate opposite to quadrature outcome values, so the
    # operator concentrated on the phase-space point m is the negated displacement of
    # the parity-like A(0).  W(-m) sends |x> to phase[x] |row[x]>, so W A(0) W^dag
    # holds phase[x] A(0)[x, y] conj(phase[y]) at (row[x], row[y]).
    rows, phases = _weyl_monomials(d, n, -pts)
    ops = np.empty((len(pts), dim, dim), dtype=complex)
    ops[np.arange(len(pts))[:, None, None], rows[:, :, None], rows[:, None, :]] = (
        phases[:, :, None] * a0 * phases.conj()[:, None, :])
    ops.setflags(write=False)
    return PointOperatorBasis(space, ops, tuple(map(tuple, pts.tolist())))


def _state_rows(basis: PointOperatorBasis, rhos: np.ndarray) -> np.ndarray:
    """State tables of a stack of density matrices, one row each."""
    rows = _traces(rhos, basis.ops, "state table entry") / rhos.shape[-1]
    totals = rows.sum(axis=1)
    bad = np.abs(totals - 1.0) > TOL
    if np.any(bad):
        raise AssertionError(f"state table sums to {totals[bad][0]}, not 1")
    return rows


def _meas_rows(basis: PointOperatorBasis, pvm: dict) -> np.ndarray:
    """Response tables of one PVM, one row per outcome in the PVM's order."""
    rows = _traces(np.stack(list(pvm.values())), basis.ops, "effect table entry")
    if np.any(np.abs(rows.sum(axis=0) - 1.0) > TOL):
        raise AssertionError("response tables do not sum to 1 at an ontic point")
    return rows


def _channel_rows(basis: PointOperatorBasis, channel: Callable) -> np.ndarray:
    """Channel table with rows indexed by the input point, columns by the output."""
    images = np.asarray(channel(basis.ops))
    if images.shape != basis.ops.shape:
        raise ValueError(f"the channel mapped the {basis.ops.shape} stack of point "
                         f"operators to shape {images.shape}")
    return _image_rows(basis, images)


def _image_rows(basis: PointOperatorBasis, images: np.ndarray) -> np.ndarray:
    """Channel table rows d^{-n} Tr(A(m) X) of a stack of point-operator images X."""
    rows = _traces(images, basis.ops, "channel table entry") / images.shape[-1]
    sums = rows.sum(axis=1)
    bad = np.abs(sums - 1.0) > TOL
    if np.any(bad):
        raise AssertionError(f"channel column sums to {sums[bad][0]}, not 1")
    return rows


def _image_positions(basis: PointOperatorBasis, t: SymplecticAffine) -> np.ndarray:
    """Position of S m + a for every point m, in ``points()`` order."""
    d = basis.space.d
    images = _digits(d, basis.space.dim) @ np.array(t.s.rows, dtype=np.int64).T + t.a
    return _codes(d, images % d)


def wigner_state(basis: PointOperatorBasis, rho: np.ndarray) -> dict:
    """State table W_rho(m) = d^{-n} Tr(rho A(m)); validates realness."""
    row = _state_rows(basis, np.asarray(rho)[None])[0]
    return dict(zip(basis.points(), row.tolist()))


def wigner_meas(basis: PointOperatorBasis, pvm: dict) -> dict:
    """Measurement tables W_O(k|m) = Tr(Pi_k A(m)), one row of floats per outcome."""
    points = basis.points()
    return {label: dict(zip(points, row))
            for label, row in zip(pvm, _meas_rows(basis, pvm).tolist())}


def wigner_channel(basis: PointOperatorBasis, channel: Callable) -> dict:
    """Channel table W_E[m_in][m_out] = d^{-n} Tr(A(m_out) E(A(m_in))).

    ``channel`` is applied once, to the whole (N, D, D) stack of point operators, and
    must act on the last two axes (as any map written with ``@`` does, such as a
    ``CliffordChannel``); the stack is read-only.
    """
    points = basis.points()
    return {m_in: dict(zip(points, row))
            for m_in, row in zip(points, _channel_rows(basis, channel).tolist())}


@dataclass(frozen=True)
class CovarianceReport:
    ok: bool
    max_deviation: float
    failures: tuple


def verify_covariance(basis: PointOperatorBasis, t: SymplecticAffine) -> CovarianceReport:
    """Check U(S,a) A(m) U^dag = A(S m + a) entrywise; exact at odd d."""
    lhs = clifford(basis.space, t).apply(basis.ops)
    devs = np.max(np.abs(lhs - basis.ops[_image_positions(basis, t)]), axis=(1, 2))
    points = basis.points()
    failures = tuple(points[i] for i in np.flatnonzero(devs > TOL))
    return CovarianceReport(not failures, float(devs.max()), failures)


def negativity(table: dict) -> tuple:
    """Smallest entry of a state table and the first point, in point order, attaining
    it; ``(None, None)`` for an empty table."""
    if not table:
        return None, None
    where = min(sorted(table), key=table.__getitem__)
    return table[where], where


# ---------------------------------------------------------------------------
# the operational-equivalence engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Maximal deviations between classical objects and their Wigner counterparts."""

    space_d: int
    space_n: int
    n_states: int
    n_transforms: int
    n_measurements: int
    n_triples: int
    max_state_dev: float
    max_channel_dev: float
    max_meas_dev: float
    max_born_dev: float

    @property
    def ok(self) -> bool:
        return max(self.max_state_dev, self.max_channel_dev,
                   self.max_meas_dev, self.max_born_dev) <= TOL


def classical_state_table(state: EpistemicState) -> dict:
    """The epistemic distribution mu as an exact table (uniform on the support)."""
    pts = list(state.support().points())
    w = Fraction(1, len(pts))
    table = {tuple(m): Fraction(0) for m in state.space.points()}
    for m in pts:
        table[tuple(m)] = w
    return table


def classical_channel_table(t: SymplecticAffine) -> dict:
    """The permutation kernel Gamma[m_in][m_out] = delta(m_out, S m_in + a)."""
    out = {}
    for m in t.space.points():
        out[tuple(m)] = {tuple(t.apply(m)): Fraction(1)}
    return out


def classical_meas_table(meas: SharpMeasurement) -> dict:
    """Indicator response functions xi(k|m) over all ontic points."""
    out = {label: {} for label in meas.outcomes()}
    for m in meas.space.points():
        label = meas.label_of(m)
        for k in out:
            out[k][tuple(m)] = Fraction(1) if k == label else Fraction(0)
    return out


#: Complex entries in one stacked batch of point-operator images (1 MiB): the
#: equivalence suite conjugates the whole stack by as many maps at once as fit.
IMAGE_BATCH = 2 ** 16


def _indicator_rows(basis: PointOperatorBasis, subspaces: list) -> np.ndarray:
    """One float row per subspace in ``points()`` order: 1 at the positions of its
    points, 0 elsewhere."""
    rows = np.zeros((len(subspaces), len(basis.ops)))
    for row, sub in zip(rows, subspaces):
        row[_codes(basis.space.d, list(sub.points()))] = 1.0
    return rows


def _classical_born(state: EpistemicState, transforms: list, measurements: list,
                    columns: list) -> np.ndarray:
    """Classical Born rows of one state, one per transform: each entry of
    ``measure(transform(state, t), meas)`` at its outcome's column.  A label that has
    no column is left out, so its mass shows as a deviation."""
    rows = np.zeros((len(transforms), sum(map(len, columns))))
    for row, t in zip(rows, transforms):
        image = transform(state, t)
        for meas, column in zip(measurements, columns):
            for label, p in measure(image, meas)._probs.items():
                if label in column:
                    row[column[label]] = p.numerator / p.denominator
    return rows


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def equivalence_suite(space: PhaseSpace,
                      states: Iterable[EpistemicState],
                      transforms: Iterable[SymplecticAffine],
                      measurements: Iterable[SharpMeasurement]) -> EquivalenceReport:
    """Compare every classical object with its Wigner image, and Born statistics on
    (state, transform, measurement) triples three ways.

    Triples run state-major, then transform, then measurement.  Every triple is
    compared once: its quantum Born probabilities, its classical distribution
    (``measure`` of ``transform``), and the contraction of its Wigner tables.

    Odd prime d only: this is the regime where the representation is nonnegative and
    the two theories coincide.
    """
    if space.d == 2:
        raise UnsupportedOperation(
            "operational equivalence holds at odd d; at d = 2 use the witness tools")
    states = list(states)
    transforms = list(transforms)
    measurements = list(measurements)
    basis = point_operators(space)
    dim = hilbert_dim(space)
    n_points = len(basis.ops)

    rhos = np.array([quadrature_state(space, s.known, s.valuation).rho for s in states],
                    dtype=complex).reshape(-1, dim, dim)
    # The classical state table is uniform on the support, the response tables are
    # the indicators of the cells: both are read off the positions of their points.
    supports = _indicator_rows(basis, [s.support() for s in states])
    max_state_dev = _max_abs(_state_rows(basis, rhos)
                             - supports / supports.sum(axis=1, keepdims=True))

    # Every map's image stack at once, in batches of at most IMAGE_BATCH entries.
    unitaries = np.array([clifford(space, t).unitary for t in transforms],
                         dtype=complex).reshape(-1, dim, dim)
    adjoints = unitaries.conj().transpose(0, 2, 1)
    batch = max(1, IMAGE_BATCH // basis.ops.size)
    max_channel_dev = 0.0
    for start in range(0, len(transforms), batch):
        images = (unitaries[start:start + batch, None] @ basis.ops
                  @ adjoints[start:start + batch, None])
        tables = _image_rows(basis, images.reshape(-1, dim, dim)).reshape(
            len(images), n_points, n_points)
        for table, t in zip(tables, transforms[start:start + batch]):
            table[np.arange(n_points), _image_positions(basis, t)] -= 1.0
        max_channel_dev = max(max_channel_dev, _max_abs(tables))

    pvms = [quadrature_pvm(space, meas.measured) for meas in measurements]
    starts = np.cumsum([0] + [len(pvm) for pvm in pvms]).tolist()
    columns = [dict(zip(pvm, range(a, b))) for pvm, a, b in zip(pvms, starts, starts[1:])]
    responses = []
    max_meas_dev = 0.0
    for meas, pvm in zip(measurements, pvms):
        rows = _meas_rows(basis, pvm)
        cells = _indicator_rows(basis, [meas.cell(label) for label in pvm])
        max_meas_dev = max(max_meas_dev, _max_abs(rows - cells))
        responses.append(rows)

    n_triples = len(states) * len(transforms) * len(measurements)
    max_born_dev = 0.0
    if n_triples:
        projectors = np.stack([proj for pvm in pvms for proj in pvm.values()])
        response = np.concatenate(responses)
        for state, rho in zip(states, rhos):
            # One stacked evolve per state: rows are transforms, columns outcomes.
            evolved = unitaries @ rho @ adjoints
            quantum = born_table(evolved, projectors, starts[:-1])
            contracted = _state_rows(basis, evolved) @ response.T
            classical = _classical_born(state, transforms, measurements, columns)
            max_born_dev = max(max_born_dev, _max_abs(quantum - classical),
                               _max_abs(contracted - quantum),
                               _max_abs(contracted - classical))
    return EquivalenceReport(
        space.d, space.n, len(states), len(transforms), len(measurements),
        n_triples, max_state_dev, max_channel_dev, max_meas_dev, max_born_dev)
