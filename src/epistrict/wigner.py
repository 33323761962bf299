"""Discrete phase-space representation: point operators and operational tables.

The point operators are the symplectic Fourier transforms of the Weyl family,

    A(m) = d^{-n} * sum_{m'} char(<m', m>) W(m'),      A(m) = W(-m) A(0) W(-m)^dag,

with the doubled character at d = 2 (where the formula reproduces, degree of freedom by
degree of freedom, the familiar real point operators (I ± X ± Y ± Z)/2; the three
Weyl-line signs of that net are exposed as a parameter with (+1, +1, +1) canonical).

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .linalg import vec_scale
from .symplectic import PhaseSpace, SymplecticAffine, UnsupportedOperation
from .epistemic import EpistemicState, SharpMeasurement, measure, transform
from .quantum import (
    TOL,
    born,
    clifford,
    hilbert_dim,
    quadrature_pvm,
    quadrature_state,
    weyl,
)

#: Sign choices (s_x, s_y, s_z) for the three nontrivial Weyl lines of one qubit.
CANONICAL_NET = (1, 1, 1)


@dataclass(frozen=True)
class PointOperatorBasis:
    """The full family {A(m)} indexed by phase-space points."""

    space: PhaseSpace
    ops: tuple          # aligned with points()
    index: dict         # point -> position in ops
    net: Optional[tuple] = None

    def op(self, m) -> np.ndarray:
        return self.ops[self.index[tuple(m)]]

    def points(self):
        return list(self.index)


def _net_sign(net: tuple, q: int, p: int) -> int:
    if (q, p) == (0, 0):
        return 1
    sx, sy, sz = net
    return {(1, 0): sx, (1, 1): sy, (0, 1): sz}[(q, p)]


def point_operators(space: PhaseSpace, net: Optional[tuple] = None) -> PointOperatorBasis:
    """Build the point-operator basis; ``net`` applies at d = 2 only."""
    dim = hilbert_dim(space)
    d = space.d
    if net is not None and d != 2:
        raise ValueError("net signs are a d = 2 freedom only")
    if d == 2 and net is None:
        net = CANONICAL_NET
    points = [tuple(m) for m in space.points()]
    zero = space.zero()
    a0 = np.zeros((dim, dim), dtype=complex)
    for mp in points:
        w = weyl(space, mp)
        if d == 2:
            sign = 1
            for i in range(space.n):
                sign *= _net_sign(net, mp[2 * i], mp[2 * i + 1])
            w = sign * w
        # char(<0, m'>) = 1 for every m', so A(0) is the plain Weyl average.
        a0 += w
    a0 /= dim
    ops = []
    for m in points:
        # W(-m), not W(m): kets translate opposite to quadrature outcome values,
        # so the operator concentrated on the phase-space point m is the negated
        # displacement of the parity-like A(0).
        wm = weyl(space, vec_scale(space.field, -1, m))
        ops.append(wm @ a0 @ wm.conj().T)
    index = {m: i for i, m in enumerate(points)}
    return PointOperatorBasis(space, tuple(ops), index, net if d == 2 else None)


def wigner_state(basis: PointOperatorBasis, rho: np.ndarray) -> dict:
    """State table W_rho(m) = d^{-n} Tr(rho A(m)); validates realness."""
    dim = rho.shape[0]
    out = {}
    for m in basis.points():
        val = np.trace(rho @ basis.op(m))
        if abs(val.imag) > TOL:
            raise AssertionError("state table entry has an imaginary part")
        out[m] = float(val.real) / dim
    total = sum(out.values())
    if abs(total - 1.0) > TOL:
        raise AssertionError(f"state table sums to {total}, not 1")
    return out


def wigner_meas(basis: PointOperatorBasis, pvm: dict) -> dict:
    """Measurement tables W_O(k|m) = Tr(Pi_k A(m)), one row of floats per outcome."""
    out = {}
    for label, proj in pvm.items():
        row = {}
        for m in basis.points():
            val = np.trace(proj @ basis.op(m))
            if abs(val.imag) > TOL:
                raise AssertionError("effect table entry has an imaginary part")
            row[m] = float(val.real)
        out[label] = row
    for m in basis.points():
        col = sum(out[label][m] for label in out)
        if abs(col - 1.0) > TOL:
            raise AssertionError("response tables do not sum to 1 at an ontic point")
    return out


def wigner_channel(basis: PointOperatorBasis, channel: Callable) -> dict:
    """Channel table W_E[m_in][m_out] = d^{-n} Tr(A(m_out) E(A(m_in)))."""
    dim = basis.ops[0].shape[0]
    points = basis.points()
    images = {m: channel(basis.op(m)) for m in points}
    out = {}
    for m_in in points:
        col = {}
        for m_out in points:
            val = np.trace(basis.op(m_out) @ images[m_in])
            if abs(val.imag) > TOL:
                raise AssertionError("channel table entry has an imaginary part")
            col[m_out] = float(val.real) / dim
        colsum = sum(col.values())
        if abs(colsum - 1.0) > TOL:
            raise AssertionError(f"channel column sums to {colsum}, not 1")
        out[m_in] = col
    return out


@dataclass(frozen=True)
class CovarianceReport:
    ok: bool
    max_deviation: float
    failures: tuple


def verify_covariance(basis: PointOperatorBasis, t: SymplecticAffine) -> CovarianceReport:
    """Check U(S,a) A(m) U^dag = A(S m + a) entrywise; exact at odd d."""
    channel = clifford(basis.space, t)
    worst = 0.0
    failures = []
    for m in basis.points():
        lhs = channel.apply(basis.op(m))
        rhs = basis.op(tuple(t.apply(m)))
        dev = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, dev)
        if dev > TOL:
            failures.append(m)
    return CovarianceReport(not failures, worst, tuple(failures))


def negativity(table: dict) -> tuple:
    """Smallest entry of a state table and the first point attaining it."""
    best = None
    where = None
    for m in sorted(table):
        if best is None or table[m] < best - 1e-15:
            best = table[m]
            where = m
    return best, where


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
    tolerance: float

    @property
    def ok(self) -> bool:
        return max(self.max_state_dev, self.max_channel_dev,
                   self.max_meas_dev, self.max_born_dev) <= self.tolerance


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


def _table_dev(wigner_table: dict, classical_table: dict) -> float:
    worst = 0.0
    for key, val in wigner_table.items():
        worst = max(worst, abs(val - float(classical_table.get(key, 0))))
    return worst


def equivalence_suite(space: PhaseSpace,
                      states: Iterable[EpistemicState],
                      transforms: Iterable[SymplecticAffine],
                      measurements: Iterable[SharpMeasurement],
                      max_triples: Optional[int] = None,
                      tolerance: float = TOL) -> EquivalenceReport:
    """Compare every classical object with its Wigner image, and Born statistics on
    (state, transform, measurement) triples three ways.

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

    rho_of = {}
    max_state_dev = 0.0
    for s in states:
        qs = quadrature_state(space, s.known, s.valuation)
        rho_of[s] = qs.rho
        dev = _table_dev(wigner_state(basis, qs.rho), classical_state_table(s))
        max_state_dev = max(max_state_dev, dev)

    channel_of = {}
    max_channel_dev = 0.0
    for t in transforms:
        channel = clifford(space, t)
        channel_of[t] = channel
        table = wigner_channel(basis, channel)
        classical = classical_channel_table(t)
        for m_in, col in table.items():
            max_channel_dev = max(max_channel_dev, _table_dev(col, classical[m_in]))

    points = basis.points()
    pvm_of = {}
    response_rows = {}
    max_meas_dev = 0.0
    for meas in measurements:
        pvm = quadrature_pvm(space, meas.measured)
        pvm_of[meas] = pvm
        table = wigner_meas(basis, pvm)
        response_rows[meas] = {label: np.array([table[label][m] for m in points])
                               for label in table}
        classical = classical_meas_table(meas)
        for label, row in table.items():
            max_meas_dev = max(max_meas_dev, _table_dev(row, classical[label]))

    max_born_dev = 0.0
    n_triples = 0
    capped = False
    measured_cache = {}
    for s in states:
        if capped:
            break
        for t in transforms:
            if capped:
                break
            evolved_rho = channel_of[t].apply(rho_of[s])
            evolved_state = transform(s, t)
            w_evolved = wigner_state(basis, evolved_rho)
            wvec = np.array([w_evolved[m] for m in points])
            for k, meas in enumerate(measurements):
                if max_triples is not None and n_triples >= max_triples:
                    capped = True
                    break
                n_triples += 1
                key = (evolved_state, k)
                if key not in measured_cache:
                    measured_cache[key] = measure(evolved_state, meas)
                classical_dist = measured_cache[key]
                quantum_dist = born(evolved_rho, pvm_of[meas])
                for label, q_prob in quantum_dist.items():
                    c_prob = float(classical_dist.probability(label))
                    contracted = float(response_rows[meas][label] @ wvec)
                    max_born_dev = max(max_born_dev,
                                       abs(q_prob - c_prob),
                                       abs(contracted - q_prob),
                                       abs(contracted - c_prob))
    return EquivalenceReport(
        space.d, space.n, len(states), len(transforms), len(measurements),
        n_triples, max_state_dev, max_channel_dev, max_meas_dev, max_born_dev,
        tolerance)
