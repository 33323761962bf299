"""Classical states under the quadrature knowledge restriction, and their statistics.

An agent may jointly know only quadratures that Poisson-commute, i.e. an isotropic
subspace V of functionals, together with one value for each.  The states of maximal
allowed knowledge are therefore pairs (V, v):

* ``known``      — an isotropic linear subspace V (what is known);
* ``valuation``  — which value assignment, encoded as the canonical representative of
  the coset v + V-perp.  Two raw vectors give identical physics iff they agree on every
  f in V, which happens iff they lie in the same coset of the Euclidean complement
  V-perp, so states are parametrized by cosets rather than by elements of V.  (For the
  generic V with F^{2n} = V + V-perp the representative can be taken inside V; the
  coset form also covers the self-orthogonal-direction cases that arise over finite
  fields, keeping outcome-completeness intact.)

The ontic support is V-perp + v.  All probabilities are exact ``Fraction`` values
(``measure``, finite fields).  Over the rational field only the possibilistic layer
is available: ``possible_values``, the affine set of measured values that can occur.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .fields import Scalar
from .linalg import (
    AffineSubspace,
    Vector,
    _clear_pivots,
    _interned,
    _matvec,
    _pivot_clearing_rows,
)
from .symplectic import (
    PhaseSpace,
    SizeCapExceeded,
    SymplecticAffine,
    UnsupportedOperation,
    _apply_j,
    _apply_jt,
    _as_functional,
    _euclidean_complement,
    _require_on_space,
    enumerate_isotropic,
    is_isotropic,
)


@dataclass(frozen=True)
class EpistemicState:
    """A maximal-knowledge epistemic state (V, v); see the module docstring."""

    space: PhaseSpace
    known: AffineSubspace
    valuation: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if not is_isotropic(self.space, self.known):
            raise ValueError("known quadratures must span an isotropic linear subspace")
        # One instance per equal V, so the memos keyed on it match by identity.
        object.__setattr__(self, "known", _interned(self.known))
        raw = self.valuation if self.valuation is not None else self.space.zero()
        hidden = _euclidean_complement(self.space, self.known)
        object.__setattr__(self, "valuation", _clear_pivots(
            self.space.field, self.space.vector(raw, "valuation"), hidden.basis))

    @classmethod
    def _trusted(cls, space: PhaseSpace, known: AffineSubspace,
                 valuation: Vector) -> "EpistemicState":
        """The state (V, v) of an isotropic ``known`` on ``space`` and a ``valuation``
        already canonical against V-perp, both produced by the caller's own
        arithmetic: stored as they are, nothing checked.  Equal to, and hashing like,
        ``EpistemicState(space, known, valuation)``."""
        state = object.__new__(cls)
        object.__setattr__(state, "space", space)
        object.__setattr__(state, "known", known)
        object.__setattr__(state, "valuation", valuation)
        return state

    @classmethod
    def ignorance(cls, space: PhaseSpace) -> "EpistemicState":
        """The state of no knowledge: every ontic state is possible."""
        return cls(space, AffineSubspace.span(space.field, [], ambient=space.dim))

    @classmethod
    def from_support(cls, space: PhaseSpace, sup: AffineSubspace) -> "EpistemicState":
        """Reconstruct (V, v) from an ontic support of the valid affine form."""
        _require_on_space(space, sup)
        if sup.is_empty:
            raise ValueError("a state must have nonempty support")
        direction = sup.direction()
        known = _euclidean_complement(space, direction)
        state = cls(space, known, sup.offset)
        if state.support() != sup:
            raise ValueError("support is not of the form V-perp + v for isotropic V")
        return state

    def support(self) -> AffineSubspace:
        hidden = _euclidean_complement(self.space, self.known)
        return AffineSubspace(self.space.field, self.space.dim, hidden.basis,
                              self.valuation)

    @property
    def rank(self) -> int:
        return self.known.rank

    def is_pure(self) -> bool:
        """Maximal allowed knowledge: V is Lagrangian."""
        return self.known.rank == self.space.n

    def value_of(self, f) -> Scalar:
        """The sharp value of a known functional (constant on the support)."""
        f = _as_functional(self.space, f)
        if not self.known.contains(f.f):
            raise ValueError("functional is not known in this state")
        return f.evaluate(self.valuation)


#: Fixed cap on the states ``enumerate_states`` lists and the outcomes a measurement has.
STATE_CAP = 500_000


def enumerate_states(space: PhaseSpace) -> list:
    """Every valid epistemic state, deterministically ordered and duplicate-free.

    For each isotropic V (including the trivial one) there are d^rank(V) valuation
    cosets, labelled exactly as the outcomes of measuring V.
    """
    if not space.field.is_finite:
        raise UnsupportedOperation("cannot enumerate states over Q")
    d = space.d
    out = []
    for v_sub in enumerate_isotropic(space):
        count = d ** v_sub.rank
        if len(out) + count > STATE_CAP:
            raise SizeCapExceeded("state enumeration", len(out) + count, STATE_CAP)
        labels = SharpMeasurement(space, v_sub).outcomes()
        if len(labels) != count:
            raise AssertionError("valuation cosets do not match the rank of V")
        out.extend(EpistemicState(space, v_sub, label) for label in labels)
    return out


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------


def transform(state: EpistemicState, t: SymplecticAffine) -> EpistemicState:
    """Push the state through an affine symplectic map, acting on the label (V, v).

    The support V-perp + v maps pointwise onto S V-perp + (S v + a), whose known
    functionals V' = S^{-T} V depend on (V, S) alone, and so does the pivot clearing
    P that makes S v + a canonical.  Both are memoized, so a warm call is the one
    matvec P (S v + a) = [P S | P] (v, a) over canonical scalars, cleared once more
    against V'-perp by the one canonicalization route of valuations.  V' is
    isotropic for a checked state and a checked map, so the result is built without
    re-checking it.
    """
    space = state.space
    if t.space is not space and t.space != space:
        raise ValueError("transformation acts on a different phase space")
    fld = space.field
    known, rows, hidden = _known_image(space, state.known, t.s.rows)
    valuation = _clear_pivots(fld, _matvec(fld, rows, state.valuation + t.a), hidden)
    return EpistemicState._trusted(space, known, valuation)


@functools.lru_cache(maxsize=4096)
def _known_image(space: PhaseSpace, known: AffineSubspace, s_rows: tuple) -> tuple:
    """``(V', rows, hidden)``: the canonical V' = S^{-T} V, the rows of the 2n x 4n
    matrix [P S | P], and the canonical basis of V'-perp that P clears against.

    For symplectic S, S^{-T} f = J^T S (J f), where J and J^T are signed swaps, so
    each known row costs one product with S, read from the validated map's canonical
    rows as they are.  The products are canonical, so V' is their row reduction,
    and it is interned: every equal V' is one instance, which keys the memos below
    by identity.  P [S | I] is ``linalg._pivot_clearing_rows``.

    A run meets few (V, S) pairs: criterion 7 pushes 91 states through each of
    11,520 maps, but only 31 distinct V.  Memoized and bounded; it holds only the
    canonical subspace V' and tuples of canonical scalars.
    """
    fld = space.field
    image = _interned(AffineSubspace._trusted(
        fld, space.dim,
        [_apply_jt(fld, _matvec(fld, s_rows, _apply_j(fld, f))) for f in known.basis]))
    hidden = _euclidean_complement(space, image).basis
    one, zero = fld.one, fld.zero
    aug = [row + tuple(one if i == j else zero for j in range(space.dim))
           for i, row in enumerate(s_rows)]
    return image, _pivot_clearing_rows(fld, hidden, aug), hidden


# ---------------------------------------------------------------------------
# sharp measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpMeasurement:
    """A jointly-knowable quadrature measurement: an isotropic subspace V' of functionals.

    Outcomes are value assignments to V', labelled by canonical coset representatives
    exactly as state valuations are; the response set of a label is the phase-space
    cell V'-perp + label, and the cells partition phase space.
    """

    space: PhaseSpace
    measured: AffineSubspace

    def __post_init__(self):
        if not is_isotropic(self.space, self.measured):
            raise ValueError("measured functionals must span an isotropic linear subspace")
        object.__setattr__(self, "measured", _interned(self.measured))

    @classmethod
    def of_functional(cls, space: PhaseSpace, f: Iterable) -> "SharpMeasurement":
        return cls(space, AffineSubspace.span(space.field, [f], ambient=space.dim))

    def label_of(self, point: Iterable) -> Vector:
        """Canonical outcome label of the cell containing ``point``."""
        return _euclidean_complement(self.space, self.measured).representative(point)

    def cell(self, label: Iterable) -> AffineSubspace:
        """All ontic states producing this outcome (the response set)."""
        cells = _euclidean_complement(self.space, self.measured)
        return AffineSubspace(self.space.field, self.space.dim, cells.basis,
                              self.space.vector(label, "label"))

    def outcomes(self) -> list:
        """All canonical outcome labels, lexicographically ordered (finite fields):
        the outcomes possible in the state of no knowledge."""
        space = self.space
        if not space.field.is_finite:
            raise UnsupportedOperation("cannot enumerate outcomes over Q")
        # The ignorance state knows the zero subspace and has the zero valuation, so
        # its outcome set is the memoized span itself, with no offset to add.
        return list(_outcome_span(space, _zero_subspace(space), self.measured)[1])

    def values_at(self, label: Iterable) -> tuple:
        """The value tuple (f_i applied to the label) over the canonical basis of V'."""
        return _values_at(self, self.space.vector(label, "label"))


@functools.lru_cache(maxsize=4096)
def _zero_subspace(space: PhaseSpace) -> AffineSubspace:
    """The zero subspace of the space, built once and interned: what the ignorance
    state knows.  Memoized and bounded, like every memo keyed on a space."""
    return _interned(AffineSubspace(space.field, space.dim))


def _values_at(m: SharpMeasurement, label: tuple) -> tuple:
    """``m.values_at`` of a label that is already a canonical vector of the space."""
    return _matvec(m.space.field, m.measured.basis, label)


class OutcomeDistribution:
    """Exact outcome statistics: canonical labels mapped to ``Fraction`` probabilities."""

    def __init__(self, entries: dict):
        probs = [Fraction(v) for v in entries.values()]
        total = sum(probs, Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for p in probs):
            raise ValueError("negative probability")
        self._probs = {tuple(k): p for k, p in zip(entries, probs) if p}

    @classmethod
    def _uniform(cls, labels: list, p: Fraction) -> "OutcomeDistribution":
        """Each of the distinct canonical ``labels`` at probability ``p``.  The sum is
        not re-added entry by entry: p = 1/len(labels) is checked once, and raises."""
        probs = dict.fromkeys(labels, p)
        if p.numerator != 1 or p.denominator != len(probs):
            raise ValueError(f"uniform probability {p} over {len(probs)} outcomes")
        dist = cls.__new__(cls)
        dist._probs = probs
        return dist

    def probability(self, label) -> Fraction:
        return self._probs.get(tuple(label), Fraction(0))

    __getitem__ = probability

    def items(self):
        return sorted(self._probs.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, OutcomeDistribution) and self._probs == other._probs

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"OutcomeDistribution({{{inner}}})"

    def is_deterministic(self) -> bool:
        return len(self._probs) == 1


def measure(state: EpistemicState, m: SharpMeasurement) -> OutcomeDistribution:
    """Sharp-measurement statistics: uniform over the possible outcomes.

    Pr(label) = |support ∩ cell(label)| / |support|.  Every nonempty intersection is a
    coset of V-perp ∩ V'-perp, so all possible outcomes are equally likely.
    """
    if not state.space.field.is_finite:
        raise UnsupportedOperation(
            "probabilities need a finite ontic space; use possible_values() over Q")
    return OutcomeDistribution._uniform(*_labels_and_weight(state, m))


def _labels_and_weight(state: EpistemicState, m: SharpMeasurement) -> tuple:
    """The possible labels in outcome order, and the probability 1/count of each.

    The label of a point is its pivot-clearing projection P onto the canonical
    representatives of V'-perp cosets, and P is linear.  So the labels met by the
    support V-perp + v are exactly the points of P(v) + span{P(h) : h spans V-perp}
    (finite fields only).
    """
    space = state.space
    if m.space is not space and m.space != space:
        raise ValueError("measurement lives on a different phase space")
    d = space.field.modulus
    clearing, span, p = _outcome_span(space, state.known, m.measured)
    # The offset P(v), cleared further against the span's own rows: then it is zero
    # in every pivot column of the cells and of the span, so each sum below is a
    # canonical label and the sums keep the span's (lexicographic) order.
    x = state.valuation
    for k, row in clearing:
        c = x[k]
        if c:
            x = tuple([(a - c * b) % d for a, b in zip(x, row)])
    if any(x):
        return [tuple([(a + b) % d for a, b in zip(x, point)]) for point in span], p
    return list(span), p


@functools.lru_cache(maxsize=4096)
def _outcome_span(space: PhaseSpace, known: AffineSubspace,
                  measured: AffineSubspace) -> tuple:
    """``(clearing, span, p)`` for a state knowing ``known`` measured along ``measured``.

    ``span`` lists, in lexicographic order, the points of span{P(h) : h spans V-perp},
    where P is the label projection: the pivot clearing against the canonical basis of
    V'-perp.  ``clearing`` holds ``(pivot column, row)`` for each row of that basis and
    then of the span's canonical basis, and ``p`` is the uniform probability 1/|span|.

    Everything in the outcome set but the offset P(v) depends on (V, V') alone, and a
    run meets few such pairs.  Memoized and bounded; it holds only tuples, ints and a
    ``Fraction``.  A span past ``STATE_CAP`` points is refused before it is listed.
    """
    fld = space.field
    cells = _euclidean_complement(space, measured)
    span = AffineSubspace._trusted(
        fld, space.dim,
        [_clear_pivots(fld, h, cells.basis)
         for h in _euclidean_complement(space, known).basis])
    if space.d ** span.rank > STATE_CAP:
        raise SizeCapExceeded("outcome enumeration", f"{space.d}^{span.rank}", STATE_CAP)
    points = tuple(span.points())
    clearing = tuple((row.index(1), row) for row in cells.basis + span.basis)
    return clearing, points, Fraction(1, len(points))


def possible_values(state: EpistemicState, m: SharpMeasurement) -> AffineSubspace:
    """The affine set of jointly possible value tuples over the canonical basis of V'.

    Works over any field, and over Q it is all the statistics there are.  The measured
    functionals F vanish on V'-perp, so this is the support's image F(v) + span F(V-perp).
    """
    if m.space != state.space:
        raise ValueError("measurement lives on a different phase space")
    sup = state.support()
    return AffineSubspace(state.space.field, m.measured.rank,
                          tuple(_values_at(m, h) for h in sup.basis),
                          _values_at(m, sup.offset))

