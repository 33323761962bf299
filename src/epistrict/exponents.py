"""The exact Weyl-exponent calculus: the stabilizer formalism in plain ints, no numpy.

Every phase is r^e for an integer e, r = i at d = 2 and omega at odd d (``_weyl_lift``),
so the Clifford side of a scenario is arithmetic on exponents (Aaronson-Gottesman,
quant-ph/0406196).  W(a) W(b) = r^beta(a, b) W(a + b) at every d, with beta read off
the Weyl prefactors of ``quantum`` (``_composition_exponent``).  The metaplectic
section there gives U W(a) U^dag = r^sigma_S(a) W(S a), where sigma_S vanishes on the
unit vectors and follows the walk a = a' + e_j (e_j the last nonzero coordinate of a) as

    sigma_S(a' + e_j) = sigma_S(a') + beta(S a', S e_j) - beta(a', e_j),

which ``_clifford_image`` walks; beta is symplectic-invariant at odd d, so sigma_S
vanishes there.  A state's characteristic function Tr(W(m) rho) = r^lambda(m) is spread
over its stabilizer span (``_stabilizer_exponents``), moved by a Clifford channel
(``_channel_image``) and read against a PVM's for exact Born statistics (``_exact_born``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul
from typing import Optional

from .linalg import vec_dot
from .symplectic import (
    PhaseSpace,
    SymplecticAffine,
    UnsupportedOperation,
    _apply_j,
    _apply_jt,
    _capped_product,
)
from .epistemic import EpistemicState, SharpMeasurement

MAX_DIM = 128


def hilbert_dim(space: PhaseSpace, cap: int = MAX_DIM) -> int:
    """Dimension d^n of the Hilbert space, enforcing the size cap."""
    if not space.field.is_finite:
        raise UnsupportedOperation("no finite-dimensional Hilbert space over Q")
    return _capped_product("Hilbert space", itertools.repeat(space.d, space.n),
                           f"{space.d}^{space.n}", cap)


def _weyl_lift(d: int) -> tuple:
    """``(order, c, k)`` for W(q, p) = r^{c q p} S(q) B(p) per degree of freedom, with
    B(p)|x> = r^{k p x}|x> and r = exp(2 pi i / order): r = i, c = 1, k = 2 at d = 2
    (the doubled character is i^2), r = omega, c = -inv2, k = 1 at odd d."""
    if d == 2:
        return 4, 1, 2
    return d, (d - 1) // 2, 1


def _composition_exponent(d: int, a: tuple, b: tuple) -> int:
    """beta(a, b) with W(a) W(b) = r^beta W(a + b), reduced mod the order of r, for
    canonical interleaved int vectors.  B(p) S(q') = r^{-k p q'} S(q') B(p), so per
    degree of freedom W(a) W(b) = r^{c (q p + q' p' - s t) - k p q'} W(a + b), where
    (s, t) is the canonical (q + q', p + p') (``_weyl_lift``)."""
    order, c, k = _weyl_lift(d)
    total = 0
    for i in range(0, len(a), 2):
        q, p, q2, p2 = a[i], a[i + 1], b[i], b[i + 1]
        total += c * (q * p + q2 * p2 - (q + q2) % d * ((p + p2) % d)) - k * p * q2
    return total % order


def _state_generators(state: EpistemicState) -> list:
    """The quadrature state's stabilizer generators as ``(m, lambda(m))`` pairs: for f in
    the canonical basis of V, char(v . f) W(J f) fixes rho, so Tr(W(J f) rho) = r^lambda
    with lambda = -k v . f (``_weyl_lift``)."""
    fld = state.space.field
    order, _, k = _weyl_lift(state.space.d)
    return [(_apply_j(fld, f), -k * vec_dot(fld, f, state.valuation) % order)
            for f in state.known.basis]


def _stabilizer_exponents(space: PhaseSpace, generators) -> dict:
    """lambda(x) with Tr(W(x) rho) = r^lambda(x) on a stabilizer state (r of
    ``_weyl_lift``), keyed by every point x of the span of its independent generators.

    ``generators`` holds ``(m, lambda(m))`` pairs of a canonical int tuple and its
    exponent; a generator char(e) W(m) that fixes rho has lambda(m) = -k e.
    W(x + m) = r^{-beta(x, m)} W(x) W(m) carries the values over the span:
    lambda(x + m) = lambda(x) + lambda(m) - beta(x, m).  Plain ints throughout: a span
    holds at most d^n points, too few for arrays to pay.
    """
    d = space.d
    order = _weyl_lift(d)[0]
    span = {space.zero(): 0}
    for m, lam_m in generators:
        layer, grown = span, dict(span)
        for _ in range(d - 1):
            layer = {tuple((a + b) % d for a, b in zip(x, m)):
                     (lam + lam_m - _composition_exponent(d, x, m)) % order
                     for x, lam in layer.items()}
            grown.update(layer)
        span = grown
    return span


def _clifford_image(d: int, s_rows: tuple, m: tuple) -> tuple:
    """``(S m, sigma_S(m))`` with U(S) W(m) U(S)^dag = r^sigma_S(m) W(S m) (the section
    of ``quantum``).  sigma_S vanishes at odd d.  At d = 2 it is walked one unit vector
    at a time from sigma_S(0) = 0 as
    sigma_S(a + e_j) = sigma_S(a) + beta(S a, S e_j) - beta(a, e_j)."""
    if d != 2:
        return tuple(sum(map(mul, row, m)) % d for row in s_rows), 0
    image, sigma = [0] * len(m), 0
    for j in (j for j, x in enumerate(m) if x):
        column = [row[j] for row in s_rows]  # S e_j
        if any(image):  # beta(0, x) = 0, so the first step adds nothing
            # a holds m's coordinates before j, so beta(a, e_j) is -m[j - 1] for a
            # momentum coordinate j (odd) and 0 for a position.
            sigma += _composition_exponent(d, image, column) + (j % 2) * m[j - 1]
        image = [(x + y) % d for x, y in zip(image, column)]
    return tuple(image), sigma % _weyl_lift(d)[0]


def _channel_image(d: int, s_rows: tuple, c: tuple, m: tuple) -> tuple:
    """``(S m, e)`` with V W(m) V^dag = r^e W(S m) for V = W(c) U(S), the unitary of the
    channel ``clifford`` gives the map m -> S m + a, c = -a: U(S) contributes sigma_S(m)
    (``_clifford_image``) and W(c) W(x) W(c)^dag = r^{beta(c, x) - beta(x, c)} W(x)."""
    image, sigma = _clifford_image(d, s_rows, m)
    return image, (sigma + _composition_exponent(d, c, image)
                   - _composition_exponent(d, image, c)) % _weyl_lift(d)[0]


def _exact_born(state: EpistemicState, t: Optional[SymplecticAffine],
                meas: SharpMeasurement) -> dict:
    """Born statistics of the quadrature state, Clifford channel and quadrature PVM of
    (state, t, meas), as exact ``Fraction``s keyed by ``meas.outcomes()``, with no
    density matrix, unitary or projector: the stabilizer formalism in plain ints.

    The state's generators (``_state_generators``) move under m -> S m + a as the
    channel ``clifford(t)`` moves characteristic functions (``_channel_image``), with
    c = -a: lambda'(S m) = lambda(m) - sigma_S(m) - (beta(c, S m) - beta(S m, c)).  The
    moved generators and the measurement's, (J f'_i, lambda = -k t_i) for the canonical
    basis f'_i of V', are spread over their spans; then
    p(t) = d^{-k'} sum_{x in H} r^{lambda_P,t(x) - lambda'(x)}, H the intersection of
    the spans and k' = rank V'.  lambda_P,t - lambda' is additive on H, so p(t) is
    |H| / d^{k'} where it vanishes on H and 0 elsewhere.  With f'_i the canonical basis,
    x = J g has g = J^T x = sum_i c_i f'_i, so lambda_P,t(x) = lambda_P,0(x) - k g . u
    at the outcome label u (t_i = f'_i . u).
    """
    space = state.space
    hilbert_dim(space)  # the quantum objects these statistics describe
    d, fld = space.d, space.field
    order, _, k = _weyl_lift(d)
    generators = _state_generators(state)
    if t is not None:
        c = tuple(-x % d for x in t.a)
        moved = []
        for m, lam in generators:
            image, e = _channel_image(d, t.s.rows, c, m)
            lam = (lam - e) % order
            if lam % 2 and d == 2:
                raise AssertionError(f"the moved generator {image} has exponent {lam}: "
                                     "not a real sign")
            moved.append((image, lam))
        generators = moved
    rho = _stabilizer_exponents(space, generators)
    pvm = _stabilizer_exponents(space, [(_apply_j(fld, f), 0) for f in meas.measured.basis])
    # (lambda_P,0(x) - lambda'(x), J^T x) on H less the origin, where both vanish.
    common = [(lam - rho[x], _apply_jt(fld, x)) for x, lam in pvm.items()
              if any(x) and x in rho]
    size, rank = len(common) + 1, len(meas.measured.basis)
    if size not in {d ** j for j in range(rank + 1)}:
        raise AssertionError(f"the spans meet in {size} points, not a power d^j <= d^k'")
    p, zero = Fraction(size, d ** rank), Fraction(0)
    probs = {u: p if all((delta - k * sum(map(mul, g, u))) % order == 0
                         for delta, g in common) else zero
             for u in meas.outcomes()}
    # The probabilities sum to 1 exactly when d^{k'} / |H| outcomes are possible.
    possible = sum(1 for x in probs.values() if x)
    if possible * size != d ** rank:
        raise AssertionError(f"exact Born probabilities sum to {possible * p}")
    return probs
