"""Weyl operators, metaplectic unitaries, and quadrature observables on (C^d)^{⊗n}.

Numerics are complex doubles behind one entrywise tolerance (``TOL``), with
``PROB_TOL`` for a probability computed by both theories; Hilbert-space dimensions
are capped (d^n <= 128 by default).  Coordinates stay interleaved
(q1, p1, ...) exactly as on the classical side.

Convention audit (executable in the test suite):

* one point order: the basis vectors |x>, x in (Z_d)^n, and the phase-space points
  run in ``PhaseSpace.points()`` order, first coordinate most significant, as
  ``_digits`` lists them; ``_codes`` gives each point's position.
* one root of unity: every phase is r^e for an integer e (``_roots``), with r = i at
  d = 2 and r = omega = exp(2 pi i / d) at odd d.
* shift: S(q)|x> = |x - q>, boost: B(p)|x> = chi(p x)|x>, with the doubled character
  exp(2*pi*i/2) -> (-1) inside boost at d = 2, so B(1) = diag(1, -1).  Neither is
  built here; the tests build the dense S-then-B product as a reference route.
* Weyl prefactor per degree of freedom: chi(-inv2 * q * p) S(q) B(p) at odd d, where
  inv2 is the field inverse of 2.  This is the unique choice (given the S-then-B order)
  for which the composition law

      W(a) W(a') = chi(inv2 * <a, a'>) W(a + a')

  holds exactly, along with W(a)^dag = W(-a).  At d = 2 the prefactor is i^{q p},
  making every W(a) a Hermitian tensor of I, X, Y, Z (W(1,1) = Y); composition then
  holds up to a phase in {1, i, -1, -i} and operators commute iff <a, a'> = 0.
  Both cases are one exact integer law, W(a) W(b) = r^beta(a, b) W(a + b), in
  ``exponents``.
  Every W(a) is monomial (one nonzero entry per column), so it is built from a
  target index and a phase per basis vector rather than from dense products.
* Metaplectic section: U(S)|0> is the +1 joint eigenvector psi of the W(S e_{p_i}),
  with its first entry above TOL real and positive, and
  U(S)|x> = prod_i W(S e_{q_i})^{-x_i} psi, copying |x> = prod_i W(e_{q_i})^{-x_i}|0>.
  Then U(S) W(e_j) U(S)^dag = W(S e_j) exactly for all 2n unit vectors at every d.
  At odd d the composition law carries this to every a, which fixes U(S) up to a
  global phase.  At d = 2 the image of a sum of unit vectors can pick up a sign,
  U W(a) U^dag = +-W(S a), because the i^{q p} lift is not preserved by S; so the
  channels of U(A B) and U(A) U(B) can differ, while at odd d they agree.  The
  sign is the exact exponent sigma_S of ``exponents``.
* A quadrature functional f is measured by the projectors on the Weyl line through Jf,
  P_f(t) = (1/d) sum_s chi(t s) W(s Jf) (doubled character at d = 2), scattered from
  the monomial form of the multiples s Jf and multiplied left to right into joint ones.
  Conjugating the position PVM by a metaplectic whose symplectic maps q1 to f lands on
  the same PVM up to a label shift — the inverse-transpose of the matrix is what acts
  on functionals — and that reconciliation is asserted in the tests rather than taken
  as the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable

import numpy as np

from .exponents import _composition_exponent, _weyl_lift, hilbert_dim
from .fields import Field, RationalField
from .linalg import AffineSubspace, Matrix, _require_field, vec_dot, vec_scale
from .symplectic import (
    PhaseSpace,
    SymplecticAffine,
    UnsupportedOperation,
    _apply_j,
    _apply_jt,
    _as_functional,
    is_symplectic,
)
from .epistemic import EpistemicState, SharpMeasurement, _values_at

#: Entrywise tolerance on complex matrices, tables and traces.
TOL = 1e-10
#: Agreement threshold for a probability computed by both theories.
PROB_TOL = 1e-9


def chi(field: Field, c) -> complex:
    """The field's character: exp(2 pi i c / d); i^c at d = 2; exp(i c) over Q."""
    if isinstance(field, RationalField):
        return complex(np.exp(1j * float(Fraction(c))))
    return complex(_roots(field.modulus, int(c)))  # type: ignore[attr-defined]


def _pair_char(d: int, c):
    """Character used in eigenvalue/projector pairings: doubled at d = 2."""
    return _roots(d, _weyl_lift(d)[2] * c)


def _digits(d: int, m: int) -> np.ndarray:
    """The (d^m, m) points of (Z_d)^m in ``points()`` order, first digit leading."""
    return (np.arange(d ** m)[:, None] // d ** np.arange(m - 1, -1, -1)) % d


def _codes(d: int, x) -> np.ndarray:
    """The position in ``points()`` order of each point along the last axis of ``x``."""
    return np.asarray(x) @ d ** np.arange(np.shape(x)[-1] - 1, -1, -1)


#: i^k for k mod 4, exact: the d = 2 Weyl entries are fourth roots of unity.
_I_POWERS = np.array([1, 1j, -1, -1j])


def _roots(d: int, e):
    """r^e for integer exponents e: exactly i^e at d = 2, omega^e at odd d."""
    e = np.asarray(e)
    if d == 2:
        return _I_POWERS[e % 4]
    return np.exp(2j * np.pi * (e % d) / d)


def _weyl_monomials(d: int, n: int, vectors) -> tuple:
    """Each Weyl operator as a monomial matrix: W(a)|x> = phases[x] |rows[x]>.

    Per degree of freedom W(q, p)|x> = r^{c q p + k p x}|x - q> (``_weyl_lift``), so
    one target index and one phase per column describe W(a).  ``vectors`` holds K
    interleaved integer vectors; ``rows`` (int) and ``phases`` (complex) are both
    (K, d^n), with columns in basis order.
    """
    a = np.asarray(vectors, dtype=np.int64).reshape(-1, 2 * n)
    q, p = a[:, 0::2], a[:, 1::2]
    x = _digits(d, n)
    _, c, k = _weyl_lift(d)
    rows = _codes(d, (x[None, :, :] - q[:, None, :]) % d)
    return rows, _roots(d, c * np.sum(q * p, axis=1)[:, None] + k * (p @ x.T))


def weyl(space: PhaseSpace, a: Iterable) -> np.ndarray:
    """The Weyl (phase-point displacement) operator for an interleaved vector a."""
    dim = hilbert_dim(space)
    rows, phases = _weyl_monomials(space.d, space.n, space.vector(a, "Weyl vector"))
    out = np.zeros((dim, dim), dtype=complex)
    out[rows[0], np.arange(dim)] = phases[0]
    return out


def weyl_phase(space: PhaseSpace, a: Iterable, b: Iterable) -> complex:
    """The exact composition phase: W(a) W(b) = weyl_phase(a, b) W(a + b) (odd d)."""
    d = space.d
    if d == 2:
        raise UnsupportedOperation("at d = 2 the composition phase is not a character")
    a, b = (space.vector(x, "Weyl vector") for x in (a, b))
    return chi(space.field, _composition_exponent(d, a, b))


# ---------------------------------------------------------------------------
# metaplectic unitaries
# ---------------------------------------------------------------------------


#: Memo of built unitaries, cleared when full like the subspace memo in ``linalg``.
#: Entries are read-only, so no caller can corrupt what later callers receive.
_metaplectic_cache: Dict[tuple, np.ndarray] = {}
_METAPLECTIC_CACHE_LIMIT = 2048


def metaplectic(space: PhaseSpace, s) -> np.ndarray:
    """The unitary U(S) with U(S) W(e_j) U(S)^dag = W(S e_j) for every unit vector e_j.

    The section of the module docstring: U(S)|x> = prod_i W(S e_{q_i})^{-x_i} psi for
    the +1 joint eigenvector psi of the W(S e_{p_i}).  The result is cached and
    read-only; covariance on the unit vectors is re-verified after every build.
    """
    if not isinstance(s, Matrix):
        s = Matrix(space.field, s)
    _require_field(s, space.field, "the phase space")
    key = (space.d, space.n, s.rows)
    cached = _metaplectic_cache.get(key)
    if cached is not None:
        return cached
    if not is_symplectic(space, s):
        raise ValueError("matrix is not symplectic; no metaplectic exists")
    d, n = space.d, space.n
    dim = hilbert_dim(space)
    images = s.T.rows  # S e_j for the interleaved unit vectors (q1, p1, ...)

    # W(S e_p) has the +1 projector of the functional J^T S e_p at value 0.
    momenta = [_apply_jt(space.field, images[2 * i + 1]) for i in range(n)]
    proj = _joint_projectors(space, momenta, [(0,) * n])[0]
    psi = proj[:, np.argmax(np.linalg.norm(proj, axis=0))]
    psi = psi / np.linalg.norm(psi)
    lead = psi[np.argmax(np.abs(psi) > TOL)]
    psi = psi * (abs(lead) / lead)

    # Column x starts as psi and takes W(S e_{q_i})^{-x_i} = W(-x_i S e_{q_i}), one
    # degree of freedom per scatter.
    u = np.repeat(psi[:, None], dim, axis=1)
    columns = np.arange(dim)
    for i, x in enumerate(_digits(d, n).T):  # x: digit i of every column
        rows, phases = _weyl_monomials(
            d, n, [[(-k * int(c)) % d for c in images[2 * i]] for k in range(d)])
        out = np.empty_like(u)
        out[rows[x].T, columns] = phases[x].T * u
        u = out

    _verify_generator_covariance(space, s, u)
    u.setflags(write=False)
    if len(_metaplectic_cache) >= _METAPLECTIC_CACHE_LIMIT:
        _metaplectic_cache.clear()
    _metaplectic_cache[key] = u
    return u


def _verify_generator_covariance(space: PhaseSpace, s: Matrix, u: np.ndarray):
    """Require U W(e_j) = W(S e_j) U for every unit vector e_j, in O(D^2) each.

    Both sides come from the monomial form; the difference's Frobenius norm equals that
    of U W U^dag - W(S e_j), so it bounds every entry of the conjugation's error.
    """
    d, n = space.d, space.n
    rows, phases = _weyl_monomials(d, n, np.eye(space.dim, dtype=np.int64))
    img_rows, img_phases = _weyl_monomials(d, n, np.array(s.T.rows, dtype=np.int64))
    for j in range(space.dim):
        lhs = u[:, rows[j]] * phases[j]
        rhs = np.empty_like(u)
        rhs[img_rows[j]] = img_phases[j][:, None] * u
        if np.linalg.norm(lhs - rhs) > TOL:
            raise AssertionError("metaplectic build lost Weyl covariance")


# ---------------------------------------------------------------------------
# Clifford channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordChannel:
    """The unitary channel of an affine symplectic map: displacement after metaplectic.

    Only the superoperator O -> U O U^dag is canonical (the unitary itself carries the
    projective phase freedom of the construction).
    """

    space: PhaseSpace
    t: SymplecticAffine
    unitary: np.ndarray

    def apply(self, op: np.ndarray) -> np.ndarray:
        return self.unitary @ op @ self.unitary.conj().T

    __call__ = apply


def clifford(space: PhaseSpace, t: SymplecticAffine) -> CliffordChannel:
    """Unitary channel whose conjugation realizes the affine map m -> S m + a.

    The displacement enters negated because W(a) conjugation shifts quadrature
    outcome values by -f(a) (the shift unitary translates kets, and kets move
    opposite to outcome labels); W(-a) is the unitary whose Heisenberg action on
    every quadrature observable matches the classical update under m -> m + a.
    """
    if t.space != space:
        raise ValueError("transformation acts on a different phase space")
    u = weyl(space, vec_scale(space.field, -1, t.a)) @ metaplectic(space, t.s)
    return CliffordChannel(space, t, u)


# ---------------------------------------------------------------------------
# quadrature observables
# ---------------------------------------------------------------------------


def _joint_projectors(space: PhaseSpace, functionals, values) -> np.ndarray:
    """The (K, D, D) products P_{f_1}(t_1) ... P_{f_k}(t_k), left to right, for K tuples
    of k values.  Each P_f(t) = (1/d) sum_s pair(t s) W(s Jf) is scattered from one
    monomial build of the d multiples s Jf; callers validate the nonzero ``functionals``.
    """
    dim = hilbert_dim(space)
    d, n = space.d, space.n
    steps, columns = np.arange(d), np.arange(dim)
    pair = _pair_char(d, steps)
    out = np.repeat(np.eye(dim, dtype=complex)[None], len(values), axis=0)
    for i, f in enumerate(functionals):
        jf = np.array(_apply_j(space.field, f), dtype=np.int64)
        rows, phases = _weyl_monomials(d, n, np.outer(steps, jf) % d)
        proj = np.zeros((d, dim, dim), dtype=complex)  # P_f(t) for t = 0 .. d-1
        for s in range(d):
            proj[:, rows[s], columns] += pair[steps * s % d, None] * phases[s]
        proj /= d
        # Slice by slice, so at most one stack of K products is ever held.
        for k, t in enumerate(values):
            out[k] = proj[t[i]] if i == 0 else out[k] @ proj[t[i]]
    return out


def quadrature_projector(space: PhaseSpace, f, value) -> np.ndarray:
    """Projector onto outcome ``value`` of the quadrature functional ``f``.

    Built as the character sum (1/d) sum_s pair(value * s) W(s J f) on the Weyl line
    through Jf; the functional's constant offsets the outcome label.
    """
    fld = space.field
    f = _as_functional(space, f)
    if all(x == fld.zero for x in f.f):
        raise ValueError("the zero functional has no outcome projectors")
    t = fld.reduce(fld.element(value) - f.c)
    return _joint_projectors(space, [f.f], [(t,)])[0]


@dataclass(frozen=True)
class QuadratureState:
    """Label (V, v) together with the normalized projector it prepares."""

    space: PhaseSpace
    known: AffineSubspace
    valuation: tuple
    rho: np.ndarray


def quadrature_state(space: PhaseSpace, known: AffineSubspace,
                     valuation: Iterable) -> QuadratureState:
    """The normalized joint eigenprojector of an isotropic V at a valuation coset.

    A product over the canonical echelon basis of V: basis independent at odd d, part of
    the definition at d = 2.
    """
    label = EpistemicState(space, known, valuation).valuation  # validates isotropy
    values = tuple(vec_dot(space.field, f, label) for f in known.basis)
    proj = _joint_projectors(space, known.basis, [values])[0]
    tr = np.trace(proj).real
    expected_rank = space.d ** (space.n - known.rank)
    if abs(tr - expected_rank) > TOL * max(1, expected_rank):
        raise AssertionError(f"projector rank {tr} != d^(n-k) = {expected_rank}")
    return QuadratureState(space, known, label, proj / tr)


def quadrature_pvm(space: PhaseSpace, known: AffineSubspace) -> dict:
    """The full PVM of a joint quadrature measurement, keyed by canonical labels."""
    meas = SharpMeasurement(space, known)
    labels = meas.outcomes()
    projs = _joint_projectors(space, known.basis, [_values_at(meas, x) for x in labels])
    if np.max(np.abs(projs.sum(axis=0) - np.eye(projs.shape[-1]))) > TOL:
        raise AssertionError("quadrature PVM does not resolve the identity")
    return dict(zip(labels, projs))


def _traces(xs: np.ndarray, ys: np.ndarray, what: str) -> np.ndarray:
    """Tr(X_k Y_m) = sum_ij X_k[i, j] Y_m[j, i] for stacks xs (K, D, D) and ys (M, D, D),
    as a real (K, M) array: one product of the flattened X_k^T with the flattened Y_m.
    Every entry must be real."""
    size = xs.shape[-1] ** 2
    vals = xs.transpose(0, 2, 1).reshape(len(xs), size) @ ys.reshape(len(ys), size).T
    if np.any(np.abs(vals.imag) > TOL):
        raise AssertionError(f"{what} has an imaginary part")
    return vals.real


def born_table(rhos: np.ndarray, projectors: np.ndarray, starts=(0,)) -> np.ndarray:
    """Born probabilities Tr(rho_s P_k) of a stack of states over stacked PVMs.

    ``rhos`` is (S, D, D) and ``projectors`` (K, D, D) holds complete PVMs back to back,
    PVM j starting at row ``starts[j]``.  Returns the real (S, K) table; every PVM's
    probabilities must sum to 1 in every state.
    """
    probs = _traces(rhos, projectors, "Born probability")
    totals = np.add.reduceat(probs, list(starts), axis=1)
    bad = np.abs(totals - 1.0) > TOL
    if np.any(bad):
        raise AssertionError(f"Born probabilities sum to {totals[bad][0]}")
    return probs


def born(rho: np.ndarray, pvm: dict) -> dict:
    """Born probabilities of a PVM in a state; validates realness and normalization."""
    probs = born_table(np.asarray(rho)[None], np.stack(list(pvm.values())))[0]
    return dict(zip(pvm, probs.tolist()))
