"""Symplectic phase-space geometry over exact fields.

Phase space is F^{2n} with coordinates interleaved as (q1, p1, q2, p2, ...).  The
symplectic form is the block-diagonal matrix J with [[0, 1], [-1, 0]] per degree of
freedom; over Z_2 the canonical representative of -1 is 1, so J renders as
[[0, 1], [1, 0]] there automatically.

Quadrature functionals are affine maps f(m) = <f, m> + c; their finite-difference
Poisson bracket coincides with the symplectic inner product of their linear parts, which
is the algebraic fact the epistemic layer is built on.
"""

from __future__ import annotations

import copy
import functools
import itertools
import numbers
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Optional

from .fields import Field, Scalar, SizeCapExceeded
from .linalg import (
    AffineSubspace,
    Matrix,
    Vector,
    _matvec,
    _require_field,
    null_space,
    vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    zero_vec,
)


#: Fixed size caps: phase-space points d^{2n} listed at once, candidate isotropic
#: subspaces per pivot pattern, and elements of the (affine) symplectic group.
POINT_CAP = 10_000
ISOTROPIC_CAP = 500_000
GROUP_CAP = 200_000


class UnsupportedOperation(ValueError):
    """The operation is not defined for this field (e.g. statistics over Q)."""


@dataclass(frozen=True)
class PhaseSpace:
    """The arena F^{2n}: a field and a number of canonical (q, p) pairs.

    Hashed once, on construction: every memo in the package is keyed on a space.
    :meth:`vector` is the one check of a phase-space vector argument.
    """

    field: Field
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise TypeError(f"degrees of freedom must be an int, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError("need at least one degree of freedom")
        object.__setattr__(self, "_hash", hash((self.field, self.n)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through the constructor, so the stored hash is never pickled.
        return PhaseSpace, (self.field, self.n)

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def d(self) -> int:
        """Prime modulus (finite case only)."""
        if not self.field.is_finite:
            raise UnsupportedOperation("rational phase space has no modulus")
        return self.field.modulus  # type: ignore[attr-defined]

    def points(self):
        """All d^{2n} phase-space points in lexicographic order (finite case)."""
        return itertools.product(list(self.field.elements()), repeat=self.dim)

    def zero(self) -> Vector:
        return zero_vec(self.field, self.dim)

    def vector(self, x: Iterable, what: str) -> Vector:
        """``x`` as a canonical vector of this space, refused unless it has length 2n;
        ``what`` names the argument in the refusal."""
        x = vec(self.field, x)
        if len(x) != self.dim:
            raise ValueError(f"{what} of length {len(x)} on a phase space of dimension "
                             f"2n = {self.dim}")
        return x


def symplectic_form(space: PhaseSpace) -> Matrix:
    """The matrix J of the symplectic form, block-diagonal in the (q, p) interleaving."""
    f = space.field  # row k of J is J^T e_k
    return Matrix(f, [_apply_jt(f, e) for e in Matrix.identity(f, space.dim).rows])


def _apply_j(field: Field, x: Vector) -> Vector:
    """J x for a canonical vector x: (q, p) -> (p, -q) in every pair."""
    out = list(x)
    out[0::2] = x[1::2]
    out[1::2] = [field.reduce(-q) for q in x[0::2]]
    return tuple(out)


def _apply_jt(field: Field, x: Vector) -> Vector:
    """J^T x for a canonical vector x: (q, p) -> (-p, q) in every pair."""
    out = list(x)
    out[0::2] = [field.reduce(-p) for p in x[1::2]]
    out[1::2] = x[0::2]
    return tuple(out)


def _symp(field: Field, f: Vector, g: Vector) -> Scalar:
    """<f, g> = f^T J g = g . (J^T f) for canonical vectors of the same even length."""
    return _matvec(field, (g,), _apply_jt(field, f))[0]


def symp_inner(space: PhaseSpace, f: Iterable, g: Iterable) -> Scalar:
    """The symplectic inner product <f, g> = f^T J g."""
    return _symp(space.field, space.vector(f, "first vector"),
                 space.vector(g, "second vector"))


def _pair_products(field: Field, rows) -> Iterator:
    """``((i, j), <rows[i], rows[j]>)`` for every pair i < j of canonical vectors, in
    that order: the products with rows[i] are one matvec by J^T rows[i]."""
    for i, f in enumerate(rows[:-1]):
        for j, p in enumerate(_matvec(field, rows[i + 1:], _apply_jt(field, f)), i + 1):
            yield (i, j), p


@dataclass(frozen=True)
class QuadratureFunctional:
    """An affine functional f(m) = <f, m> + c on phase space."""

    space: PhaseSpace
    f: tuple
    c: Scalar = None  # type: ignore[assignment]

    def __post_init__(self):
        fld = self.space.field
        object.__setattr__(self, "f", self.space.vector(self.f, "functional"))
        object.__setattr__(self, "c",
                           fld.zero if self.c is None else fld.element(self.c))

    @classmethod
    def position(cls, space: PhaseSpace, dof: int = 0, c=None) -> "QuadratureFunctional":
        v = [space.field.zero] * space.dim
        v[2 * dof] = space.field.one
        return cls(space, tuple(v), c)

    def evaluate(self, m: Iterable) -> Scalar:
        fld = self.space.field
        return fld.reduce(vec_dot(fld, self.f, self.space.vector(m, "point")) + self.c)

    def table(self) -> dict:
        """The functional as an explicit value table over all points (finite case)."""
        _check_point_cap(self.space)
        return {m: self.evaluate(m) for m in self.space.points()}


def _as_functional(space: PhaseSpace, f) -> QuadratureFunctional:
    """A functional argument on ``space``: a :class:`QuadratureFunctional` of this space,
    or a raw vector read as the functional with constant 0."""
    if not isinstance(f, QuadratureFunctional):
        return QuadratureFunctional(space, f)
    if f.space != space:
        raise ValueError("functional lives on a different phase space")
    return f


def _check_point_cap(space: PhaseSpace):
    if not space.field.is_finite:
        raise UnsupportedOperation(
            "operation needs to enumerate phase-space points; field is infinite")
    _capped_product("phase-space point enumeration", itertools.repeat(space.d, space.dim),
                    f"{space.d}^{space.dim}", POINT_CAP)


def _capped_product(what: str, terms: Iterable[int], required: str, limit: int) -> int:
    """The product of ``terms`` (each at least 1), refused as ``required`` once the
    running product passes ``limit``, so a huge count costs a few steps rather than a
    huge integer."""
    value = 1
    for term in terms:
        value *= term
        if value > limit:
            raise SizeCapExceeded(what, required, limit)
    return value


def poisson_bracket_fd(space: PhaseSpace, f_table: dict, g_table: dict) -> dict:
    """Finite-difference Poisson bracket of two scalar tables over all of phase space.

    {f, g}(m) = sum_i [f(m + q_i) - f(m)][g(m + p_i) - g(m)]
                      - [f(m + p_i) - f(m)][g(m + q_i) - g(m)]

    where q_i, p_i are unit steps along the canonical coordinates.  Defined over prime
    fields only: discrete steps need a discrete arena.
    """
    _check_point_cap(space)
    fld = space.field
    steps = []
    for i in range(space.n):
        q = [fld.zero] * space.dim
        q[2 * i] = fld.one
        p = [fld.zero] * space.dim
        p[2 * i + 1] = fld.one
        steps.append((tuple(q), tuple(p)))

    def diff(table, m, step):
        return table[vec_add(fld, m, step)] - table[m]

    out = {}
    for m in space.points():
        out[m] = fld.reduce(sum(
            diff(f_table, m, q_step) * diff(g_table, m, p_step)
            - diff(f_table, m, p_step) * diff(g_table, m, q_step)
            for q_step, p_step in steps))
    return out


# ---------------------------------------------------------------------------
# isotropic subspaces
# ---------------------------------------------------------------------------


def _require_on_space(space: PhaseSpace, v: AffineSubspace):
    """Refuse a subspace over another field, or of another ambient dimension, than the
    phase space's."""
    if v.field != space.field:
        raise ValueError(f"subspace is over {v.field!r}, but the phase space is over "
                         f"{space.field!r}")
    if v.ambient != space.dim:
        raise ValueError(f"subspace has ambient dimension {v.ambient}, but the phase "
                         f"space has dimension {space.dim}")


@functools.lru_cache(maxsize=4096)
def is_isotropic(space: PhaseSpace, v: AffineSubspace) -> bool:
    """Whether the (linear) subspace has pairwise-vanishing symplectic products.

    A subspace over another field, or of another ambient dimension, than the phase
    space's is refused.  Memoized and bounded: states and measurements check the same
    few subspaces over and over.  A refusal raises, so it is never cached.
    """
    _require_on_space(space, v)
    if v.is_empty or not v.is_linear():
        return False
    if v.rank > space.n:
        return False
    return not any(p for _, p in _pair_products(space.field, v.basis))


@functools.lru_cache(maxsize=4096)
def _euclidean_complement(space: PhaseSpace, v: AffineSubspace) -> AffineSubspace:
    # Memoized: a pure function of the (canonical, hashable) subspace, called
    # repeatedly with the same handful of direction spaces by the state layer.
    # Bounded, so long-lived processes that see many spaces do not grow.  Every
    # caller's v is a checked subspace of the space, so its canonical rows and the
    # null space's rows are built on as they are.
    fld = space.field
    rows = (null_space(Matrix._trusted(fld, v.basis)) if v.basis
            else Matrix.identity(fld, space.dim).rows)
    return AffineSubspace._trusted(fld, space.dim, rows)


# ---------------------------------------------------------------------------
# symplectic and affine symplectic maps
# ---------------------------------------------------------------------------


def is_symplectic(space: PhaseSpace, s: Matrix) -> bool:
    """S^T J S = J entry by entry: <S e_i, S e_j> = J_ij.  Both sides are
    antisymmetric, so the pairs i < j decide; there J_ij is 1 on a (q, p) pair, else 0."""
    if s.shape != (space.dim, space.dim) or s.field != space.field:
        return False
    return all(p == (1 if i % 2 == 0 and j == i + 1 else 0)
               for (i, j), p in _pair_products(space.field, list(zip(*s.rows))))


@dataclass(frozen=True)
class SymplecticAffine:
    """An affine symplectic map m -> S m + a, validated on construction."""

    space: PhaseSpace
    s: Matrix
    a: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        a = self.a if self.a is not None else self.space.zero()
        object.__setattr__(self, "a", self.space.vector(a, "displacement"))
        _require_field(self.s, self.space.field, "the phase space")
        if not is_symplectic(self.space, self.s):
            raise ValueError("matrix does not preserve the symplectic form")

    @classmethod
    def identity(cls, space: PhaseSpace) -> "SymplecticAffine":
        return cls(space, Matrix.identity(space.field, space.dim))

    @classmethod
    def displacement(cls, space: PhaseSpace, a: Iterable) -> "SymplecticAffine":
        return cls(space, Matrix.identity(space.field, space.dim), a)

    def _shifted(self, a: Vector) -> "SymplecticAffine":
        """This map's S with the displacement ``a``, a canonical vector of the space.
        S was checked when this map was built, so nothing is checked again."""
        t = copy.copy(self)
        object.__setattr__(t, "a", a)
        return t

    def apply(self, m: Iterable) -> Vector:
        m = self.space.vector(m, "point")
        reduce = self.space.field.reduce
        return tuple(reduce(sum(map(mul, row, m)) + c)
                     for row, c in zip(self.s.rows, self.a))

    def compose(self, other: "SymplecticAffine") -> "SymplecticAffine":
        """self after other: (S, a) o (S', a') = (S S', S a' + a)."""
        fld = self.space.field
        return SymplecticAffine(
            self.space, self.s @ other.s,
            vec_add(fld, self.s.matvec(other.a), self.a))

    def inverse(self) -> "SymplecticAffine":
        """Exact inverse using S^{-1} = J^T S^T J — no elimination required."""
        j = symplectic_form(self.space)
        s_inv = j.T @ self.s.T @ j
        a_inv = vec_scale(self.space.field, -1, s_inv.matvec(self.a))
        return SymplecticAffine(self.space, s_inv, a_inv)


def transvection(space: PhaseSpace, u: Iterable, c) -> Matrix:
    """The symplectic transvection x -> x + c <x, u> u."""
    fld = space.field
    u = space.vector(u, "transvection vector")
    c = fld.element(c)
    ju = _apply_j(fld, u)  # <x, u> = x . (J u)
    return Matrix(fld, tuple(
        tuple(c * u[i] * ju[k] + int(i == k) for k in range(space.dim))
        for i in range(space.dim)))


def symplectic_group_order(d: int, n: int) -> int:
    """|Sp(2n, Z_d)| = d^{n^2} * prod_{i=1}^{n} (d^{2i} - 1)."""
    order = d ** (n * n)
    for i in range(1, n + 1):
        order *= d ** (2 * i) - 1
    return order


def _capped_group_order(what: str, d: int, n: int, shifts: bool) -> int:
    """|Sp(2n, Z_d)|, times the d^{2n} shifts when ``shifts``, refused symbolically
    once past ``GROUP_CAP``."""
    terms = itertools.chain(itertools.repeat(d, n * n + (2 * n if shifts else 0)),
                            (d ** (2 * i) - 1 for i in range(1, n + 1)))
    required = f"|Sp({2 * n}, Z_{d})|" + (f" * {d}^{2 * n}" if shifts else "")
    return _capped_product(what, terms, required, GROUP_CAP)


def _transvection_product(field: Field, u: Vector, c: int):
    """Right multiplication by ``transvection(u, c)`` over Z_d, as a function of int row
    tuples: m @ T = m + c (m u)(J u)^T, so each row gains c (row . u) J u, which
    touches only the columns where J u is nonzero."""
    d = field.modulus
    sums = [(j, x) for j, x in enumerate(u) if x]
    targets = [(k, c * x % d) for k, x in enumerate(_apply_j(field, u)) if x]

    def times(m: tuple) -> tuple:
        out = []
        for row in m:
            w = 0
            for j, x in sums:
                w += row[j] * x
            w %= d
            if w:
                row = list(row)
                for k, x in targets:
                    row[k] = (row[k] + x * w) % d
                row = tuple(row)
            out.append(row)
        return tuple(out)

    return times


def _symplectic_closure(space: PhaseSpace) -> tuple:
    """Close the unit transvections under multiplication, recording each element's word.

    Returns ``(gens, words)``: ``words`` maps each element's rows to ``(parent_rows, k)``
    with element = parent @ gens[k] (the identity to ``(None, None)``), in breadth-first
    order.  Asserting the known group order proves the generators give the full group.
    """
    if not space.field.is_finite:
        raise UnsupportedOperation("cannot enumerate symplectic maps over Q")
    expected = _capped_group_order("symplectic group enumeration", space.d, space.n,
                                   shifts=False)
    fld = space.field
    units = [tuple(int(k == j) for k in range(space.dim)) for j in range(space.dim)]
    chain = [tuple(int(k in (2 * i, 2 * i + 2)) for k in range(space.dim))
             for i in range(space.n - 1)]
    gens = [transvection(space, u, 1) for u in units + chain]
    products = [_transvection_product(fld, u, 1) for u in units + chain]

    identity = Matrix.identity(fld, space.dim).rows
    words = {identity: (None, None)}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for k, times in enumerate(products):
                prod = times(m)
                if prod not in words:
                    words[prod] = (m, k)
                    nxt.append(prod)
        frontier = nxt
    if len(words) != expected:
        raise AssertionError(
            f"symplectic enumeration produced {len(words)} elements, expected {expected}")
    return gens, words


def enumerate_symplectic(space: PhaseSpace) -> list:
    """All symplectic matrices on a finite phase space, deterministically ordered.

    Closure under multiplication of the unit transvections along the 2n unit vectors
    and the n - 1 sums e_{q_i} + e_{q_{i+1}}, sorted by rows.
    """
    _, words = _symplectic_closure(space)
    # Each element is a product of canonical ints, and the closure checked the group
    # order, so its rows are stored as they are.
    return [Matrix._trusted(space.field, rows) for rows in sorted(words)]


def enumerate_group(space: PhaseSpace) -> list:
    """Every affine symplectic map (all S paired with all displacements), each S
    checked once rather than once per displacement."""
    if not space.field.is_finite:
        raise UnsupportedOperation("cannot enumerate affine symplectic maps over Q")
    _capped_group_order("affine symplectic group enumeration", space.d, space.n,
                        shifts=True)
    out = []
    for s in enumerate_symplectic(space):
        linear = SymplecticAffine(space, s)
        out.extend(linear._shifted(a) for a in space.points())
    return out


def enumerate_isotropic(space: PhaseSpace, rank: Optional[int] = None) -> list:
    """All isotropic linear subspaces of the given rank (all ranks 0..n when None).

    Subspaces are produced directly in reduced-row-echelon parametrization — one matrix
    per subspace, so the listing is duplicate-free by construction — and filtered for
    isotropy.  Deterministic order: by rank, then pivot columns, then entries.
    """
    if not space.field.is_finite:
        raise UnsupportedOperation("cannot enumerate subspaces over Q")
    d = space.d
    ranks = range(space.n + 1) if rank is None else [rank]
    out = []
    for k in ranks:
        if k < 0 or k > space.n:
            raise ValueError(f"isotropic rank must lie in 0..{space.n}")
        if k == 0:
            out.append(AffineSubspace.span(space.field, [], ambient=space.dim))
            continue
        for pivots in itertools.combinations(range(space.dim), k):
            free_slots = [(i, j) for i in range(k) for j in range(space.dim)
                          if j > pivots[i] and j not in pivots]
            _capped_product("isotropic subspace enumeration",
                            itertools.repeat(d, len(free_slots)),
                            f"{d}^{len(free_slots)}", ISOTROPIC_CAP)
            for values in itertools.product(range(d), repeat=len(free_slots)):
                rows = [[space.field.zero] * space.dim for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = space.field.one
                for (i, j), val in zip(free_slots, values):
                    rows[i][j] = val
                if not any(p for _, p in _pair_products(space.field, rows)):
                    out.append(AffineSubspace.span(space.field, rows, ambient=space.dim))
    return out


def extend_to_symplectic(space: PhaseSpace, f: Iterable) -> Matrix:
    """A symplectic matrix whose first column is ``f``.

    Symplectic Gram-Schmidt over any field: the candidates are the standard basis
    vectors in order, each corrected against the pairs already chosen, and the first
    that pairs nontrivially is taken, so the result is a deterministic function of
    ``f``.  The zero vector labels no quadrature and is refused.
    """
    fld = space.field
    f = space.vector(f, "functional")
    if all(x == fld.zero for x in f):
        raise ValueError("cannot extend the zero functional")
    basis = Matrix.identity(fld, space.dim).rows

    def corrected(c, pairs):
        # c + sum_i (<w_i, c> u_i - <u_i, c> w_i) kills all products with chosen pairs.
        for u, w in pairs:
            cu = _symp(fld, u, c)
            cw = _symp(fld, w, c)
            c = vec_add(fld, c, vec_sub(fld, vec_scale(fld, cw, u),
                                        vec_scale(fld, cu, w)))
        return c

    def pick_partner(u, pairs):
        for g in basis:
            g2 = corrected(g, pairs)
            ip = _symp(fld, u, g2)
            if ip != fld.zero:
                return vec_scale(fld, fld.inv(ip), g2)
        raise AssertionError("no symplectic partner found; form would be degenerate")

    pairs = [(f, pick_partner(f, []))]
    for _ in range(1, space.n):
        # A corrected candidate is orthogonal to the nondegenerate span of the chosen
        # pairs, so it lies in that span only when it is zero.
        nxt = next((c for c in (corrected(e, pairs) for e in basis) if any(c)), None)
        if nxt is None:
            raise AssertionError("could not complete a symplectic basis")
        pairs.append((nxt, pick_partner(nxt, pairs)))

    cols = [x for pair in pairs for x in pair]
    s = Matrix(fld, tuple(zip(*cols)))
    if not is_symplectic(space, s):
        raise AssertionError("completed matrix is not symplectic")
    return s


def random_symplectic_affine(space: PhaseSpace, rng) -> SymplecticAffine:
    """A pseudo-random affine symplectic map: a word of 2 dim + 2 transvection draws
    (zero vectors skipped) plus a shift.

    Transvections generate the symplectic group, so long words mix well; determinism
    comes from the caller's seeded ``rng``.
    """
    if not space.field.is_finite:
        raise UnsupportedOperation("random sampling needs a finite field")
    d = space.d
    rows = Matrix.identity(space.field, space.dim).rows
    for _ in range(2 * space.dim + 2):
        u = tuple(rng.randrange(d) for _ in range(space.dim))
        if not any(u):
            continue
        rows = _transvection_product(space.field, u, rng.randrange(1, d))(rows)
    a = tuple(rng.randrange(d) for _ in range(space.dim))
    return SymplecticAffine(space, Matrix(space.field, rows), a)
