"""Exact linear algebra over Z_d and Q: matrices, row reduction, affine subspaces.

Everything here is pure exact arithmetic on tuples — no numpy, no floats.  The central
type is :class:`AffineSubspace`, stored in a canonical form so that structural equality
coincides with set equality:

* the basis is the reduced row echelon form of the direction space, zero rows dropped;
* the offset has zero entries in every pivot coordinate of that basis (each coset has
  exactly one such representative);
* the empty set is a first-class value, distinct from every singleton ``{offset}``.

Over Q the kernels compute on integer rows (after Bareiss, Math. Comp. 22 (1968)
565-578): a row of ``Fraction``s is scaled by the lcm of its denominators, rows are
combined by integer cross-multiplication and divided by their content, and a result
becomes a ``Fraction`` tuple only once, when the kernel returns it.  That covers row
reduction (``_rref_rows``), the pivot clearing (``_clear_pivots`` and
``_pivot_clearing_rows``) and the one dot/matvec kernel (``_matvec``).  Every value
that leaves a kernel is canonical ``Fraction``s, as before, so equality, hashing and
every output are unchanged; over Z_d the kernels compute mod d on ints as they always
have.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .fields import Field, Scalar

Vector = tuple


def vec(field: Field, entries: Iterable) -> Vector:
    """Coerce an iterable of raw values into a canonical scalar tuple."""
    return tuple(map(field.element, entries))


def zero_vec(field: Field, n: int) -> Vector:
    return (field.zero,) * n


def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    reduce = field.reduce
    return tuple(reduce(a + b) for a, b in zip(u, v, strict=True))


def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    reduce = field.reduce
    return tuple(reduce(a - b) for a, b in zip(u, v, strict=True))


def vec_scale(field: Field, c: Scalar, u: Vector) -> Vector:
    reduce = field.reduce
    return tuple(reduce(c * a) for a in u)


def _sub_multiple(field: Field, u: Vector, c: Scalar, v: Vector) -> Vector:
    """The row operation u - c v over Z_d, mod d on ints: the kernels' Z_d branches
    are its only callers, since over Q they combine integer rows."""
    d = field.modulus
    return tuple([(a - c * b) % d for a, b in zip(u, v, strict=True)])


# -- integer rows over Q ----------------------------------------------------------


def _int_row(row: Sequence[Fraction]) -> tuple:
    """``(ints, den)`` with ``row == ints / den``, ``den`` the lcm of the denominators."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _fraction_row(ints: Sequence[int], den: int) -> Vector:
    """The canonical ``Fraction`` tuple of ``ints / den``."""
    zero = Fraction(0)
    return tuple([Fraction(x, den) if x else zero for x in ints])


def _primitive(ints: list) -> list:
    """An integer row divided by its content (the gcd of its entries)."""
    g = gcd(*ints)
    return ints if g <= 1 else [x // g for x in ints]


def _sub_scaled(x: list, den: int, cn: int, cd: int, y: list, e: int) -> tuple:
    """``x/den - (cn/cd) y/e`` as ``(ints, den)`` over the lcm of the denominators,
    divided by the common content of the ints and the denominator."""
    ce = cd * e
    common = lcm(den, ce)
    mx, my = common // den, cn * (common // ce)
    out = [mx * a - my * b for a, b in zip(x, y)]
    g = gcd(common, *out)
    return ([a // g for a in out], common // g) if g > 1 else (out, common)


# -- kernels -------------------------------------------------------------------------


def _matvec(field: Field, rows: Sequence[Vector], x: Vector) -> Vector:
    """``(row . x for row in rows)`` for canonical vectors of one length, unchecked: the
    one dot/matvec kernel.  Over Q each row and ``x`` meet as integer rows, so each
    entry is one integer dot product over the product of two lcms."""
    if field.is_finite:
        d = field.modulus
        return tuple([sum(map(mul, row, x)) % d for row in rows])
    xs, xd = _int_row(x)
    out = []
    for row in rows:
        ints, den = _int_row(row)
        out.append(Fraction(sum(map(mul, ints, xs)), den * xd))
    return tuple(out)


def _clear_pivots(field: Field, x: Vector, rows: Sequence[Vector]) -> Vector:
    """Zero ``x`` in the pivot column of every reduced-row-echelon row, by subtracting
    multiples of the rows: the canonical representative of ``x + span(rows)``.

    A row's pivot is its first nonzero entry, which is 1, so ``row.index(one)`` finds it.
    The map is linear in ``x``.  Over Q, ``x`` is carried as one integer row over a
    common denominator and becomes ``Fraction``s once, at the end.
    """
    one = field.one
    if field.is_finite:
        for row in rows:
            c = x[row.index(one)]
            if c != 0:
                x = _sub_multiple(field, x, c, row)
        return x
    cells = [(row.index(one), row) for row in rows]
    if not any(x[k] for k, _ in cells):
        return x
    xs, den = _int_row(x)
    for k, row in cells:
        if xs[k]:
            xs, den = _sub_scaled(xs, den, xs[k], den, *_int_row(row))
    return _fraction_row(xs, den)


def _pivot_clearing_rows(field: Field, basis: Sequence[Vector],
                         m_rows: Sequence[Vector]) -> tuple:
    """The rows of P M, for P the pivot clearing against the reduced rows ``basis``
    (``_clear_pivots`` as a linear map): P x = x - sum_i x[k_i] r_i over the rows r_i,
    k_i the pivot of r_i, so row a of P M is row a of M less r_i[a] times its row k_i,
    for each i.  Over Q each row is combined on integers and read back once."""
    one = field.one
    cells = [(r.index(one), r) for r in basis]
    if field.is_finite:
        rows = []
        for a, row in enumerate(m_rows):
            for k, r in cells:
                if r[a]:
                    row = _sub_multiple(field, row, r[a], m_rows[k])
            rows.append(row)
        return tuple(rows)
    ints = [_int_row(row) for row in m_rows]
    rows = []
    for a, (xs, den) in enumerate(ints):
        for k, r in cells:
            c = r[a]
            if c:
                xs, den = _sub_scaled(xs, den, c.numerator, c.denominator, *ints[k])
        rows.append(_fraction_row(xs, den))
    return tuple(rows)


def vec_dot(field: Field, u: Vector, v: Vector) -> Scalar:
    if len(u) != len(v):
        raise ValueError(f"dot product of vectors of lengths {len(u)} and {len(v)}")
    return _matvec(field, (u,), v)[0]


@dataclass(frozen=True)
class Matrix:
    """An immutable exact matrix: a tuple of row tuples plus the field they live in.

    Canonical on construction: every entry goes through ``field.element`` (floats are
    refused) and ragged rows are refused, so ``==`` is matrix equality."""

    field: Field
    rows: tuple

    def __post_init__(self):
        rows = tuple(vec(self.field, r) for r in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, field: Field, rows: tuple) -> "Matrix":
        """The matrix of ``rows``, a tuple of equal-length tuples of canonical scalars
        that the caller's own arithmetic produced, stored as they are: nothing is
        coerced or checked.  Equal to, and hashing like, ``Matrix(field, rows)``."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    @property
    def T(self) -> "Matrix":
        return Matrix._trusted(self.field, tuple(zip(*self.rows)))

    def matvec(self, v: Iterable) -> Vector:
        v = vec(self.field, v)
        if self.rows and len(v) != len(self.rows[0]):
            raise ValueError(f"product of a {self.shape} matrix and a vector of "
                             f"length {len(v)}")
        return _matvec(self.field, self.rows, v)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _require_field(other, self.field, "the left factor")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = tuple(zip(*other.rows))
        return Matrix._trusted(self.field, tuple(_matvec(self.field, cols, row)
                                                 for row in self.rows))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in r] for r in self.rows])

    def inverse(self) -> "Matrix":
        """Exact inverse via Gauss-Jordan; raises ValueError on singular input."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = [row + e for row, e in zip(self.rows, Matrix.identity(self.field, n).rows)]
        reduced, pivots = _rref_rows(self.field, aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(self.field, tuple(row[n:] for row in reduced[:n]))


def _require_field(m: Matrix, field: Field, where: str):
    """Refuse a matrix over another field than ``where``'s, before anything reads it."""
    if m.field != field:
        raise ValueError(f"matrix is over {m.field!r}, but {where} is over {field!r}")


def _rref_rows(field: Field, rows: Sequence[Sequence[Scalar]]):
    """Reduced row echelon form of a list of rows.

    Returns ``(reduced_rows, pivot_columns)`` where ``reduced_rows`` has the same number
    of rows as the input (zero rows collected at the bottom) and ``pivot_columns[i]`` is
    the pivot column of row ``i``.  Over Q the elimination runs on integer rows.
    """
    if not field.is_finite:
        return _rref_int_rows(rows)
    work = list(rows)
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        scale = field.inv(work[r][c])
        work[r] = vec_scale(field, scale, work[r])
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                work[i] = _sub_multiple(field, work[i], work[i][c], work[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def _rref_int_rows(rows: Sequence[Sequence[Fraction]]):
    """``_rref_rows`` over Q, fraction-free.  Each row is scaled to integers (which
    spans the same line) and kept primitive; a pivot row p with pivot a clears column
    c of row w as (a w - w[c] p) / gcd(a, w[c]), then divided by its content.  The
    reduced rows share the row space, pivots and zero pattern of the RREF, so dividing
    each pivot row by its pivot gives the RREF itself, as ``Fraction``s."""
    work = [_primitive(_int_row(r)[0]) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        p = work[r]
        a = p[c]
        for i in range(nrows):
            b = work[i][c]
            if i != r and b:
                g = gcd(a, b)
                ma, mb = a // g, b // g
                work[i] = _primitive([ma * x - mb * y for x, y in zip(work[i], p)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = Fraction(0)
    reduced = [_fraction_row(work[i], work[i][c]) for i, c in enumerate(pivots)]
    return reduced + [(zero,) * ncols] * (nrows - r), pivots


#: Memo for subspace canonicalization: identical basis rows arrive over and over
#: when states are pushed around by enumerated transformation groups.
_RREF_CACHE: dict = {}
_RREF_CACHE_LIMIT = 200_000


def _rref_cached(field: Field, rows: tuple):
    if not field.is_finite:
        # Rational rows rarely repeat, and a key of Fractions is slow to hash: over Q
        # the fraction-free elimination is cheaper than the lookup.
        reduced, pivots = _rref_rows(field, rows)
        return tuple(reduced), tuple(pivots)
    key = (field, rows)
    hit = _RREF_CACHE.get(key)
    if hit is None:
        if len(_RREF_CACHE) >= _RREF_CACHE_LIMIT:
            _RREF_CACHE.clear()
        reduced, pivots = _rref_rows(field, rows)
        hit = (tuple(tuple(r) for r in reduced), tuple(pivots))
        _RREF_CACHE[key] = hit
    return hit


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form and rank of ``m``.

    The returned matrix has the same shape as ``m`` with eliminated rows as zero rows at
    the bottom; the second component is the rank.
    """
    reduced, pivots = _rref_rows(m.field, m.rows) if m.rows else ([], [])
    return Matrix(m.field, reduced), len(pivots)


def null_space(m: Matrix) -> list:
    """A canonical (RREF-derived) basis of ``{x : m @ x = 0}`` as a list of row vectors."""
    field = m.field
    reduced, pivots = _rref_rows(field, m.rows)
    ncols = m.ncols
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.reduce(-reduced[i][f])
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace ``{offset + sum c_i basis_i}`` in canonical form, or the empty set.

    Construction canonicalizes, so ``==`` is set equality and instances are hashable;
    the hash is computed once, on construction, since instances key the memos of the
    layers above.
    """

    field: Field
    ambient: int
    basis: tuple = ()
    offset: tuple = None  # type: ignore[assignment]
    is_empty: bool = False

    def __post_init__(self):
        f = self.field
        if self.is_empty:
            rows, offset = (), zero_vec(f, self.ambient)
        else:
            offset = vec(f, self.offset if self.offset is not None
                          else zero_vec(f, self.ambient))
            if len(offset) != self.ambient:
                raise ValueError("offset length does not match ambient dimension")
            rows = tuple(vec(f, r) for r in self.basis)
            if any(len(r) != self.ambient for r in rows):
                raise ValueError("basis row length does not match ambient dimension")
            if rows:
                reduced, pivots = _rref_cached(f, rows)
                rows = reduced[:len(pivots)]
                offset = _clear_pivots(f, offset, rows)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_hash",
                           hash((f, self.ambient, rows, offset, self.is_empty)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: the stored hash depends on the process's
        # string hashing (through the field's hash), so it is never pickled.
        return AffineSubspace, (self.field, self.ambient, self.basis, self.offset,
                                self.is_empty)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, ambient: int,
                 rows: Iterable[Vector]) -> "AffineSubspace":
        """The linear span of ``rows``: tuples of canonical scalars of length ``ambient``
        that the caller's own arithmetic produced.  They are reduced by
        ``_rref_cached`` and nothing is coerced or checked; the fields and the stored
        hash are those the constructor sets, so the result equals, and hashes like,
        ``AffineSubspace(field, ambient, rows)``."""
        reduced, pivots = _rref_cached(field, tuple(rows))
        basis, offset = reduced[:len(pivots)], (field.zero,) * ambient
        sub = object.__new__(cls)
        for name, value in (("field", field), ("ambient", ambient), ("basis", basis),
                            ("offset", offset), ("is_empty", False),
                            ("_hash", hash((field, ambient, basis, offset, False)))):
            object.__setattr__(sub, name, value)
        return sub

    @classmethod
    def span(cls, field: Field, rows: Iterable[Iterable], ambient: int = None,
             offset: Iterable = None) -> "AffineSubspace":
        rows = [tuple(r) for r in rows]
        offset = None if offset is None else tuple(offset)
        if ambient is None:
            if not rows and offset is None:
                raise ValueError("ambient dimension is ambiguous")
            ambient = len(rows[0]) if rows else len(offset)
        return cls(field, ambient, tuple(rows), offset)

    @classmethod
    def point(cls, field: Field, x: Iterable) -> "AffineSubspace":
        x = tuple(x)
        return cls(field, len(x), (), x)

    @classmethod
    def full(cls, field: Field, ambient: int) -> "AffineSubspace":
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @classmethod
    def empty(cls, field: Field, ambient: int) -> "AffineSubspace":
        return cls(field, ambient, is_empty=True)

    # -- queries ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        """Dimension of the direction space (0 for a point; undefined if empty)."""
        return len(self.basis)

    def is_linear(self) -> bool:
        """True when the subspace passes through the origin (and is nonempty)."""
        return (not self.is_empty
                and all(x == self.field.zero for x in self.offset))

    def contains(self, x: Iterable) -> bool:
        """Whether ``x`` lies here: the canonical offset is its coset's representative."""
        return not self.is_empty and self.representative(x) == self.offset

    def direction(self) -> "AffineSubspace":
        """The underlying linear subspace (offset dropped)."""
        if self.is_empty:
            raise ValueError("empty set has no direction")
        return AffineSubspace(self.field, self.ambient, self.basis, None)

    def representative(self, x: Iterable) -> Vector:
        """Canonical representative of the coset ``x + direction`` (x need not lie here)."""
        x = vec(self.field, x)
        if len(x) != self.ambient:
            raise ValueError(f"point of length {len(x)} in dimension {self.ambient}")
        return _clear_pivots(self.field, x, self.basis)

    def points(self) -> Iterator[Vector]:
        """Iterate all points (prime fields only), in a deterministic order."""
        if self.is_empty:
            return
        f = self.field
        if not f.is_finite and self.basis:
            raise ValueError("cannot enumerate a positive-dimensional rational subspace")
        if not self.basis:
            yield self.offset
            return
        # Over Z_d: the offset plus one multiple of each basis row, the first row's
        # coefficient varying slowest, summed column by column.
        d = f.modulus
        multiples = [[tuple(c * x % d for x in row) for c in range(d)] for row in self.basis]
        for terms in product(*multiples):
            yield tuple(sum(col) % d for col in zip(self.offset, *terms))


@functools.lru_cache(maxsize=4096)
def _interned(sub: AffineSubspace) -> AffineSubspace:
    """The one instance handed out for every subspace equal to ``sub``: the first one
    met.  Memo keys that hold interned subspaces match by identity rather than through
    the field-by-field ``__eq__``.  Memoized and bounded; past the bound an equal
    subspace may come back as another instance, which costs an ``__eq__`` again and
    changes no result."""
    return sub


def solve_affine(a: Matrix, b: Iterable) -> AffineSubspace:
    """The full solution set of ``a @ x = b`` as an :class:`AffineSubspace`.

    An inconsistent system yields the canonical empty subspace, never an exception.
    """
    f = a.field
    b = vec(f, b)
    if len(b) != a.nrows:
        raise ValueError("right-hand side length does not match row count")
    ncols = a.ncols
    aug = [list(row) + [rhs] for row, rhs in zip(a.rows, b)]
    if not aug:
        return AffineSubspace.full(f, ncols)
    reduced, pivots = _rref_rows(f, aug)
    if ncols in pivots:
        return AffineSubspace.empty(f, ncols)
    particular = [f.zero] * ncols
    for i, p in enumerate(pivots):
        particular[p] = reduced[i][ncols]
    kernel = null_space(a)
    return AffineSubspace(f, ncols, tuple(kernel), tuple(particular))
