"""Independent brute-force oracles used to pin down expected values in the tests.

Everything in this module is deliberately written from scratch on raw ints and
Fractions — no imports from the package's linear algebra — so that agreement between a
library result and an oracle result is a genuine two-route check, not a tautology.
The dense oracles, ``shift``, ``boost`` and ``dense_weyl_trace``, build their
operators from the convention alone, in numpy; ``affine_map_table`` uses numpy
integer products, exact at these sizes.  ``dense_table`` and ``per_label_born_rows``
are the slow route of the equivalence suite's classical side: exact tables and
distributions read into floats one point or one label at a time.  ``rref_fraction``,
``clear_pivots_fraction``, ``pivot_clearing_rows_fraction``, ``null_space_fraction``,
``inverse_fraction`` and ``solve_fraction`` are the slow route of the rational
kernels: Gauss-Jordan elimination one ``Fraction`` at a time.  ``reach`` is the slow
route of ``possible_values`` and of the outcome labels: the whole set support + V'-perp
that a measurement can meet, joined from the two subspaces' spanning rows.
"""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np


def f_elements(d):
    return list(range(d))


def f_add(d, a, b):
    return (a + b) % d


def f_mul(d, a, b):
    return (a * b) % d


def combo_set(d, rows, offset=None):
    """All points ``offset + sum c_i rows_i`` over Z_d, as a frozenset of tuples.

    Works directly on the raw spanning rows (they need not be independent or reduced),
    which is the point: no echelon machinery involved.
    """
    ambient = len(offset) if offset is not None else len(rows[0])
    if offset is None:
        offset = (0,) * ambient
    pts = set()
    for coeffs in product(range(d), repeat=len(rows)):
        x = list(offset)
        for c, row in zip(coeffs, rows):
            for i in range(ambient):
                x[i] = (x[i] + c * row[i]) % d
        pts.add(tuple(x))
    return frozenset(pts)


def solve_set(d, a_rows, b):
    """All x in (Z_d)^n with A x = b, by full enumeration."""
    n = len(a_rows[0]) if a_rows else len(b)
    sols = set()
    for x in product(range(d), repeat=n):
        if all(sum(r * v for r, v in zip(row, x)) % d == rhs % d
               for row, rhs in zip(a_rows, b)):
            sols.add(x)
    return frozenset(sols)


def label_support(d, known_rows, valuation):
    """The support {x : f . x = f . v for every known f} of the epistemic state whose
    known functionals span ``known_rows``, with valuation v, by full enumeration."""
    rows = list(known_rows) or [(0,) * len(valuation)]
    return solve_set(d, rows, [sum(a * b for a, b in zip(f, valuation)) for f in rows])


def reach(state, m):
    """The reach set support + V'-perp of ``state`` under the sharp measurement ``m``:
    every ontic state in a cell that the support meets, over any field.  The support's
    spanning rows are joined with a cell's into a subspace of the support's own type."""
    sup = state.support()
    return dataclasses.replace(sup, basis=sup.basis + m.cell(sup.offset).basis)


def affine_map_table(d, s_rows, a):
    """The map x -> S x + a over Z_d, as a dict on every point."""
    points = np.array(list(product(range(d), repeat=len(a))), dtype=np.int64)
    images = (points @ np.array(s_rows, dtype=np.int64).T + np.array(a)) % d
    return dict(zip(map(tuple, points.tolist()), map(tuple, images.tolist())))


def rational_combo_contains(rows, offset, x):
    """Whether x lies in offset + span(rows) over Q, by solving with Fractions.

    Plain elimination on a dense system, independent of the package's implementation
    (different pivoting, no canonical forms).
    """
    rows = [[Fraction(e) for e in r] for r in rows]
    target = [Fraction(a) - Fraction(b) for a, b in zip(x, offset)]
    # Solve rows^T c = target by eliminating on the transposed system.
    m = [[rows[j][i] for j in range(len(rows))] + [target[i]]
         for i in range(len(target))]
    cols = len(rows)
    pivot_row = 0
    for c in range(cols):
        pr = next((r for r in range(pivot_row, len(m)) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        pv = m[pivot_row][c]
        m[pivot_row] = [e / pv for e in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][c] != 0:
                f = m[r][c]
                m[r] = [e - f * p for e, p in zip(m[r], m[pivot_row])]
        pivot_row += 1
    # Consistent iff no row reads 0 = nonzero.
    for row in m:
        if all(e == 0 for e in row[:-1]) and row[-1] != 0:
            return False
    return True


def all_subspace_data(d, ambient):
    """Raw (rows, offset) pairs generating every affine subspace of (Z_d)^ambient.

    Redundant generating sets are fine (duplicates by point set are expected); callers
    dedupe by the frozenset of points.
    """
    vectors = list(product(range(d), repeat=ambient))
    nonzero = [v for v in vectors if any(v)]
    data = []
    for offset in vectors:
        data.append(((), offset))
        for v in nonzero:
            data.append(((v,), offset))
        for i, v in enumerate(nonzero):
            for w in nonzero[i + 1:]:
                data.append(((v, w), offset))
    return data


def ontic_distribution(d, support_points, s_rows, a, meas_rows):
    """Sharp-measurement statistics by raw ontic simulation.

    Each support point is pushed through m' = S m + a; the outcome of measuring the
    functionals ``meas_rows`` is the tuple of their values at m'.  Returns a dict
    mapping value tuples to Fraction probabilities.
    """
    counts = {}
    n_pts = len(support_points)
    for m in support_points:
        mp = tuple((sum(r * e for r, e in zip(row, m)) + shift) % d
                   for row, shift in zip(s_rows, a))
        values = tuple(sum(f * e for f, e in zip(frow, mp)) % d
                       for frow in meas_rows)
        counts[values] = counts.get(values, 0) + 1
    return {v: Fraction(c, n_pts) for v, c in counts.items()}


def rref_mod(d, rows):
    """Reduced row echelon form over Z_d by plain Gauss-Jordan on raw ints.

    Returns ``(rows, rank)`` with zero rows at the bottom; the RREF is unique, so any
    correct elimination must agree with it entry for entry.
    """
    m = [[e % d for e in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], d - 2, d)
        m[rank] = [(e * inv) % d for e in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(e - f * p) % d for e, p in zip(m[r], m[rank])]
        rank += 1
    return [tuple(r) for r in m], rank


def symplectic_2x2(d):
    """Every symplectic matrix on one degree of freedom, by the exhaustive d^4 filter.

    For a 2 x 2 matrix S = [[a, b], [c, e]], S^T J S = (a e - b c) J, so S is
    symplectic iff its determinant is 1.  Sorted by rows, as row tuples.
    """
    return sorted(((a, b), (c, e)) for a, b, c, e in product(range(d), repeat=4)
                  if (a * e - b * c) % d == 1)


def shift(d, q):
    """Single-dof shift S(q)|x> = |x - q>: row x - q holds the 1 of column x."""
    return np.eye(d, dtype=complex)[(np.arange(d) + q) % d]


def boost(d, p):
    """Single-dof boost B(p)|x> = exp(2 pi i p x / d)|x>: the character chi(p x) at
    odd d, and the doubled character (-1)^(p x) at d = 2."""
    return np.diag(np.exp(2j * np.pi * (p * np.arange(d) % d) / d))


def dense_weyl_trace(d, m, rho):
    """Tr(W(m) rho) / Tr rho for an interleaved Weyl vector m over Z_d.

    W(m) is built densely from its convention: per degree of freedom
    W(q, p)|x> = r^(c q p + k p x)|x - q>, with r = i, c = 1, k = 2 at d = 2 and
    r = exp(2 pi i / d), c = (d - 1) / 2, k = 1 at odd d; the first degree of freedom
    is the most significant tensor factor.
    """
    order, c, k = (4, 1, 2) if d == 2 else (d, (d - 1) // 2, 1)
    w = np.ones((1, 1), dtype=complex)
    for q, p in zip(m[0::2], m[1::2]):
        factor = np.zeros((d, d), dtype=complex)
        for x in range(d):
            factor[(x - q) % d, x] = np.exp(2j * np.pi * ((c * q * p + k * p * x) % order)
                                            / order)
        w = np.kron(w, factor)
    return np.trace(w @ rho) / np.trace(rho).real


def dense_table(points, table):
    """An exact classical table over points as floats in the order of ``points``; a
    point the table lacks reads 0."""
    return np.array([float(table.get(m, 0)) for m in points])


def per_label_born_rows(dists, labels):
    """Classical Born rows read one label at a time: ``dists[j][k]`` is the outcome
    distribution of transform j under measurement k, and row j holds
    ``float(dists[j][k].probability(label))`` for each label of ``labels[k]`` in order,
    measurement after measurement."""
    return np.array([[float(dist.probability(label))
                      for dist, outcome in zip(row, labels) for label in outcome]
                     for row in dists])


# ---------------------------------------------------------------------------
# the Fraction route over Q
# ---------------------------------------------------------------------------


def rref_fraction(rows):
    """Reduced row echelon form over Q by Gauss-Jordan one ``Fraction`` at a time:
    each pivot row is divided by its pivot, and its multiples are subtracted from every
    other row.  Returns ``(rows, pivots)``, zero rows at the bottom, as tuples."""
    m = [[Fraction(e) for e in r] for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [e / pv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [e - f * p for e, p in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(r) for r in m], pivots


def clear_pivots_fraction(x, rows):
    """``x`` less ``x[k]`` times each reduced row, ``k`` the row's pivot (its first
    nonzero entry), one ``Fraction`` at a time."""
    x = [Fraction(e) for e in x]
    for row in rows:
        k = next(i for i, e in enumerate(row) if e != 0)
        c = x[k]
        x = [e - c * r for e, r in zip(x, row)]
    return tuple(x)


def pivot_clearing_rows_fraction(basis, m_rows):
    """P M, with P x = ``clear_pivots_fraction(x, basis)``, column by column: P is
    applied to each column of M, and the columns are read back as rows."""
    cols = [clear_pivots_fraction(col, basis) for col in zip(*m_rows)]
    return [tuple(r) for r in zip(*cols)]


def null_space_fraction(rows, ncols):
    """A basis of ``{x : rows x = 0}``, one vector per free column of the RREF."""
    reduced, pivots = rref_fraction(rows) if rows else ([], [])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return basis


def inverse_fraction(rows):
    """The inverse of a square matrix by Gauss-Jordan on ``[A | I]``, or None when A
    is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = rref_fraction(aug)
    if pivots != list(range(n)):
        return None
    return [tuple(r[n:]) for r in reduced]


def solve_fraction(rows, b):
    """``(particular, kernel)`` for ``rows x = b``: the solution with zeros in the free
    columns and the null-space basis, or None when the system is inconsistent."""
    ncols = len(rows[0])
    reduced, pivots = rref_fraction([list(r) + [e] for r, e in zip(rows, b)])
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        particular[p] = reduced[i][ncols]
    return tuple(particular), null_space_fraction(rows, ncols)
