"""Seeded input generation for the benchmark workloads, using the standard library only.

Nothing here imports ``epistrict``: inputs are plain data (ints and JSON text), so
generating them never warms a cache of the program under test, and the same seed
gives the same inputs at every commit of the program.  Seeded states, maps and
measurements are given as matrices and vectors, never as positions in a program-side
enumeration, so a change to the order of those enumerations cannot change them.
Only the exhaustive parts of a workload use the enumerations, and they use all of
them; the sizes below are the known orbit counts the checks compare against.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("classical-sweep", "wigner-bridge", "witness-scan", "scenario-mix")

#: (d, n) -> (epistemic states, affine symplectic maps, isotropic subspaces incl. rank 0)
SIZES = {
    (2, 1): (7, 24, 4),
    (3, 1): (13, 216, 5),
}


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}:{workload}")


# ---------------------------------------------------------------------------
# pure-int symplectic geometry for valid seeded inputs
# ---------------------------------------------------------------------------


def _symp(x, y, n):
    """<x, y> = x^T J y with J block-diagonal in the (q, p) interleaving."""
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(n))


def _matmul(a, b, mod):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[x % mod for x in row] for row in out] if mod else out


def _transvection(u, c, n, mod):
    """Matrix of x -> x + c <x, u> u."""
    dim = 2 * n
    ju = [0] * dim
    for i in range(n):
        ju[2 * i], ju[2 * i + 1] = u[2 * i + 1], -u[2 * i]
    rows = [[c * u[i] * ju[k] + (1 if i == k else 0) for k in range(dim)]
            for i in range(dim)]
    return [[x % mod for x in row] for row in rows] if mod else rows


def random_symplectic(rng: random.Random, n: int, mod: int = 0) -> list:
    """A word of 2n+2 transvections over Z_mod, or over Q with small factors (mod 0)."""
    dim = 2 * n
    s = [[1 if i == k else 0 for k in range(dim)] for i in range(dim)]
    for _ in range(dim + 2):
        if mod:
            u = [rng.randrange(mod) for _ in range(dim)]
            c = rng.randrange(1, mod)
        else:
            u = [rng.choice((-1, 0, 0, 1)) for _ in range(dim)]
            c = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        if any(u):
            s = _matmul(s, _transvection(u, c, n, mod), mod)
    return s


def _form(i: int, k: int) -> int:
    """Entry J[i][k] of the symplectic form in the (q, p) interleaving."""
    if i // 2 != k // 2 or i == k:
        return 0
    return 1 if i < k else -1


def is_symplectic(s, n: int, mod: int = 0) -> bool:
    """S^T J S == J: the columns of S pair up exactly as the unit vectors do."""
    cols = list(zip(*s))
    for i in range(2 * n):
        for k in range(2 * n):
            diff = _symp(cols[i], cols[k], n) - _form(i, k)
            if diff % mod if mod else diff:
                return False
    return True


def _isotropic_rows(rng, s, n, rank):
    """Images under symplectic s of `rank` distinct q axes: isotropic, independent."""
    cols = list(zip(*s))
    return [list(cols[2 * i]) for i in sorted(rng.sample(range(n), rank))]


def random_state(rng: random.Random, n: int, mod: int, rank: int) -> list:
    """[known rows, valuation]: a seeded epistemic state over Z_mod."""
    known = _isotropic_rows(rng, random_symplectic(rng, n, mod), n, rank)
    return [known, [rng.randrange(mod) for _ in range(2 * n)]]


def random_map(rng: random.Random, n: int, mod: int) -> list:
    """[S, a]: a seeded affine symplectic map m -> S m + a over Z_mod."""
    return [random_symplectic(rng, n, mod), [rng.randrange(mod) for _ in range(2 * n)]]


def random_measured(rng: random.Random, n: int, mod: int, rank: int) -> list:
    """Rows spanning a seeded isotropic subspace: the quadratures a measurement reads."""
    return _isotropic_rows(rng, random_symplectic(rng, n, mod), n, rank)


def _rank(i: int, n: int) -> int:
    """Ranks 1..n in turn: every seeded state and measurement knows something."""
    return 1 + i % n


# ---------------------------------------------------------------------------
# classical-sweep
# ---------------------------------------------------------------------------

#: Seeded (state, map) pairs at (2,2) per pass: as many as two per epistemic state.
SWEEP_PAIRS = 182
#: Ops per space whose distributions the raw-int oracle re-derives.
SWEEP_ORACLE_PER_SPACE = 64


def classical_sweep(seed: int, small: bool = False) -> dict:
    """Every (state, map) pair of the exhaustive spaces, as positions in the
    program's enumerations (all of them are used, so their order does not matter),
    then the seeded (2,2) pairs as plain data."""
    rng = _rng(seed, "classical-sweep")
    spaces, ops = [], []
    for d, n in [(2, 1)] if small else [(2, 1), (3, 1)]:
        n_states, n_maps, _ = SIZES[(d, n)]
        ops.extend([len(spaces), i, j] for i in range(n_states) for j in range(n_maps))
        spaces.append({"d": d, "n": n})
    d, n, pairs = 2, 2, 4 if small else SWEEP_PAIRS
    states = [random_state(rng, n, d, _rank(i, n)) for i in range(pairs)]
    maps = [random_map(rng, n, d) for _ in range(pairs)]
    ops.extend([len(spaces), i, i] for i in range(pairs))
    spaces.append({"d": d, "n": n, "states": states, "maps": maps})
    oracle = []
    for k in range(len(spaces)):
        mine = [x for x, op in enumerate(ops) if op[0] == k]
        oracle.extend(rng.sample(mine, min(SWEEP_ORACLE_PER_SPACE, len(mine))))
    return {"spaces": spaces, "ops": ops, "oracle": sorted(oracle)}


# ---------------------------------------------------------------------------
# wigner-bridge
# ---------------------------------------------------------------------------

#: (space, number of batches, states, maps, measurements per batch)
BRIDGE_BATCHES = (((3, 2), 4, 8, 5, 5), ((5, 1), 8, 4, 3, 3))
SMALL_BATCHES = (((5, 1), 1, 2, 2, 2),)
#: Seeded maps per space for verify_covariance and wigner_channel.
BRIDGE_MAPS_PER_SPACE = 20


def wigner_bridge(seed: int, small: bool = False) -> dict:
    """The (3,1) suite is exhaustive.  The batches at (3,2) and (5,1) are plain
    data.  verify_covariance and wigner_channel draw their map with the program's
    own random_symplectic_affine from a seeded generator, so that layer is
    measured too; the cost of both calls is fixed by the space, not by the map."""
    rng = _rng(seed, "wigner-bridge")
    spaces = [(3, 1)] if small else [(3, 1), (3, 2), (5, 1)]
    ops = [["point_operators", list(sp)] for sp in spaces]
    if not small:
        ops.append(["equivalence_exhaustive", [3, 1]])
    for (d, n), batches, n_st, n_tr, n_me in SMALL_BATCHES if small else BRIDGE_BATCHES:
        for _ in range(batches):
            ops.append(["equivalence_batch", [d, n],
                        [random_state(rng, n, d, _rank(i, n)) for i in range(n_st)],
                        [random_map(rng, n, d) for _ in range(n_tr)],
                        [random_measured(rng, n, d, _rank(i, n)) for i in range(n_me)]])
    per_space = 2 if small else BRIDGE_MAPS_PER_SPACE
    for sp in spaces:
        for _ in range(per_space):
            s = rng.randrange(2 ** 31)
            ops.append(["verify_covariance", list(sp), s])
            ops.append(["wigner_channel", list(sp), s])
    return {"ops": ops}


# ---------------------------------------------------------------------------
# witness-scan
# ---------------------------------------------------------------------------


def witness_scan(seed: int, small: bool = False) -> dict:
    """The work is fixed by the theory, and so is its order (cache warmth from one
    scan carries into the next), so the seed changes nothing here."""
    ops = [["scan_for_witness", [2, 1]]]
    if not small:
        ops.append(["scan_for_witness", [2, 2]])
    ops += [["scan_for_witness", [3, 1]], ["mermin_square"], ["ghz_test"]]
    return {"ops": ops}


# ---------------------------------------------------------------------------
# scenario-mix
# ---------------------------------------------------------------------------


def _out(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def random_scenario(rng: random.Random, field, n: int, mode: str,
                    known_rank: int, measured_rank: int, transformed: bool) -> str:
    mod = field if isinstance(field, int) else 0
    dim = 2 * n
    draw = (lambda: rng.randrange(mod)) if mod else (lambda: rng.randrange(-3, 4))
    known = _isotropic_rows(rng, random_symplectic(rng, n, mod), n, known_rank)
    measured = _isotropic_rows(rng, random_symplectic(rng, n, mod), n, measured_rank)
    data = {
        "field": field,
        "n": n,
        "mode": mode,
        "preparation": {"known": [[_out(x) for x in r] for r in known],
                        "valuation": [draw() for _ in range(dim)]},
        "measurement": {"measured": [[_out(x) for x in r] for r in measured]},
    }
    if transformed:
        s = random_symplectic(rng, n, mod)
        data["transformation"] = {"S": [[_out(x) for x in r] for r in s],
                                  "a": [draw() for _ in range(dim)]}
    return json.dumps(data, sort_keys=True)


#: The (field, n, mode) cells the simulate path accepts, over d in {2, 3, 5} and
#: n in {1, 2} in all three modes, and the rationals (mode epistricted only) with
#: n <= 3.  Every cell gets the same number of scenarios per pass: nothing measured
#: says which cells users run most, so no cell is weighted.
CELLS = ([(d, n, mode) for d in (2, 3, 5) for n in (1, 2)
          for mode in ("epistricted", "quantum", "compare")]
         + [("rational", n, "epistricted") for n in (1, 2, 3)])
PER_CELL = 40


def scenario_mix(seed: int, small: bool = False) -> dict:
    rng = _rng(seed, "scenario-mix")
    seen = set()
    texts = []
    for field, n, mode in CELLS:
        for i in range(1 if small else PER_CELL):
            # Preparation rank 0..n, measurement rank 1..n, a transformation in
            # three scenarios of four.
            shape = (i % (n + 1), 1 + i // (n + 1) % n, i % 4 != 3)
            text = random_scenario(rng, field, n, mode, *shape)
            while text in seen:
                text = random_scenario(rng, field, n, mode, *shape)
            seen.add(text)
            texts.append(text)
    rng.shuffle(texts)
    return {"ops": texts}


GENERATORS = {
    "classical-sweep": classical_sweep,
    "wigner-bridge": wigner_bridge,
    "witness-scan": witness_scan,
    "scenario-mix": scenario_mix,
}
