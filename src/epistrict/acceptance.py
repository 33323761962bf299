"""Machine-checkable acceptance gates for the whole package.

Eight numbered criteria cover enumeration counts, the symplectic/Weyl algebra,
operational equivalence at odd prime dimension, Wigner-representation
structure, the stabilizer bridge, the parity-two inequivalence witnesses, an
independent brute-force oracle for the classical engine, and the possibilistic
continuous engine.  Each criterion yields named :class:`CheckResult` records
with expected/actual values, so a failure pinpoints what broke.

Sampled (non-exhaustive) checks draw from ``random.Random(seed)`` where the
seed comes from the ``EPISTRICT_SEED`` environment variable (default 2026), so
reruns are reproducible and CI can pin or vary the draw.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

from .epistemic import (
    EpistemicState,
    SharpMeasurement,
    enumerate_states,
    measure,
    possible_values,
    transform,
)
from .fields import RATIONALS, PrimeField
from .linalg import AffineSubspace, Matrix, vec_add, vec_dot
from .quantum import (
    PROB_TOL,
    TOL,
    _pair_char,
    born,
    clifford,
    quadrature_pvm,
    quadrature_state,
    weyl,
    weyl_phase,
)
from .stabilizer import (
    ghz_test,
    mermin_square,
    quadrature_of_stabilizer,
    scan_for_witness,
    stabilizer_of_quadrature,
    weyl_value_report,
)
from .symplectic import (
    PhaseSpace,
    QuadratureFunctional,
    _apply_j,
    enumerate_group,
    enumerate_isotropic,
    enumerate_symplectic,
    extend_to_symplectic,
    poisson_bracket_fd,
    random_symplectic_affine,
    symp_inner,
    symplectic_form,
)
from .wigner import (
    equivalence_suite,
    negativity,
    point_operators,
    verify_covariance,
    wigner_channel,
    wigner_meas,
    wigner_state,
)

SEED_ENV = "EPISTRICT_SEED"
DEFAULT_SEED = 2026

EXACT = "exact"
NEG_THRESHOLD = -1e-12

SUITES: Dict[str, tuple] = {
    "algebra": (1, 2, 7, 8),
    "equivalence": (3, 4, 5),
    "inequivalence": (6,),
    "all": (1, 2, 3, 4, 5, 6, 7, 8),
}


@dataclass(frozen=True)
class CheckResult:
    """One named verification with its expectation and what actually happened.

    ``moduli`` lists the prime moduli a check exercises (empty for checks over
    the rationals), so runs can be narrowed to a single d.
    """

    criterion: int
    name: str
    passed: bool
    expected: str
    actual: str
    tolerance: str = EXACT
    details: str = ""
    moduli: tuple = ()


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from exc


def _sp(d: int, n: int) -> PhaseSpace:
    return PhaseSpace(PrimeField(d), n)


def _check(criterion: int, name: str, passed: bool, expected, actual,
           threshold: str = EXACT, details: str = "",
           moduli: tuple = ()) -> CheckResult:
    return CheckResult(criterion, name, bool(passed), str(expected), str(actual),
                       threshold, details, tuple(moduli))


# ---------------------------------------------------------------------------
# 1. enumeration counts
# ---------------------------------------------------------------------------


def _criterion_1(seed: int) -> List[CheckResult]:
    del seed
    checks = []
    d3, d2 = _sp(3, 1), _sp(2, 1)

    s3 = enumerate_states(d3)
    pure3 = sum(1 for s in s3 if s.is_pure())
    checks.append(_check(1, "single-trit epistemic states: 12 pure + 1 mixed",
                         (pure3, len(s3)) == (12, 13),
                         "12 pure / 13 total", f"{pure3} pure / {len(s3)} total",
                         moduli=(3,)))

    s2 = enumerate_states(d2)
    pure2 = sum(1 for s in s2 if s.is_pure())
    checks.append(_check(1, "single-bit epistemic states: 6 pure + 1 mixed",
                         (pure2, len(s2)) == (6, 7),
                         "6 pure / 7 total", f"{pure2} pure / {len(s2)} total",
                         moduli=(2,)))

    n_symp = len(enumerate_symplectic(d2))
    checks.append(_check(1, "single-bit symplectic matrices", n_symp == 6, 6, n_symp,
                         moduli=(2,)))

    n_aff = len(enumerate_group(d2))
    checks.append(_check(1, "single-bit reversible affine maps", n_aff == 24, 24, n_aff,
                         moduli=(2,)))

    q3 = len(enumerate_isotropic(d3, rank=1))
    checks.append(_check(1, "inequivalent single-trit quadratures", q3 == 4, 4, q3,
                         moduli=(3,)))

    q2 = len(enumerate_isotropic(d2, rank=1))
    checks.append(_check(1, "inequivalent single-bit quadratures", q2 == 3, 3, q2,
                         moduli=(2,)))
    return checks


# ---------------------------------------------------------------------------
# 2. symplectic / Weyl algebra
# ---------------------------------------------------------------------------


def _criterion_2(seed: int) -> List[CheckResult]:
    del seed
    checks = []

    bad_symp = 0
    n_transforms = 0
    for d in (2, 3):
        sp = _sp(d, 1)
        j = symplectic_form(sp)
        for t in enumerate_group(sp):
            n_transforms += 1
            if (t.s.T @ j @ t.s) != j:
                bad_symp += 1
    checks.append(_check(2, "S^T J S = J for every enumerated transformation (d=2,3; n=1)",
                         bad_symp == 0, "0 violations",
                         f"{bad_symp} violations of {n_transforms}", moduli=(2, 3)))

    bad_j = []
    for d, n in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)):
        sp = _sp(d, n)
        j = symplectic_form(sp)
        if (j @ j) != -Matrix.identity(sp.field, sp.dim):
            bad_j.append((d, n))
    checks.append(_check(2, "J^2 = -identity (d in {2,3,5}; n in {1,2})",
                         not bad_j, "holds everywhere", f"failures at {bad_j or 'none'}",
                         moduli=(2, 3, 5)))

    sp3 = _sp(3, 1)
    f3 = sp3.field
    vecs = [tuple(p) for p in sp3.points()]
    skew_bad = sum(1 for a in vecs for b in vecs
                   if symp_inner(sp3, a, b) != f3.reduce(-symp_inner(sp3, b, a)))
    checks.append(_check(2, "skew-symmetry of <.,.> on all pairs (d=3, n=1)",
                         skew_bad == 0, "0 violations", f"{skew_bad} of {len(vecs)**2}",
                         moduli=(3,)))

    inv_bad = 0
    for s in enumerate_symplectic(sp3):
        for a in vecs:
            sa = s.matvec(a)
            for b in vecs:
                if symp_inner(sp3, sa, s.matvec(b)) != symp_inner(sp3, a, b):
                    inv_bad += 1
    checks.append(_check(2, "symplectic invariance <Sa,Sb> = <a,b> (all S, all pairs; d=3, n=1)",
                         inv_bad == 0, "0 violations", f"{inv_bad} violations",
                         moduli=(3,)))

    pb_bad = []
    for d in (2, 3, 5):
        sp = _sp(d, 1)
        funcs = [tuple(p) for p in sp.points() if any(p)]
        tables = {f: QuadratureFunctional(sp, f).table() for f in funcs}
        for fa in funcs:
            for fb in funcs:
                bracket = poisson_bracket_fd(sp, tables[fa], tables[fb])
                want = symp_inner(sp, fa, fb)
                if any(v != want for v in bracket.values()):
                    pb_bad.append((d, fa, fb))
    checks.append(_check(2, "finite-difference Poisson bracket = symplectic product "
                            "(all functional pairs; d in {2,3,5}, n=1)",
                         not pb_bad, "0 violations", f"{len(pb_bad)} violations",
                         moduli=(2, 3, 5)))

    ws = {a: weyl(sp3, a) for a in vecs}
    prod_dev = 0.0
    comm_bad = 0
    for a in vecs:
        for b in vecs:
            ab = vec_add(f3, a, b)
            lhs = ws[a] @ ws[b]
            prod_dev = max(prod_dev, float(np.max(np.abs(
                lhs - weyl_phase(sp3, a, b) * ws[ab]))))
            commute = float(np.max(np.abs(lhs - ws[b] @ ws[a]))) <= TOL
            if commute != (symp_inner(sp3, a, b) == 0):
                comm_bad += 1
    checks.append(_check(2, "Weyl product law W(a)W(b) = phase * W(a+b) (all pairs; d=3, n=1)",
                         prod_dev <= TOL, "<= 1e-10", f"{prod_dev:.3e}", "1e-10",
                         moduli=(3,)))
    checks.append(_check(2, "W(a), W(b) commute iff <a,b> = 0 (all pairs; d=3, n=1)",
                         comm_bad == 0, "0 violations", f"{comm_bad} violations", "1e-10",
                         moduli=(3,)))
    return checks


# ---------------------------------------------------------------------------
# 3. operational equivalence at odd prime d
# ---------------------------------------------------------------------------


def _criterion_3(seed: int) -> List[CheckResult]:
    checks = []
    rng = random.Random(seed)

    sp3 = _sp(3, 1)
    rep = equivalence_suite(
        sp3, enumerate_states(sp3), enumerate_group(sp3),
        [SharpMeasurement(sp3, v) for v in enumerate_isotropic(sp3)])
    checks.append(_check(3, "d=3, n=1 exhaustive triple count",
                         rep.n_triples == 14040, 14040, rep.n_triples, moduli=(3,)))
    checks.append(_check(3, "d=3, n=1 Born vs epistricted (exhaustive)",
                         rep.max_born_dev <= PROB_TOL, "<= 1e-9",
                         f"{rep.max_born_dev:.3e}", "1e-9", moduli=(3,)))
    checks.append(_check(3, "d=3, n=1 identity tables W_rho=mu, W_U=Gamma, W_O=xi",
                         max(rep.max_state_dev, rep.max_channel_dev,
                             rep.max_meas_dev) <= TOL,
                         "<= 1e-10",
                         f"state {rep.max_state_dev:.2e}, channel {rep.max_channel_dev:.2e}, "
                         f"meas {rep.max_meas_dev:.2e}", "1e-10", moduli=(3,)))

    sp32 = _sp(3, 2)
    states32 = rng.sample(enumerate_states(sp32), 8)
    transforms32 = [random_symplectic_affine(sp32, rng) for _ in range(5)]
    isos32 = enumerate_isotropic(sp32)
    meas32 = [SharpMeasurement(sp32, v)
              for v in rng.sample(isos32, 5)]
    rep2 = equivalence_suite(sp32, states32, transforms32, meas32)
    checks.append(_check(3, "d=3, n=2 deterministic 200-triple sample",
                         rep2.n_triples == 200 and rep2.max_born_dev <= PROB_TOL
                         and max(rep2.max_state_dev, rep2.max_channel_dev,
                                 rep2.max_meas_dev) <= TOL,
                         "200 triples, Born <= 1e-9, tables <= 1e-10",
                         f"{rep2.n_triples} triples, Born {rep2.max_born_dev:.2e}, "
                         f"tables {max(rep2.max_state_dev, rep2.max_channel_dev, rep2.max_meas_dev):.2e}",
                         "1e-9 / 1e-10", f"seed {seed}", moduli=(3,)))

    sp5 = _sp(5, 1)
    states5 = rng.sample(enumerate_states(sp5), 4)
    transforms5 = [random_symplectic_affine(sp5, rng) for _ in range(3)]
    meas5 = [SharpMeasurement(sp5, v)
             for v in rng.sample(enumerate_isotropic(sp5, rank=1), 3)]
    rep3 = equivalence_suite(sp5, states5, transforms5, meas5)
    checks.append(_check(3, "d=5, n=1 spot sample (10 objects)",
                         rep3.ok and rep3.n_triples == 36,
                         "36 triples agree", f"{rep3.n_triples} triples, "
                         f"worst dev {max(rep3.max_born_dev, rep3.max_state_dev, rep3.max_channel_dev, rep3.max_meas_dev):.2e}",
                         "1e-9 / 1e-10", f"seed {seed}", moduli=(5,)))
    return checks


# ---------------------------------------------------------------------------
# 4. Wigner structure
# ---------------------------------------------------------------------------


def _criterion_4(seed: int) -> List[CheckResult]:
    del seed
    checks = []
    sp3 = _sp(3, 1)
    basis = point_operators(sp3)
    pts = basis.points()
    dim = 3

    trace_dev = max(abs(np.trace(basis.op(m)) - 1.0) for m in pts)
    checks.append(_check(4, "Tr A(m) = 1 for every phase-space point (d=3, n=1)",
                         trace_dev <= TOL, "<= 1e-10", f"{trace_dev:.3e}", "1e-10",
                         moduli=(3,)))

    total = sum(basis.op(m) for m in pts)
    res_dev = float(np.max(np.abs(total - dim * np.eye(dim))))
    checks.append(_check(4, "sum_m A(m) = d^n * identity (d=3, n=1)",
                         res_dev <= TOL, "<= 1e-10", f"{res_dev:.3e}", "1e-10",
                         "with Tr-normalized tables the resolution carries the d^n weight",
                         moduli=(3,)))

    orth_dev = 0.0
    for m in pts:
        for mp in pts:
            want = dim if m == mp else 0.0
            orth_dev = max(orth_dev, abs(np.trace(basis.op(m) @ basis.op(mp)) - want))
    checks.append(_check(4, "orthogonality Tr[A(m)A(m')] = d^n delta (d=3, n=1)",
                         orth_dev <= TOL, "<= 1e-10", f"{orth_dev:.3e}", "1e-10",
                         moduli=(3,)))

    cov_dev = 0.0
    cov_bad = 0
    for t in enumerate_group(sp3):
        rep = verify_covariance(basis, t)
        cov_dev = max(cov_dev, rep.max_deviation)
        if not rep.ok:
            cov_bad += 1
    checks.append(_check(4, "covariance U A(m) U^dag = A(Sm+a) for all 216 maps (d=3, n=1)",
                         cov_bad == 0, "0 failures",
                         f"{cov_bad} failures, worst {cov_dev:.3e}", "1e-10",
                         moduli=(3,)))

    worst_neg = 0.0
    n_tables = 0

    def scan_state_tables(sp, sel):
        nonlocal worst_neg, n_tables
        b = point_operators(sp)
        for st in sel:
            n_tables += 1
            worst_neg = min(worst_neg, negativity(
                wigner_state(b, quadrature_state(sp, st.known, st.valuation).rho))[0])

    scan_state_tables(sp3, enumerate_states(sp3))
    sp5 = _sp(5, 1)
    scan_state_tables(sp5, enumerate_states(sp5))
    sp32 = _sp(3, 2)
    scan_state_tables(sp32, enumerate_states(sp32)[::10])

    for sp in (sp3, sp5):
        b = point_operators(sp)
        for v in enumerate_isotropic(sp):
            n_tables += 1
            table = wigner_meas(b, quadrature_pvm(sp, v))
            worst_neg = min(worst_neg,
                            min(min(row.values()) for row in table.values()))
        group = enumerate_group(sp)
        step = max(1, len(group) // 30)
        for t in group[::step]:
            n_tables += 1
            table = wigner_channel(b, clifford(sp, t))
            worst_neg = min(worst_neg,
                            min(min(col.values()) for col in table.values()))

    checks.append(_check(4, "odd-prime quadrature-object tables nonnegative",
                         worst_neg >= NEG_THRESHOLD, ">= -1e-12",
                         f"min entry {worst_neg:.3e} over {n_tables} tables", "-1e-12",
                         "states d=3/5 n=1 exhaustive + d=3 n=2 decimated; "
                         "measurements d=3/5 n=1 exhaustive; ~30 channels per space",
                         moduli=(3, 5)))
    return checks


# ---------------------------------------------------------------------------
# 5. stabilizer bridge
# ---------------------------------------------------------------------------


def _criterion_5(seed: int) -> List[CheckResult]:
    del seed
    checks = []
    gen_dev = 0.0
    roundtrip_bad = 0
    n_states = 0
    flips = {}
    flip_states = {}
    flip_relation_dev = 0.0

    for d, n in ((2, 1), (3, 1), (2, 2), (3, 2)):
        sp = _sp(d, n)
        flips[(d, n)] = 0
        flip_states[(d, n)] = 0
        for st in enumerate_states(sp):
            n_states += 1
            group = stabilizer_of_quadrature(sp, st.known, st.valuation)
            rho = quadrature_state(sp, st.known, st.valuation).rho
            for i in range(len(group.generators)):
                g = group.operator(i)
                gen_dev = max(gen_dev, float(np.max(np.abs(g @ rho - rho))))
            if quadrature_of_stabilizer(group) != st:
                roundtrip_bad += 1
            rep = weyl_value_report(sp, st.known, st.valuation)
            flips[(d, n)] += rep.n_flips
            if rep.n_flips:
                flip_states[(d, n)] += 1
                tr = np.trace(rho).real
                for f in rep.flipped:
                    m = _apply_j(sp.field, f)
                    naive = vec_dot(sp.field, f, st.valuation)
                    predicted = np.conj(_pair_char(d, naive))
                    flip_relation_dev = max(flip_relation_dev, float(np.max(np.abs(
                        weyl(sp, m) @ rho + predicted * rho))))

    checks.append(_check(5, "generator relations W(a) rho = chi(<v,a>) rho "
                            "(all states, d in {2,3}, n <= 2)",
                         gen_dev <= TOL, "<= 1e-10",
                         f"{gen_dev:.3e} over {n_states} states", "1e-10",
                         moduli=(2, 3)))
    checks.append(_check(5, "stabilizer -> state -> stabilizer round trip is the identity",
                         roundtrip_bad == 0, "0 failures",
                         f"{roundtrip_bad} of {n_states}", moduli=(2, 3)))
    odd_flips = flips[(2, 1)] + flips[(3, 1)] + flips[(3, 2)]
    checks.append(_check(5, "eigen-relations extend to the full displacement group "
                            "(d=2 n=1, d=3 n=1, d=3 n=2)",
                         odd_flips == 0, "0 sign flips", f"{odd_flips} sign flips", "1e-10",
                         moduli=(2, 3)))
    checks.append(_check(5, "d=2, n=2 group extension carries the parity obstruction",
                         flip_states[(2, 2)] > 0 and flip_relation_dev <= TOL,
                         "some states flip, every flip an exact -1 eigen-relation",
                         f"{flip_states[(2, 2)]} states / {flips[(2, 2)]} flipped elements, "
                         f"flip relation dev {flip_relation_dev:.3e}", "1e-10",
                         "anti-commuting Weyl factors make a global additive phase "
                         "assignment impossible at two qubits; the generator and "
                         "round-trip forms above still hold exactly (see criterion 6)",
                         moduli=(2,)))
    return checks


# ---------------------------------------------------------------------------
# 6. inequivalence at d = 2
# ---------------------------------------------------------------------------


def _witness_reverify(wit) -> float:
    """Recompute a witness's quantum side from scratch and compare per label."""
    sp = wit.state.space
    rho = quadrature_state(sp, wit.state.known, wit.state.valuation).rho
    evolved = clifford(sp, wit.transformation)(rho)
    qprobs = born(evolved, quadrature_pvm(sp, wit.measurement.measured))
    worst = 0.0
    for label, p in qprobs.items():
        worst = max(worst, abs(p - wit.quantum.get(label, 0.0)))
    return worst


def _criterion_6(seed: int) -> List[CheckResult]:
    del seed
    checks = []

    sp22 = _sp(2, 2)
    basis = point_operators(sp22)
    negatives = []
    for st in enumerate_states(sp22):
        table = wigner_state(basis, quadrature_state(sp22, st.known, st.valuation).rho)
        mn = negativity(table)[0]
        if mn < NEG_THRESHOLD:
            negatives.append((mn, st))
    most = min(n for n, _ in negatives) if negatives else 0.0
    checks.append(_check(6, "two-qubit state with a negative Wigner entry (exhaustive, 91 states)",
                         len(negatives) >= 1, ">= 1 state",
                         f"{len(negatives)} states, most negative {most:.4f}", "-1e-12",
                         moduli=(2,)))

    mer = mermin_square()
    checks.append(_check(6, "magic-square: operator constraints and 0/512 assignments",
                         mer.row_signs == (1, 1, 1) and mer.col_signs == (1, 1, -1)
                         and mer.n_satisfying == 0 and mer.n_satisfying_relaxed > 0,
                         "rows (+,+,+), cols (+,+,-), 0 of 512, relaxed > 0",
                         f"rows {mer.row_signs}, cols {mer.col_signs}, "
                         f"{mer.n_satisfying} of {mer.n_assignments}, "
                         f"relaxed {mer.n_satisfying_relaxed}", moduli=(2,)))

    ghz = ghz_test()
    checks.append(_check(6, "three-qubit parity argument: 0/64 local assignments",
                         ghz.eigenvalues == (1, -1, -1, -1) and ghz.n_satisfying == 0
                         and ghz.n_satisfying_relaxed > 0,
                         "eigenvalues (+1,-1,-1,-1), 0 of 64, relaxed > 0",
                         f"eigenvalues {ghz.eigenvalues}, {ghz.n_satisfying} of "
                         f"{ghz.n_assignments}, relaxed {ghz.n_satisfying_relaxed}",
                         moduli=(2,)))

    wit1 = scan_for_witness(_sp(2, 1))
    wit2 = scan_for_witness(sp22)
    ok = wit1 is not None and wit2 is not None
    detail = ""
    if ok:
        dev1 = _witness_reverify(wit1)
        dev2 = _witness_reverify(wit2)
        ok = dev1 <= PROB_TOL and dev2 <= PROB_TOL
        detail = (f"n=1: max diff {wit1.max_diff:.3f}; n=2: max diff {wit2.max_diff:.3f}; "
                  f"independent Born recomputation agrees to {max(dev1, dev2):.2e}")
    checks.append(_check(6, "differing prepare/transform/measure triple exists (exhaustive, n <= 2)",
                         ok, "witness at n=1 and n=2", detail or "no witness found", "1e-9",
                         moduli=(2,)))

    wit3 = scan_for_witness(_sp(3, 1))
    checks.append(_check(6, "the same exhaustive scan at d=3, n=1 finds no witness",
                         wit3 is None, "none",
                         "none" if wit3 is None else f"unexpected witness, diff {wit3.max_diff}",
                         "1e-9", moduli=(3,)))
    return checks


# ---------------------------------------------------------------------------
# 7. brute-force oracle for the classical engine
# ---------------------------------------------------------------------------


def _cell_fractions(points, meas: SharpMeasurement) -> dict:
    """The brute-force oracle: the fraction of ``points`` in each cell of ``meas``."""
    counts = Counter(meas.label_of(p) for p in points)
    return {lab: Fraction(c, len(points)) for lab, c in counts.items()}


def _exhaustive_oracle_sweep(sp: PhaseSpace) -> tuple:
    states = enumerate_states(sp)
    group = enumerate_group(sp)
    meas = [SharpMeasurement(sp, v) for v in enumerate_isotropic(sp)]
    n = 0
    bad = 0
    for st in states:
        support = [tuple(p) for p in st.support().points()]
        for t in group:
            moved = transform(st, t)
            mapped = [tuple(t.apply(p)) for p in support]
            for ms in meas:
                n += 1
                if dict(measure(moved, ms).items()) != _cell_fractions(mapped, ms):
                    bad += 1
    return n, bad


def _criterion_7(seed: int) -> List[CheckResult]:
    checks = []

    n21, bad21 = _exhaustive_oracle_sweep(_sp(2, 1))
    checks.append(_check(7, "oracle equality on all triples (d=2, n=1)",
                         bad21 == 0 and n21 == 7 * 24 * 4,
                         "672 triples, 0 mismatches", f"{n21} triples, {bad21} mismatches",
                         moduli=(2,)))

    n31, bad31 = _exhaustive_oracle_sweep(_sp(3, 1))
    checks.append(_check(7, "oracle equality on all triples (d=3, n=1)",
                         bad31 == 0 and n31 == 13 * 216 * 5,
                         "14040 triples, 0 mismatches", f"{n31} triples, {bad31} mismatches",
                         moduli=(3,)))

    # d=2, n=2: the 91 x 11520 x 31 product is verified through an exact
    # factorization.  (a) For every (state, map) pair the pointwise image of the
    # support equals the support of the library's transformed state; (b) for
    # every (state, measurement) pair the library's probabilities equal cell
    # counting on the support.  Any triple's oracle answer counts cells over the
    # mapped support, which by (a) is the transformed state's support, whose
    # counts by (b) are the library's output — so (a) and (b) together cover
    # every triple.  A seeded sample of full-pipeline runs double-checks the
    # factorization logic itself.
    sp = _sp(2, 2)
    states = enumerate_states(sp)
    group = enumerate_group(sp)
    meas = [SharpMeasurement(sp, v) for v in enumerate_isotropic(sp)]

    sup_of = {st: frozenset(tuple(p) for p in st.support().points()) for st in states}
    bijective = len(set(sup_of.values())) == len(states)

    count_bad = 0
    for st in states:
        for ms in meas:
            if dict(measure(st, ms).items()) != _cell_fractions(sup_of[st], ms):
                count_bad += 1

    all_points = [tuple(p) for p in sp.points()]
    map_bad = 0
    for t in group:
        perm = {p: tuple(t.apply(p)) for p in all_points}
        for st in states:
            mapped = frozenset(perm[p] for p in sup_of[st])
            if sup_of[transform(st, t)] != mapped:
                map_bad += 1

    rng = random.Random(seed)
    spot_bad = 0
    for _ in range(200):
        st = states[rng.randrange(len(states))]
        t = group[rng.randrange(len(group))]
        ms = meas[rng.randrange(len(meas))]
        mapped = [tuple(t.apply(p)) for p in sup_of[st]]
        if dict(measure(transform(st, t), ms).items()) != _cell_fractions(mapped, ms):
            spot_bad += 1

    n_covered = len(states) * len(group) * len(meas)
    checks.append(_check(
        7, "oracle equality on all triples (d=2, n=2; factorized sweep)",
        bijective and count_bad == 0 and map_bad == 0 and spot_bad == 0,
        f"{n_covered} triples covered, 0 mismatches",
        f"support map: {map_bad} bad of {len(states) * len(group)} pairs; "
        f"cell counts: {count_bad} bad of {len(states) * len(meas)} pairs; "
        f"spot runs: {spot_bad} bad of 200",
        EXACT,
        "pointwise-image and cell-count identities jointly decide every triple; "
        f"200 seeded end-to-end runs guard the factorization (seed {seed})",
        moduli=(2,)))
    return checks


# ---------------------------------------------------------------------------
# 8. possibilistic continuous engine
# ---------------------------------------------------------------------------


def _criterion_8(seed: int) -> List[CheckResult]:
    checks = []
    sp = PhaseSpace(RATIONALS, 2)
    known = AffineSubspace.span(RATIONALS, [(1, 0, -1, 0), (0, 1, 0, 1)], ambient=4)
    st = EpistemicState(sp, known, (Fraction(2, 3), Fraction(-5, 7), 0, 0))

    m_q1 = SharpMeasurement.of_functional(sp, (1, 0, 0, 0))
    got_q1 = possible_values(st, m_q1)
    want_q1 = AffineSubspace.span(RATIONALS, [(1,)], ambient=1)
    ok_q1 = got_q1 == want_q1

    m_q1q2 = SharpMeasurement(sp, AffineSubspace.span(
        RATIONALS, [(1, 0, 0, 0), (0, 0, 1, 0)], ambient=4))
    got_pair = possible_values(st, m_q1q2)
    want_pair = AffineSubspace.span(RATIONALS, [(1, 1)], ambient=2,
                                    offset=(Fraction(2, 3), 0))
    ok_pair = got_pair == want_pair

    m_psum = SharpMeasurement.of_functional(sp, (0, 1, 0, 1))
    got_psum = possible_values(st, m_psum)
    want_psum = AffineSubspace.point(RATIONALS, (Fraction(-5, 7),))
    ok_psum = got_psum == want_psum

    checks.append(_check(8, "correlated-pair scenario: possible-value sets for q1, "
                            "{q1,q2}, p1+p2",
                         ok_q1 and ok_pair and ok_psum,
                         "q1 free; q1 = q2 + 2/3 line; p1+p2 = -5/7 point",
                         f"q1 {'ok' if ok_q1 else got_q1}; pair {'ok' if ok_pair else got_pair}; "
                         f"sum {'ok' if ok_psum else got_psum}"))

    rng = random.Random(seed)

    def rand_frac() -> Fraction:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))

    bad = 0
    pair_bad = 0
    for _ in range(50):
        n = rng.choice((1, 2))
        spn = PhaseSpace(RATIONALS, n)
        while True:
            f1 = tuple(rand_frac() for _ in range(spn.dim))
            if any(f1):
                break
        rank = 1 if n == 1 else rng.choice((1, 2))
        if rank == 1:
            rows = [f1]
        else:
            ext = extend_to_symplectic(spn, f1)
            c0 = tuple(ext.rows[i][0] for i in range(spn.dim))
            c2 = tuple(ext.rows[i][2] for i in range(spn.dim))
            if symp_inner(spn, c0, c2) != RATIONALS.zero:
                pair_bad += 1
                continue
            rows = [c0, c2]
        state = EpistemicState(
            spn, AffineSubspace.span(RATIONALS, rows, ambient=spn.dim),
            tuple(rand_frac() for _ in range(spn.dim)))
        while True:
            coeffs = [rand_frac() for _ in state.known.basis]
            if any(coeffs):
                break
        g = tuple(sum((c * row[i] for c, row in zip(coeffs, state.known.basis)),
                      Fraction(0)) for i in range(spn.dim))
        ms = SharpMeasurement.of_functional(spn, g)
        got = possible_values(state, ms)
        # the value-set helper reports along the canonical (rescaled) functional
        want = state.value_of(ms.measured.basis[0])
        if got != AffineSubspace.point(RATIONALS, (want,)):
            bad += 1

    checks.append(_check(8, "repeatability: measuring a known quadrature is a singleton "
                            "(50 random rational states)",
                         bad == 0 and pair_bad == 0,
                         "50 singletons at the known value",
                         f"{bad} failures, {pair_bad} bad symplectic extensions",
                         EXACT, f"seed {seed}"))
    return checks


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


_CRITERIA: Dict[int, Callable[[int], List[CheckResult]]] = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
}

#: The prime moduli each criterion's checks exercise: the union of their
#: ``CheckResult.moduli``, declared here so a run narrowed to one d runs only the
#: criteria that can report on it.
MODULI: Dict[int, frozenset] = {
    1: frozenset({2, 3}),
    2: frozenset({2, 3, 5}),
    3: frozenset({3, 5}),
    4: frozenset({3, 5}),
    5: frozenset({2, 3}),
    6: frozenset({2, 3}),
    7: frozenset({2, 3}),
    8: frozenset(),
}


def run_criterion(k: int, seed: Optional[int] = None) -> List[CheckResult]:
    if k not in _CRITERIA:
        raise ValueError(f"no acceptance criterion {k}; have {sorted(_CRITERIA)}")
    return _CRITERIA[k](default_seed() if seed is None else seed)


def run_suite(suite: str, seed: Optional[int] = None,
              modulus: Optional[int] = None) -> List[CheckResult]:
    """Every check of the suite's criteria; with ``modulus``, only the checks that
    exercise it, from only the criteria whose ``MODULI`` declare it."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    results: List[CheckResult] = []
    for k in SUITES[suite]:
        if modulus is None or modulus in MODULI[k]:
            results.extend(run_criterion(k, seed))
    if modulus is None:
        return results
    return [r for r in results if modulus in r.moduli]


def report(results: List[CheckResult], suite: str = "all",
           seed: Optional[int] = None) -> dict:
    """JSON-ready summary of a suite run."""
    return {
        "suite": suite,
        "seed": default_seed() if seed is None else seed,
        "passed": all(r.passed for r in results),
        "n_checks": len(results),
        "n_failed": sum(1 for r in results if not r.passed),
        "checks": [asdict(r) for r in results],
    }
