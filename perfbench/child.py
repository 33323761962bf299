"""The measured process: one fresh interpreter, one pass over a workload's fixed input.

Reads ``{"workload", "input", "trace", "setup_only"}`` as JSON on stdin and writes
one JSON object on stdout.  The timed part is the pass; setup (import, the
program-side enumerations the workload needs, and building program objects from
the plain-data inputs) ends at ``t_ready``, a ``time.monotonic`` stamp the parent
compares with the moment it started this process.  With ``setup_only`` the process
stops there, after timing a block of reference loops.  Outputs are kept in memory
during the pass and encoded as plain data only after it, together with the three
module-cache counters, read from outside and without modifying them.

The reference loop is fixed pure-Python work that never touches the program.  It
is timed in a block right after set-up and then, during the pass, from a wall-clock
timer signal every ``REF_EVERY_S``, in this same thread, so it samples the machine's
speed evenly in time, inside long ops too.  The parent uses it to express every
time at one fixed machine speed (see ``run.py``).  Op and span times exclude it.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time
import traceback

#: (module, function, span label, record distinct results) traced with --trace 1.
TRACED = (
    ("epistemic", "transform", None, True),
    ("epistemic", "measure", None, False),
    ("epistemic", "enumerate_states", None, False),
    ("symplectic", "enumerate_group", None, False),
    ("symplectic", "enumerate_isotropic", None, False),
    ("symplectic", "random_symplectic_affine", None, False),
    ("quantum", "quadrature_state", None, False),
    ("quantum", "quadrature_pvm", None, False),
    ("quantum", "clifford", None, False),
    ("quantum", "born", None, False),
    ("wigner", "point_operators", None, False),
    ("wigner", "equivalence_suite", None, False),
    ("wigner", "verify_covariance", None, False),
    ("wigner", "wigner_channel", None, False),
    ("stabilizer", "scan_for_witness",
     lambda space, *a, **k: f"stabilizer.scan_for_witness.d{space.d}n{space.n}", False),
    ("stabilizer", "mermin_square", None, False),
    ("stabilizer", "ghz_test", None, False),
    ("scenario", "parse_scenario", None, False),
    ("scenario", "run_scenario", None, False),
    ("scenario", "serialize_scenario", None, False),
)


def _ints(v):
    return [int(x) for x in v]


def _rows(rows):
    return [_ints(r) for r in rows]


def _dist(dist):
    """An OutcomeDistribution as [[*label, num, den], ...] in label order."""
    return [_ints(label) + [p.numerator, p.denominator] for label, p in dist.items()]


def _map(t):
    return [_rows(t.s.rows), _ints(t.a)]


def _space(ep, d, n):
    return ep.PhaseSpace(ep.PrimeField(d), n)


def _state(ep, sp, plain):
    known, valuation = plain
    return ep.EpistemicState(sp, ep.AffineSubspace.span(sp.field, known, ambient=sp.dim),
                             tuple(valuation))


def _affine(ep, sp, plain):
    s, a = plain
    return ep.SymplecticAffine(sp, ep.Matrix(sp.field, tuple(map(tuple, s))), tuple(a))


def _measurement(ep, sp, rows):
    return ep.SharpMeasurement(sp, ep.AffineSubspace.span(sp.field, rows, ambient=sp.dim))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """setup() builds what the ops refer to, prepare() turns one input op into the
    program objects run() needs, run() is one timed op, units() its work units,
    encode() its output as plain data, and context() the objects the checker needs
    to rebuild the ops."""

    def setup(self, ep, inp):
        self.ep = ep

    def prepare(self, op):
        return op

    def units(self, op):
        return 1

    def encode(self, op, out):
        return out

    def context(self, ops):
        return None


class ClassicalSweep(Workload):
    def setup(self, ep, inp):
        """A space without listed states and maps uses all of the program's."""
        self.ep = ep
        self.spaces = []
        for entry in inp["spaces"]:
            sp = _space(ep, entry["d"], entry["n"])
            meas = [ep.SharpMeasurement(sp, v) for v in ep.enumerate_isotropic(sp)]
            if "states" in entry:
                states = [_state(ep, sp, x) for x in entry["states"]]
                group = [_affine(ep, sp, x) for x in entry["maps"]]
            else:
                states, group = ep.enumerate_states(sp), ep.enumerate_group(sp)
            self.spaces.append((sp, states, group, meas))

    def prepare(self, op):
        _, states, group, meas = self.spaces[op[0]]
        return states[op[1]], group[op[2]], meas

    def run(self, op):
        state, t, meas = op
        moved = self.ep.transform(state, t)
        return moved, [self.ep.measure(moved, m) for m in meas]

    def units(self, op):
        return len(self.spaces[op[0]][3])

    def encode(self, op, out):
        moved, dists = out
        sup = moved.support()
        return [[_rows(sup.basis), _ints(sup.offset)], [_dist(x) for x in dists]]

    def context(self, ops):
        """The objects the ops refer to, so the checker can rebuild every pair."""
        out = []
        for k, (sp, states, group, meas) in enumerate(self.spaces):
            used = sorted({op[2] for op in ops if op[0] == k})
            out.append({
                "d": sp.d, "n": sp.n,
                "supports": [[_rows(s.support().basis), _ints(s.support().offset)]
                             for s in states],
                "maps": {str(j): _map(group[j]) for j in used},
                "measurements": [_rows(m.measured.basis) for m in meas],
            })
        return out


class WignerBridge(Workload):
    def setup(self, ep, inp):
        self.ep = ep
        kinds = {}
        for op in inp["ops"]:
            kinds.setdefault(tuple(op[1]), set()).add(op[0])
        self.data = {}
        for key, used in kinds.items():
            sp = _space(ep, *key)
            entry = self.data[key] = {"space": sp}
            if "equivalence_exhaustive" in used:
                entry["states"] = ep.enumerate_states(sp)
                entry["group"] = ep.enumerate_group(sp)
                entry["measurements"] = [ep.SharpMeasurement(sp, v)
                                         for v in ep.enumerate_isotropic(sp)]
        self.bases = {}

    def prepare(self, op):
        if op[0] != "equivalence_batch":
            return op
        ep, sp = self.ep, self.data[tuple(op[1])]["space"]
        return [op[0], op[1], [_state(ep, sp, x) for x in op[2]],
                [_affine(ep, sp, x) for x in op[3]],
                [_measurement(ep, sp, x) for x in op[4]]]

    def run(self, op):
        ep = self.ep
        kind, key = op[0], tuple(op[1])
        entry = self.data[key]
        sp = entry["space"]
        if kind == "point_operators":
            self.bases[key] = ep.point_operators(sp)
            return self.bases[key]
        if kind == "equivalence_exhaustive":
            return ep.equivalence_suite(sp, entry["states"], entry["group"],
                                        entry["measurements"])
        if kind == "equivalence_batch":
            return ep.equivalence_suite(sp, *op[2:])
        t = ep.random_symplectic_affine(sp, random.Random(op[2]))
        if kind == "verify_covariance":
            return t, ep.verify_covariance(self.bases[key], t)
        if kind == "wigner_channel":
            return t, ep.wigner_channel(self.bases[key], ep.clifford(sp, t))
        raise ValueError(f"unknown op {kind!r}")

    def encode(self, op, out):
        kind = op[0]
        if kind == "point_operators":
            import numpy as np
            traces = [abs(np.trace(a) - 1) for a in out.ops]
            herm = [float(np.max(np.abs(a - a.conj().T))) for a in out.ops]
            return [len(out.ops), float(max(traces)), max(herm)]
        if kind.startswith("equivalence"):
            return [out.ok, out.n_states, out.n_transforms, out.n_measurements,
                    out.n_triples, out.max_born_dev]
        t, rep = out
        if kind == "verify_covariance":
            return [_map(t), rep.ok, len(rep.failures), rep.max_deviation]
        # wigner_channel: where each column peaks, and how far it is from 0/1.
        peaks, worst = [], 0.0
        for m_in, col in out[1].items():
            top = max(col, key=col.get)
            peaks.append([_ints(m_in), _ints(top)])
            worst = max(worst, max(abs(v - (m == top)) for m, v in col.items()))
        return [_map(t), peaks, worst]


class WitnessScan(Workload):
    def run(self, op):
        ep = self.ep
        if op[0] == "scan_for_witness":
            return ep.scan_for_witness(_space(ep, *op[1]))
        if op[0] == "mermin_square":
            return ep.mermin_square()
        if op[0] == "ghz_test":
            return ep.ghz_test()
        raise ValueError(f"unknown op {op[0]!r}")

    def encode(self, op, out):
        if op[0] == "mermin_square":
            return [list(out.row_signs), list(out.col_signs), out.n_assignments,
                    out.n_satisfying, out.n_satisfying_relaxed]
        if op[0] == "ghz_test":
            return [list(out.eigenvalues), out.n_assignments, out.n_satisfying,
                    out.n_satisfying_relaxed]
        if out is None:
            return None
        st = out.state
        return {
            "known": _rows(st.known.basis), "valuation": _ints(st.valuation),
            "map": _map(out.transformation),
            "measured": _rows(out.measurement.measured.basis),
            "classical": _dist(out.classical),
            "quantum": [_ints(k) + [float(v)] for k, v in sorted(out.quantum.items())],
            "max_diff": out.max_diff,
        }


class ScenarioMix(Workload):
    def run(self, text):
        return json.dumps(self.ep.run_scenario(self.ep.parse_scenario(text)))


WORKLOADS = {
    "classical-sweep": ClassicalSweep,
    "wigner-bridge": WignerBridge,
    "witness-scan": WitnessScan,
    "scenario-mix": ScenarioMix,
}


def cache_counters() -> dict:
    from epistrict import linalg, quantum, symplectic
    info = symplectic._euclidean_complement.cache_info()
    return {"rref_entries": len(linalg._RREF_CACHE),
            "euclid_hits": info.hits, "euclid_misses": info.misses,
            "euclid_entries": info.currsize,
            "metaplectic_entries": len(quantum._metaplectic_cache)}


def peak_rss_kb() -> int:
    """High-water resident set of this process image.  ``ru_maxrss`` is not used:
    across ``exec`` Linux carries the parent's high-water mark into it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


#: Reference loops timed in a block after set-up.
REF_BLOCK = 7
#: Interval of the timer that runs one reference loop during the pass.
REF_EVERY_S = 0.05


def reference_loop() -> int:
    """Fixed interpreter work of about a millisecond: int arithmetic, a small dict."""
    acc, table = 0, {}
    for i in range(9000):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class ReferenceSampler:
    """Runs the reference loop on every SIGALRM of an interval timer and keeps its
    times.  ``clock()`` is ``perf_counter`` minus the time spent in the loop, so
    intervals read from it are the program's own."""

    def __init__(self, times):
        self.times = times
        self.spent = 0.0
        self._inside = False

    def _sample(self, signum, frame):
        if self._inside:
            return
        self._inside = True
        dt = time_reference()
        self.times.append(dt)
        self.spent += dt
        self._inside = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    job = json.load(sys.stdin)
    import epistrict as ep
    refs = []
    sampler = ReferenceSampler(refs)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(clock=sampler.clock)
        tracer.install("epistrict", TRACED)
    wl = WORKLOADS[job["workload"]]()
    wl.setup(ep, job["input"])
    ops = job["input"]["ops"]
    prepared = [wl.prepare(op) for op in ops]
    t_ready = time.monotonic()
    setup_refs = [time_reference() for _ in range(REF_BLOCK)]
    if job["setup_only"]:
        json.dump({"t_ready": t_ready, "setup_refs": setup_refs}, sys.stdout)
        return 0

    outputs, latencies, errors = [], [], {}
    refs += setup_refs
    clock = sampler.clock
    sampler.start()
    try:
        for k, op in enumerate(prepared):
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception:  # an op that raises is a failed op, not a failed run
                out = None
                errors[k] = traceback.format_exc(limit=3)
            latencies.append(clock() - t0)
            outputs.append(out)
    finally:
        sampler.stop()

    counters = cache_counters()
    maxrss_kb = peak_rss_kb()
    encoded = [None if k in errors else wl.encode(op, out)
               for k, (op, out) in enumerate(zip(ops, outputs))]
    json.dump({
        "t_ready": t_ready,
        "setup_refs": setup_refs,
        "refs": refs,
        "latencies": latencies,
        "units": sum(wl.units(op) for op in ops),
        "outputs": encoded,
        "errors": {str(k): v for k, v in errors.items()},
        "context": wl.context(ops),
        "counters": counters,
        "maxrss_kb": maxrss_kb,
        "spans": tracer.snapshot() if tracer else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
