"""Benchmark for epistrict: one workload per run, closed loop, a single client.

    python3 perfbench/run.py --workload classical-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The inputs are generated from the seed
first, as plain data.  Then fresh interpreters are started one after another: a
fixed number per workload (``PASSES``) each do the workload's set-up and one timed
pass over the same inputs; after them, processes that only do the set-up run until
``--seconds`` have gone by (and at least ``MIN_SETUPS`` set-ups were timed).  Times
are expressed at one fixed machine speed, measured with a reference loop in the same
process at the same moments (``REF_S``).  Every op's output is checked against an
independent route after measuring.  Human-readable
lines come first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import inputs
from child import REF_BLOCK, TRACED, time_reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Timed passes per run.
PASSES = {"classical-sweep": 3, "wigner-bridge": 4, "witness-scan": 2,
          "scenario-mix": 4}
#: Set-up times per run at the least, counting those of the timed passes.
MIN_SETUPS = 15
#: The machine speed every reported time is expressed at: the one at which the
#: reference loop of child.py takes this long.  A process's times are scaled by
#: REF_S over the median time of the reference loops it ran.  On a shared host the
#: speed of a virtual CPU drifts by tens of percent within minutes, and the fixed
#: loop drifts with it, so the scaled times keep the program's cost and lose most of
#: the drift.
REF_S = 1e-3
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

#: Every end-to-end metric, in log order.
LOGGED = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
#: The end-to-end metrics of the result line and BENCHMARK.json.  Op latency
#: percentiles are logged only: witness-scan has five ops a pass, too few for a
#: percentile, and every workload must report every result-line metric.
END_TO_END = tuple(m for m in LOGGED if not m[0].startswith("op_"))

#: What one op is on each workload, and the work unit ops_per_s counts.
OP_UNITS = {
    "classical-sweep": ("one (state, map) pair: a transform, then a measure against "
                        "every measurement of the space", "triples"),
    "wigner-bridge": ("one call of point_operators, equivalence_suite, "
                      "verify_covariance or wigner_channel", "calls"),
    "witness-scan": ("one of scan_for_witness at (2,1), (2,2), (3,1), mermin_square, "
                     "ghz_test", "scans"),
    "scenario-mix": ("parse_scenario, run_scenario and json.dumps of one scenario text",
                     "scenarios"),
}

SCANS = ("d2n1", "d2n2", "d3n1")


def _span_names() -> list:
    names = []
    for module, fn, label, _ in TRACED:
        if label:
            names += [f"{module}.{fn}.{suffix}" for suffix in SCANS]
        else:
            names.append(f"{module}.{fn}")
    names.insert(names.index("symplectic.enumerate_group"), "linalg.AffineSubspace")
    return names


SPANS = _span_names()
PER_LAYER = tuple(
    [metric for name in SPANS for metric in ((f"{name}.calls", "count"),
                                             (f"{name}.busy_s", "s"))]
    + [("epistemic.transform.distinct_ratio", "ratio"),
       ("linalg.rref_cache.entries", "count"),
       ("symplectic.euclidean_complement.hit_ratio", "ratio"),
       ("quantum.metaplectic_cache.entries", "count"),
       ("trace.overhead_ratio", "ratio")])


# ---------------------------------------------------------------------------
# machine and version record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# measured processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One client, one thread: keep numpy's BLAS from starting worker threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, inp: dict, traced: bool, setup_only: bool = False) -> dict:
    job = json.dumps({"workload": workload, "input": inp, "trace": traced,
                      "setup_only": setup_only})
    t_start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=job,
                          capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout)
    res["raw_setup_s"] = res["t_ready"] - t_start
    res["setup_s"] = res["raw_setup_s"] * REF_S / median(res["setup_refs"])
    res["traced"] = traced
    if not setup_only:
        res["scale"] = REF_S / median(res["refs"])
        res["raw_wall_s"] = sum(res["latencies"])
        res["wall_s"] = res["raw_wall_s"] * res["scale"]
    return res


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n_ops: int) -> float:
    """The highest listed percentile with at least ten of ``n_ops`` samples beyond
    it; 100 (the maximum) when no listed percentile has."""
    for p in TAIL_PERCENTILES:
        if n_ops - math.ceil(p / 100 * n_ops) >= 10:
            return p
    return 100.0


def op_latencies(passes: list) -> list:
    """Each op's median scaled time over the passes."""
    return [median(times) for times in
            zip(*([t * r["scale"] for t in r["latencies"]] for r in passes))]


def end_to_end(passes: list, setups: list) -> tuple:
    """The end-to-end metrics, and the percentile op_tail_ms reports."""
    per_op = op_latencies(passes)
    tail = tail_percentile(len(per_op))
    wall = median(r["wall_s"] for r in passes)
    return {
        "setup_s": median(r["setup_s"] for r in setups),
        "wall_s": wall,
        "ops_per_s": passes[0]["units"] / wall,
        "op_p50_ms": percentile(per_op, 50) * 1e3,
        "op_tail_ms": percentile(per_op, tail) * 1e3,
        "peak_rss_mb": median(r["maxrss_kb"] / 1024 for r in passes),
    }, tail


def _span(res: dict, name: str, key: str):
    return res["spans"].get(name, {}).get(key, 0)


def per_layer(untraced: list, traced: list, check_tracer: Tracer,
              check_scale: float) -> dict:
    """The per-layer metrics.  Calls repeat exactly from pass to pass; busy times
    are scaled like the end-to-end times and take the median traced pass."""
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = _span(traced[0], name, "calls") + check_tracer.calls[name]
        out[f"{name}.busy_s"] = (
            median(_span(r, name, "busy_s") * r["scale"] for r in traced)
            + check_tracer.busy[name] * check_scale)
    calls = out["epistemic.transform.calls"]
    out["epistemic.transform.distinct_ratio"] = (
        _span(traced[0], "epistemic.transform", "distinct") / calls if calls else 0.0)
    c = traced[0]["counters"]
    out["linalg.rref_cache.entries"] = c["rref_entries"]
    out["symplectic.euclidean_complement.hit_ratio"] = (
        c["euclid_hits"] / max(1, c["euclid_hits"] + c["euclid_misses"]))
    out["quantum.metaplectic_cache.entries"] = c["metaplectic_entries"]
    # Passes alternate untraced, traced: compare each traced pass with the
    # untraced one just before it, so slow drifts of the machine cancel.
    out["trace.overhead_ratio"] = median(t["wall_s"] / u["wall_s"]
                                         for u, t in zip(untraced, traced))
    return out


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def verdicts(workload: str, inp: dict, passes: list, tracer: Tracer) -> list:
    """Per pass, per op: did the output pass its check?  The first pass is checked
    in full; a later pass's op passes when its output equals the first pass's."""
    ok = checks.CHECKS[workload](inp, passes[0], tracer)
    out = []
    for res in passes:
        mine = [good and same for good, same in zip(ok, res["same"])]
        for k in res["errors"]:
            mine[int(k)] = False
        out.append(mine)
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  small: bool = False, log=sys.stdout) -> dict:
    if not (SRC / "epistrict" / "__init__.py").is_file():
        raise FileNotFoundError(f"no epistrict sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the checks import the program in this process
    inp = inputs.GENERATORS[workload](seed, small=small)

    passes, setups = [], []
    start = time.monotonic()
    for k in range(PASSES[workload] * (2 if trace else 1)):
        # A traced run alternates untraced and traced passes, so the two are
        # measured under the same conditions and give the tracing overhead.
        res = run_child(workload, inp, traced=trace and k % 2 == 1)
        first = passes[0] if passes else res
        res["same"] = [a == b for a, b in zip(res["outputs"], first["outputs"])]
        if passes:  # only the first pass's outputs are kept for the checks
            del res["outputs"], res["context"]
        passes.append(res)
        if not res["traced"]:
            setups.append(res)
    while time.monotonic() - start < seconds or len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, inp, traced=False, setup_only=True))

    tracer = Tracer()
    results = verdicts(workload, inp, passes, tracer)
    check_scale = REF_S / median(time_reference() for _ in range(REF_BLOCK))
    attempted = sum(len(r) for r in results)
    failed = sum(not good for r in results for good in r)
    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]

    info = machine_info(seed)
    what, work_unit = OP_UNITS[workload]
    e2e, tail = end_to_end(untraced, setups)
    c = untraced[0]["counters"]
    n_ops = len(passes[0]["latencies"])
    print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}",
          file=log)
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()), file=log)
    print(f"# op: {what}; ops_per_s counts {work_unit}", file=log)
    print(f"# {len(passes)} passes in fresh interpreters ({len(traced)} traced), "
          f"{n_ops} ops per pass, and {len(setups)} set-ups; times are at the speed "
          f"where the reference loop takes {REF_S * 1e3:g} ms and take the median "
          "untraced pass (op times each op's median), memory the median untraced "
          "pass, setup_s the median set-up", file=log)
    raw_wall = median(r["raw_wall_s"] for r in untraced)
    raw_setup = median(r["raw_setup_s"] for r in setups)
    ref_ms = median(median(r["refs"]) for r in untraced) * 1e3
    print(f"# as measured: wall {raw_wall:.6g} s (median pass), setup "
          f"{raw_setup:.6g} s (median), reference loop {ref_ms:.4g} ms (median "
          "pass)", file=log)
    for name, unit in LOGGED:
        value = e2e[name]
        note = ""
        if name == "ops_per_s":
            note = f"  ({work_unit} per second)"
        elif name == "op_tail_ms":
            beyond = n_ops - math.ceil(tail / 100 * n_ops)
            note = (f"  (p{tail:g}, {beyond} of {n_ops} ops per pass beyond it)"
                    if tail < 100 else
                    f"  (maximum: no percentile has ten of {n_ops} ops beyond it)")
        elif name == "peak_rss_mb":
            note = (f"  (caches after a pass: _RREF_CACHE {c['rref_entries']} entries; "
                    f"_euclidean_complement {c['euclid_hits']} hits, "
                    f"{c['euclid_misses']} misses, {c['euclid_entries']} entries; "
                    f"_metaplectic_cache {c['metaplectic_entries']} entries)")
        print(f"{name:<14} {value:.6g} {unit}{note}", file=log)
    print(f"{'fail_ratio':<14} {failed / attempted:.6g}  ({failed} of {attempted} ops)",
          file=log)
    errors = [err for res in passes for err in res["errors"].values()]
    if errors:
        print(f"# {len(errors)} ops raised; the first:\n{errors[0]}", file=log)

    if trace:
        metrics = per_layer(untraced, traced, tracer, check_scale)
        print("# per layer (traced passes; busy includes nested spans)", file=log)
        for name, unit in PER_LAYER:
            print(f"{name:<48} {metrics[name]:.6g} {unit}", file=log)
        chosen = {name: (metrics[name], unit) for name, unit in PER_LAYER}
    else:
        chosen = {name: (e2e[name], unit) for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
