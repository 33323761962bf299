"""Command-line surface: enumeration dumps, scenario runs, grid renderings and
the acceptance suites.

Exit codes are a stable contract:

* 0 — success;
* 1 — an acceptance check failed;
* 2 — a size cap was exceeded or the request is outside the supported range
  (e.g. rendering a 7-dimensional system);
* 3 — invalid input: malformed flags, bad scenario files, non-isotropic
  subspaces (the message names the offending rows).

All output is UTF-8.  ``--out`` writes exactly what stdout would have carried,
so renderings are byte-identical across runs by construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import acceptance
from .epistemic import SharpMeasurement, enumerate_states, transform
from .exponents import MAX_DIM, hilbert_dim
from .fields import PrimeField
from .render import render as render_grid
from .scenario import ScenarioError, parse_scenario, run_scenario
from .symplectic import (
    PhaseSpace,
    SizeCapExceeded,
    UnsupportedOperation,
    enumerate_group,
    enumerate_isotropic,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_CAP = 2
EXIT_INVALID = 3

_WHAT_ALIASES = {
    "states": "states",
    "transforms": "transforms",
    "transformations": "transforms",
    "measurements": "measurements",
}


class _ArgumentError(Exception):
    """Raised instead of argparse's SystemExit so exit codes stay ours."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 — argparse API
        raise _ArgumentError(f"{self.prog}: {message}")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _field(d: int) -> PrimeField:
    """``--d`` as a field; a modulus that is not prime is invalid input."""
    try:
        return PrimeField(d)
    except ValueError as exc:
        raise ScenarioError(f"--d: {exc}") from exc


def _space(d: int, n: int) -> PhaseSpace:
    if n < 1:
        raise ScenarioError(f"--n must be a positive integer, got {n}")
    return PhaseSpace(_field(d), n)


def _max_dim(text: str) -> int:
    """``--max-dim`` can lower the quantum engine's cap on d^n, never raise it."""
    try:
        value = int(text)
        if 1 <= value <= MAX_DIM:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer in 1..{MAX_DIM}, got {text!r}")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _enumerate_records(space: PhaseSpace, what: str) -> List[dict]:
    if what == "states":
        return [{
            "known": [list(map(int, row)) for row in s.known.basis],
            "valuation": list(map(int, s.valuation)),
            "pure": s.is_pure(),
        } for s in enumerate_states(space)]
    if what == "transforms":
        return [{
            "S": [list(map(int, row)) for row in t.s.rows],
            "a": list(map(int, t.a)),
        } for t in enumerate_group(space)]
    return [{
        "measured": [list(map(int, row)) for row in v.basis],
        "outcomes": len(SharpMeasurement(space, v).outcomes()),
    } for v in enumerate_isotropic(space) if v.rank > 0]


def _enumerate_summary(what: str, records: List[dict]) -> str:
    if what == "states":
        pure = sum(1 for r in records if r["pure"])
        return f"{len(records)} states ({pure} pure, {len(records) - pure} mixed)"
    if what == "transforms":
        return f"{len(records)} affine symplectic transformations"
    return f"{len(records)} sharp measurements"


def cmd_enumerate(args) -> int:
    what = _WHAT_ALIASES.get(args.what)
    if what is None:
        raise ScenarioError(
            f"--what must be one of {sorted(set(_WHAT_ALIASES))}, got {args.what!r}")
    space = _space(args.d, args.n)
    hilbert_dim(space, args.max_dim)
    records = _enumerate_records(space, what)

    if args.format == "json":
        text = json.dumps({
            "d": space.d, "n": space.n, "what": what,
            "count": len(records), "records": records,
        }, indent=2) + "\n"
    else:
        lines = [f"d={space.d} n={space.n}: {_enumerate_summary(what, records)}"]
        for i, rec in enumerate(records):
            parts = [f"[{i:3d}]"]
            for key, val in rec.items():
                parts.append(f"{key}={json.dumps(val)}")
            lines.append(" ".join(parts))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _format_simulate(report: dict) -> str:
    lines = [f"field: {report['field']}   n: {report['n']}   mode: {report['mode']}"]
    if "possible_values" in report:
        pv = report["possible_values"]
        lines.append(f"measured functionals: {json.dumps(pv['functionals'])}")
        lines.append(f"possible value tuples: offset {json.dumps(pv['offset'])}"
                     f" + span rows {json.dumps(pv['directions'])}")
        lines.append("deterministic: " + ("yes" if pv["deterministic"] else "no"))
    else:
        for row in report["outcomes"]:
            parts = [f"outcome {tuple(row['label'])} values {tuple(row['values'])}"]
            if "epistricted" in row:
                parts.append(f"epistricted {row['epistricted']}")
            if "quantum" in row:
                parts.append(f"quantum {row['quantum']:.9f}")
            if "difference" in row:
                parts.append(f"diff {row['difference']:.3e}")
            lines.append("   ".join(parts))
        if "verdict" in report:
            lines.append(f"max difference: {report['max_difference']:.3e}"
                         f" -> {report['verdict']}")
    return "\n".join(lines) + "\n"


def _load_scenario(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_scenario(text)


def cmd_simulate(args) -> int:
    sc = _load_scenario(args.scenario)
    if sc.space.field.is_finite and sc.mode != "epistricted":
        hilbert_dim(sc.space, args.max_dim)
    report = run_scenario(sc)
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _format_simulate(report)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def cmd_render(args) -> int:
    sc = _load_scenario(args.scenario)
    if args.what == "measurement":
        obj = sc.measurement
    elif args.what == "transformed":
        obj = (transform(sc.preparation, sc.transformation)
               if sc.transformation is not None else sc.preparation)
    else:
        obj = sc.preparation
    _emit(render_grid(obj, args.format), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# accept
# ---------------------------------------------------------------------------


def _format_accept(results, suite: str, modulus: Optional[int]) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        line = f"[{mark}] C{r.criterion}: {r.name} — {r.actual}"
        if not r.passed:
            line += f" (expected {r.expected}, tolerance {r.tolerance})"
        lines.append(line)
    failed = sum(1 for r in results if not r.passed)
    scope = f"suite {suite!r}" + (f", d={modulus}" if modulus else "")
    if failed:
        lines.append(f"REJECT: {failed} of {len(results)} checks failed ({scope})")
    else:
        lines.append(f"ACCEPT: all {len(results)} checks passed ({scope})")
    return "\n".join(lines) + "\n"


def cmd_accept(args) -> int:
    if args.d is not None:
        _field(args.d)  # refused before any criterion runs
    try:
        seed = acceptance.default_seed()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    results = acceptance.run_suite(args.suite, seed, args.d)
    if args.d is not None and not results:
        raise ScenarioError(f"no checks in suite {args.suite!r} exercise d={args.d}")
    if args.format == "json":
        rep = acceptance.report(results, args.suite, seed)
        if args.d is not None:
            rep["modulus"] = args.d
        text = json.dumps(rep, indent=2) + "\n"
    else:
        text = _format_accept(results, args.suite, args.d)
    _emit(text, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_REJECT


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="epistrict",
                     description="Quadrature epistricted theories: enumerate, "
                                 "simulate, render, accept.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_enum = sub.add_parser("enumerate", help="dump states / transforms / measurements")
    p_enum.add_argument("--d", type=int, required=True, help="prime modulus")
    p_enum.add_argument("--n", type=int, default=1, help="degrees of freedom")
    p_enum.add_argument("--what", required=True,
                        help="states | transforms | measurements")
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.add_argument("--out", help="write output to this file")
    p_enum.add_argument("--max-dim", type=_max_dim, default=MAX_DIM,
                        help=f"cap on d^n, at most {MAX_DIM} (default {MAX_DIM})")
    p_enum.set_defaults(func=cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p_sim.add_argument("--format", choices=("text", "json"), default="text")
    p_sim.add_argument("--out", help="write output to this file")
    p_sim.add_argument("--max-dim", type=_max_dim, default=MAX_DIM,
                       help=f"cap on d^n for the quantum engine, at most {MAX_DIM} "
                            f"(default {MAX_DIM})")
    p_sim.set_defaults(func=cmd_simulate)

    p_ren = sub.add_parser("render", help="draw a scenario's state or measurement")
    p_ren.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p_ren.add_argument("--what", choices=("state", "transformed", "measurement"),
                       default="state",
                       help="which object to draw (default: the preparation)")
    p_ren.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p_ren.add_argument("--out", help="write output to this file")
    p_ren.set_defaults(func=cmd_render)

    p_acc = sub.add_parser("accept", help="run an acceptance suite")
    p_acc.add_argument("--suite", choices=sorted(acceptance.SUITES), default="all")
    p_acc.add_argument("--d", type=int, default=None,
                       help="restrict the report to checks exercising this modulus")
    p_acc.add_argument("--format", choices=("text", "json"), default="text")
    p_acc.add_argument("--out", help="write output to this file")
    p_acc.set_defaults(func=cmd_accept)
    return parser


#: What ``main`` reports as ``error: ...``, with its exit code, matched in order:
#: ``UnsupportedOperation`` and ``ScenarioError`` are both ``ValueError``s.
_FAILURES = ((_ArgumentError, EXIT_INVALID), (SizeCapExceeded, EXIT_CAP),
             (UnsupportedOperation, EXIT_CAP), (ScenarioError, EXIT_INVALID),
             (OSError, EXIT_INVALID))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help()
            return EXIT_INVALID
        return args.func(args)
    except tuple(kind for kind, _ in _FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _FAILURES if isinstance(exc, kind))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
