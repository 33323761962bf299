"""The continuous theory over exact rationals: EPR correlations, possibilistically.

Over the rational numbers there is no uniform probability measure on a line,
so the continuous engine answers a weaker question with exact arithmetic:
*which measured values are possible at all?*  For a correlated pair with

    q1 - q2 = 2/3      and      p1 + p2 = -5/7

that is already the whole EPR phenomenology: each local quadrature is totally
unconstrained, yet the differences/sums are pinned exactly.

Run:  python3 demos/04_rational_epr.py
"""

from fractions import Fraction

from epistrict import (
    RATIONALS,
    AffineSubspace,
    EpistemicState,
    PhaseSpace,
    SharpMeasurement,
    possible_values,
    run_scenario,
    scenario_from_dict,
)


def fmt(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def describe(state, functional_rows, label):
    """Print the affine set of possible value tuples for the given functionals."""
    space = state.space
    meas = SharpMeasurement(
        space, AffineSubspace.span(RATIONALS, functional_rows, ambient=space.dim))
    image = possible_values(state, meas)
    if image.rank == 0:
        print(f"{label}: deterministic, value {fmt(image.offset)}")
    else:
        spans = " , ".join(fmt(b) for b in image.basis)
        print(f"{label}: offset {fmt(image.offset)} + span of {spans}")


def main() -> None:
    pair = PhaseSpace(RATIONALS, 2)
    known = AffineSubspace.span(
        RATIONALS, [(1, 0, -1, 0), (0, 1, 0, 1)], ambient=4)
    state = EpistemicState(
        pair, known, (Fraction(2, 3), Fraction(-5, 7), 0, 0))

    print("preparation: q1 - q2 = 2/3 and p1 + p2 = -5/7 known exactly\n")
    describe(state, [(1, 0, 0, 0)], "measure q1 alone")
    describe(state, [(0, 1, 0, 1)], "measure p1 + p2")
    describe(state, [(1, 0, 0, 0), (0, 0, 1, 0)], "measure q1 and q2 jointly")
    describe(state, [(0, 1, 0, 0), (0, 0, 0, 1)], "measure p1 and p2 jointly")

    print("\nrepeatability: measuring a known quadrature returns its value,")
    print("with no residual spread — here via a scenario file:")
    report = run_scenario(scenario_from_dict({
        "field": "rational",
        "n": 2,
        "mode": "epistricted",
        "preparation": {
            "known": [[1, 0, -1, 0], [0, 1, 0, 1]],
            "valuation": ["2/3", "-5/7", 0, 0],
        },
        "measurement": {"measured": [[1, 0, -1, 0]]},
    }))
    pv = report["possible_values"]
    print(f"measured q1 - q2 -> deterministic: {pv['deterministic']}, "
          f"value {pv['offset']}")


if __name__ == "__main__":
    main()
