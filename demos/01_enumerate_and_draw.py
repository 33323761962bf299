"""Walk the finite zoo at one degree of freedom: states, maps, measurements.

A single trit (d=3) gives a 3x3 phase-space grid.  Knowledge is restricted to
quadratures — affine functionals whose linear parts pairwise Poisson-commute —
so a valid state of maximal knowledge pins one quadrature's value and leaves
its conjugate completely open: a line of 3 points.  Ignorance is the full grid.

Run:  python3 demos/01_enumerate_and_draw.py
"""

from epistrict import (
    EpistemicState,
    PhaseSpace,
    PrimeField,
    SharpMeasurement,
    enumerate_group,
    enumerate_isotropic,
    enumerate_states,
    render,
)


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    trit = PhaseSpace(PrimeField(3), 1)

    section("single-trit states")
    states = enumerate_states(trit)
    pure = [s for s in states if s.is_pure()]
    print(f"{len(states)} valid epistemic states: {len(pure)} pure + "
          f"{len(states) - len(pure)} (the ignorance state)")

    section("every pure state is a line; here are the four q-value states' duals")
    # one state per quadrature direction, all with value 0
    for v in enumerate_isotropic(trit, rank=1):
        state = EpistemicState(trit, v, trit.zero())
        row = render(state).strip().splitlines()
        print(f"known {v.basis[0]}:   " + "  ".join(row))

    section("the ignorance state")
    print(render(EpistemicState.ignorance(trit)), end="")

    section("reversible dynamics")
    group = enumerate_group(trit)
    print(f"{len(group)} affine symplectic maps on the trit "
          f"(|SL(2,3)| * 9 = 24 * 9)")

    section("sharp measurements")
    quads = enumerate_isotropic(trit, rank=1)
    print(f"{len(quads)} inequivalent quadratures; each partitions the grid "
          "into 3 parallel lines:")
    for v in quads:
        meas = SharpMeasurement(trit, v)
        rows = render(meas).strip().splitlines()
        print(f"measure {v.basis[0]}:   " + "  ".join(rows))

    section("the same counts at a single bit (d=2)")
    bit = PhaseSpace(PrimeField(2), 1)
    print(f"states: {len(enumerate_states(bit))} (6 pure + 1), "
          f"maps: {len(enumerate_group(bit))}, "
          f"quadratures: {len(enumerate_isotropic(bit, rank=1))}")


if __name__ == "__main__":
    main()
