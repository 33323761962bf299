"""Grid renderings: pinned pictures, glyph counting, SVG structure, refusals."""

import xml.etree.ElementTree as ET

import pytest

from epistrict.epistemic import EpistemicState, SharpMeasurement, enumerate_states
from epistrict.fields import RATIONALS, PrimeField
from epistrict.linalg import AffineSubspace
from epistrict.render import (
    EMPTY_GLYPH,
    OUTCOME_GLYPHS,
    SUPPORT_GLYPH,
    render,
)
from epistrict.symplectic import PhaseSpace, UnsupportedOperation

F2, F3 = PrimeField(2), PrimeField(3)
BIT = PhaseSpace(F2, 1)
TRIT = PhaseSpace(F3, 1)
TWO_TRITS = PhaseSpace(F3, 2)


def bit_state(rows, valuation=(0, 0)):
    return EpistemicState(BIT, AffineSubspace.span(F2, rows, ambient=2), valuation)


# ---------------------------------------------------------------------------
# pinned pictures
# ---------------------------------------------------------------------------


def test_known_position_fills_one_column():
    assert render(bit_state([(1, 0)])) == "#.\n#.\n"


def test_known_position_value_one_fills_other_column():
    assert render(bit_state([(1, 0)], valuation=(1, 0))) == ".#\n.#\n"


def test_ignorance_fills_everything():
    assert render(EpistemicState.ignorance(TRIT)) == "###\n###\n###\n"


def test_correlated_pair_draws_nested_diagonals():
    known = AffineSubspace.span(F3, [(1, 0, 2, 0), (0, 1, 0, 1)], ambient=4)
    state = EpistemicState(TWO_TRITS, known, (0, 0, 0, 0))
    assert render(state) == (
        "#..|.#.|..#\n"
        "...|...|...\n"
        "...|...|...\n"
        "---+---+---\n"
        "...|...|...\n"
        "...|...|...\n"
        "#..|.#.|..#\n"
        "---+---+---\n"
        "...|...|...\n"
        "#..|.#.|..#\n"
        "...|...|...\n"
    )


def test_momentum_measurement_labels_rows():
    meas = SharpMeasurement.of_functional(TRIT, (0, 1))
    assert render(meas) == "000\n111\n222\n"


def test_position_measurement_labels_columns():
    meas = SharpMeasurement.of_functional(BIT, (1, 0))
    assert render(meas) == "01\n01\n"


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [BIT, TRIT, TWO_TRITS],
                         ids=["d2n1", "d3n1", "d3n2"])
def test_support_glyph_count_matches_support_size(space):
    for state in enumerate_states(space):
        picture = render(state)
        filled = picture.count(SUPPORT_GLYPH)
        assert filled == len(list(state.support().points()))
        d = space.d
        assert picture.count(EMPTY_GLYPH) == d ** (2 * space.n) - filled


def test_measurement_cells_partition_the_grid():
    meas = SharpMeasurement.of_functional(TRIT, (1, 2))
    picture = render(meas).replace("\n", "")
    for glyph in OUTCOME_GLYPHS[:3]:
        assert picture.count(glyph) == 3
    assert len(picture) == 9


def test_rendering_is_deterministic():
    state = bit_state([(1, 1)])
    assert render(state) == render(state)
    assert render(state, "svg") == render(state, "svg")


def test_equal_states_render_identically():
    # same subspace given by a different generating set
    a = EpistemicState(TRIT, AffineSubspace.span(F3, [(1, 2)], ambient=2), (1, 0))
    b = EpistemicState(TRIT, AffineSubspace.span(F3, [(2, 4)], ambient=2), (1, 0))
    assert a == b
    assert render(a) == render(b)
    assert render(a, "svg") == render(b, "svg")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def test_svg_is_wellformed_xml_with_version_1_1():
    doc = render(EpistemicState.ignorance(BIT), "svg")
    assert doc.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"


def test_svg_state_shades_exactly_the_support():
    state = bit_state([(0, 1)], valuation=(0, 1))  # p known to be 1
    root = ET.fromstring(render(state, "svg"))
    rects = [el for el in root if el.tag.endswith("rect")]
    assert len(rects) == 4
    shaded = [el for el in rects if el.attrib["fill"] != "#ffffff"]
    assert len(shaded) == 2
    assert {el.attrib["y"] for el in shaded} == {"24"}  # bottom row only


def test_svg_measurement_uses_one_hue_per_outcome():
    meas = SharpMeasurement.of_functional(TRIT, (0, 1))
    root = ET.fromstring(render(meas, "svg"))
    fills = {el.attrib["fill"] for el in root if el.tag.endswith("rect")}
    assert len(fills) == 3


def test_svg_nested_grid_draws_block_separators():
    known = AffineSubspace.span(F3, [(1, 0, 0, 0)], ambient=4)
    state = EpistemicState(TWO_TRITS, known, (0,) * 4)
    root = ET.fromstring(render(state, "svg"))
    lines = [el for el in root if el.tag.endswith("line")]
    assert len(lines) == 4  # two vertical + two horizontal at d=3


# ---------------------------------------------------------------------------
# refusals and dispatch
# ---------------------------------------------------------------------------


def test_rational_space_is_refused():
    space = PhaseSpace(RATIONALS, 1)
    state = EpistemicState.ignorance(space)
    with pytest.raises(UnsupportedOperation):
        render(state)


def test_unrenderable_modulus_is_refused():
    space = PhaseSpace(PrimeField(7), 1)
    with pytest.raises(UnsupportedOperation, match="modulus 7"):
        render(EpistemicState.ignorance(space))


def test_three_degrees_of_freedom_are_refused():
    space = PhaseSpace(F2, 3)
    with pytest.raises(UnsupportedOperation, match="degrees of freedom"):
        render(EpistemicState.ignorance(space))


def test_render_dispatch():
    state = bit_state([(1, 0)])
    with pytest.raises(ValueError, match="unknown format"):
        render(state, "png")
    with pytest.raises(TypeError):
        render(42)
