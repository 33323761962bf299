"""Grid pictures of epistemic states and sharp measurements.

Phase space at one degree of freedom is drawn as a d x d grid: columns index
the position value left to right, rows index the momentum value top to
bottom.  Two degrees of freedom nest the same picture: the outer grid is
indexed by (q1, p1) and every outer cell holds an inner d x d grid indexed by
(q2, p2), so a point (q1, p1, q2, p2) lands in column q1*d + q2 and row
p1*d + p2.  ``render(obj, fmt)`` is the one entry point: ``fmt="ascii"``
marks support cells with ``#`` (states) or one glyph per outcome
(measurements); ``fmt="svg"`` shades the same cells, one hue per outcome.

Both formats are pure functions of the canonical object — same input, same
bytes — so renderings can be diffed and pinned in tests.  Sizes beyond what
fits a terminal (d not in {2, 3, 5}, n > 2) and rational phase spaces (no
finite grid) are refused rather than approximated.
"""

from __future__ import annotations

from typing import Union

from .epistemic import EpistemicState, SharpMeasurement
from .symplectic import PhaseSpace, UnsupportedOperation

SUPPORT_GLYPH = "#"
EMPTY_GLYPH = "."
OUTCOME_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"

CELL_PX = 24  # side of one grid cell in SVG output

RENDERABLE_MODULI = (2, 3, 5)


def _check_renderable(space: PhaseSpace) -> None:
    if not space.field.is_finite:
        raise UnsupportedOperation(
            "rational phase spaces have no finite grid to draw")
    if space.field.modulus not in RENDERABLE_MODULI:
        raise UnsupportedOperation(
            f"no grid layout for modulus {space.field.modulus}; "
            f"supported moduli are {RENDERABLE_MODULI}")
    if space.n > 2:
        raise UnsupportedOperation(
            f"no grid layout for {space.n} degrees of freedom (at most 2)")


def _point_at(space: PhaseSpace, row: int, col: int) -> tuple:
    """Phase-space point shown in the given grid cell."""
    d = space.field.modulus
    if space.n == 1:
        return (col, row)
    q1, q2 = divmod(col, d)
    p1, p2 = divmod(row, d)
    return (q1, p1, q2, p2)


def _grid_side(space: PhaseSpace) -> int:
    d = space.field.modulus
    return d if space.n == 1 else d * d


def _cell_classes(obj: Union[EpistemicState, SharpMeasurement]) -> tuple:
    """``(count, class_at)`` for a renderable object: ``class_at(row, col)`` is the class,
    in ``range(count)``, of the point in that cell, or None outside a state's support.  A
    state's one class is its support; a measurement's are its ``outcomes()`` in order."""
    space = obj.space
    _check_renderable(space)
    if isinstance(obj, EpistemicState):
        support = obj.support()
        return 1, lambda row, col: (
            0 if support.contains(_point_at(space, row, col)) else None)
    index = {label: i for i, label in enumerate(obj.outcomes())}
    return len(index), lambda row, col: index[obj.label_of(_point_at(space, row, col))]


# ---------------------------------------------------------------------------
# ASCII
# ---------------------------------------------------------------------------


def _ascii_grid(obj: Union[EpistemicState, SharpMeasurement]) -> str:
    """The object's cells as glyphs: ``#`` on a state's support and ``.`` outside it,
    or one glyph per outcome of a measurement."""
    count, class_at = _cell_classes(obj)
    glyphs = SUPPORT_GLYPH if isinstance(obj, EpistemicState) else OUTCOME_GLYPHS
    if count > len(glyphs):
        raise UnsupportedOperation(
            f"{count} outcomes exceed the {len(glyphs)}-glyph alphabet")
    d = obj.space.field.modulus
    side = _grid_side(obj.space)
    nested = obj.space.n == 2
    lines = []
    for row in range(side):
        if nested and row > 0 and row % d == 0:
            lines.append("+".join(["-" * d] * d))
        chars = []
        for col in range(side):
            if nested and col > 0 and col % d == 0:
                chars.append("|")
            cls = class_at(row, col)
            chars.append(EMPTY_GLYPH if cls is None else glyphs[cls])
        lines.append("".join(chars))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _outcome_fill(i: int, n_outcomes: int) -> str:
    hue = (360 * i) // max(n_outcomes, 1)
    return f"hsl({hue},70%,60%)"


def _svg_grid(obj: Union[EpistemicState, SharpMeasurement]) -> str:
    """The object's cells shaded one hue per class, white outside a state's support."""
    count, class_at = _cell_classes(obj)
    d = obj.space.field.modulus
    side = _grid_side(obj.space)
    size = side * CELL_PX
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n',
    ]
    for row in range(side):
        for col in range(side):
            cls = class_at(row, col)
            fill = "#ffffff" if cls is None else _outcome_fill(cls, count)
            parts.append(
                f'<rect x="{col * CELL_PX}" y="{row * CELL_PX}" '
                f'width="{CELL_PX}" height="{CELL_PX}" '
                f'fill="{fill}" stroke="#999999" stroke-width="1"/>\n')
    if obj.space.n == 2:
        for k in range(1, d):
            at = k * d * CELL_PX
            parts.append(
                f'<line x1="{at}" y1="0" x2="{at}" y2="{size}" '
                f'stroke="#000000" stroke-width="2"/>\n')
            parts.append(
                f'<line x1="0" y1="{at}" x2="{size}" y2="{at}" '
                f'stroke="#000000" stroke-width="2"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def render(obj: Union[EpistemicState, SharpMeasurement], fmt: str = "ascii") -> str:
    """A state's support or a measurement's outcome cells as a glyph grid
    (``fmt="ascii"``) or a shaded SVG grid (``fmt="svg"``)."""
    if fmt not in ("ascii", "svg"):
        raise ValueError(f"unknown format {fmt!r}; expected 'ascii' or 'svg'")
    if not isinstance(obj, (EpistemicState, SharpMeasurement)):
        raise TypeError(f"cannot render {type(obj).__name__}")
    return _ascii_grid(obj) if fmt == "ascii" else _svg_grid(obj)
