"""Deterministic SVG rendering of threshold tables.

Hand-rolled SVG (no plotting library) so that a fixed input CSV maps to a
byte-identical output file: coordinates are formatted with fixed precision,
element order is fixed, and nothing environmental (fonts metrics, timestamps,
library versions) enters the byte stream. The chart shows P̂(min degree >= 1)
and P̂(weak Hamiltonian) with their Wilson bands against the limit curve
exp(-exp(-c)) over the c grid.
"""

from __future__ import annotations

from .errors import InputError
from .harness import Table, load_table

__all__ = ["emit_plot", "render_threshold_svg"]

_W, _H = 720.0, 480.0
_L, _R, _T, _B = 70.0, 24.0, 46.0, 56.0

_COLOR_MINDEG = "#1f77b4"
_COLOR_HAM = "#d62728"
_COLOR_THEORY = "#2ca02c"
_COLOR_AXIS = "#333333"
_COLOR_GRID = "#dddddd"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_tick(x: float) -> str:
    return f"{x:g}"


def _px(c: float, cmin: float, cmax: float) -> float:
    span = cmax - cmin
    if span == 0.0:
        return _L + (_W - _L - _R) / 2.0
    return _L + (c - cmin) / span * (_W - _L - _R)


def _py(v: float) -> float:
    v = min(1.0, max(0.0, v))
    return _T + (1.0 - v) * (_H - _T - _B)


_DASH = ' stroke-dasharray="6 4"'


def _polyline(points: list[tuple[float, float]], color: str, dash: str = "") -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="1.8"{dash}/>'
    )


def _band(band: list[tuple[float, float, float]], color: str) -> str:
    """The polygon between the hi and lo values of (x, lo, hi) points."""
    upper = [f"{_fmt(x)},{_fmt(_py(hi))}" for x, _, hi in band]
    lower = [f"{_fmt(x)},{_fmt(_py(lo))}" for x, lo, _ in reversed(band)]
    return (
        f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
        f'fill-opacity="0.15" stroke="none"/>'
    )


def _markers(points: list[tuple[float, float]], color: str) -> str:
    return "".join(
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>'
        for x, y in points
    )


def _line(
    x1: float, y1: float, x2: float, y2: float, color: str, width: str, dash: str = ""
) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
        f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"{dash}/>'
    )


def _text(x: str, y: str, size: int, body: str, anchor: str = "", extra: str = "") -> str:
    """A sans-serif label; x and y are written as given."""
    align = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"'
        f'{align} fill="{_COLOR_AXIS}"{extra}>{body}</text>'
    )


def _floats(table: Table, name: str) -> list[float | None]:
    out: list[float | None] = []
    for cell in table.column(name):
        if cell == "":
            out.append(None)
        else:
            try:
                out.append(float(cell))
            except ValueError as exc:
                raise InputError(f"column {name!r}: bad number {cell!r}") from exc
    return out


def render_threshold_svg(table: Table) -> str:
    """SVG text for a threshold/gnm table; raises InputError on any other
    schema or on an empty table."""
    if table.kind not in ("threshold", "gnm"):
        raise InputError(
            f"plot expects a threshold or gnm table, got {table.kind!r}"
        )
    if not table.rows:
        raise InputError("table has no data rows")
    needed = (
        "c", "phat_mindeg", "lo_mindeg", "hi_mindeg",
        "phat_ham", "lo_ham", "hi_ham", "theory",
    )
    for col in needed:
        if col not in table.columns:
            raise InputError(f"table is missing required column {col!r}")
    cs = [float(x) for x in table.column("c")]
    order = sorted(range(len(cs)), key=lambda i: cs[i])
    cs = [cs[i] for i in order]

    def col(name: str) -> list[float | None]:
        vals = _floats(table, name)
        return [vals[i] for i in order]

    series = [
        (col(f"phat_{name}"), col(f"lo_{name}"), col(f"hi_{name}"), color)
        for name, color in (("mindeg", _COLOR_MINDEG), ("ham", _COLOR_HAM))
    ]
    theory = col("theory")
    n_label = table.column("n")[0]
    d_label = table.column("d")[0]
    trials_label = table.column("trials")[0]

    cmin, cmax = min(cs), max(cs)
    xs = [_px(c, cmin, cmax) for c in cs]

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
        f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">'
    )
    parts.append(f'<rect width="{int(_W)}" height="{int(_H)}" fill="#ffffff"/>')
    title = (
        f"weak Hamiltonicity vs isolated-vertex threshold "
        f"({table.kind}, n={n_label}, d={d_label}, {trials_label} trials/point)"
    )
    parts.append(_text(_fmt(_W / 2), "24", 14, title, "middle"))
    # gridlines + y ticks
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _py(frac)
        parts.append(_line(_L, y, _W - _R, y, _COLOR_GRID, "1"))
        parts.append(_text(_fmt(_L - 8), _fmt(y + 4), 11, _fmt_tick(frac), "end"))
    # x ticks at data points
    for c, x in zip(cs, xs):
        parts.append(_line(x, _H - _B, x, _H - _B + 5, _COLOR_AXIS, "1"))
        parts.append(_text(_fmt(x), _fmt(_H - _B + 18), 11, _fmt_tick(c), "middle"))
    # axes
    parts.append(_line(_L, _T, _L, _H - _B, _COLOR_AXIS, "1.2"))
    parts.append(_line(_L, _H - _B, _W - _R, _H - _B, _COLOR_AXIS, "1.2"))
    parts.append(_text(_fmt((_L + _W - _R) / 2), _fmt(_H - 16), 12, "c", "middle"))
    ymid = _fmt((_T + _H - _B) / 2)
    parts.append(
        _text("18", ymid, 12, "probability", "middle", f' transform="rotate(-90 18 {ymid})"')
    )

    # bands first (underneath), then the limit and the two curves, then markers
    theory_pts = [(x, _py(v)) for x, v in zip(xs, theory) if v is not None]
    bands, curves, markers = [], [], []
    if len(theory_pts) >= 2:
        curves.append(_polyline(theory_pts, _COLOR_THEORY, _DASH))
    for phat, los, his, color in series:
        band = [
            (x, lo, hi)
            for x, lo, hi in zip(xs, los, his)
            if lo is not None and hi is not None
        ]
        if len(band) >= 2:
            bands.append(_band(band, color))
        pts = [(x, _py(v)) for x, v in zip(xs, phat) if v is not None]
        if len(pts) >= 2:
            curves.append(_polyline(pts, color))
        markers.append(_markers(pts, color))
    parts += bands + curves + markers

    # legend
    legend = [
        ("P(min degree >= 1)", _COLOR_MINDEG, ""),
        ("P(weak Hamiltonian), decided", _COLOR_HAM, ""),
        ("limit exp(-exp(-c))", _COLOR_THEORY, _DASH),
    ]
    ly = _T + 14
    for label, color, dash in legend:
        parts.append(_line(_L + 10, ly, _L + 38, ly, color, "1.8", dash))
        parts.append(_text(_fmt(_L + 44), _fmt(ly + 4), 11, label))
        ly += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(csv_in: str, svg_out: str) -> None:
    """Read a threshold/gnm CSV and write its SVG chart. Byte-deterministic
    for a fixed input file."""
    table = load_table(csv_in)
    svg = render_threshold_svg(table)
    with open(svg_out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
