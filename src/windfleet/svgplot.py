"""Minimal deterministic SVG charts.

Hand-rolled on purpose: output bytes depend only on the input data, with no
renderer ids, timestamps or font metrics, so chart files can be compared
byte-for-byte across runs and worker counts.
"""

from __future__ import annotations

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 46, 46
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def slope_label(slope: float) -> str:
    """Trend annotation text; an exactly flat trend reads "0.0"."""
    return f"trend {'0.0' if slope == 0 else f'{slope:.4g}'} per year"


class _Frame:
    """Linear data->pixel mapping with a padded range and 5 ticks per axis."""

    def __init__(self, xs, ys):
        self.x0, self.x1 = self._padded(min(xs), max(xs))
        self.y0, self.y1 = self._padded(min(ys), max(ys))

    @staticmethod
    def _padded(lo: float, hi: float) -> tuple[float, float]:
        if lo == hi:
            pad = abs(lo) * 0.1 or 1.0
        else:
            pad = (hi - lo) * 0.05
        return lo - pad, hi + pad

    def px(self, x: float) -> float:
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - MARGIN_T - MARGIN_B)

    def ticks(self, lo: float, hi: float) -> list[float]:
        return [lo + (hi - lo) * i / 4 for i in range(5)]


def _head(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="15">{_esc(title)}</text>',
    ]


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes(frame: _Frame, xlabel: str, ylabel: str) -> list[str]:
    parts = [
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-size="12">{_esc(xlabel)}</text>',
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) // 2})">'
        f'{_esc(ylabel)}</text>',
    ]
    for tx in frame.ticks(frame.x0, frame.x1):
        px = frame.px(tx)
        parts.append(f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" '
                     f'y2="{HEIGHT - MARGIN_B + 4}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 17}" '
                     f'text-anchor="middle" font-size="11">{_tick_label(tx)}</text>')
    for ty in frame.ticks(frame.y0, frame.y1):
        py = frame.py(ty)
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{_fmt(py)}" x2="{MARGIN_L}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 7}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end" font-size="11">{_tick_label(ty)}</text>')
    return parts


def _legend(labels: list[str]) -> list[str]:
    parts = []
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        y = MARGIN_T + 14 + 16 * i
        parts.append(f'<rect x="{WIDTH - MARGIN_R - 190}" y="{y - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 175}" y="{y}" '
                     f'font-size="11">{_esc(label)}</text>')
    return parts


def placeholder(title: str) -> str:
    parts = _head(title)
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle" '
                 f'font-size="14" fill="#777">no data</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(title: str, xlabel: str, ylabel: str,
               series: list[tuple[str, list[float], list[float]]],
               annotation: str = "") -> str:
    """Polyline chart, a marker at each point; ``series`` is a list of (label, xs, ys)."""
    series = [s for s in series if len(s[1]) > 0]
    if not series:
        return placeholder(title)
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    frame = _Frame(all_x, all_y)
    parts = _head(title) + _axes(frame, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" '
                         f'r="2.5" fill="{color}"/>')
    parts += _legend([s[0] for s in series])
    if annotation:
        parts.append(f'<text x="{MARGIN_L + 8}" y="{MARGIN_T + 14}" '
                     f'font-size="12" fill="#333">{_esc(annotation)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_chart(title: str, xlabel: str, ylabel: str,
                  xs: list[float], ys: list[float]) -> str:
    if not xs:
        return placeholder(title)
    frame = _Frame(xs, ys)
    parts = _head(title) + _axes(frame, xlabel, ylabel)
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" '
                     f'r="3" fill="{PALETTE[0]}" fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grouped_bars(title: str, xlabel: str, ylabel: str, xs: list[int],
                 groups: list[tuple[str, list[float]]]) -> str:
    """One bar per group per x position, sharing a zero-anchored y scale."""
    if not xs or not groups:
        return placeholder(title)
    all_y = [v for _, vals in groups for v in vals] + [0.0]
    frame = _Frame([min(xs) - 0.5, max(xs) + 0.5], all_y)
    parts = _head(title) + _axes(frame, xlabel, ylabel)
    slot = (frame.px(xs[0] + 1) - frame.px(xs[0])) if len(xs) > 1 else \
        (WIDTH - MARGIN_L - MARGIN_R) / 2
    bar_w = slot * 0.8 / len(groups)
    y_zero = frame.py(0.0)
    for gi, (label, vals) in enumerate(groups):
        color = PALETTE[gi % len(PALETTE)]
        for x, v in zip(xs, vals):
            px = frame.px(x) - slot * 0.4 + gi * bar_w
            py = frame.py(v)
            top, height = (py, y_zero - py) if v >= 0 else (y_zero, py - y_zero)
            parts.append(f'<rect x="{_fmt(px)}" y="{_fmt(top)}" width="{_fmt(bar_w)}" '
                         f'height="{_fmt(max(height, 0.0))}" fill="{color}"/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y_zero)}" x2="{WIDTH - MARGIN_R}" '
                 f'y2="{_fmt(y_zero)}" stroke="#999" stroke-dasharray="3,3"/>')
    parts += _legend([g[0] for g in groups])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def stacked_segments(title: str, xlabel: str, ylabel: str, xs: list[int],
                     segments: dict[int, list[tuple[str, float, float]]],
                     labels: list[str]) -> str:
    """Waterfall-style chart: per x, (label, y0, y1) spans stacked visually."""
    if not xs:
        return placeholder(title)
    all_y = [v for segs in segments.values() for _, y0, y1 in segs for v in (y0, y1)]
    if not all_y:
        return placeholder(title)
    frame = _Frame([min(xs) - 0.5, max(xs) + 0.5], all_y + [0.0])
    parts = _head(title) + _axes(frame, xlabel, ylabel)
    color_of = {label: PALETTE[i % len(PALETTE)] for i, label in enumerate(labels)}
    slot = (frame.px(xs[0] + 1) - frame.px(xs[0])) if len(xs) > 1 else \
        (WIDTH - MARGIN_L - MARGIN_R) / 2
    bar_w = slot * 0.7
    for x in xs:
        for label, y0, y1 in segments.get(x, []):
            lo, hi = sorted((frame.py(y0), frame.py(y1)))
            parts.append(f'<rect x="{_fmt(frame.px(x) - bar_w / 2)}" y="{_fmt(lo)}" '
                         f'width="{_fmt(bar_w)}" height="{_fmt(max(hi - lo, 0.5))}" '
                         f'fill="{color_of[label]}" fill-opacity="0.85"/>')
    parts += _legend(labels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
