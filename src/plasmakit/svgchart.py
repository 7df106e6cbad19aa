"""Minimal self-contained SVG charts (no plotting dependencies).

Supports scatter series and polylines on linear or log axes, with tick
labels and axis titles.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._lazy import np

__all__ = ["Series", "render_chart"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
TICKS = 6  # ticks on a linear axis, or on a log axis that holds no decade


@dataclass(frozen=True, eq=False)
class Series:
    x: np.ndarray  # float64, as y; every point must be finite
    y: np.ndarray
    label: str = ""
    style: str = "line"  # "line" or "dots"

    def __post_init__(self):
        x, y = np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)
        if len(x) != len(y):
            raise ValueError("series x and y lengths differ")
        finite = np.isfinite(x) & np.isfinite(y)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"series {self.label!r}: point {k} is not finite: ({x[k]}, {y[k]})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class _Axis:
    def __init__(self, name: str, columns, log: bool, lo_px: float, hi_px: float):
        self.log = log
        values = np.concatenate([np.empty(0), *columns])
        values = values[values > 0.0] if log else values
        lo, hi = (float(values.min()), float(values.max())) if values.size else (1.0, 10.0)
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        if not 0.0 < hi - lo < math.inf:
            raise ValueError(f"{name} axis: cannot draw the span from {lo} to {hi}")
        self.lo, self.hi = lo, hi
        self.lo_px, self.hi_px = lo_px, hi_px

    def to_px(self, v, log10=math.log10):
        """Pixel of a tick, or with log10=np.log10 of a column."""
        frac = ((log10(v) if self.log else v) - self.lo) / (self.hi - self.lo)
        return self.lo_px + frac * (self.hi_px - self.lo_px)

    def ticks(self) -> list[float]:
        if self.log:
            first, last = math.ceil(self.lo), math.floor(self.hi)
            decades = [10.0 ** d for d in range(first, last + 1)]
            if decades:
                return decades
        step = (self.hi - self.lo) / (TICKS - 1)
        raw = [self.lo + i * step for i in range(TICKS)]
        return [10.0 ** t for t in raw] if self.log else raw


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    return f"{v:.6g}" if 1e-3 <= abs(v) < 1e5 else f"{v:.3e}"


def render_chart(series: Sequence[Series], *, title: str = "",
                 x_label: str = "", y_label: str = "",
                 x_log: bool = False, y_log: bool = False) -> str:
    """Render series into a standalone SVG document string; ValueError names
    an axis whose span is zero after the +-0.5 padding, or not finite."""
    ax = _Axis("x", (s.x for s in series), x_log, MARGIN_L, WIDTH - MARGIN_R)
    ay = _Axis("y", (s.y for s in series), y_log, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
                     f'font-size="15">{_esc(title)}</text>')

    # frame and grid
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    for tv in ax.ticks():
        px = ax.to_px(tv)
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y1}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle">{_fmt(tv)}</text>')
    for tv in ay.ticks():
        py = ay.to_px(tv)
        parts.append(f'<line x1="{x0}" y1="{py:.1f}" x2="{x1}" y2="{py:.1f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 6}" y="{py + 4:.1f}" text-anchor="end">{_fmt(tv)}</text>')
    parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                 f'fill="none" stroke="#333333"/>')
    if x_label:
        parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" '
                     f'text-anchor="middle">{_esc(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{_esc(y_label)}</text>')

    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        shown = ((s.x > 0.0) | (not x_log)) & ((s.y > 0.0) | (not y_log))
        px, py = ax.to_px(s.x[shown], np.log10), ay.to_px(s.y[shown], np.log10)
        if s.style != "dots":
            parts.append(f'<polyline points="{_points("%.2f,%.2f", " ", px, py)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        elif px.size:  # no points draw no circles, not an empty line
            parts.append(_points(f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>',
                                 "\n", px, py))
        if s.label:
            ly = MARGIN_T + 16 + 16 * k
            parts.append(f'<rect x="{x1 - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
            parts.append(f'<text x="{x1 - 135}" y="{ly}">{_esc(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _points(template: str, sep: str, x: np.ndarray, y: np.ndarray) -> str:
    """sep.join(map(template.__mod__, zip(x, y))) for a template whose only
    conversions are two %.2f: a byte matrix with a row of sep + template per
    point, masked to drop each number's unused leading digits, less the first sep."""
    p = (v := np.array([x, y], dtype=float)) * 100.0
    if (np.signbit(p) | ~(p < 2.0 ** 52)).any():
        raise ValueError("cannot format a pixel that is negative, -0.0, inf, nan or >= 2**52 / 100")
    # Below 2**52 each half k + 0.5 is a float that rounding the product cannot
    # cross, so rint rounds as '%.2f' does unless the product lands on a half.
    q = np.rint(p).astype(np.int64)
    ties = np.nonzero(p - np.floor(p) == 0.5)
    q[ties] = [int(("%.2f" % t).replace(".", "")) for t in v[ties].tolist()]
    widths = [len(str(m // 100)) for m in q.max(axis=1, initial=0).tolist()]
    texts = template.encode("ascii").split(b"%.2f")
    row = b"".join(t + b"0" * w + b".00" for t, w in zip(texts, widths)) + texts[2]
    mat = np.tile(np.frombuffer(sep.encode("ascii") + row, np.uint8), (len(x), 1))
    keep, end = np.ones(mat.shape, bool), len(sep)
    for c, w, text in zip(q, widths, texts):
        end += len(text) + w + 3  # past the number's last digit
        keep[:, end - w - 3:end - 4] = c[:, None] >= 10.0 ** np.arange(w + 1, 2, -1)  # leading 0s
        for col in (end - 1, end - 2, *range(end - 4, end - 4 - w, -1)):
            c, digit = np.divmod(c, 10)
            mat[:, col] = digit + 48
    return str(mat[keep][len(sep):].data, "ascii")


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
