import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit.svgchart import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH,
                                Series, _esc, _fmt, _points, render_chart)


def test_deterministic_output():
    series = [Series((1.0, 10.0, 100.0), (0.5, 1.5, 2.5), "a"),
              Series((1.0, 10.0), (2.0, 3.0), "b", style="dots")]
    a = render_chart(series, title="t", x_label="x", y_label="y", x_log=True)
    b = render_chart(series, title="t", x_label="x", y_label="y", x_log=True)
    assert a == b


def test_self_contained_document():
    svg = render_chart([Series((0.0, 1.0), (0.0, 1.0))])
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_log_axis_drops_nonpositive_points():
    svg = render_chart([Series((0.0, 1.0, 10.0), (1.0, 2.0, 3.0), style="dots")],
                       x_log=True)
    assert svg.count("<circle") == 2


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        Series((1.0, 2.0), (1.0,))


@pytest.mark.parametrize("x, y, bad", [
    ((1.0, math.nan, 3.0), (1.0, 2.0, 3.0), "point 1 is not finite: (nan, 2.0)"),
    ((1.0, 2.0, 3.0), (1.0, 2.0, -math.inf), "point 2 is not finite: (3.0, -inf)"),
    ((1.0, math.inf), (math.nan, 2.0), "point 0 is not finite: (1.0, nan)"),
])
def test_non_finite_point_rejected(x, y, bad):
    with pytest.raises(ValueError) as exc:
        Series(x, y, "fit")
    assert str(exc.value) == f"series 'fit': {bad}"


@pytest.mark.parametrize("x, y, axis", [
    ((0.0,), (2.0 ** 52 + 2,), "y"),      # +-0.5 is lost in rounding: a zero span
    ((-1e308, 1e308), (1.0, 2.0), "x"),  # a span past the largest float
])
def test_undrawable_span_names_the_axis(x, y, axis):
    with pytest.raises(ValueError, match=f"^{axis} axis: cannot draw the span"):
        render_chart([Series(x, y)])


def test_escapes_labels():
    svg = render_chart([Series((1.0,), (1.0,))], title="a < b & c")
    assert "a &lt; b &amp; c" in svg


# ---------------------------------------------------------------- reference
# The per-point renderer that the columnar one replaced: scalar math.log10,
# min and max over lists, one f-string per point.  render_chart must give
# the same bytes.

class RefAxis:
    def __init__(self, values, log, lo_px, hi_px):
        self.log = log
        vals = [v for v in values if not log or v > 0.0]
        if not vals:
            vals = [1.0, 10.0]
        lo, hi = min(vals), max(vals)
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi = lo, hi
        self.lo_px, self.hi_px = lo_px, hi_px

    def to_px(self, v):
        t = math.log10(v) if self.log else v
        frac = (t - self.lo) / (self.hi - self.lo)
        return self.lo_px + frac * (self.hi_px - self.lo_px)

    def ticks(self, count=6):
        if self.log:
            first, last = math.ceil(self.lo), math.floor(self.hi)
            decades = [10.0 ** d for d in range(first, last + 1)]
            if decades:
                return decades
        step = (self.hi - self.lo) / (count - 1)
        raw = [self.lo + i * step for i in range(count)]
        return [10.0 ** t for t in raw] if self.log else raw


def ref_render_chart(series, *, title="", x_label="", y_label="", x_log=False, y_log=False):
    """series: (x, y, label, style) tuples of float lists."""
    xs = [v for s in series for v in s[0]]
    ys = [v for s in series for v in s[1]]
    ax = RefAxis(xs, x_log, MARGIN_L, WIDTH - MARGIN_R)
    ay = RefAxis(ys, y_log, HEIGHT - MARGIN_B, MARGIN_T)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
                     f'font-size="15">{_esc(title)}</text>')
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
    for k, (sx, sy, label, style) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = [(ax.to_px(px), ay.to_px(py)) for px, py in zip(sx, sy)
               if (not x_log or px > 0) and (not y_log or py > 0)]
        if style == "dots":
            for px, py in pts:
                parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}"/>')
        else:
            path = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        if label:
            ly = MARGIN_T + 16 + 16 * k
            parts.append(f'<rect x="{x1 - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
            parts.append(f'<text x="{x1 - 135}" y="{ly}">{_esc(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Plotted values: small sets that repeat (equal values, zero and negative
# points a log axis drops), measurement-like magnitudes, and any finite float.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 10.0, 1e-3, 5e-324]),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def series_strategy(draw):
    n = draw(st.integers(0, 25))
    x = draw(st.lists(VALUES, min_size=n, max_size=n))
    y = draw(st.lists(VALUES, min_size=n, max_size=n))
    return x, y, draw(st.sampled_from(["", "data", "a<b"])), draw(st.sampled_from(["line", "dots"]))


def outcome(render, series, **kw):
    """The SVG, or the error an axis it cannot draw raises: ValueError from
    render_chart, ZeroDivisionError from the reference for a zero span."""
    try:
        return render(series, **kw)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def check_chart(series, **kw):
    got = outcome(render_chart, [Series(np.array(x), y, label, style)
                                 for x, y, label, style in series], **kw)
    want = outcome(ref_render_chart, series, **kw)
    if got is ValueError:  # the reference divides by zero or draws nan coordinates
        assert want is ZeroDivisionError or "nan" in want
        return
    if got != want:  # report the first differing line: a diff of two documents is slow
        lines = zip(str(got).splitlines(), str(want).splitlines())
        pytest.fail(f"got, want: {next(((a, b) for a, b in lines if a != b), (got, want))}")


class TestAgainstPerPointReference:
    @given(st.lists(series_strategy(), max_size=5), st.booleans(), st.booleans())
    @example([], False, False)
    @example([([], [], "", "dots")], True, True)
    @example([([5.0], [2.0], "one", "dots")], True, False)  # a single point
    @example([([3.0, 3.0, 3.0], [-2.0, -2.0, -2.0], "", "line")], False, False)  # equal values
    @example([([0.0, -1.0, 2.0, 20.0], [1.0, 3.0, 0.0, 7.0], "a", "dots"),
              ([0.5, 4.0], [1e-3, 1e3], "b", "line")], True, True)  # drops, two series
    @example([([-1e308, 1e308], [1.0, 2.0], "", "line")], False, False)  # span past max float
    @example([([0.0], [2.0 ** 52 + 2], "", "line")], False, False)  # a zero span
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, series, x_log, y_log):
        check_chart(series, title="t & u", x_label="x", y_label="y", x_log=x_log, y_log=y_log)

    def test_bench_like_scatter_and_fit(self):
        rng = np.random.default_rng(3)
        p = 10.0 ** rng.uniform(0.3, 1.8, 5000)
        lux = np.exp(1.0 + 1.2 * np.log(p) + rng.normal(0, 0.05, p.size))
        grid = np.exp(np.linspace(np.log(p.min()), np.log(p.max()), 200))
        fit = np.exp(1.0 + 1.2 * np.log(grid))
        check_chart([(p.tolist(), lux.tolist(), "data", "dots"),
                     (grid.tolist(), fit.tolist(), "fit", "line")],
                    title="Plasma characterization", x_label="plasma power (W)",
                    y_label="illuminance (lux)", x_log=True, y_log=True)


# ---------------------------------------------------------------- formatter
# _points writes both columns of a chart's points in one NumPy pass; each
# number must be Python's own '%.2f' string.

def formatted(values):
    """Each of values as _points writes it, from both of its columns."""
    v = np.asarray(values, dtype=float)
    text = _points("%.2f,%.2f", " ", v, v[::-1])
    pairs = [pair.split(",") for pair in text.split(" ")] if v.size else []
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs][::-1]
    assert xs == ys
    return xs


def want(values):
    return ["%.2f" % v for v in np.asarray(values, dtype=float).tolist()]


class TestPointFormatter:
    def test_seeded_uniform_values(self):
        v = np.random.default_rng(26).uniform(0.0, 1000.0, 200_000)
        assert formatted(v) == want(v)

    def test_exact_ties_round_half_to_even(self):
        v = np.arange(8000) / 8.0  # every k/8 below 1000: 0.125 is exactly 12.5 hundredths
        got = formatted(v)
        assert got == want(v)
        assert got[1:4] == ["0.12", "0.25", "0.38"]

    @pytest.mark.parametrize("v, text", [
        (1.005, "1.00"),   # 100.49999999999999 hundredths: rounds off a half
        (2.675, "2.67"),   # just below 267.5, but the product rounds onto it
        (0.285, "0.28"),
        (1.115, "1.11"),
        (8.345, "8.35"),
    ])
    def test_products_near_a_half(self, v, text):
        assert formatted([v]) == [text] == want([v])

    def test_every_near_half_hundredth(self):
        v = (np.arange(100_000) + 0.5) / 100.0  # most of these products land on a half
        v = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
        assert formatted(v) == want(v)

    @pytest.mark.parametrize("v, text", [
        (9.995, "9.99"), (99.995, "100.00"), (999.995, "1000.00"),
        (9.996, "10.00"), (99.994, "99.99"), (999.994, "999.99"),
        (0.0, "0.00"), (0.004, "0.00"), (0.005, "0.01"), (5e-324, "0.00"),
        (12345678.901, "12345678.90"),
    ])
    def test_digit_count_boundaries(self, v, text):
        assert formatted([v]) == [text] == want([v])
        mixed = [v, 0.0, 7.0, 70.0, 700.0, v]  # one width of matrix, several of text
        assert formatted(mixed) == want(mixed)

    def test_empty_and_one_row(self):
        empty = np.empty(0)
        assert _points('<circle cx="%.2f" cy="%.2f"/>', "\n", empty, empty) == ""
        assert _points('<circle cx="%.2f" cy="%.2f"/>', "\n", np.array([70.0]),
                       np.array([425.125])) == '<circle cx="70.00" cy="425.12"/>'

    def test_template_and_separator(self):
        x, y = np.array([70.0, 100.005, 699.999]), np.array([425.0, 40.5, 9.125])
        template = '<circle cx="%.2f" cy="%.2f" r="2.5" fill="#d62728"/>'
        assert _points(template, "\n", x, y) == "\n".join(
            template % pair for pair in zip(x.tolist(), y.tolist()))

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, -0.0, math.nan, math.inf, -math.inf,
                                     2.0 ** 52 / 100.0])
    def test_pixel_it_cannot_format_rejected(self, bad):
        good = np.array([100.0, 200.0])
        for x, y in ((np.array([100.0, bad]), good), (good, np.array([bad, 100.0]))):
            with pytest.raises(ValueError, match="^cannot format "):
                _points("%.2f,%.2f", " ", x, y)

    @pytest.mark.parametrize("x_log, y_log", [(True, True), (False, False), (True, False)])
    def test_30000_points_through_render_chart(self, x_log, y_log):
        rng = np.random.default_rng(30_000)
        x = 10.0 ** rng.uniform(-1.0, 3.0, 30_000)
        y = np.exp(rng.normal(3.0, 2.0, x.size))
        grid = np.linspace(x.min(), x.max(), 200)
        check_chart([(x.tolist(), y.tolist(), "data", "dots"),
                     (grid.tolist(), np.interp(grid, np.sort(x), np.sort(y)).tolist(), "fit",
                      "line"),
                     (y[:500].tolist(), x[:500].tolist(), "", "line")],
                    title="t", x_label="x", y_label="y", x_log=x_log, y_log=y_log)
