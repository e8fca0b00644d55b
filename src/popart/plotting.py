"""Self-contained SVG line charts for experiment traces.

Hand-rolled on purpose: the output is a single small file with no
external references, suitable for dropping into a results directory.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .binreg import aggregate, atomic_open

_WIDTH, _HEIGHT = 720, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 30, 40
_COLOR = "#2a7e43"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(v - lo) / span * (out_hi - out_lo) + out_lo for v in values]


def _points(xs, ys):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def write_band_chart(path: str, steps, median, lower, upper, title: str = "") -> None:
    """Median line with a shaded lower-upper band, on a log y axis."""
    steps = np.asarray(steps, dtype=float)
    # a floor, since log10 of 0 is -inf
    series = [np.log10(np.maximum(a, 1e-12)) for a in (median, lower, upper)]
    med, lo_s, hi_s = series
    y_lo = float(min(a.min() for a in series))
    y_hi = float(max(a.max() for a in series))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_px = _scale(steps, steps.min(), steps.max(), _MARGIN_L, _WIDTH - _MARGIN_R)

    def to_px(a):
        return _scale(a, y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T)

    band = (
        _points(x_px, to_px(hi_s)) + " " + _points(x_px[::-1], to_px(lo_s)[::-1])
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<polygon points="{band}" fill="{_COLOR}" fill-opacity="0.25" stroke="none"/>',
        f'<polyline points="{_points(x_px, to_px(med))}" fill="none" '
        f'stroke="{_COLOR}" stroke-width="1.5"/>',
    ]
    # axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{_WIDTH - _MARGIN_R}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_MARGIN_T}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = steps.min() + frac * (steps.max() - steps.min())
        xp = _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)
        parts.append(
            f'<text x="{xp:.1f}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.0f}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        yp = y0 - frac * (y0 - _MARGIN_T)
        parts.append(
            f'<text x="{x0 - 6}" y="{yp:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{yv:.1f}</text>'
        )
    parts.append("</svg>")
    with atomic_open(path) as fh:
        fh.write("\n".join(parts) + "\n")


def write_charts(out_dir: str, records, summary: dict, window: int) -> None:
    """Write ``<method>.svg`` to ``out_dir`` for each method in ``summary``
    whose best median AUC is finite: the median and 10-90 percentile bands
    of the per-sample test error over the finished runs of that best cell,
    smoothed over ``window`` samples."""
    for method, best in summary.items():
        if not math.isfinite(best["median_auc"]):
            continue
        cell = (method, best["alpha"], best["beta"])
        traces = [
            r.rmse for r in records if (r.method, r.alpha, r.beta) == cell and not r.diverged
        ]
        bands = aggregate(traces, window=window)
        write_band_chart(
            os.path.join(out_dir, f"{method}.svg"),
            np.arange(1, len(bands[50]) + 1),
            bands[50],
            bands[10],
            bands[90],
            title=f"{method}: per-sample test error (median, 10-90 pct)",
        )
