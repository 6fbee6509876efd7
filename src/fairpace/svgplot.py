"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the experiment harness promises byte-identical
outputs for identical configs, so the writer uses no fonts, timestamps,
or library-versioned metadata — just fixed-precision paths and text.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

Series = Tuple[str, Sequence[float], Sequence[float]]  # label, xs, ys

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46
_FLOOR = 1e-8  # log-axis clamp for zero values


def _escape(text: str) -> str:
    """``text`` as XML character data.  Not ``xml.sax.saxutils.escape``:
    importing it pulls in ``urllib.request`` and adds about 3 MB to a run's peak RSS."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _log_ticks(lo: float, hi: float) -> List[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1) if lo <= 10.0**e <= hi]


def _tick_label(v: float) -> str:
    e = math.log10(v)
    if abs(e - round(e)) < 1e-9:
        return f"1e{int(round(e))}" if abs(e) > 3 else f"{v:g}"
    return f"{v:g}"


def write_line_svg(
    path,
    series: Sequence[Series],
    title: str,
    xlabel: str = "round",
    ylabel: str = "value",
) -> None:
    """Write a fixed-size log-log line chart; zero values are clamped."""

    def tx(v: float) -> float:
        return _ML + (math.log10(max(v, _FLOOR)) - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def ty(v: float) -> float:
        return _H - _MB - (math.log10(max(v, _FLOOR)) - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [max(y, _FLOOR) for _, _, ys in series for y in ys if not math.isnan(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [1.0, 2.0], [0.0, 1.0]
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    x_lo, x_hi = math.log10(max(x_min, _FLOOR)), math.log10(max(x_max, x_min * 1.0001, _FLOOR * 10))
    y_lo, y_hi = math.log10(max(y_min, _FLOOR)), math.log10(max(y_max, y_min * 1.0001, _FLOOR * 10))
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(
        f'<text x="{_W / 2:.0f}" y="20" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{_escape(title)}</text>'
    )
    # axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    # ticks
    for v in _log_ticks(10.0**x_lo, 10.0**x_hi):
        px = tx(v)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" y2="{_H - _MB + 4}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_H - _MB + 16}" font-family="sans-serif" font-size="10" '
            f'text-anchor="middle">{_tick_label(v)}</text>'
        )
    for v in _log_ticks(10.0**y_lo, 10.0**y_hi):
        py = ty(v)
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{_fmt(py + 3)}" font-family="sans-serif" font-size="10" '
            f'text-anchor="end">{_tick_label(v)}</text>'
        )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_H / 2:.0f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {_H / 2:.0f})">{_escape(ylabel)}</text>'
    )
    # series
    for s_idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[s_idx % len(_PALETTE)]
        pts = [
            f"{_fmt(tx(x))},{_fmt(ty(y))}"
            for x, y in zip(xs, ys)
            if not (isinstance(y, float) and math.isnan(y))
        ]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 14 + 14 * s_idx
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 130}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 126}" y="{ly}" font-family="sans-serif" font-size="10">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
