"""Deterministic CSV and SVG output.

report.csv must be byte-identical across reruns and worker counts, so it
carries no wall-clock columns (timings go to timings.csv) and floats are
written with shortest round-trip repr.  The SVG writer is hand-rolled: no
randomized ids, fixed float formatting, log ticks at powers of two, and the
config hash plus master seed embedded as provenance.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Sequence

__all__ = [
    "REPORT_HEADER",
    "CELL_HEADER",
    "PAIRING_HEADER",
    "YOUNG_HEADER",
    "ReportRow",
    "fmt",
    "write_csv",
    "render_loglog_svg",
]

REPORT_HEADER = [
    "study",
    "eps",
    "delta",
    "L",
    "seed",
    "min_energy",
    "energy_gap",
    "dist_lp",
    "dist_pairing",
    "iters",
    "grad_norm",
]
CELL_HEADER = ["F", "L", "delta", "eps", "seed", "value", "stderr", "iters", "grad_norm", "wall_ms"]
PAIRING_HEADER = ["seed", "eps", "j", "phi_id", "value"]
YOUNG_HEADER = ["cluster", "weight", "diameter", "entry_j", "barycenter_value"]
RATES_HEADER = ["study", "quantity", "rate", "residual"]
TIMING_HEADER = ["study", "task", "wall_ms"]


def fmt(value) -> str:
    """Shortest round-trip text for a cell value; empty for None.  A real
    scalar, numpy's included, is written as a plain float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Integral):
        return str(int(value))
    if isinstance(value, Real):
        return repr(float(value))
    return str(value)


@dataclass
class ReportRow:
    """One record of a convergence report (schema REPORT_HEADER)."""

    study: str
    eps: float | None
    delta: float | None
    L: int | None
    seed: str
    min_energy: float | None = None
    energy_gap: float | None = None
    dist_lp: float | None = None
    dist_pairing: float | None = None
    iters: int | None = None
    grad_norm: float | None = None

    def cells(self) -> list[str]:
        return [
            fmt(v)
            for v in (
                self.study,
                self.eps,
                self.delta,
                self.L,
                self.seed,
                self.min_energy,
                self.energy_gap,
                self.dist_lp,
                self.dist_pairing,
                self.iters,
                self.grad_norm,
            )
        ]


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(c) if not isinstance(c, str) else c for c in row])


_PALETTE = ["#1f6fb4", "#d15241", "#3c9457", "#8a5bb8", "#c98a2e", "#4aa3a3"]
_W, _H = 680, 460
_ML, _MR, _MT, _MB = 78, 24, 46, 66


def _log_ticks(lo: float, hi: float) -> list[float]:
    k0 = math.floor(math.log2(lo) - 1e-9)
    k1 = math.ceil(math.log2(hi) + 1e-9)
    step = max(1, (k1 - k0) // 8)
    return [2.0**k for k in range(k0, k1 + 1, step)]


def _tick_label(v: float) -> str:
    k = math.log2(v)
    if abs(k - round(k)) < 1e-9:
        k = int(round(k))
        return f"2^{k}" if k < 0 else ("1" if k == 0 else f"{2**k}")
    return f"{v:.3g}"


def render_loglog_svg(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    provenance: str,
) -> str:
    """Log-log polyline plot; ticks at powers of 2; deterministic output."""
    pts = [
        (x, y)
        for _, xs, ys in series
        for x, y in zip(xs, ys)
        if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
    ]
    if not pts:
        raise ValueError("nothing to plot: no positive finite points")
    xlo = min(x for x, _ in pts)
    xhi = max(x for x, _ in pts)
    ylo = min(y for _, y in pts)
    yhi = max(y for _, y in pts)
    if xhi == xlo:
        xlo, xhi = xlo / 2, xhi * 2
    if yhi == ylo:
        ylo, yhi = ylo / 2, yhi * 2

    def sx(x: float) -> float:
        return _ML + (math.log2(x) - math.log2(xlo)) / (math.log2(xhi) - math.log2(xlo)) * (
            _W - _ML - _MR
        )

    def sy(y: float) -> float:
        return _H - _MB - (math.log2(y) - math.log2(ylo)) / (
            math.log2(yhi) - math.log2(ylo)
        ) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<desc>{provenance}</desc>",
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    axis = 'stroke="#222" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" {axis}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" {axis}/>')
    for v in _log_ticks(xlo, xhi):
        if v < xlo / 1.001 or v > xhi * 1.001:
            continue
        x = sx(min(max(v, xlo), xhi))
        out.append(f'<line x1="{x:.2f}" y1="{_H-_MB}" x2="{x:.2f}" y2="{_H-_MB+5}" {axis}/>')
        out.append(
            f'<text x="{x:.2f}" y="{_H-_MB+20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_tick_label(v)}</text>'
        )
    for v in _log_ticks(ylo, yhi):
        if v < ylo / 1.001 or v > yhi * 1.001:
            continue
        y = sy(min(max(v, ylo), yhi))
        out.append(f'<line x1="{_ML-5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" {axis}/>')
        out.append(
            f'<text x="{_ML-8}" y="{y+4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{_tick_label(v)}</text>'
        )
    out.append(
        f'<text x="{(_ML+_W-_MR)/2:.1f}" y="{_H-18}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{(_MT+_H-_MB)/2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 20 {(_MT+_H-_MB)/2:.1f})">{ylabel}</text>'
    )
    for si, (label, xs, ys) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        coords = [
            (sx(x), sy(y))
            for x, y in zip(xs, ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
        ]
        if not coords:
            continue
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for x, y in coords:
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        out.append(
            f'<text x="{_W-_MR-6}" y="{_MT+14+14*si}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
