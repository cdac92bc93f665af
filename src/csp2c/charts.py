"""Self-contained SVG renderings of harness reports.

Bar chart for robustness (mean normalized time per version, grouped by
tool) and a line chart for scalability (timeouts over the size-ordered
problem index). No external assets, just shapes and text.
"""

from __future__ import annotations

import os

from .harness import Report

_PALETTE = ("#4a90d9", "#d94a4a", "#4ab06a", "#b08a3c", "#8a5fb0", "#5fb0a8")

_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 60
_MARGIN_BOTTOM = 70
_PLOT_W = 560
_PLOT_H = 280


def _escape(text: str) -> str:
    """`text` as XML character data, as xml.sax.saxutils.escape writes it;
    importing xml.sax would add about 7 MB to every csp2c process."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _frame(title: str, y_label: str, x_label: str, max_val: float) -> list[str]:
    width = _MARGIN_LEFT + _PLOT_W + _MARGIN_RIGHT
    height = _MARGIN_TOP + _PLOT_H + _MARGIN_BOTTOM
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif">',
        f'  <rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'  <text x="{width / 2}" y="24" text-anchor="middle" font-size="15" '
        f'fill="#333">{title}</text>',
    ]
    for i in range(6):
        y = _MARGIN_TOP + _PLOT_H - (i / 5) * _PLOT_H
        val = (i / 5) * max_val
        svg.append(
            f'  <line x1="{_MARGIN_LEFT}" y1="{y:.1f}" x2="{_MARGIN_LEFT + _PLOT_W}" '
            f'y2="{y:.1f}" stroke="#e0e0e0"/>'
        )
        svg.append(
            f'  <text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="10" fill="#666">{val:.2f}</text>'
        )
    mid_y = _MARGIN_TOP + _PLOT_H / 2
    svg.append(
        f'  <text x="16" y="{mid_y}" text-anchor="middle" font-size="11" fill="#666" '
        f'transform="rotate(-90, 16, {mid_y})">{y_label}</text>'
    )
    svg.append(
        f'  <text x="{_MARGIN_LEFT + _PLOT_W / 2}" '
        f'y="{_MARGIN_TOP + _PLOT_H + 50}" text-anchor="middle" font-size="11" '
        f'fill="#666">{x_label}</text>'
    )
    return svg


def _legend(svg: list[str], tools: list[str]) -> None:
    x = _MARGIN_LEFT
    y = 36
    for i, tool in enumerate(tools):
        color = _PALETTE[i % len(_PALETTE)]
        svg.append(f'  <rect x="{x}" y="{y}" width="11" height="11" fill="{color}"/>')
        svg.append(
            f'  <text x="{x + 15}" y="{y + 10}" font-size="11" fill="#333">{_escape(tool)}</text>'
        )
        x += 15 + 8 * max(6, len(tool))


def _axes(svg: list[str]) -> None:
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    svg.append(f'  <line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y0 + _PLOT_H}" stroke="#333"/>')
    svg.append(
        f'  <line x1="{x0}" y1="{y0 + _PLOT_H}" x2="{x0 + _PLOT_W}" '
        f'y2="{y0 + _PLOT_H}" stroke="#333"/>'
    )


def robustness_svg(report: Report) -> str | None:
    rows = [r for r in report.robustness if r.mean_normalized is not None]
    if not rows:
        return None
    tools = sorted({r.tool for r in rows})
    versions = list(dict.fromkeys(r.version for r in rows))  # the table's order
    max_val = (max(r.mean_normalized for r in rows) or 1.0) * 1.1
    y_label = "raw seconds" if any("raw seconds" in f for f in report.flags) else "time vs baseline"
    svg = _frame("Transformation robustness", y_label, "transformation version", max_val)
    _legend(svg, tools)

    group_w = _PLOT_W / len(versions)
    bar_w = group_w * 0.8 / max(1, len(tools))
    value = {(r.tool, r.version): r.mean_normalized for r in rows}
    for vi, version in enumerate(versions):
        gx = _MARGIN_LEFT + vi * group_w + group_w * 0.1
        for ti, tool in enumerate(tools):
            v = value.get((tool, version))
            if v is None:
                continue
            h = (v / max_val) * _PLOT_H
            x = gx + ti * bar_w
            y = _MARGIN_TOP + _PLOT_H - h
            color = _PALETTE[ti % len(_PALETTE)]
            svg.append(
                f'  <rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{color}"/>'
            )
        label_x = _MARGIN_LEFT + vi * group_w + group_w / 2
        svg.append(
            f'  <text x="{label_x:.1f}" y="{_MARGIN_TOP + _PLOT_H + 16}" '
            f'text-anchor="middle" font-size="9" fill="#333" '
            f'transform="rotate(45, {label_x:.1f}, {_MARGIN_TOP + _PLOT_H + 16})">'
            f"{_escape(version)}</text>"
        )
    _axes(svg)
    svg.append("</svg>")
    return "\n".join(svg)


def scalability_svg(report: Report) -> str | None:
    rows = report.scalability
    if not rows:
        return None
    tools = sorted({r.tool for r in rows})
    indexes = sorted({r.size_index for r in rows})
    max_val = max(max(r.timeouts for r in rows), 1) * 1.1
    svg = _frame("Scalability (timeouts)", "timeouts", "problem index (by size)", max_val)
    _legend(svg, tools)

    span = max(indexes) - min(indexes) or 1
    def sx(idx: int) -> float:
        return _MARGIN_LEFT + (idx - min(indexes)) / span * _PLOT_W

    def sy(val: int) -> float:
        return _MARGIN_TOP + _PLOT_H - (val / max_val) * _PLOT_H

    by_tool: dict[str, dict[int, int]] = {}
    for r in rows:
        by_tool.setdefault(r.tool, {})[r.size_index] = r.timeouts
    for ti, tool in enumerate(tools):
        pts = [(sx(i), sy(by_tool[tool].get(i, 0))) for i in indexes]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        color = _PALETTE[ti % len(_PALETTE)]
        svg.append(
            f'  <polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            svg.append(f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')
    for idx in indexes:
        svg.append(
            f'  <text x="{sx(idx):.1f}" y="{_MARGIN_TOP + _PLOT_H + 16}" '
            f'text-anchor="middle" font-size="9" fill="#333">{idx}</text>'
        )
    _axes(svg)
    svg.append("</svg>")
    return "\n".join(svg)


def emit_svg(report: Report, out_dir: str) -> list[str]:
    """Write robustness.svg and scalability.svg, skipping an empty table's
    chart; `Report.flags` already names every empty table."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, render in (("robustness", robustness_svg), ("scalability", scalability_svg)):
        svg = render(report)
        if svg is not None:
            path = os.path.join(out_dir, f"{name}.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(svg + "\n")
            written.append(path)
    return written
