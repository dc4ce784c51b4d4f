"""Self-contained HTML run dashboards.

:func:`render_html` turns a run record — a :class:`~repro.obs.report.
RunReport` (object or dict) or a full :class:`~repro.experiments.result.
ExperimentResult` dict — into one static HTML page: KPI tables,
inline SVG sparklines for every :class:`~repro.obs.timeseries.
TimeSeries` instrument (mean line over a min–max band), the SLO
verdicts with a breach timeline, and the replication view for pooled
runs.

The page embeds everything (styles, SVG, data) inline: no scripts, no
network fetches, no external assets — it renders identically from a CI
artifact store, an email attachment, or ``file://``.  Colors follow
the validated default dataviz palette as CSS custom properties with a
``prefers-color-scheme`` dark mode; per-bin hover detail uses native
SVG ``<title>`` tooltips so the page stays script-free.
"""

from __future__ import annotations

import html
import json
import math
from typing import Any, Sequence

__all__ = ["render_html"]

# Validated default palette (light / dark), exposed as custom
# properties so the dark mode is *selected* steps, not an inverted
# light theme.  Status colors are reserved for SLO verdicts and the
# determinism chip — never reused as series hues.
_CSS = """
:root {
  --surface: #fcfcfb;
  --text: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --series-1-soft: rgba(42, 120, 214, 0.16);
  --good: #0ca30c;
  --critical: #d03b3b;
  --chip-good-bg: rgba(12, 163, 12, 0.12);
  --chip-bad-bg: rgba(208, 59, 59, 0.12);
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --text: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --series-1-soft: rgba(57, 135, 229, 0.22);
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px 28px 48px; max-width: 980px;
  background: var(--surface); color: var(--text);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 4px; }
.muted { color: var(--text-muted); }
table { border-collapse: collapse; margin: 8px 0; width: 100%; }
th, td {
  text-align: left; padding: 4px 14px 4px 0;
  border-bottom: 1px solid var(--gridline);
}
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num {
  text-align: right; font-variant-numeric: tabular-nums;
}
.chip {
  display: inline-block; padding: 0 8px; border-radius: 8px;
  font-size: 12px; font-weight: 600;
}
.chip.ok { color: var(--good); background: var(--chip-good-bg); }
.chip.bad { color: var(--critical); background: var(--chip-bad-bg); }
.series { margin: 14px 0 18px; }
.series .name { font-weight: 600; }
.series .stats { color: var(--text-muted); font-size: 12px; }
svg { display: block; }
svg .band { fill: var(--series-1-soft); stroke: none; }
svg .line {
  fill: none; stroke: var(--series-1); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round;
}
svg .baseline { stroke: var(--baseline); stroke-width: 1; }
svg .grid { stroke: var(--gridline); stroke-width: 1; }
svg .dot { fill: var(--series-1); }
svg .breach { fill: var(--critical); }
svg .hover { fill: transparent; }
svg .hover:hover { fill: var(--series-1-soft); }
svg text {
  font: 11px system-ui, sans-serif; fill: var(--text-muted);
}
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    """Compact numeric formatting for table cells and labels."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "n/a"
        return f"{value:,.6g}"
    return str(value)


def _chip(ok: bool) -> str:
    cls = "ok" if ok else "bad"
    # Never color-alone: the chip carries an explicit glyph + label.
    glyph = "✓" if ok else "✕"
    return (f'<span class="chip {cls}">{glyph} '
            f'{"OK" if ok else "BREACHED"}</span>')


# ----------------------------------------------------------------------
# SVG sparklines
# ----------------------------------------------------------------------

def _scale(points: Sequence[Sequence[float]]
           ) -> tuple[float, float, float, float]:
    """(t_min, t_max, v_min, v_max) over mean/min/max columns."""
    t_min = min(p[0] for p in points)
    t_max = max(p[0] for p in points)
    v_min = min(p[3] for p in points)
    v_max = max(p[4] for p in points)
    if t_max <= t_min:
        t_max = t_min + 1.0
    if v_max <= v_min:
        pad = abs(v_min) * 0.1 or 1.0
        v_min, v_max = v_min - pad, v_max + pad
    return t_min, t_max, v_min, v_max


def _sparkline(points: Sequence[Sequence[float]],
               breaches: Sequence[float] = (),
               width: int = 620, height: int = 96) -> str:
    """Inline SVG: mean polyline over a min–max band.

    ``points`` rows are ``(t_start, count, mean, min, max)`` as
    produced by :meth:`TimeSeries.points`; ``breaches`` marks breach
    sim-times on the time axis.  Hover detail comes from native SVG
    ``<title>`` tooltips on per-bin hit rectangles (wider than the
    marks they describe), keeping the page script-free.
    """
    pad_l, pad_r, pad_t, pad_b = 8, 8, 8, 20
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    t_min, t_max, v_min, v_max = _scale(points)

    def x(t: float) -> float:
        return pad_l + (t - t_min) / (t_max - t_min) * plot_w

    def y(v: float) -> float:
        return pad_t + (v_max - v) / (v_max - v_min) * plot_h

    band_top = " ".join(f"{x(p[0]):.1f},{y(p[4]):.1f}"
                        for p in points)
    band_bot = " ".join(f"{x(p[0]):.1f},{y(p[3]):.1f}"
                        for p in reversed(points))
    line = " ".join(f"{x(p[0]):.1f},{y(p[2]):.1f}" for p in points)
    last = points[-1]
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">',
        f'<line class="grid" x1="{pad_l}" y1="{pad_t}" '
        f'x2="{width - pad_r}" y2="{pad_t}"/>',
        f'<line class="baseline" x1="{pad_l}" '
        f'y1="{pad_t + plot_h}" x2="{width - pad_r}" '
        f'y2="{pad_t + plot_h}"/>',
    ]
    if len(points) > 1:
        parts.append(f'<polygon class="band" '
                     f'points="{band_top} {band_bot}"/>')
        parts.append(f'<polyline class="line" points="{line}"/>')
    parts.append(f'<circle class="dot" cx="{x(last[0]):.1f}" '
                 f'cy="{y(last[2]):.1f}" r="4"/>')
    for t in breaches:
        if t_min <= t <= t_max:
            parts.append(
                f'<circle class="breach" cx="{x(t):.1f}" '
                f'cy="{pad_t + plot_h}" r="4">'
                f'<title>SLO breach at t={t:g}</title></circle>')
    # Per-bin hover targets (native tooltips, larger than the marks).
    for i, p in enumerate(points):
        left = x(points[i - 1][0]) if i else x(p[0]) - 4
        right = (x(points[i + 1][0]) if i + 1 < len(points)
                 else x(p[0]) + 4)
        mid_l, mid_r = (left + x(p[0])) / 2, (x(p[0]) + right) / 2
        parts.append(
            f'<rect class="hover" x="{mid_l:.1f}" y="{pad_t}" '
            f'width="{max(mid_r - mid_l, 2):.1f}" '
            f'height="{plot_h}">'
            f'<title>t={p[0]:g}  mean={p[2]:.6g}  '
            f'min={p[3]:.6g}  max={p[4]:.6g}  n={p[1]}</title>'
            f'</rect>')
    parts.append(f'<text x="{pad_l}" y="{height - 5}">'
                 f't={t_min:g}</text>')
    parts.append(f'<text x="{width - pad_r}" y="{height - 5}" '
                 f'text-anchor="end">t={t_max:g}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _series_points(entry: dict[str, Any]
                   ) -> list[tuple[float, int, float, float, float]]:
    """(t_start, count, mean, min, max) rows from a serialized
    TimeSeries stats entry (raw rows store the *total*, not the
    mean)."""
    rows = []
    for t_start, count, total, lo, hi in entry.get("points", []):
        count = int(count)
        rows.append((float(t_start), count,
                     float(total) / count if count else 0.0,
                     float(lo), float(hi)))
    return rows


# ----------------------------------------------------------------------
# Report sections
# ----------------------------------------------------------------------

def _kpi_section(metrics: dict[str, Any]) -> str:
    if not metrics:
        return ""
    rows = "".join(
        f"<tr><td>{_esc(name)}</td>"
        f'<td class="num">{_fmt(metrics[name])}</td></tr>'
        for name in sorted(metrics))
    return (f"<h2>KPIs</h2><table><thead><tr><th>metric</th>"
            f'<th class="num">value</th></tr></thead>'
            f"<tbody>{rows}</tbody></table>")


def _timeseries_section(stats: dict[str, Any],
                        slo: dict[str, Any] | None) -> str:
    series = {key: entry for key, entry in sorted(stats.items())
              if isinstance(entry, dict)
              and entry.get("kind") == "timeseries"
              and entry.get("points")}
    if not series:
        return ""
    breaches_by_series: dict[str, list[float]] = {}
    for breach in (slo or {}).get("breaches", []):
        breaches_by_series.setdefault(
            breach["series"], []).append(float(breach["t"]))
    blocks = ["<h2>Time series</h2>"]
    for key, entry in series.items():
        points = _series_points(entry)
        last = points[-1]
        blocks.append(
            f'<div class="series"><div><span class="name">'
            f"{_esc(key)}</span> "
            f'<span class="stats">last={last[2]:.6g} · '
            f'{entry.get("n_samples", 0):,} samples · '
            f'bin={entry.get("bin_width", 0):g}s</span></div>'
            f"{_sparkline(points, breaches_by_series.get(key, ()))}"
            f"</div>")
    return "".join(blocks)


def _slo_section(slo: dict[str, Any] | None) -> str:
    if not slo:
        return ""
    specs = slo.get("specs", [])
    final = slo.get("final", {})
    breaches = slo.get("breaches", [])
    head = (f"<h2>Service-level objectives "
            f"{_chip(bool(slo.get('ok')))}</h2>")
    rows = []
    for spec in specs:
        name = spec.get("name", "?")
        entry = final.get(name, {})
        window = spec.get("window")
        expr = (f"{spec.get('series')}:{spec.get('agg', 'last')}"
                + (f":{window:g}" if window is not None else "")
                + f" {spec.get('op')} {spec.get('threshold')}")
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{_esc(expr)}</td>"
            f'<td class="num">{_fmt(entry.get("value"))}</td>'
            f"<td>{_chip(bool(entry.get('ok', True)))}</td></tr>")
    table = (f"<table><thead><tr><th>objective</th><th>rule</th>"
             f'<th class="num">final</th><th>verdict</th></tr>'
             f"</thead><tbody>{''.join(rows)}</tbody></table>")
    if not breaches:
        return head + table
    brows = []
    for breach in breaches:
        replica = breach.get("replica")
        brows.append(
            f'<tr><td class="num">{breach.get("t"):g}</td>'
            f"<td>{_esc(breach.get('slo'))}</td>"
            f'<td class="num">{_fmt(breach.get("value"))}</td>'
            f"<td>{_esc(breach.get('op'))} "
            f"{_fmt(breach.get('threshold'))}</td>"
            f'<td class="num">'
            f"{'—' if replica is None else replica}</td></tr>")
    timeline = (
        f"<h2>Breach timeline</h2><table><thead><tr>"
        f'<th class="num">sim t</th><th>objective</th>'
        f'<th class="num">value</th><th>rule</th>'
        f'<th class="num">replica</th></tr></thead>'
        f"<tbody>{''.join(brows)}</tbody></table>")
    return head + table + timeline


def _replication_section(replication: dict[str, Any] | None) -> str:
    if not replication:
        return ""
    seeds = replication.get("seeds", [])
    walls = replication.get("wall_seconds", [])
    attempts = replication.get("attempts", [])
    rows = []
    for i, seed in enumerate(seeds):
        rows.append(
            f'<tr><td class="num">{i}</td>'
            f'<td class="num">{seed}</td>'
            f'<td class="num">'
            f"{_fmt(walls[i]) if i < len(walls) else 'n/a'}</td>"
            f'<td class="num">'
            f"{attempts[i] if i < len(attempts) else 1}</td></tr>")
    failed = replication.get("failed_replicas") or []
    note = (f'<p class="sub">{len(failed)} replica(s) failed every '
            f"attempt</p>" if failed else "")
    return (
        f"<h2>Replication</h2>"
        f'<p class="sub">{replication.get("replicas")} replicas × '
        f"{replication.get('workers')} worker(s)</p>{note}"
        f'<table><thead><tr><th class="num">replica</th>'
        f'<th class="num">seed</th><th class="num">wall s</th>'
        f'<th class="num">attempts</th></tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table>")


def _instruments_section(stats: dict[str, Any]) -> str:
    other = {key: entry for key, entry in sorted(stats.items())
             if isinstance(entry, dict)
             and entry.get("kind") != "timeseries"}
    if not other:
        return ""
    rows = []
    for key, entry in other.items():
        kind = entry.get("kind", "?")
        if kind == "counter":
            detail = f"value={_fmt(entry.get('value'))}"
        elif kind == "gauge":
            detail = (f"last={_fmt(entry.get('value'))} "
                      f"time_mean={_fmt(entry.get('time_mean'))}")
        else:
            detail = (f"n={_fmt(entry.get('count'))} "
                      f"mean={_fmt(entry.get('mean'))} "
                      f"p95={_fmt(entry.get('p95'))}")
        rows.append(f"<tr><td>{_esc(key)}</td><td>{_esc(kind)}</td>"
                    f"<td>{_esc(detail)}</td></tr>")
    return (f"<h2>Instruments</h2><table><thead><tr><th>key</th>"
            f"<th>kind</th><th>aggregates</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>")


def _report_body(report: dict[str, Any],
                 claim: str | None = None) -> str:
    slo = report.get("slo")
    parts = [
        f"<h1>{_esc(report.get('experiment', 'run'))}</h1>",
    ]
    if claim:
        parts.append(f'<p class="sub">{_esc(claim)}</p>')
    parts.append(
        f'<p class="muted">seed={_esc(report.get("seed"))} · '
        f'wall={_fmt(report.get("wall_seconds", 0.0))}s</p>')
    parts.append(_kpi_section(report.get("metrics", {})))
    parts.append(_slo_section(slo))
    parts.append(_timeseries_section(report.get("stats", {}), slo))
    parts.append(_replication_section(report.get("replication")))
    parts.append(_instruments_section(report.get("stats", {})))
    return "".join(parts)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def render_html(data: Any, *, title: str | None = None) -> str:
    """Render a run record to a self-contained HTML dashboard.

    ``data`` may be a :class:`~repro.obs.report.RunReport`, its
    ``to_dict()`` payload, a full ``ExperimentResult`` dict (the
    ``repro run --json`` output), or a JSON string of any of those.
    """
    if hasattr(data, "to_dict"):
        data = data.to_dict()
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise TypeError(
            f"render_html expects a report/result mapping, "
            f"got {type(data).__name__}")

    if "report" in data and isinstance(data["report"], dict):
        body = _report_body(data["report"], claim=data.get("claim"))
        default_title = f"repro run: {data.get('id', '?')}"
    elif "experiment" in data:
        body = _report_body(data)
        default_title = f"repro run: {data['experiment']}"
    else:
        raise ValueError(
            "unrecognized dashboard input: expected a RunReport "
            "dict or an ExperimentResult dict")

    page_title = title or default_title
    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">\n'
            '<meta name="viewport" '
            'content="width=device-width, initial-scale=1">\n'
            f"<title>{_esc(page_title)}</title>\n"
            f"<style>{_CSS}</style></head>\n"
            f"<body>{body}</body></html>\n")
