"""Merging Path Plot and GIC plot rendering as standalone SVG documents.

Output is deterministic: coordinates are formatted to four decimals, there
are no timestamps, and element order follows input order, so identical
inputs yield byte-identical documents.  Stable ids (``panel-a`` ..
``panel-d``, ``node-<label>``, ``join-<step>``) support structural tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Grouping, ResponseData
from .engine import MergingPath, ordering_statistic
from .errors import IncompatiblePanel
from .families import FAMILIES, FittedModel, kaplan_meier
from .inference import GicProfile, HistoryRow, global_null_test

CANVAS_W = 1200.0
CANVAS_H = 800.0
PANEL_W = CANVAS_W / 2
PANEL_H = CANVAS_H / 2
PAD = 60.0

DEFAULT_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#666666", "#1f78b4", "#b2df8a", "#fb9a99", "#cab2d6",
)

PALETTES = {
    "default": DEFAULT_PALETTE,
    "Dark2": (
        "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
        "#66a61e", "#e6ab02", "#a6761d", "#666666",
    ),
}

ALL_PANELS = ("tree", "response", "gic", "globalTest")

# the 0.95 quantile of chi-square(1), which spaces the tree panel's grid
CHI_SQUARE_1_95 = 3.8414588206924236

RESPONSE_PANELS = tuple(dict.fromkeys(p for f in FAMILIES.values() for p in f.panels))
UNIMPLEMENTED_PANELS = ("tukey", "heatmap", "profile")


@dataclass(frozen=True)
class PlotSpec:
    panels: tuple[str, ...] = ALL_PANELS
    response_panel: str = "frequency"
    nodes_spacing: str = "equal"
    panel_grid: bool = False
    show_split: bool = False
    penalty: float = 2.0
    palette: str = "default"
    title: str = ""


def check_panel_compat(kind: str, response_panel: str) -> None:
    if response_panel in UNIMPLEMENTED_PANELS:
        raise IncompatiblePanel(
            f"response panel {response_panel!r} is not implemented"
        )
    if response_panel not in RESPONSE_PANELS:
        raise IncompatiblePanel(f"unknown response panel {response_panel!r}")
    if response_panel not in FAMILIES[kind].panels:
        raise IncompatiblePanel(
            f"response panel {response_panel!r} is not valid for {kind} data"
        )


# xml.sax.saxutils has these two, but importing it loads urllib.request and
# with it http.client, email, ssl and socket
def _escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` escaped, as
    ``xml.sax.saxutils.escape`` gives it."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """A quoted XML attribute value, as ``xml.sax.saxutils.quoteattr`` gives
    it: line ends and tabs as character references, and single quotes around
    a value holding only double ones."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"%s"' % text.replace('"', "&quot;")


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


class _Scale:
    """Linear map from a data interval to a pixel interval."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        t = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + t * (self.px_hi - self.px_lo)


# ------------------------------------------------------------------ #
# Tree layout
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class TreeLeaf:
    level: str
    label: str
    y: float
    color: str
    summary: float


@dataclass(frozen=True)
class TreeJoin:
    step: int
    x: float
    y: float
    y_a: float
    y_b: float
    x_a: float
    x_b: float
    stars: str


@dataclass(frozen=True)
class TreeLayout:
    leaves: tuple[TreeLeaf, ...]
    joins: tuple[TreeJoin, ...]
    loglik_range: tuple[float, float]
    colors: dict = field(default_factory=dict)
    split_x: float | None = None


def layout_tree(
    path: MergingPath,
    history: list[HistoryRow],
    spec: PlotSpec,
    data: ResponseData,
    grouping: Grouping,
    gic: GicProfile,
) -> TreeLayout:
    """A leaf per level, in the plot's level order, and a join per step at
    its ``merged_pair`` positions; cluster labels, which can repeat, key
    nothing."""
    full = path.full_model
    order = path.ordering or ordering_statistic(data, grouping, full_model=full)
    # display value of each level in plot order, read from its full-model
    # cluster; a vector estimate shows its first coordinate
    leaf_at = full.partition.positions(order)
    estimate = full.estimates[FAMILIES[full.family].estimate]
    effects = estimate.reshape(len(estimate), -1)[leaf_at, 0]
    # level -> color of its cluster in the GIC-optimal partition
    if spec.palette not in PALETTES:
        raise IncompatiblePanel(f"unknown palette {spec.palette!r}; known: {', '.join(PALETTES)}")
    palette = PALETTES[spec.palette]
    at = path.steps[gic.argmin_step].model.partition.positions(path.levels).tolist()
    colors = {lv: palette[s % len(palette)] for lv, s in zip(path.levels, at)}

    # every path has k >= 2 levels, so the leaves span [0, 1]
    ys = np.linspace(0.0, 1.0, len(order))
    if spec.nodes_spacing == "effects":
        span = float(effects.max() - effects.min())
        if span > 0:
            ys = (effects - effects.min()) / span

    leaves = tuple(
        TreeLeaf(level=lv, label=f"({lv})", y=leaf_y, color=colors[lv], summary=effect)
        for lv, leaf_y, effect in zip(order, ys.tolist(), effects.tolist())
    )

    # where each cluster of the partition before a step is drawn, by position
    y = ys[np.argsort(leaf_at)].tolist()
    x = [full.loglik] * len(y)
    joins = []
    for i, step in enumerate(path.steps[1:], start=1):
        a, b = step.merged_pair
        join = TreeJoin(step=i, x=step.model.loglik, y=0.5 * (y[a] + y[b]), y_a=y[a],
                        y_b=y[b], x_a=x[a], x_b=x[b],
                        stars=_stars(history[i].pval_vs_previous))
        joins.append(join)
        y[a], x[a] = join.y, join.x
        del y[b], x[b]

    logliks = [s.model.loglik for s in path.steps]
    return TreeLayout(leaves, tuple(joins), (min(logliks), max(logliks)), colors)


# ------------------------------------------------------------------ #
# SVG builders
# ------------------------------------------------------------------ #


def _svg_open(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )


def _line(x1, y1, x2, y2, stroke="#333333", width=1.5, dash=None) -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{_fmt(width)}"{d} />'
    )


def _circle(cx, cy, r, fill, extra="") -> str:
    return (
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"'
        f"{extra} />"
    )


def _rect(x, y, w, h, fill, extra="") -> str:
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="{fill}"{extra} />'
    )


def _text(x, y, s, size=12.0, anchor="start", fill="#222222", extra="") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
        f'font-family="sans-serif" text-anchor="{anchor}" fill="{fill}"{extra}>'
        f"{_escape(s)}</text>"
    )


def _panel_frame(x, y, title) -> list[str]:
    out = [_rect(x + 2, y + 2, PANEL_W - 4, PANEL_H - 4, "none",
                 ' stroke="#cccccc" stroke-width="1.0000"')]
    if title:
        out.append(_text(x + PAD, y + 28, title, size=15.0))
    return out


# ------------------------------------------------------------------ #
# Panel A: merging-path tree
# ------------------------------------------------------------------ #


def _render_tree_panel(layout: TreeLayout, spec: PlotSpec, x0: float, y0: float) -> str:
    lmin, lmax = layout.loglik_range
    xs = _Scale(lmin, lmax, x0 + PAD, x0 + PANEL_W - 150.0)
    ys = _Scale(0.0, 1.0, y0 + PANEL_H - PAD, y0 + PAD)

    parts = [f'<g id="panel-a">']
    parts.extend(_panel_frame(x0, y0, "Merging path"))

    if spec.panel_grid and lmax > lmin:
        # one interval = 0.95 chi-square(1) quantile on the LRT scale,
        # i.e. quantile / 2 in log-likelihood units
        spacing = CHI_SQUARE_1_95 / 2.0
        g = lmax - spacing
        while g > lmin:
            gx = xs(g)
            parts.append(
                _line(gx, y0 + PAD, gx, y0 + PANEL_H - PAD,
                      stroke="#dddddd", width=1.0, dash="4,3")
            )
            g -= spacing

    for join in layout.joins:
        jx = xs(join.x)
        parts.append(_line(xs(join.x_a), ys(join.y_a), jx, ys(join.y_a)))
        parts.append(_line(xs(join.x_b), ys(join.y_b), jx, ys(join.y_b)))
        parts.append(_line(jx, ys(join.y_a), jx, ys(join.y_b)))
        parts.append(
            f'<g id="join-{join.step}">'
            + _circle(jx, ys(join.y), 2.5, "#333333")
            + (
                _text(jx, ys(join.y) - 6.0, join.stars, size=13.0, anchor="middle")
                if join.stars
                else ""
            )
            + "</g>"
        )

    for leaf in layout.leaves:
        ly = ys(leaf.y)
        lx = xs(layout.loglik_range[1])
        parts.append(
            f"<g id={_quoteattr('node-' + leaf.label)}>"
            + _circle(lx, ly, 3.5, leaf.color)
            + _text(lx + 8.0, ly + 4.0, f"{leaf.label} {leaf.summary:.3f}",
                    size=11.0, fill=leaf.color)
            + "</g>"
        )

    if spec.show_split and layout.split_x is not None:
        cut_x = xs(layout.split_x)
        parts.append(_line(cut_x, y0 + PAD, cut_x, y0 + PANEL_H - PAD,
                           stroke="#b22222", width=1.5, dash="6,3"))

    parts.append(_text(x0 + PAD, y0 + PANEL_H - 20.0,
                       f"log-likelihood: {_fmt(lmin)} .. {_fmt(lmax)}", size=11.0))
    parts.append("</g>")
    return "\n".join(parts)


# ------------------------------------------------------------------ #
# Panel B: response summary
# ------------------------------------------------------------------ #


def render_response_panel(
    data: ResponseData,
    grouping: Grouping,
    model: FittedModel,
    kind: str,
    colors: dict | None = None,
    x0: float = 0.0,
    y0: float = 0.0,
) -> str:
    """SVG ``<g>`` fragment summarizing the response per cluster of the
    fitted ``model``'s partition."""
    check_panel_compat(data.kind, kind)
    colors = colors or {}
    partition = model.partition
    labels = partition.labels
    c = len(labels)
    ys = _Scale(0.0, 1.0, y0 + PANEL_H - PAD, y0 + PAD)
    rows = np.linspace(0.0, 1.0, c) if c > 1 else np.array([0.5])
    idx = grouping.indices()

    def cluster_color(i):
        lv = partition.clusters[i].members[0]
        return colors.get(lv, DEFAULT_PALETTE[i % len(DEFAULT_PALETTE)])

    def cluster_rows(i):
        member_rows = [idx[m] for m in partition.clusters[i].members]
        return np.concatenate(member_rows)

    parts = [f'<g id="panel-b">']
    parts.extend(_panel_frame(x0, y0, f"Response ({kind})"))

    if kind in ("frequency", "proportion"):
        # a bar per cluster: its rows, or its weighted success proportion
        if kind == "frequency":
            bars = [sum(grouping.counts[m] for m in cl.members) for cl in partition.clusters]
            top, text = max(bars), str
        else:
            w = data.weights if data.weights is not None else np.ones(data.n)
            bars = [float((data.values[r] * w[r]).sum() / w[r].sum())
                    for r in map(cluster_rows, range(c))]
            top, text = 1.0, "{:.3f}".format
        xs = _Scale(0.0, float(top), x0 + PAD + 100.0, x0 + PANEL_W - PAD)
        for i, bar in enumerate(bars):
            yy = ys(rows[i])
            parts.append(_rect(xs(0.0), yy - 8.0, xs(bar) - xs(0.0), 16.0, cluster_color(i)))
            parts.append(_text(x0 + PAD, yy + 4.0, labels[i], size=10.0))
            parts.append(_text(xs(bar) + 4.0, yy + 4.0, text(bar), size=10.0))
    elif kind in ("means", "boxplot"):
        y = data.values
        w = data.weights if data.weights is not None else np.ones(data.n)
        sigma = math.sqrt(model.nuisance["sigma2"])
        lo, hi = float(y.min()), float(y.max())
        xs = _Scale(lo, hi, x0 + PAD + 100.0, x0 + PANEL_W - PAD)
        for i in range(c):
            rws = cluster_rows(i)
            yy = ys(rows[i])
            color = cluster_color(i)
            parts.append(_text(x0 + PAD, yy + 4.0, labels[i], size=10.0))
            if kind == "means":
                wl = w[rws]
                mean = float((y[rws] * wl).sum() / wl.sum())
                half = 1.96 * sigma / math.sqrt(wl.sum())
                parts.append(_line(xs(mean - half), yy, xs(mean + half), yy,
                                   stroke=color, width=2.0))
                parts.append(_circle(xs(mean), yy, 4.0, color))
            else:
                q0, q1, q2, q3, q4 = np.percentile(y[rws], [0, 25, 50, 75, 100])
                parts.append(_line(xs(q0), yy, xs(q1), yy, stroke=color))
                parts.append(_line(xs(q3), yy, xs(q4), yy, stroke=color))
                parts.append(_rect(xs(q1), yy - 8.0, xs(q3) - xs(q1), 16.0, "none",
                                   f' stroke="{color}" stroke-width="1.5000"'))
                parts.append(_line(xs(q2), yy - 8.0, xs(q2), yy + 8.0,
                                   stroke=color, width=2.0))
    else:  # survival
        tmax = float(data.values[:, 0].max())
        xs = _Scale(0.0, tmax, x0 + PAD + 40.0, x0 + PANEL_W - PAD)
        sv = _Scale(0.0, 1.0, y0 + PANEL_H - PAD, y0 + PAD)
        for i in range(c):
            rws = cluster_rows(i)
            t = data.values[rws, 0]
            e = data.values[rws, 1]
            km_t, km_s = kaplan_meier(t, e)
            color = cluster_color(i)
            px, py = xs(0.0), sv(1.0)
            s_prev = 1.0
            for tt, ss in zip(km_t, km_s):
                nx = xs(float(tt))
                parts.append(_line(px, sv(s_prev), nx, sv(s_prev),
                                   stroke=color, width=2.0))
                parts.append(_line(nx, sv(s_prev), nx, sv(ss),
                                   stroke=color, width=2.0))
                px, s_prev = nx, float(ss)
            parts.append(_line(px, sv(s_prev), xs(tmax), sv(s_prev),
                               stroke=color, width=2.0))
            parts.append(_text(x0 + PAD, y0 + PAD + 14.0 * (i + 1), labels[i],
                               size=10.0, fill=color))
    parts.append("</g>")
    return "\n".join(parts)


# ------------------------------------------------------------------ #
# Panel C: GIC
# ------------------------------------------------------------------ #


def _render_gic_panel(profile: GicProfile, x0: float, y0: float, panel_id: str) -> str:
    lls = [r.loglik for r in profile.rows]
    gics = [r.gic for r in profile.rows]
    xs = _Scale(min(lls), max(lls), x0 + PAD, x0 + PANEL_W - 140.0)
    ysc = _Scale(min(gics), max(gics), y0 + PANEL_H - PAD, y0 + PAD)

    parts = [f'<g id="{panel_id}">']
    parts.extend(_panel_frame(x0, y0, f"GIC (penalty {profile.penalty:g})"))
    for r in profile.rows:
        fill = "#b22222" if r.step == profile.argmin_step else "#333333"
        parts.append(
            f'<g id="gic-dot-{r.step}">'
            + _circle(xs(r.loglik), ysc(r.gic), 4.0 if r.step == profile.argmin_step else 3.0, fill)
            + "</g>"
        )
    best = profile.rows[profile.argmin_step]
    smallest = profile.rows[-1]   # single-cluster model
    largest = profile.rows[0]     # full model
    lx = x0 + PANEL_W - 130.0
    parts.append(_text(lx, ysc(best.gic) + 4.0, f"best {best.gic:.2f}",
                       size=10.0, fill="#b22222"))
    parts.append(_text(lx, ysc(smallest.gic) + 14.0, f"smallest {smallest.gic:.2f}",
                       size=10.0))
    parts.append(_text(lx, ysc(largest.gic) - 8.0, f"largest {largest.gic:.2f}",
                       size=10.0))
    parts.append("</g>")
    return "\n".join(parts)


def render_gic_svg(profile: GicProfile) -> str:
    """Standalone GIC plot: OX log-likelihood, OY GIC, one dot per model."""
    doc = _svg_open(PANEL_W, PANEL_H)
    doc += _render_gic_panel(profile, 0.0, 0.0, "gic-plot")
    doc += "\n</svg>\n"
    return doc


# ------------------------------------------------------------------ #
# Panel D: global test
# ------------------------------------------------------------------ #


def _render_global_panel(path: MergingPath, x0: float, y0: float) -> str:
    stat, df, p = global_null_test(path)
    verdict = "rejected at 0.05" if p < 0.05 else "not rejected at 0.05"
    parts = [f'<g id="panel-d">']
    parts.extend(_panel_frame(x0, y0, "Global null hypothesis"))
    lines = (f"LRT statistic: {stat:.4f}", f"degrees of freedom: {df}",
             f"p-value: {p:.4g}", f"verdict: {verdict}")
    for i, line in enumerate(lines):
        parts.append(_text(x0 + PAD, y0 + PAD + (30.0 + 24.0 * i), line, size=13.0))
    parts.append("</g>")
    return "\n".join(parts)


# ------------------------------------------------------------------ #
# The four-panel document
# ------------------------------------------------------------------ #


def render_merging_path_svg(
    path: MergingPath,
    history: list[HistoryRow],
    gic: GicProfile,
    data: ResponseData,
    grouping: Grouping,
    spec: PlotSpec,
) -> str:
    if not spec.panels:
        raise IncompatiblePanel("at least one panel must be requested")

    layout = layout_tree(path, history, spec, data, grouping, gic)
    if spec.show_split:
        layout = replace(layout, split_x=path.steps[gic.argmin_step].model.loglik)

    doc = _svg_open(CANVAS_W, CANVAS_H)
    if spec.title:
        doc += _text(CANVAS_W / 2, 24.0, spec.title, size=18.0, anchor="middle") + "\n"
    if "tree" in spec.panels:
        doc += _render_tree_panel(layout, spec, 0.0, 0.0) + "\n"
    if "response" in spec.panels:
        doc += render_response_panel(
            data, grouping, path.steps[gic.argmin_step].model, spec.response_panel,
            colors=layout.colors, x0=PANEL_W, y0=0.0,
        ) + "\n"
    if "gic" in spec.panels:
        doc += _render_gic_panel(gic, 0.0, PANEL_H, "panel-c") + "\n"
    if "globalTest" in spec.panels:
        doc += _render_global_panel(path, PANEL_W, PANEL_H) + "\n"
    doc += "</svg>\n"
    return doc
