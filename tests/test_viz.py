"""SVG rendering: structure, determinism, panel compatibility, annotations."""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import numpy as np
import pytest

from factorfuse import (
    PlotSpec,
    fit,
    gic_profile,
    merge_factors,
    merging_history,
    render_gic_svg,
    render_merging_path_svg,
    render_response_panel,
)
import factorfuse
from factorfuse import engine, families
from factorfuse.data import Grouping, ResponseData
from factorfuse.errors import IncompatiblePanel
from factorfuse.families import FittedModel, fit_stats
from factorfuse.viz import CHI_SQUARE_1_95, _escape, _quoteattr, _stars, layout_tree

from conftest import make_binomial_data, make_survival_data, singletons_of


@pytest.fixture
def gaussian_bundle(gaussian_three_groups):
    data, g = gaussian_three_groups
    path = merge_factors(data, g, "adaptive")
    history = merging_history(path)
    gic = gic_profile(path, 2.0)
    return data, g, path, history, gic


def render(bundle, **spec_kw):
    data, g, path, history, gic = bundle
    spec = PlotSpec(**spec_kw)
    return render_merging_path_svg(path, history, gic, data, g, spec)


# ---------------------------------------------------------------------------
# structure


def test_well_formed_with_all_panel_ids(gaussian_bundle):
    svg = render(gaussian_bundle)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib
    for pid in ("panel-a", "panel-b", "panel-c", "panel-d"):
        assert f'id="{pid}"' in svg


def test_join_and_node_ids_present(gaussian_bundle):
    svg = render(gaussian_bundle)
    assert 'id="join-1"' in svg and 'id="join-2"' in svg
    for lv in ("A", "B", "C"):
        assert f'id="node-({lv})"' in svg


def test_single_panel_subset(gaussian_bundle):
    svg = render(gaussian_bundle, panels=("tree",))
    assert 'id="panel-a"' in svg
    assert 'id="panel-b"' not in svg
    ET.fromstring(svg)


def test_gic_svg_well_formed(gaussian_bundle):
    _, _, _, _, gic = gaussian_bundle
    svg = render_gic_svg(gic)
    ET.fromstring(svg)
    # one dot per model on the path
    assert svg.count("<circle") >= len(gic.rows)


def test_gic_dot_coordinates_recomputable(gaussian_bundle):
    _, _, path, _, gic = gaussian_bundle
    for row, step in zip(gic.rows, path.steps):
        assert row.gic == -2 * step.model.loglik + 2.0 * row.cluster_count


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_rerenders(gaussian_bundle):
    a = render(gaussian_bundle, panel_grid=True, show_split=True)
    b = render(gaussian_bundle, panel_grid=True, show_split=True)
    assert a == b


def test_no_unformatted_floats(gaussian_bundle):
    svg = render(gaussian_bundle)
    # coordinates are clamped to 4 decimals
    for m in re.finditer(r'[xy12cxy]+="(-?\d+\.\d+)"', svg):
        assert len(m.group(1).split(".")[1]) <= 4


# ---------------------------------------------------------------------------
# panel compatibility


def test_boxplot_on_binomial_rejected():
    data, g = make_binomial_data({"a": [1, 0, 1], "b": [0, 0, 1]})
    part = singletons_of(g)
    with pytest.raises(IncompatiblePanel):
        render_response_panel(data, g, fit(data, g, part), "boxplot")


def test_proportion_on_gaussian_rejected(gaussian_three_groups):
    data, g = gaussian_three_groups
    with pytest.raises(IncompatiblePanel):
        render_response_panel(data, g, fit(data, g, singletons_of(g)), "proportion")


@pytest.mark.parametrize("panel", ["tukey", "heatmap", "profile"])
def test_out_of_scope_panels_named_unimplemented(panel, gaussian_three_groups):
    data, g = gaussian_three_groups
    with pytest.raises(IncompatiblePanel, match="not implemented"):
        render_response_panel(data, g, fit(data, g, singletons_of(g)), panel)


def test_frequency_valid_for_all_families(gaussian_three_groups):
    data, g = gaussian_three_groups
    frag = render_response_panel(data, g, fit(data, g, singletons_of(g)), "frequency")
    assert 'id="panel-b"' in frag


# ---------------------------------------------------------------------------
# panel content


def test_frequency_bar_ratio():
    by = {
        "a": [0.0] * 10,
        "b": [1.0] * 20,
        "c": [2.0] * 30,
    }
    vals, labels = [], []
    for lv, vs in by.items():
        vals += [v + 0.01 * i for i, v in enumerate(vs)]
        labels += [lv] * len(vs)
    data = ResponseData("gaussian1d", np.array(vals))
    g = Grouping(tuple(labels))
    frag = render_response_panel(data, g, fit(data, g, singletons_of(g)), "frequency")
    widths = [float(w) for w in re.findall(r'width="([\d.]+)" height="16', frag)]
    assert len(widths) == 3
    assert widths[1] / widths[0] == pytest.approx(2.0, rel=1e-3)
    assert widths[2] / widths[0] == pytest.approx(3.0, rel=1e-3)


def test_frequency_bars_count_rows_of_weighted_permuted_data(rng):
    # a bar is its cluster's number of rows, whatever the weights and row order
    labels = rng.permutation(np.repeat(["a", "b", "c", "d"], [3, 5, 2, 7]))
    data = ResponseData("gaussian1d", rng.normal(size=len(labels)),
                        weights=rng.uniform(0.1, 5.0, len(labels)))
    g = Grouping(tuple(labels))
    frag = render_response_panel(data, g, fit(data, g, singletons_of(g).merge(1, 3)), "frequency")
    assert re.findall(r">([^<]*)</text>", frag)[1:] == ["(a)", "3", "(b)(d)", "12", "(c)", "2"]
    widths = [float(w) for w in re.findall(r'width="([\d.]+)" height="16', frag)]
    assert np.allclose(np.array(widths) / widths[1], np.array([3, 12, 2]) / 12)


def test_means_interval_half_width(gaussian_three_groups):
    data, g = gaussian_three_groups
    part = singletons_of(g)
    model = fit(data, g, part)
    frag = render_response_panel(data, g, model, "means")
    ET.fromstring("<r>" + frag + "</r>")
    sigma = model.nuisance["sigma2"] ** 0.5
    lo, hi = float(data.values.min()), float(data.values.max())
    px_per_unit = (600.0 - 60.0 - (60.0 + 100.0)) / (hi - lo)
    widths = set()
    for m in re.finditer(
        r'<line x1="([\d.-]+)" y1="[\d.-]+" x2="([\d.-]+)"[^/]*stroke-width="2\.0000"',
        frag,
    ):
        widths.add(round(float(m.group(2)) - float(m.group(1)), 2))
    for c in part.clusters:
        n = sum(g.counts[m] for m in c.members)
        expect = round(2 * 1.96 * sigma / n**0.5 * px_per_unit, 2)
        assert any(abs(wpx - expect) < 0.02 for wpx in widths)


def test_survival_all_censored_flat():
    rows = {
        "a": [(1.0, 0), (2.0, 0), (3.0, 0)],
        "b": [(1.0, 1), (2.0, 1), (4.0, 0)],
    }
    data, g = make_survival_data(rows)
    # the Cox fit diverges (level a has no events); the panel reads only the partition
    model = FittedModel("survival", singletons_of(g), 0.0, {})
    frag = render_response_panel(data, g, model, "survival")
    ET.fromstring("<r>" + frag + "</r>")
    assert 'id="panel-b"' in frag


@pytest.mark.parametrize("strategy", ["adaptive", "fixed"])
def test_render_reuses_the_full_model(strategy, rng, monkeypatch):
    rows = {f"G{i}": [(float(t), 1) for t in rng.exponential(1 + i, 8)] for i in range(4)}
    data, g = make_survival_data(rows)
    path = merge_factors(data, g, strategy)
    history, gic = merging_history(path), gic_profile(path, 2.0)
    fitted = []

    def counting_fit_stats(stats, partition):
        fitted.append(partition)
        return fit_stats(stats, partition)

    monkeypatch.setattr(families, "fit_stats", counting_fit_stats)
    render_merging_path_svg(path, history, gic, data, g, PlotSpec())
    assert fitted == []  # the tree's level order comes from the path's full model


@pytest.mark.parametrize("strategy", ["fast-fixed", "adaptive", "fixed"])
def test_means_panel_reads_the_chosen_model(strategy, gaussian_three_groups, monkeypatch):
    data, g = gaussian_three_groups
    path = merge_factors(data, g, strategy)
    history, gic = merging_history(path), gic_profile(path, 2.0)
    built, level_stats = [], families.LevelStats

    def counting_level_stats(*args):
        built.append(args)
        return level_stats(*args)

    monkeypatch.setattr(families, "LevelStats", counting_level_stats)
    monkeypatch.setattr(engine, "LevelStats", counting_level_stats)
    render_merging_path_svg(path, history, gic, data, g, PlotSpec(response_panel="means"))
    # sigma^2 comes from the chosen step's model, the tree's level order from
    # the path's full model
    assert built == []


def test_stars_ladder():
    assert _stars(0.2) == ""
    assert _stars(0.04) == "*"
    assert _stars(0.009) == "**"
    assert _stars(0.0009) == "***"
    assert _stars(0.05) == ""


def test_tree_stars_match_history(gaussian_bundle):
    data, g, path, history, gic = gaussian_bundle
    layout = layout_tree(path, history, PlotSpec(), data, g, gic)
    for join in layout.joins:
        assert join.stars == _stars(history[join.step].pval_vs_previous)


def test_tree_join_x_is_step_loglik(gaussian_bundle):
    data, g, path, history, gic = gaussian_bundle
    layout = layout_tree(path, history, PlotSpec(), data, g, gic)
    for join in layout.joins:
        assert join.x == path.steps[join.step].model.loglik


def test_gridline_spacing(gaussian_bundle):
    data, g, path, history, gic = gaussian_bundle
    plain = render(gaussian_bundle, panels=("tree",))
    grid = render(gaussian_bundle, panels=("tree",), panel_grid=True)
    spacing = CHI_SQUARE_1_95 / 2.0
    lmin = path.steps[-1].model.loglik
    lmax = path.steps[0].model.loglik
    expected = 0
    gcur = lmax - spacing
    while gcur > lmin:
        expected += 1
        gcur -= spacing
    extra = grid.count("<line") - plain.count("<line")
    assert extra == expected
    assert spacing == pytest.approx(3.841 / 2.0, abs=1e-3)


def test_show_split_adds_cut_line(gaussian_bundle):
    base = render(gaussian_bundle, panels=("tree",))
    split = render(gaussian_bundle, panels=("tree",), show_split=True)
    assert split.count("<line") == base.count("<line") + 1
    assert "#b22222" in split and "#b22222" not in base


def test_panel_colors_consistent(gaussian_bundle):
    data, g, path, history, gic = gaussian_bundle
    layout = layout_tree(path, history, PlotSpec(), data, g, gic)
    svg = render(gaussian_bundle)
    for leaf in layout.leaves:
        assert svg.count(leaf.color) >= 2  # appears in tree and response panel


def test_named_palette(gaussian_bundle):
    svg = render(gaussian_bundle, palette="Dark2")
    ET.fromstring(svg)
    # a misspelled name is refused, not drawn in the default colours
    with pytest.raises(IncompatiblePanel, match="'dark2'.*default, Dark2"):
        render(gaussian_bundle, palette="dark2")


def test_empty_panels_rejected(gaussian_bundle):
    with pytest.raises(IncompatiblePanel):
        render(gaussian_bundle, panels=())


@pytest.mark.parametrize("text", [
    "", "L01", "a & b", "<g>", "x > y", "& < > &amp;", 'say "hi"', "it's",
    "both ' and \"", "line\nbreak", "cr\rlf\r\n", "tab\tstop", "&\"'<>\n\r\t mixed",
])
def test_escape_helpers_match_saxutils(text):
    assert _escape(text) == escape(text)
    assert _quoteattr(text) == quoteattr(text)


def test_importing_the_cli_loads_no_network_modules():
    # xml.sax.saxutils would load urllib.request, http.client and ssl
    code = ("import sys, factorfuse.cli; "
            "print(sorted({'urllib.request', 'http.client', 'ssl'} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": str(Path(factorfuse.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
