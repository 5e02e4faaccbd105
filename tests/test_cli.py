"""CLI end-to-end runs, exit codes, determinism, and artifact round-trips."""

import csv
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorfuse.cli import (
    _json_parts,
    abbreviate_levels,
    format_history_csv,
    main,
)
from factorfuse import families, fit
from factorfuse.data import Cluster, Partition
from factorfuse.errors import FactorFuseError, IncompatiblePanel, MonotoneLikelihood, NonConvergence
from factorfuse.fixtures import make_fixture
from factorfuse.viz import RESPONSE_PANELS, check_panel_compat

from conftest import COLLIDING_LABELS, make_gaussian_data, reference_build_dataset


def run(argv):
    return main([str(a) for a in argv])


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def gaussian_csv(tmp_path):
    import numpy as np

    rng = np.random.default_rng(42)
    rows = []
    for lv, mu in (("alpha", 0.0), ("bravo", 0.2), ("charlie", 4.0)):
        for v in rng.normal(mu, 1.0, 20):
            rows.append((float(v), lv))
    p = tmp_path / "data.csv"
    write_csv(p, ("y", "group"), rows)
    return p


ARTIFACTS = ("result.json", "history.csv", "partition.csv", "merging_path.svg", "gic.svg")

# bytes no UTF-8 decoder reads, and a quoted cell over csv.field_size_limit()
UNDECODABLE = b"y,g\n1,a\n2,\xe9b\n"
OVERSIZED = b'y,g\n1,a\n2,"' + b"x" * 200_000 + b'"\n3,b\n'


# ---------------------------------------------------------------------------
# merge happy path


def test_merge_writes_all_artifacts(gaussian_csv, tmp_path):
    out = tmp_path / "out"
    rc = run(["merge", "--input", gaussian_csv, "--family", "gaussian",
              "--response", "y", "--factor", "group", "--method", "adaptive",
              "--out", out])
    assert rc == 0
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    result = json.loads((out / "result.json").read_text())
    assert result["schemaVersion"] == 1
    assert result["input"]["accepted"] == 60
    assert len(result["path"]["steps"]) == 3
    for svg in ("merging_path.svg", "gic.svg"):
        ET.fromstring((out / svg).read_text())
    svg_text = (out / "merging_path.svg").read_text()
    for pid in ("panel-a", "panel-b", "panel-c", "panel-d"):
        assert f'id="{pid}"' in svg_text


def test_merge_byte_identical_reruns(gaussian_csv, tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        rc = run(["merge", "--input", gaussian_csv, "--family", "gaussian",
                  "--response", "y", "--factor", "group", "--method", "fixed",
                  "--panel-grid", "--show-split", "--out", out])
        assert rc == 0
        outs.append(out)
    for name in ARTIFACTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_main_reuses_its_parser(gaussian_csv, tmp_path):
    # main builds its parser on the first call only; after a call that exits
    # on a bad argument, it reads a merge as a freshly built parser does
    from factorfuse import cli

    argv = ["merge", "--input", gaussian_csv, "--family", "gaussian", "--response", "y",
            "--factor", "group", "--method", "fixed", "--show-split"]
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--response", "z", "--value", "x", "--out", tmp_path / "bad"])
    assert exc.value.code == 2
    assert run([*argv, "--out", tmp_path / "reused"]) == 0
    assert cli._parser.cache_info().misses == 1
    cli._parser.cache_clear()
    assert run([*argv, "--out", tmp_path / "fresh"]) == 0
    for name in ARTIFACTS:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


@pytest.mark.parametrize("flags, profiles", [
    ([], 1),
    (["--criterion", "gic", "--value", "3"], 2),  # the cut's penalty differs from the plot's
    (["--criterion", "pvalue", "--value", "0.05"], 1),
    (["--criterion", "loglik", "--value", "3"], 1),
], ids=str)
def test_merge_builds_history_gic_and_cut_once(flags, profiles, monkeypatch, tmp_path):
    # merge builds the merging history and the plot's GIC profile once, and
    # selects the step once; the selection reads what was built
    from factorfuse import cli, inference

    rng = np.random.default_rng(3)
    p = tmp_path / "data.csv"
    write_csv(p, ("y", "group"), [(float(v), f"g{s}") for s in range(8)
                                  for v in rng.normal(s % 3, 1.0, 6)])
    calls, paths = [], []
    for name in ("merging_history", "gic_profile", "cut_step", "merge_factors"):
        for module in (cli, inference):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                result = _original(*args, **kwargs)
                if _name == "merge_factors":
                    paths.append(result)
                return result

            monkeypatch.setattr(module, name, counted)
    out = tmp_path / "out"
    rc = run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
              "--factor", "group", *flags, "--out", out])
    assert rc == 0
    assert sorted(calls) == sorted(["merge_factors", "merging_history", "cut_step"]
                                   + ["gic_profile"] * profiles)
    monkeypatch.undo()
    result = json.loads((out / "result.json").read_text())
    criterion = inference.SelectionCriterion(result["config"]["criterion"]["kind"],
                                             result["config"]["criterion"]["value"])
    step = inference.cut_step(paths[0], criterion)
    assert result["selectedStep"] == step
    table = inference.optimal_partition_table(paths[0], criterion)
    assert [(r["abbrev"][1:-1], r["pred"]) for r in result["optimalPartition"]] == table


def test_history_csv_recomputable_from_json(gaussian_csv, tmp_path):
    out = tmp_path / "out"
    run(["merge", "--input", gaussian_csv, "--family", "gaussian",
         "--response", "y", "--factor", "group", "--out", out])
    result = json.loads((out / "result.json").read_text())
    regenerated = format_history_csv(result["history"])
    assert regenerated == (out / "history.csv").read_text()


def test_history_schema(gaussian_csv, tmp_path):
    out = tmp_path / "out"
    run(["merge", "--input", gaussian_csv, "--family", "gaussian",
         "--response", "y", "--factor", "group", "--out", out])
    with open(out / "history.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["step", "groupA", "groupB", "model",
                             "pvalVsFull", "pvalVsPrevious"]
    assert rows[0]["groupA"] == "" and rows[0]["pvalVsFull"] == "1.0000"
    assert len(rows) == 3


def test_partition_csv_full_names(gaussian_csv, tmp_path):
    out = tmp_path / "out"
    run(["merge", "--input", gaussian_csv, "--family", "gaussian",
         "--response", "y", "--factor", "group", "--out", out])
    with open(out / "partition.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["orig"] for r in rows} == {"alpha", "bravo", "charlie"}
    # "charlie" is over 6 chars and gets abbreviated in cluster labels
    charlie = next(r for r in rows if r["orig"] == "charlie")
    assert charlie["abbrev"] != "(charlie)"


def test_csv_artifacts_quote_awkward_level_names(tmp_path):
    # a comma or a double quote in a level name, short enough to be kept
    # ("a,b") or in its abbreviation ('say "hi"' -> 'sy "')
    p = tmp_path / "data.csv"
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "group"])
        for lv, mu in (("a,b", 0.0), ('say "hi"', 0.3), ("c", 4.0), ("a\rb", 9.0)):
            writer.writerows([[mu + d, lv] for d in (-0.5, 0.1, 0.4)])
    out = tmp_path / "out"
    assert run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
                "--factor", "group", "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    with open(out / "history.csv", newline="") as fh:
        history = list(csv.reader(fh))
    assert history[1:] == [
        [str(r["step"]), r["groupA"], r["groupB"], f'{r["model"]:.4f}',
         f'{r["pvalVsFull"]:.4f}', f'{r["pvalVsPrevious"]:.4f}'] for r in result["history"]]
    with open(out / "partition.csv", newline="") as fh:
        partition = list(csv.reader(fh))
    assert partition == [["orig", "abbrev", "pred"]] + [
        [r["orig"], r["abbrev"], r["pred"]] for r in result["optimalPartition"]]
    assert {r[0] for r in partition[1:]} == {"a,b", 'say "hi"', "c", "a\rb"}
    assert any("," in r[1] for r in history[2:]) and any('"' in r[1] for r in partition[1:])


def test_rejected_rows_reported(tmp_path):
    rows = [(1.0, "a"), ("", "a"), (2.0, "a"), (0.5, "b"), (1.5, "b"),
            ("nan", "b"), (0.7, "a")]
    p = tmp_path / "data.csv"
    write_csv(p, ("y", "group"), rows)
    out = tmp_path / "out"
    rc = run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
              "--factor", "group", "--out", out])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["input"]["accepted"] == 5
    assert result["input"]["rows"] == 7
    assert len(result["input"]["rejectedRows"]) == 2


def test_binomial_and_survival_families(tmp_path):
    import numpy as np

    rng = np.random.default_rng(5)
    rows = []
    for lv, p_ in (("a", 0.2), ("b", 0.8)):
        for v in rng.binomial(1, p_, 30):
            rows.append((int(v), lv))
    pb = tmp_path / "b.csv"
    write_csv(pb, ("y", "group"), rows)
    outb = tmp_path / "outb"
    assert run(["merge", "--input", pb, "--family", "binomial", "--response", "y",
                "--factor", "group", "--out", outb]) == 0

    rows = []
    for lv, rate in (("a", 1.0), ("b", 3.0)):
        t = rng.exponential(1.0 / rate, 25)
        e = (rng.uniform(size=25) > 0.3).astype(int)
        for tt, ee in zip(t, e):
            rows.append((max(float(tt), 1e-6), int(ee), lv))
    ps = tmp_path / "s.csv"
    write_csv(ps, ("time", "event", "group"), rows)
    outs = tmp_path / "outs"
    assert run(["merge", "--input", ps, "--family", "survival", "--time", "time",
                "--event", "event", "--factor", "group", "--out", outs]) == 0
    svg = (outs / "merging_path.svg").read_text()
    assert 'id="panel-b"' in svg  # KM curves rendered


def test_gaussian_nd_via_repeated_response(tmp_path):
    import numpy as np

    rng = np.random.default_rng(8)
    rows = []
    for lv, c in (("a", (0, 0)), ("b", (0.2, 0.1)), ("c", (5, 5))):
        pts = rng.normal(c, 1.0, (15, 2))
        for x, y in pts:
            rows.append((float(x), float(y), lv))
    p = tmp_path / "nd.csv"
    write_csv(p, ("y1", "y2", "group"), rows)
    out = tmp_path / "out"
    rc = run(["merge", "--input", p, "--family", "gaussian", "--response", "y1",
              "--response", "y2", "--factor", "group", "--out", out])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["config"]["family"] == "gaussian"
    assert len(result["path"]["steps"]) == 3


@pytest.mark.parametrize("method", ["fast-adaptive", "fast-fixed"])
def test_gaussian_nd_coincident_means_keep_level_order(tmp_path, method):
    # distinct rows, but every level's mean is exactly (0, 0)
    rows = [(1, 0, "a"), (-1, 0, "a"), (0, 2, "b"), (0, -2, "b"),
            (3, 3, "c"), (-3, -3, "c"), (1, -4, "d"), (-1, 4, "d")]
    p = tmp_path / "nd.csv"
    write_csv(p, ("y1", "y2", "group"), rows)
    out = tmp_path / "out"
    assert run(["merge", "--input", p, "--family", "gaussian", "--response", "y1",
                "--response", "y2", "--factor", "group", "--method", method,
                "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["path"]["ordering"] == ["a", "b", "c", "d"]


FIXTURE_MERGE_ARGS = {
    "gaussian": ["--family", "gaussian", "--response", "y"],
    "gaussianNd": ["--family", "gaussian", "--response", "y1", "--response", "y2"],
    "binomial": ["--family", "binomial", "--response", "y"],
    "survival": ["--family", "survival", "--time", "time", "--event", "event"],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("method", ["adaptive", "fast-adaptive", "fixed", "fast-fixed"])
@pytest.mark.parametrize("kind", sorted(FIXTURE_MERGE_ARGS))
def test_every_family_and_strategy_completes(tmp_path, kind, method, seed):
    fx, out = tmp_path / "fx", tmp_path / "out"
    assert run(["fixture", "--kind", kind, "--k", 8, "--n-per-group", 10,
                "--seed", seed, "--out", fx]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["merge", "--input", fx / "data.csv", *FIXTURE_MERGE_ARGS[kind],
                  "--factor", "group", "--method", method, "--out", out])
    assert rc == 0
    assert all((out / name).is_file() for name in ARTIFACTS)
    logliks = [s["loglik"] for s in json.loads((out / "result.json").read_text())["path"]["steps"]]
    assert len(logliks) == 8
    assert all(b <= a for a, b in zip(logliks, logliks[1:]))


# ---------------------------------------------------------------------------
# penalty coarsening mirror


def test_larger_penalty_coarser_partition(tmp_path):
    fx = tmp_path / "fx"
    run(["fixture", "--kind", "binomial", "--k", "12", "--n-per-group", "40",
         "--separation", "0.8", "--seed", "3", "--out", fx])
    sizes = {}
    for pen in (2.0, 500.0):
        out = tmp_path / f"out{int(pen)}"
        rc = run(["merge", "--input", fx / "data.csv", "--family", "binomial",
                  "--response", "y", "--factor", "group", "--criterion", "gic",
                  "--value", pen, "--penalty", pen, "--out", out])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        sizes[pen] = len({r["pred"] for r in result["optimalPartition"]})
    assert sizes[500.0] <= sizes[2.0]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_bad_flags(gaussian_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["merge", "--input", gaussian_csv, "--family", "nonsense",
             "--response", "y", "--factor", "group", "--out", tmp_path / "o"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--criterion", "pvalue", "--value", "2"],
    ["--criterion", "pvalue", "--value", "0"],
    ["--criterion", "gic", "--value", "0"],
    ["--criterion", "gic", "--value", "inf"],
    ["--criterion", "gic", "--value", "nan"],
    ["--criterion", "loglik", "--value", "nan"],
    ["--criterion", "loglik", "--value=-inf"],
    ["--penalty", "0"],
    ["--penalty", "-1"],
    ["--penalty", "inf"],
    ["--penalty", "nan"],
    ["--response-panel", "tukey"],
    ["--response-panel", "nonsense"],
    ["--response-panel", "survival"],  # not valid for gaussian data
], ids=" ".join)
def test_exit_2_on_bad_merge_config_writes_nothing(gaussian_csv, tmp_path, flags, capsys):
    out = tmp_path / "o"
    rc = run(["merge", "--input", gaussian_csv, "--family", "gaussian", "--response", "y",
              "--factor", "group", *flags, "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_exit_2_on_bad_fixture_params(tmp_path):
    rc = run(["fixture", "--kind", "gaussian", "--k", "1", "--n-per-group", "5",
              "--out", tmp_path / "o"])
    assert rc == 2


@pytest.mark.parametrize("clusters", ["0", "-1"])
def test_exit_2_on_bad_fixture_clusters(clusters, tmp_path):
    rc = run(["fixture", "--kind", "gaussian", "--k", "4", "--n-per-group", "5",
              "--clusters", clusters, "--out", tmp_path / "o"])
    assert rc == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["gaussian", "survival"])
@pytest.mark.parametrize("separation", ["inf", "nan"])
def test_exit_2_on_non_finite_fixture_separation(kind, separation, tmp_path):
    rc = run(["fixture", "--kind", kind, "--k", "4", "--n-per-group", "5",
              "--separation", separation, "--out", tmp_path / "o"])
    assert rc == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["gaussian", "gaussianNd", "binomial", "survival"])
def test_make_fixture_rejects_fewer_than_one_cluster(kind):
    for n_clusters in (0, -1):
        with pytest.raises(FactorFuseError):
            make_fixture(kind, 4, 5, 1.0, 0, n_clusters=n_clusters)


@pytest.mark.parametrize("flag, value", [("--n-per-group", "1"), ("--repeats", "0"),
                                         ("--kmax", "3")])
def test_exit_2_on_bad_bench_params(flag, value, tmp_path):
    rc = run(["bench", "--kmax", "4", flag, value, "--out", tmp_path / "o"])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_exit_3_on_missing_column(gaussian_csv, tmp_path):
    rc = run(["merge", "--input", gaussian_csv, "--family", "gaussian",
              "--response", "nope", "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 3


@pytest.mark.parametrize("content", [UNDECODABLE, OVERSIZED], ids=["undecodable", "oversized"])
def test_exit_3_on_unreadable_input(content, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(content)
    rc = run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
              "--factor", "g", "--out", tmp_path / "o"])
    assert rc == 3
    assert not (tmp_path / "o").exists()


def test_exit_3_on_single_level(tmp_path):
    p = tmp_path / "one.csv"
    write_csv(p, ("y", "group"), [(1.0, "a"), (2.0, "a"), (3.0, "a")])
    rc = run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
              "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 3


@pytest.mark.parametrize("method", ["adaptive", "fast-adaptive", "fixed", "fast-fixed"])
def test_merge_with_repeated_cluster_labels(method, tmp_path):
    # two clusters labelled (a)(b) after step 1, and step 2 merges the second
    # with (z): each step's loglik is the fit of the clusters it lists
    p = tmp_path / "data.csv"
    write_csv(p, ("y", "group"), [(v, lv) for lv, vs in COLLIDING_LABELS.items() for v in vs])
    out = tmp_path / "o"
    assert run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
                "--factor", "group", "--method", method, "--out", out]) == 0
    data, g = make_gaussian_data(COLLIDING_LABELS)
    steps = json.loads((out / "result.json").read_text())["path"]["steps"]
    assert [s["step"] for s in steps] == [0, 1, 2, 3]
    assert [c["label"] for c in steps[1]["clusters"]] == ["(a)(b)", "(a)(b)", "(z)"]
    assert (steps[2]["groupA"], steps[2]["groupB"]) == ("(a)(b)", "(z)")
    assert steps[2]["clusters"][1]["members"] == ["a)(b", "z"]
    for step in steps:
        partition = Partition(tuple(Cluster(tuple(c["members"])) for c in step["clusters"]))
        assert step["loglik"] == fit(data, g, partition).loglik


def test_exit_3_on_nonbinary_binomial(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, ("y", "group"), [(1, "a"), (2, "a"), (0, "b"), (1, "b")])
    rc = run(["merge", "--input", p, "--family", "binomial", "--response", "y",
              "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 3


@pytest.mark.parametrize("header, rows", [
    (("y", "group"), [(1e200, "a"), (1e200, "a"), (1e200, "b"), (2e200, "b")]),
    (("y1", "y2", "group"), [(1e200, y2, lv) for lv, col in (("a", (0.5, 1.5, 2.0)),
                                                             ("b", (0.1, 3.0, 1.0)))
                             for y2 in col]),
])
def test_exit_3_without_warnings_when_squares_overflow(header, rows, tmp_path, capsys):
    p = tmp_path / "huge.csv"
    write_csv(p, header, rows)
    responses = [arg for col in header[:-1] for arg in ("--response", col)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["merge", "--input", p, "--family", "gaussian", *responses,
                  "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: responses too large or not finite: sum(w) * sum(w y^2) is not finite\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_exit_4_on_monotone_cox(tmp_path):
    # perfectly separated survival groups make the coefficient infinite
    rows = []
    for i in range(10):
        rows.append((float(i + 1) / 10.0, 1, "early"))
    for i in range(10):
        rows.append((float(i + 20), 1, "late"))
    p = tmp_path / "sep.csv"
    write_csv(p, ("time", "event", "group"), rows)
    rc = run(["merge", "--input", p, "--family", "survival", "--time", "time",
              "--event", "event", "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 4


@pytest.mark.parametrize("rows, err", [
    # every row of L01 ends before the first event
    (None, "cluster (L01) has no row at risk at any event time: "
           "its Cox coefficient is not identifiable"),
    ([(1.0, 0, "a"), (2.0, 0, "a"), (1.5, 1, "b"), (3.0, 1, "b")],
     "cluster (a) has no events: its Cox coefficient may be infinite"),
])
def test_exit_4_names_the_cluster_a_full_cox_fit_cannot_have(rows, err, tmp_path, capsys):
    if rows is None:
        assert run(["fixture", "--kind", "survival", "--k", 2, "--n-per-group", 2,
                    "--separation", 0, "--seed", 0, "--out", tmp_path]) == 0
    else:
        write_csv(tmp_path / "data.csv", ("time", "event", "group"), rows)
    capsys.readouterr()
    rc = run(["merge", "--input", tmp_path / "data.csv", "--family", "survival", "--time",
              "time", "--event", "event", "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 4
    assert capsys.readouterr().err == f"numerical failure: {err}\n"


@pytest.mark.parametrize("error", [NonConvergence, MonotoneLikelihood])
def test_exit_4_names_the_failing_survival_candidate(error, monkeypatch, tmp_path, capsys):
    p = tmp_path / "surv.csv"
    write_csv(p, ("time", "event", "group"),
              [(float(t), 1, lv) for s, lv in enumerate("abc") for t in range(1 + s, 30, 3)])
    newton = families._cox_fit_rows
    calls = []

    def failing(*args, **kwargs):
        # the full model is the first fit and the three candidates the second;
        # fail the second candidate, (a)+(c)
        calls.append(1)
        coef, ll, hess, failed = newton(*args, **kwargs)
        return coef, ll, hess, (1, error("forced failure")) if len(calls) == 2 else failed

    monkeypatch.setattr(families, "_cox_fit_rows", failing)
    rc = run(["merge", "--input", p, "--family", "survival", "--time", "time",
              "--event", "event", "--factor", "group", "--method", "adaptive",
              "--out", tmp_path / "o"])
    assert rc == 4
    assert capsys.readouterr().err == (
        "numerical failure: forced failure: candidate merge of (a) and (c) at 3 clusters\n")


# ---------------------------------------------------------------------------
# fixture command


def test_fixture_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run(["fixture", "--kind", "gaussian", "--k", "4",
                  "--n-per-group", "10", "--separation", "2", "--seed", "1",
                  "--out", out])
        assert rc == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


@pytest.mark.parametrize("kind", ["gaussian", "gaussianNd", "binomial", "survival"])
def test_fixture_csv_matches_cell_by_cell_writer(kind, tmp_path, monkeypatch):
    # level names that need quoting, each written as csv.writer writes it, in
    # one block of rows, in blocks of 5 rows (the last one short) and row by row
    from dataclasses import replace

    from factorfuse import cli
    from factorfuse.data import DOMAINS, Grouping

    fx = make_fixture(kind, 4, 3, 1.0, seed=2)
    fx = replace(fx, grouping=Grouping(codes=fx.grouping.codes,
                                       levels=("a,b", 'say "hi"', "two\nlines", "L04")))
    monkeypatch.setattr(cli, "make_fixture", lambda *args, **kwargs: fx)
    indicators = DOMAINS[fx.data.kind].indicators
    rows = ([*(int(v) if j in indicators else repr(v) for j, v in enumerate(row)), g]
            for row, g in zip(fx.data.values.reshape(fx.data.n, -1).tolist(),
                              fx.grouping.labels))
    want = cli._csv_text([*fx.columns, "group"], rows)
    for block in (cli._FIXTURE_ROWS, 5, 1):
        monkeypatch.setattr(cli, "_FIXTURE_ROWS", block)
        assert run(["fixture", "--kind", kind, "--k", 4, "--n-per-group", 3,
                    "--out", tmp_path]) == 0
        assert (tmp_path / "data.csv").read_bytes() == want.encode("utf-8")
    with open(tmp_path / "data.csv", newline="", encoding="utf-8") as fh:
        assert {row[-1] for row in list(csv.reader(fh))[1:]} == set(fx.grouping.levels)


def test_fixture_zero_separation_single_cluster(tmp_path):
    out = tmp_path / "o"
    run(["fixture", "--kind", "gaussian", "--k", "5", "--n-per-group", "8",
         "--separation", "0", "--seed", "2", "--out", out])
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["clusters"]) == 1
    assert sorted(lv for c in truth["clusters"] for lv in c) == [
        "L01", "L02", "L03", "L04", "L05"
    ]


def test_fixture_roundtrip_recovery(tmp_path):
    fx = tmp_path / "fx"
    run(["fixture", "--kind", "gaussian", "--k", "4", "--n-per-group", "200",
         "--separation", "5", "--seed", "11", "--clusters", "2", "--out", fx])
    out = tmp_path / "out"
    rc = run(["merge", "--input", fx / "data.csv", "--family", "gaussian",
              "--response", "y", "--factor", "group", "--criterion", "gic",
              "--value", "2", "--out", out])
    assert rc == 0
    truth = json.loads((fx / "truth.json").read_text())
    result = json.loads((out / "result.json").read_text())
    got = {}
    for row in result["optimalPartition"]:
        got.setdefault(row["pred"], set()).add(row["orig"])
    planted = {frozenset(c) for c in truth["clusters"]}
    assert {frozenset(v) for v in got.values()} == planted


# ---------------------------------------------------------------------------
# response panels per family

# fixture kind -> (response kind, accepted panels with the default first, merge flags)
FAMILY_PANELS = {
    "gaussian": ("gaussian1d", ("means", "boxplot", "frequency"),
                 ["--family", "gaussian", "--response", "y"]),
    "gaussianNd": ("gaussianNd", ("frequency",),
                   ["--family", "gaussian", "--response", "y1", "--response", "y2"]),
    "binomial": ("binomial", ("proportion", "frequency"),
                 ["--family", "binomial", "--response", "y"]),
    "survival": ("survival", ("survival", "frequency"),
                 ["--family", "survival", "--time", "time", "--event", "event"]),
}


@pytest.mark.parametrize("panel", RESPONSE_PANELS)
@pytest.mark.parametrize("fixture_kind", sorted(FAMILY_PANELS))
def test_family_panel_table(fixture_kind, panel, tmp_path):
    kind, accepted, flags = FAMILY_PANELS[fixture_kind]
    if panel in accepted:
        check_panel_compat(kind, panel)
    else:
        with pytest.raises(IncompatiblePanel, match="not valid"):
            check_panel_compat(kind, panel)
    if panel != accepted[0]:
        return
    # merge without --response-panel uses the family's default
    fx, out = tmp_path / "fx", tmp_path / "out"
    assert run(["fixture", "--kind", fixture_kind, "--k", "3", "--n-per-group", "10",
                "--out", fx]) == 0
    assert run(["merge", "--input", fx / "data.csv", *flags, "--factor", "group",
                "--method", "fixed", "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["config"]["responsePanel"] == panel


# ---------------------------------------------------------------------------
# bench command


def test_bench_counting_identities(tmp_path):
    out = tmp_path / "bench"
    rc = run(["bench", "--kmax", "8", "--n-per-group", "6", "--repeats", "1",
              "--out", out])
    assert rc == 0
    with open(out / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    by = {(r["strategy"], int(r["k"])): int(r["evaluations"]) for r in rows}
    for k in (4, 8):
        assert by[("adaptive", k)] == sum(
            j * (j - 1) // 2 for j in range(2, k + 1)
        ) + k
        assert by[("fixed", k)] == k * (k - 1) // 2 + (k - 1) + 1
        assert by[("fast-adaptive", k)] <= k * k
        assert by[("fast-fixed", k)] <= 3 * k
    # fast-fixed grows roughly linearly across the doubling
    ratio = by[("fast-fixed", 8)] / by[("fast-fixed", 4)]
    assert 1.6 <= ratio <= 2.4


# ---------------------------------------------------------------------------
# level abbreviation


def test_abbreviation_rules():
    abbr = abbreviate_levels(["Germany", "Portugal", "Peru", "Sweden"])
    assert abbr["Germany"] == "Grmn"
    assert abbr["Portugal"] == "Prtg"
    # names of six characters or fewer stay as they are
    assert abbr["Peru"] == "Peru"
    assert abbr["Sweden"] == "Sweden"


def test_abbreviation_collisions_disambiguated():
    abbr = abbreviate_levels(["Germany1", "Germany2", "Germania"])
    assert len(set(abbr.values())) == 3
    for v in abbr.values():
        assert len(v) <= 6


def test_abbreviation_suffix_skips_taken_names(tmp_path):
    # "abcdef1" and "abcdef2" both shorten to "abcd"; "abcd2" is another level's name
    levels = ["abcd2", "abcdef1", "abcdef2"]
    assert abbreviate_levels(levels) == {"abcd2": "abcd2", "abcdef1": "abcd", "abcdef2": "abcd3"}
    assert abbreviate_levels(levels[::-1]) == {
        "abcdef2": "abcd", "abcdef1": "abcd3", "abcd2": "abcd2"}
    p = tmp_path / "data.csv"
    write_csv(p, ("y", "group"), [(i + 3 * j, lv) for j, lv in enumerate(levels) for i in range(3)])
    out = tmp_path / "out"
    assert run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
                "--factor", "group", "--out", out]) == 0
    names = json.loads((out / "result.json").read_text())["input"]["levelNames"]
    assert names == {"abcd2": "abcd2", "abcd": "abcdef1", "abcd3": "abcdef2"}


# ---------------------------------------------------------------------------
# ingest contract: what _build_dataset makes of a CSV text

INF = float("inf")


def _meta(rows, rejected, names=("a", "b")):
    names = names if isinstance(names, dict) else {n: n for n in names}
    return {"rows": rows, "accepted": rows - len(rejected), "rejectedRows": rejected,
            "levelNames": names}


def _ok(kind, values, weights, labels, meta, levels=("a", "b")):
    return (kind, values, weights, tuple(labels), levels, meta)


# (id, CSV text or bytes, flags, expected): expected is what _build_dataset
# returns as (kind, values, weights, labels, levels, meta), or (exception type,
# message)
INGEST_TABLE = [
    ("blank-lines-skipped", "y,g\n1,a\n\n\nna,b\n2,b\n\n3,a\n", {},
     _ok("gaussian1d", [1.0, 2.0, 3.0], None, "aba", _meta(4, [2]))),
    ("blank-crlf-lines-skipped", "y,g\r\n1,a\r\n\r\n2,b\r\n", {},
     _ok("gaussian1d", [1.0, 2.0], None, "ab", _meta(2, []))),
    ("whitespace-line-is-a-row", "y,g\n1,a\n   \n2,b\n", {},
     _ok("gaussian1d", [1.0, 2.0], None, "ab", _meta(3, [2]))),
    ("quoted-empty-line-is-a-row", 'y,g\n""\n1,a\n2,b\n', {},
     _ok("gaussian1d", [1.0, 2.0], None, "ab", _meta(3, [1]))),
    ("short-rows-read-empty", "y,g,w\n1,a\n2,b,2\n3,a,1\n4,b,0.5\n5\n", {"weights": "w"},
     _ok("gaussian1d", [2.0, 3.0, 4.0], [2.0, 1.0, 0.5], "bab", _meta(5, [1, 5]))),
    ("long-rows-ignore-extra-cells", "y,g\n1,a,x,y\n2,b\n", {},
     _ok("gaussian1d", [1.0, 2.0], None, "ab", _meta(2, []))),
    ("long-and-short-rows-in-one-block", "y,g\n1,a,5\n2\n3,b\n", {},
     _ok("gaussian1d", [1.0, 3.0], None, "ab", _meta(3, [2]))),
    ("one-column-blank-line-skipped", "g\n1\n\n2\n1\n", {"response": ["g"]},
     _ok("gaussian1d", [1.0, 2.0, 1.0], None, "121", _meta(3, [], ("1", "2")),
         levels=("1", "2"))),
    ("repeated-header-reads-last", "y,g,y\n1,a,10\n2,b,20\n3,a\n4,b,40\n", {},
     _ok("gaussian1d", [10.0, 20.0, 40.0], None, "abb", _meta(4, [3]))),
    ("missing-response-tokens",
     "y,g\n NA ,a\nNaN,b\nnull,a\n None ,b\n,a\n  ,b\n-nan,a\nx,b\n1,a\n2,b\n", {},
     _ok("gaussian1d", [1.0, 2.0], None, "ab", _meta(10, [1, 2, 3, 4, 5, 6, 7, 8]))),
    ("missing-label-tokens", "y,g\n1, na \n2,NULL\n3,None\n4,nan\n5,\n6,  \n7, a \n8,b\n", {},
     _ok("gaussian1d", [7.0, 8.0], None, "ab", _meta(8, [1, 2, 3, 4, 5, 6]))),
    ("numbers-float-accepts", "y,g\ninf,a\n1_0,b\n -Infinity ,a\n1e400,b\n-0.0,a\n 2.5e-3 ,b\n",
     {}, _ok("gaussian1d", [INF, 10.0, -INF, INF, -0.0, 0.0025], None, "ababab",
             _meta(6, []))),
    ("labels-abbreviated", "y,g\n1,charlie\n2,bravo\n3,charlie\n", {},
     ("gaussian1d", [1.0, 2.0, 3.0], None, ("chrl", "bravo", "chrl"), ("bravo", "chrl"),
      _meta(3, [], {"bravo": "bravo", "chrl": "charlie"}))),
    ("gaussian-nd", "y1,y2,g\n1,2,a\n3,na,b\n5,6,b\n7,8,a\n", {"response": ["y1", "y2"]},
     _ok("gaussianNd", [[1.0, 2.0], [5.0, 6.0], [7.0, 8.0]], None, "aba", _meta(4, [2]))),
    ("binomial", "y,g\n1,a\n-0,b\n0,a\n", {"family": "binomial"},
     _ok("binomial", [1.0, -0.0, 0.0], None, "aba", _meta(3, []))),
    ("survival", "t,e,g\n1,1,a\n2,,b\n3,0,b\nna,1,a\n0.5,1.0,a\n", {"family": "survival"},
     _ok("survival", [[1.0, 1.0], [3.0, 0.0], [0.5, 1.0]], None, "aba", _meta(5, [2, 4]))),
    # checks within a row: label, response, domain, weight present, weight > 0
    ("label-before-domain", "y,g\n1,a\n0,b\n2,\n", {"family": "binomial"},
     _ok("binomial", [1.0, 0.0], None, "ab", _meta(3, [3]))),
    ("response-before-domain", "t,e,g\n1,1,a\n-1,,b\n1,0,b\n", {"family": "survival"},
     _ok("survival", [[1.0, 1.0], [1.0, 0.0]], None, "ab", _meta(3, [2]))),
    ("response-before-weight", "y,g,w\n1,a,1\nna,b,-1\n2,b,1\n", {"weights": "w"},
     _ok("gaussian1d", [1.0, 2.0], [1.0, 1.0], "ab", _meta(3, [2]))),
    ("domain-before-missing-weight", "y,g,w\n1,a,1\n2,b,\n0,b,1\n",
     {"family": "binomial", "weights": "w"},
     ("DataError", "row 2: binomial response must be 0 or 1")),
    ("survival-time-domain", "t,e,g\n1,1,a\n0,1,b\n", {"family": "survival"},
     ("DataError", "row 2: invalid survival time/event pair")),
    ("survival-event-domain", "t,e,g\n1,1,a\n2,2,b\n", {"family": "survival"},
     ("DataError", "row 2: invalid survival time/event pair")),
    ("survival-domain-before-weight", "t,e,g,w\n1,1,a,1\n-inf,1,b,\n",
     {"family": "survival", "weights": "w"},
     ("DataError", "row 2: invalid survival time/event pair")),
    ("missing-weight-rejects", "y,g,w\n1,a,nan\n2,b,1\n3,a,2\n", {"weights": "w"},
     _ok("gaussian1d", [2.0, 3.0], [1.0, 2.0], "ba", _meta(3, [1]))),
    ("zero-weight-raises", "y,g,w\n1,a,1\n2,b,-0\n", {"weights": "w"},
     ("DataError", "row 2: weights must be positive")),
    ("survival-weight-raises-first", "t,e,g,w\n1,1,a,1\n2,0,b,0\n",
     {"family": "survival", "weights": "w"},
     ("DataError", "row 2: weights must be positive")),
    # the first error in row order wins
    ("first-error-weight", "y,g,w\n1,a,0\n2,b,1\n", {"family": "binomial", "weights": "w"},
     ("DataError", "row 1: weights must be positive")),
    ("first-error-domain", "y,g,w\nna,a,0\n2,a,1\n1,b,0\n",
     {"family": "binomial", "weights": "w"},
     ("DataError", "row 2: binomial response must be 0 or 1")),
    # trailing checks: no usable rows, fewer than 2 levels, survival weights
    ("header-only", "y,g\n", {}, ("DataError", "no usable rows after rejecting invalid ones")),
    ("no-usable-rows", "y,g\nna,a\n", {},
     ("DataError", "no usable rows after rejecting invalid ones")),
    ("no-usable-rows-before-survival-weights", "t,e,g,w\n1,1,a,\n",
     {"family": "survival", "weights": "w"},
     ("DataError", "no usable rows after rejecting invalid ones")),
    ("one-level", "y,g\n1,a\n2, a\n", {}, ("DataError", "need at least 2 factor levels")),
    ("one-level-before-survival-weights", "t,e,g,w\n1,1,a,1\n",
     {"family": "survival", "weights": "w"},
     ("DataError", "need at least 2 factor levels")),
    ("survival-weights", "t,e,g,w\n1,1,a,1\n2,0,b,2\n", {"family": "survival", "weights": "w"},
     ("DataError", "weights are not supported for survival data")),
    # a column named in two roles: both read the same cells
    ("response-is-factor", "y,g\n0,1\n0,2\n0,x\n0, 1\n", {"response": ["g"]},
     _ok("gaussian1d", [1.0, 2.0, 1.0], None, "121", _meta(4, [3], ("1", "2")),
         levels=("1", "2"))),
    ("weights-are-response", "y,g\n1,a\n2,b\nna,a\n0.5,b\n", {"weights": "y"},
     _ok("gaussian1d", [1.0, 2.0, 0.5], [1.0, 2.0, 0.5], "abb", _meta(4, [3]))),
    ("weights-are-response-raises", "y,g\n1,a\n-1,b\n", {"weights": "y"},
     ("DataError", "row 2: weights must be positive")),
    # file and column errors
    ("empty-file", "", {}, ("DataError", "{path}: empty file")),
    ("undecodable-byte", UNDECODABLE, {},
     ("DataError", "cannot read {path}: line 3: 'utf-8' codec can't decode byte 0xe9 in "
                   "position 10: invalid continuation byte")),
    # lines end as csv ends them, the last one before the byte a lone CR
    ("undecodable-byte-after-lone-cr", b"y,g\r\n1,a\n2,b\r\xe9,c\n", {},
     ("DataError", "cannot read {path}: line 4: 'utf-8' codec can't decode byte 0xe9 in "
                   "position 13: invalid continuation byte")),
    ("oversized-cell", OVERSIZED, {},
     ("DataError", "cannot read {path}: line 3: field larger than field limit (131072)")),
    ("blank-header", "\ny,g\n1,a\n2,b\n", {}, ("DataError", "missing columns: ['y', 'g']")),
    ("missing-column", "y,g\n1,a\n", {"weights": "w"}, ("DataError", "missing columns: ['w']")),
    ("survival-needs-time", "y,g\n1,a\n", {"family": "survival", "time": None},
     ("ConfigError", "survival needs --time and --event columns")),
    ("binomial-one-response", "y,g\n1,a\n", {"family": "binomial", "response": ["y", "y"]},
     ("ConfigError", "binomial takes exactly one --response column")),
    ("response-required", "y,g\n1,a\n", {"response": None},
     ("ConfigError", "--response is required for this family")),
]


def _ingest_args(path, flags):
    import argparse

    survival = flags.get("family") == "survival"
    args = argparse.Namespace(
        input=str(path), family="gaussian", factor="g", weights=None,
        response=None if survival else ["y"],
        time="t" if survival else None, event="e" if survival else None,
    )
    for key, value in flags.items():
        setattr(args, key, value)
    return args


# block sizes, in characters and in rows, that put a block boundary at every
# line or every few lines
SMALL_BLOCKS = [(1, 1), (8, 2), (30, 3)]


def _small_blocks(monkeypatch, blocks):
    """Read the body ``blocks[0]`` characters and ``blocks[1]`` csv rows at a
    time; whole-file sizes when ``blocks`` is None."""
    from factorfuse import cli

    if blocks:
        monkeypatch.setattr(cli, "_BLOCK_CHARS", blocks[0])
        monkeypatch.setattr(cli, "_CSV_ROWS", blocks[1])


@pytest.mark.parametrize("text,flags,expected,blocks", [
    (*row[1:], blocks) for row in INGEST_TABLE for blocks in [None, *SMALL_BLOCKS]
], ids=[row[0] + (f"-blocks{blocks[0]}" if blocks else "")
        for row in INGEST_TABLE for blocks in [None, *SMALL_BLOCKS]])
def test_ingest_table(text, flags, expected, blocks, tmp_path, monkeypatch):
    import numpy as np

    from factorfuse import cli

    _small_blocks(monkeypatch, blocks)
    path = tmp_path / "in.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    args = _ingest_args(path, flags)
    if len(expected) == 2:
        error, message = expected
        with pytest.raises(getattr(cli, error)) as exc:
            cli._build_dataset(args)
        assert type(exc.value) is getattr(cli, error)
        assert str(exc.value) == message.format(path=path)
        return
    kind, values, weights, labels, levels, meta = expected
    data, grouping, got_meta = cli._build_dataset(args)
    assert data.kind == kind
    want = np.array(values, dtype=float)
    assert data.values.shape == want.shape and data.values.tobytes() == want.tobytes()
    if weights is None:
        assert data.weights is None
    else:
        assert data.weights.tobytes() == np.array(weights, dtype=float).tobytes()
    assert grouping.labels == labels and grouping.levels == levels
    assert got_meta == meta


# ---------------------------------------------------------------------------
# streaming ingest against the whole-file reference on generated CSV texts

_MISSING_CELLS = ["", "  ", "na", "NA", " nA ", "nan", "NaN ", "null", "NULL", " None", "none"]
_CELLS = {
    "y": ["0", "1", "0", "1", "0", "1", "2", "1.5", " 3 ", "1e3", "1_0", "inf", "-0", "x"],
    "t": ["1", "2", " 2.5 ", "1e3", "3", "4", "5", "0"],
    "e": ["0", "1", " 1 ", "1.0", "0", "1", "0", "2"],
    "w": ["1", "2", " 0.5 ", "3", "1", "2", "-1"],
    "g": ["a", "b", " a", "b ", "a)(b", "c,d", 'e"f', "g\nh", "i\r\nj", "k\rl",
          "longname", "longnome"],
}
_INGEST_FLAGS = {
    "gaussian": {"response": ["y"]},
    "gaussianNd": {"response": ["y", "y2"]},
    "binomial": {"family": "binomial", "response": ["y"]},
    "survival": {"family": "survival", "response": None, "time": "t", "event": "e"},
    "survival-no-event": {"family": "survival", "response": None, "time": "t", "event": None},
    "binomial-two": {"family": "binomial", "response": ["y", "y2"]},
}


def _csv_line(cells, quote_all, ending):
    quoted = ('"' + c.replace('"', '""') + '"' if quote_all or any(ch in c for ch in ',"\r\n')
              else c for c in cells)
    return ",".join(quoted) + ending


@st.composite
def _ingest_cases(draw):
    flags = dict(family="gaussian", response=None, time=None, event=None, factor="g",
                 weights=draw(st.sampled_from([None, "w"])))
    # mostly valid flags: the two bad ones end before any row is checked
    flags.update(_INGEST_FLAGS[draw(st.sampled_from(
        ["gaussian", "gaussianNd", "binomial", "survival"] * 4
        + ["survival-no-event", "binomial-two"]))])
    named = [*(flags["response"] or [flags["time"], flags["event"]]), "g", flags["weights"]]
    header = draw(st.permutations([c for c in named if c]))
    header += draw(st.lists(st.sampled_from(["y", "y2", "t", "e", "g", "w", "z"]), max_size=2))
    if draw(st.sampled_from([False] * 9 + [True])):  # a named column goes missing
        del header[draw(st.integers(0, len(header) - 1))]
    if draw(st.sampled_from([False] * 19 + [True])):
        return flags, ""
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [_csv_line(header, draw(st.booleans()), draw(endings))]
    for _ in range(draw(st.sampled_from([*range(4, 17), 1, 0]))):
        shape = draw(st.sampled_from(["cells"] * 6 + ["blank", "spaces"]))
        if shape != "cells":
            lines.append(("" if shape == "blank" else "  ") + draw(endings))
            continue
        width = max(1, len(header) + draw(st.integers(-2, 2)))
        pools = [_CELLS.get(h.rstrip("2"), _CELLS["g"]) for h in (header + [""] * width)[:width]]
        cells = [draw(st.sampled_from(pool * 3 + _MISSING_CELLS)) for pool in pools]
        lines.append(_csv_line(cells, draw(st.booleans()), draw(endings)))
    return flags, "".join(lines)


def _ingest_outcome(build, args):
    try:
        data, grouping, meta = build(args)
    except FactorFuseError as exc:
        return type(exc), str(exc)
    weights = None if data.weights is None else data.weights.tobytes()
    return (data.kind, data.values.shape, data.values.tobytes(), weights,
            grouping.labels, grouping.levels, meta)


@pytest.fixture(scope="module")
def ingest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "in.csv"


@settings(max_examples=600, deadline=None)
@given(case=_ingest_cases(), blocks=st.sampled_from([None, *SMALL_BLOCKS]))
def test_streaming_ingest_matches_whole_file_reference(case, blocks, ingest_path):
    import argparse

    from factorfuse import cli

    flags, text = case
    ingest_path.write_bytes(text.encode("utf-8"))
    args = argparse.Namespace(input=str(ingest_path), **flags)
    with pytest.MonkeyPatch.context() as mp:
        _small_blocks(mp, blocks)
        got = _ingest_outcome(cli._build_dataset, args)
    assert got == _ingest_outcome(reference_build_dataset, args)


# what needs ``csv`` after one or more plain blocks, and faults on the header
# line: (id, file bytes, flags, the message of the error it raises or None)
_PLAIN = "".join(f"{i}.5,{'ab'[i % 3 % 2]}\n" for i in range(200))  # lines 2-201
_FIELD_LIMIT = "field larger than field limit (131072)"
BLOCK_BOUNDARY_CASES = [
    ("quoted-label-with-line-break", "y,g\n" + _PLAIN + '7,"c\nd"\n8,b\n' + _PLAIN, {}, None),
    ("quoted-label-with-comma-then-crlf",
     "y,g\n" + _PLAIN + '7,"c,d"\n' + _PLAIN.replace("\n", "\r\n"), {}, None),
    ("quoted-oversized-cell", "y,g\n" + _PLAIN + '2,"' + "x" * 200_000 + '"\n3,b\n', {},
     f"cannot read {{path}}: line 202: {_FIELD_LIMIT}"),
    ("bare-oversized-cell", "y,g\n" + _PLAIN + "2," + "x" * 200_000 + "\n3,b\n", {},
     f"cannot read {{path}}: line 202: {_FIELD_LIMIT}"),
    # Python 3.10's csv raises on a NUL; later versions read it as part of a cell
    ("nul", "y,g\n" + _PLAIN + "2,b\0c\n" + _PLAIN, {}, None),
    ("undecodable-byte-past-first-chunk", ("y,g\n" + _PLAIN * 6).encode() + b"2,\xe9b\n", {},
     "cannot read {path}: line 1202: 'utf-8' codec can't decode byte 0xe9 in position 8946: "
     "invalid continuation byte"),
    ("oversized-header-cell", '"' + "y" * 200_000 + '",g\n' + _PLAIN, {},
     f"cannot read {{path}}: line 1: {_FIELD_LIMIT}"),
    ("nul-in-header", "y,g\0\n" + _PLAIN, {}, None),
    ("two-line-header", 'y,g,"z\nz"\n' + _PLAIN.replace("\n", ",q\n")
     + "2,b," + "x" * 200_000 + "\n", {}, f"cannot read {{path}}: line 203: {_FIELD_LIMIT}"),
]


@pytest.mark.parametrize("text,flags,message", [row[1:] for row in BLOCK_BOUNDARY_CASES],
                         ids=[row[0] for row in BLOCK_BOUNDARY_CASES])
@pytest.mark.parametrize("blocks", [*SMALL_BLOCKS, None], ids=str)
def test_ingest_after_plain_blocks(text, flags, message, blocks, tmp_path, monkeypatch):
    from factorfuse import cli

    path = tmp_path / "in.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    args = _ingest_args(path, flags)
    _small_blocks(monkeypatch, blocks)
    got = _ingest_outcome(cli._build_dataset, args)
    assert got == _ingest_outcome(reference_build_dataset, args)
    if message is not None:
        assert got == (cli.DataError, message.format(path=path))


# what a block read as one string must read as csv does: characters that
# ``str.splitlines`` breaks lines at and csv does not, cells and lines about
# the field size limit, and where blocks and files end: (id, file text, or its
# text for the block size, the message of the error it raises or None)
_LIMIT = csv.field_size_limit()
_BREAKS = "\u2028\x85\v\f\x1c"
_BREAK_ROWS = "".join(f'{i}.5,a{c}b,"q"\n{i}.5,"c{c}d",q\n{i}.5,e{c}f,q\n'
                      for i, c in enumerate(_BREAKS))


def _cr_lf_across_blocks(chars):
    """A first body line whose ``\\r`` is the block's last character, then
    CRLF lines and a cell over the limit on line 203."""
    first = f"1,{'a' * (chars - 3)}\r\n" if chars > 3 else "\r\n"
    return ("y,g\n" + first + _PLAIN.replace("\n", "\r\n")
            + "2," + "x" * (_LIMIT + 1) + "\r\n")


ONE_STRING_CASES = [
    ("line-breaks-beside-quotes", "y,g,z\n" + _BREAK_ROWS + _PLAIN.replace("\n", ",q\n"), None),
    ("line-breaks-then-oversized-cell", "y,g,z\n" + _BREAK_ROWS + _PLAIN.replace("\n", ",q\n")
     + "2,b," + "x" * (_LIMIT + 1) + "\n", f"cannot read {{path}}: line 217: {_FIELD_LIMIT}"),
    ("oversized-first-cell-in-top-up", "y,g\n" + _PLAIN + "x" * (_LIMIT + 1) + ",b\n3,a\n",
     f"cannot read {{path}}: line 202: {_FIELD_LIMIT}"),
    ("first-cell-at-the-limit", "y,g\n" + _PLAIN + "x" * _LIMIT + ",b\n3,a\n", None),
    ("last-cell-at-the-limit", "y,g\n" + _PLAIN + "2," + "x" * _LIMIT + "\n3,a\n", None),
    ("long-line-of-short-cells",
     "y,g,z\n" + _PLAIN.replace("\n", ",q\n") + "2," + "b" * (_LIMIT // 2) + ","
     + "z" * (_LIMIT // 2) + "\n3,a,q\n", None),
    ("last-line-without-end", "y,g\n" + _PLAIN + "7,c", None),
    ("last-line-without-end-empty-cell", "y,g,z\n" + _PLAIN.replace("\n", ",q\n") + "7,c,", None),
    ("cr-lf-across-blocks", _cr_lf_across_blocks,
     f"cannot read {{path}}: line 203: {_FIELD_LIMIT}"),
]


@pytest.mark.parametrize("text,message", [row[1:] for row in ONE_STRING_CASES],
                         ids=[row[0] for row in ONE_STRING_CASES])
@pytest.mark.parametrize("blocks", [*SMALL_BLOCKS, None], ids=str)
def test_ingest_one_string_blocks(text, message, blocks, tmp_path, monkeypatch):
    from factorfuse import cli

    _small_blocks(monkeypatch, blocks)
    if callable(text):
        text = text(cli._BLOCK_CHARS)
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    args = _ingest_args(path, {})
    got = _ingest_outcome(cli._build_dataset, args)
    assert got == _ingest_outcome(reference_build_dataset, args)
    if message is not None:
        assert got == (cli.DataError, message.format(path=path))
    else:
        assert len(got) > 2  # read, not raised


# ---------------------------------------------------------------------------
# the JSON writer


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _json_text(obj) -> str:
    return "".join(_json_parts(obj))


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\t/éü€😀')))
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2250738585072014e-308]),
    st.floats().map(np.float64),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(obj=_VALUES)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == _dumps(obj)


@settings(max_examples=200, deadline=None)
@given(shared=_VALUES, key=_TEXT)
def test_json_writer_matches_json_dumps_on_shared_objects(shared, key):
    # one object at two depths, and again at each: its text is reused only at
    # the depth it was written at
    obj = {key: shared, "a": [shared, {"b": shared, key: [shared, shared]}], "c": [[], {}, shared]}
    assert _json_text(obj) == _dumps(obj)


@pytest.mark.parametrize("obj", [
    np.int64(1), [1, np.int64(2)], {"a": {"b": np.float32(1.0)}}, {"a": {1, 2}}, [object()],
    {"a": b"bytes"}, [np.bool_(True)],
])
def test_json_writer_raises_where_json_dumps_does(obj):
    with pytest.raises(TypeError):
        _dumps(obj)
    with pytest.raises(TypeError):
        _json_text(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}], {1.5: 0, "b": 1}])
def test_json_writer_takes_string_keys_only(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


@pytest.mark.parametrize("method", ["adaptive", "fast-fixed"])
def test_result_json_is_json_dumps_text_with_one_entry_per_cluster(method, tmp_path, monkeypatch):
    from factorfuse import cli

    written = {}
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json",
                        lambda path, obj: (written.setdefault(path.name, obj), write_json(path, obj)))
    fx = tmp_path / "fx"
    assert run(["fixture", "--kind", "gaussian", "--k", 12, "--n-per-group", 4, "--seed", 3,
                "--out", fx]) == 0
    assert run(["merge", "--input", fx / "data.csv", "--family", "gaussian", "--response", "y",
                "--factor", "group", "--method", method, "--out", tmp_path / "o"]) == 0
    for path in (fx / "truth.json", tmp_path / "o" / "result.json"):
        text = path.read_text()
        assert text == _dumps(json.loads(text)) + "\n"
    # 12 levels and 11 merges make 23 clusters, each entered once
    entries = {id(c) for s in written["result.json"]["path"]["steps"] for c in s["clusters"]}
    assert len(entries) == 23
