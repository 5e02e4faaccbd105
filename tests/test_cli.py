"""CLI end-to-end runs, exit codes, determinism, and artifact round-trips."""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

from factorfuse.cli import (
    abbreviate_levels,
    format_history_csv,
    main,
)
from factorfuse.errors import IncompatiblePanel
from factorfuse.viz import RESPONSE_PANELS, check_panel_compat


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


def test_exit_2_on_bad_fixture_params(tmp_path):
    rc = run(["fixture", "--kind", "gaussian", "--k", "1", "--n-per-group", "5",
              "--out", tmp_path / "o"])
    assert rc == 2


def test_exit_3_on_missing_column(gaussian_csv, tmp_path):
    rc = run(["merge", "--input", gaussian_csv, "--family", "gaussian",
              "--response", "nope", "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 3


def test_exit_3_on_single_level(tmp_path):
    p = tmp_path / "one.csv"
    write_csv(p, ("y", "group"), [(1.0, "a"), (2.0, "a"), (3.0, "a")])
    rc = run(["merge", "--input", p, "--family", "gaussian", "--response", "y",
              "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 3


def test_exit_3_on_nonbinary_binomial(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, ("y", "group"), [(1, "a"), (2, "a"), (0, "b"), (1, "b")])
    rc = run(["merge", "--input", p, "--family", "binomial", "--response", "y",
              "--factor", "group", "--out", tmp_path / "o"])
    assert rc == 3


def test_exit_4_on_monotone_cox(tmp_path):
    # perfectly separated survival groups drive the coefficient to the cap
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
