"""Command-line front end: ``merge``, ``fixture`` and ``bench`` subcommands.

Exit codes: 0 success, 2 configuration error, 3 data error (missing
columns, empty levels, out-of-domain values), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    BINOMIAL,
    GAUSSIAN_1D,
    GAUSSIAN_ND,
    SURVIVAL,
    Grouping,
    ResponseData,
)
from .engine import STRATEGIES, merge_factors
from .errors import (
    FactorFuseError,
    MonotoneLikelihood,
    NoEvents,
    NonConvergence,
    NumericalInconsistency,
    SingularCovariance,
)
from .families import FAMILIES
from .fixtures import make_fixture
from .inference import (
    SelectionCriterion,
    cut_step,
    gic_profile,
    global_null_test,
    merging_history,
    optimal_partition_table,
)
from .viz import ALL_PANELS, PlotSpec, render_gic_svg, render_merging_path_svg

SCHEMA_VERSION = 1

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_MISSING = {"", "na", "nan", "null", "none"}

_NUMERICAL_ERRORS = (
    NonConvergence,
    MonotoneLikelihood,
    SingularCovariance,
    NumericalInconsistency,
    NoEvents,
)


class ConfigError(FactorFuseError):
    pass


class DataError(FactorFuseError):
    pass


# ------------------------------------------------------------------ #
# Level-name abbreviation
# ------------------------------------------------------------------ #

_VOWELS = set("aeiouAEIOU")


def _abbreviate_one(name: str) -> str:
    if len(name) <= 6:
        return name
    picked = [0]
    consonants = [i for i in range(1, len(name)) if name[i] not in _VOWELS]
    vowels = [i for i in range(1, len(name)) if name[i] in _VOWELS]
    for i in consonants:
        if len(picked) >= 4:
            break
        picked.append(i)
    for i in vowels:
        if len(picked) >= 4:
            break
        picked.append(i)
    return "".join(name[i] for i in sorted(picked))


def abbreviate_levels(levels) -> dict[str, str]:
    """Full name -> short display name, with numeric disambiguation."""
    out: dict[str, str] = {}
    used: dict[str, int] = {}
    for lv in levels:
        short = _abbreviate_one(lv)
        if short in used:
            used[short] += 1
            short = f"{short}{used[short]}"
        else:
            used[short] = 1
        out[lv] = short
    return out


# ------------------------------------------------------------------ #
# CSV ingestion
# ------------------------------------------------------------------ #


def _parse_float(raw: str) -> float | None:
    raw = raw.strip()
    if raw.lower() in _MISSING:
        return None
    try:
        v = float(raw)
    except ValueError:
        return None
    if v != v:  # NaN
        return None
    return v


def _load_csv(path: Path) -> tuple[list[str], list[dict]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file")
            rows = list(reader)
            return list(reader.fieldnames), rows
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _build_dataset(args) -> tuple[ResponseData, Grouping, dict]:
    header, rows = _load_csv(Path(args.input))

    if args.family == "survival":
        if not args.time or not args.event:
            raise ConfigError("survival needs --time and --event columns")
        needed = [args.time, args.event, args.factor]
        response_cols = []
    else:
        response_cols = args.response or []
        if not response_cols:
            raise ConfigError("--response is required for this family")
        if args.family == "binomial" and len(response_cols) != 1:
            raise ConfigError("binomial takes exactly one --response column")
        needed = [*response_cols, args.factor]
    if args.weights:
        needed.append(args.weights)
    missing_cols = [c for c in needed if c not in header]
    if missing_cols:
        raise DataError(f"missing columns: {missing_cols}")

    values, labels, weights, rejected = [], [], [], []
    for i, row in enumerate(rows, start=1):
        lab = (row.get(args.factor) or "").strip()
        if not lab or lab.lower() in _MISSING:
            rejected.append(i)
            continue
        if args.family == "survival":
            t = _parse_float(row.get(args.time) or "")
            e = _parse_float(row.get(args.event) or "")
            if t is None or e is None:
                rejected.append(i)
                continue
            if t <= 0 or e not in (0.0, 1.0):
                raise DataError(f"row {i}: invalid survival time/event pair")
            vals = [t, e]
        else:
            vals = []
            ok = True
            for c in response_cols:
                v = _parse_float(row.get(c) or "")
                if v is None:
                    ok = False
                    break
                vals.append(v)
            if not ok:
                rejected.append(i)
                continue
            if args.family == "binomial" and vals[0] not in (0.0, 1.0):
                raise DataError(f"row {i}: binomial response must be 0 or 1")
        if args.weights:
            w = _parse_float(row.get(args.weights) or "")
            if w is None:
                rejected.append(i)
                continue
            if w <= 0:
                raise DataError(f"row {i}: weights must be positive")
            weights.append(w)
        labels.append(lab)
        values.append(vals)

    if not values:
        raise DataError("no usable rows after rejecting invalid ones")

    distinct = sorted(set(labels))
    if len(distinct) < 2:
        raise DataError("need at least 2 factor levels")

    abbrev = abbreviate_levels(distinct)
    short_labels = tuple(abbrev[lab] for lab in labels)

    if args.family == "survival":
        kind = SURVIVAL
        arr = np.asarray(values, dtype=float)
    elif args.family == "binomial":
        kind = BINOMIAL
        arr = np.asarray(values, dtype=float)[:, 0]
    else:
        arr = np.asarray(values, dtype=float)
        if arr.shape[1] == 1:
            kind, arr = GAUSSIAN_1D, arr[:, 0]
        else:
            kind = GAUSSIAN_ND
    w = np.asarray(weights, dtype=float) if args.weights else None
    if kind == SURVIVAL and w is not None:
        raise DataError("weights are not supported for survival data")

    data = ResponseData(kind, arr, w)
    grouping = Grouping(short_labels, tuple(sorted(abbrev.values())))
    meta = {
        "rows": len(rows),
        "accepted": len(values),
        "rejectedRows": rejected,
        "levelNames": {abbrev[lv]: lv for lv in distinct},
    }
    return data, grouping, meta


# ------------------------------------------------------------------ #
# Output serialization
# ------------------------------------------------------------------ #


def format_history_csv(history_rows: list[dict]) -> str:
    """Render history rows (result.json schema) as the history.csv text."""
    lines = ["step,groupA,groupB,model,pvalVsFull,pvalVsPrevious"]
    for r in history_rows:
        lines.append(
            f'{r["step"]},{r["groupA"]},{r["groupB"]},'
            f'{r["model"]:.4f},{r["pvalVsFull"]:.4f},{r["pvalVsPrevious"]:.4f}'
        )
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


def cmd_merge(args) -> int:
    data, grouping, meta = _build_dataset(args)
    criterion = SelectionCriterion(args.criterion, args.value)
    spec = PlotSpec(
        panels=ALL_PANELS,
        response_panel=args.response_panel or FAMILIES[data.kind].panels[0],
        nodes_spacing=args.nodes_spacing,
        panel_grid=args.panel_grid,
        show_split=args.show_split,
        penalty=args.penalty,
        title=args.title,
    )

    path = merge_factors(data, grouping, args.method)
    history = merging_history(path)
    gic = gic_profile(path, spec.penalty)
    stat, df, pvalue = global_null_test(path)
    table = optimal_partition_table(path, criterion)
    chosen = cut_step(path, criterion)

    level_names = meta["levelNames"]
    history_rows = [
        {
            "step": r.step,
            "groupA": r.group_a,
            "groupB": r.group_b,
            "model": r.loglik,
            "pvalVsFull": r.pval_vs_full,
            "pvalVsPrevious": r.pval_vs_previous,
        }
        for r in history
    ]
    result = {
        "schemaVersion": SCHEMA_VERSION,
        "config": {
            "input": str(args.input),
            "family": args.family,
            "method": args.method,
            "criterion": {"kind": criterion.kind, "value": criterion.value},
            "penalty": spec.penalty,
            "responsePanel": spec.response_panel,
        },
        "input": meta,
        "path": {
            "strategy": path.strategy,
            "evaluations": path.evaluations,
            "evaluationBreakdown": path.evaluation_breakdown,
            "ordering": list(path.ordering),
            "steps": [
                {
                    "step": i,
                    "groupA": s.merged_pair[0] if s.merged_pair else "",
                    "groupB": s.merged_pair[1] if s.merged_pair else "",
                    "loglik": s.model.loglik,
                    "clusterCount": s.model.partition.size,
                    "clusters": [
                        {"label": c.label, "members": list(c.members)}
                        for c in s.model.partition.clusters
                    ],
                    "flags": list(s.model.flags),
                }
                for i, s in enumerate(path.steps)
            ],
        },
        "history": history_rows,
        "gic": {
            "penalty": gic.penalty,
            "argminStep": gic.argmin_step,
            "rows": [
                {
                    "step": r.step,
                    "loglik": r.loglik,
                    "clusterCount": r.cluster_count,
                    "gic": r.gic,
                }
                for r in gic.rows
            ],
        },
        "globalTest": {"statistic": stat, "df": df, "pvalue": pvalue},
        "selectedStep": chosen,
        "optimalPartition": [
            {"orig": level_names[abbr], "abbrev": f"({abbr})", "pred": pred}
            for abbr, pred in table
        ],
    }

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "result.json", json.dumps(result, sort_keys=True, indent=2) + "\n")
    _write(out / "history.csv", format_history_csv(history_rows))
    partition_lines = ["orig,abbrev,pred"]
    for row in result["optimalPartition"]:
        partition_lines.append(f'{row["orig"]},{row["abbrev"]},{row["pred"]}')
    _write(out / "partition.csv", "\n".join(partition_lines) + "\n")
    _write(
        out / "merging_path.svg",
        render_merging_path_svg(path, history, gic, data, grouping, spec),
    )
    _write(out / "gic.svg", render_gic_svg(gic))
    print(f"wrote results for {path.k} levels to {out}")
    return 0


def cmd_fixture(args) -> int:
    if args.k < 2 or args.n_per_group < 2:
        raise ConfigError("fixture needs k >= 2 and n-per-group >= 2")
    kw = {}
    if args.clusters:
        kw["n_clusters"] = args.clusters
    fx = make_fixture(args.kind, args.k, args.n_per_group, args.separation, args.seed, **kw)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    lines = []
    if fx.data.kind == SURVIVAL:
        lines.append("time,event,group")
        for (t, e), g in zip(fx.data.values, fx.grouping.labels):
            lines.append(f"{float(t)!r},{int(e)},{g}")
    elif fx.data.kind == GAUSSIAN_ND:
        d = fx.data.values.shape[1]
        lines.append(",".join(f"y{j + 1}" for j in range(d)) + ",group")
        for row, g in zip(fx.data.values, fx.grouping.labels):
            lines.append(",".join(repr(float(v)) for v in row) + f",{g}")
    else:
        lines.append("y,group")
        for v, g in zip(fx.data.values, fx.grouping.labels):
            if fx.data.kind == BINOMIAL:
                lines.append(f"{int(v)},{g}")
            else:
                lines.append(f"{float(v)!r},{g}")
    _write(out / "data.csv", "\n".join(lines) + "\n")

    truth = {
        "kind": args.kind,
        "k": args.k,
        "nPerGroup": args.n_per_group,
        "separation": args.separation,
        "seed": args.seed,
        "clusters": [list(c) for c in fx.planted],
    }
    _write(out / "truth.json", json.dumps(truth, sort_keys=True, indent=2) + "\n")
    print(f"wrote fixture with {len(fx.planted)} planted clusters to {out}")
    return 0


def cmd_bench(args) -> int:
    ks = []
    k = 4
    while k <= args.kmax:
        ks.append(k)
        k *= 2
    if not ks:
        raise ConfigError("--kmax must be at least 4")
    lines = ["strategy,k,evaluations,wallMillis"]
    for k in ks:
        for strategy in STRATEGIES:
            for rep in range(args.repeats):
                fx = make_fixture("gaussian", k, args.n_per_group, 1.0, seed=rep)
                t0 = time.perf_counter()
                path = merge_factors(fx.data, fx.grouping, strategy)
                millis = (time.perf_counter() - t0) * 1000.0
                lines.append(f"{strategy},{k},{path.evaluations},{millis:.3f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "bench.csv", "\n".join(lines) + "\n")
    print(f"wrote benchmark over k={ks} to {out}")
    return 0


# ------------------------------------------------------------------ #
# Argument parsing
# ------------------------------------------------------------------ #


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="factorfuse",
        description="Merge factor levels along a likelihood-based path",
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("merge", help="run the merging pipeline on a CSV file")
    m.add_argument("--input", required=True)
    m.add_argument("--family", required=True, choices=["gaussian", "binomial", "survival"])
    m.add_argument("--response", action="append",
                   help="response column; repeat for multi-dimensional gaussian")
    m.add_argument("--time", help="survival time column")
    m.add_argument("--event", help="survival event (0/1) column")
    m.add_argument("--factor", required=True)
    m.add_argument("--weights")
    m.add_argument("--method", default="fast-adaptive", choices=list(STRATEGIES))
    m.add_argument("--criterion", default="gic", choices=["gic", "pvalue", "loglik"])
    m.add_argument("--value", type=float, default=2.0)
    m.add_argument("--response-panel", dest="response_panel")
    m.add_argument("--nodes-spacing", dest="nodes_spacing", default="equal",
                   choices=["equal", "effects"])
    m.add_argument("--panel-grid", dest="panel_grid", action="store_true")
    m.add_argument("--show-split", dest="show_split", action="store_true")
    m.add_argument("--penalty", type=float, default=2.0)
    m.add_argument("--title", default="")
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_merge)

    f = sub.add_parser("fixture", help="generate a synthetic dataset")
    f.add_argument("--kind", required=True,
                   choices=["gaussian", "gaussianNd", "binomial", "survival"])
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--n-per-group", dest="n_per_group", type=int, required=True)
    f.add_argument("--separation", type=float, default=1.0)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--clusters", type=int)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fixture)

    b = sub.add_parser("bench", help="evaluation-count and timing benchmark")
    b.add_argument("--kmax", type=int, default=16)
    b.add_argument("--n-per-group", dest="n_per_group", type=int, default=10)
    b.add_argument("--repeats", type=int, default=1)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FactorFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
