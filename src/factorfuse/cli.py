"""Command-line front end: ``merge``, ``fixture`` and ``bench`` subcommands.

Exit codes: 0 success, 2 configuration error, 3 data error (missing
columns, empty levels, out-of-domain values), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from functools import cache, partial
from itertools import chain
from pathlib import Path

import numpy as np

from .data import (
    BINOMIAL,
    DOMAINS,
    GAUSSIAN_1D,
    GAUSSIAN_ND,
    SURVIVAL,
    Grouping,
    ResponseData,
)
from .engine import STRATEGIES, merge_factors
from .errors import (
    FactorFuseError,
    IncompatiblePanel,
    MonotoneLikelihood,
    NoEvents,
    NonConvergence,
    NumericalInconsistency,
    SingularCovariance,
    WeightsNotSupported,
)
from .families import FAMILIES
from .fixtures import FIXTURE_KINDS, make_fixture
from .inference import (
    CRITERIA,
    SelectionCriterion,
    check_penalty,
    cut_step,
    gic_profile,
    global_null_test,
    merging_history,
    optimal_partition_table,
)
from .viz import (ALL_PANELS, PlotSpec, check_panel_compat, render_gic_svg,
                  render_merging_path_svg)

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
    # the first character, then the first three later consonants, topped up
    # with the first later vowels; kept in name order
    consonants = [i for i in range(1, len(name)) if name[i] not in _VOWELS]
    vowels = [i for i in range(1, len(name)) if name[i] in _VOWELS]
    return "".join(name[i] for i in sorted([0, *(consonants + vowels)[:3]]))


def abbreviate_levels(levels) -> dict[str, str]:
    """Full name -> short display name.  The first level with a given short
    name keeps it; later ones get the lowest numbered suffix from 2 up that no
    level's short name takes."""
    shorts = [_abbreviate_one(lv) for lv in levels]
    taken = set(shorts)
    out: dict[str, str] = {}
    suffix: dict[str, int] = {}
    for lv, short in zip(levels, shorts):
        if short in suffix:
            while f"{short}{suffix[short]}" in taken:
                suffix[short] += 1
            short = f"{short}{suffix[short]}"
            taken.add(short)
        else:
            suffix[short] = 2
        out[lv] = short
    return out


# ------------------------------------------------------------------ #
# CSV ingestion
# ------------------------------------------------------------------ #


def _parse_float(raw: str) -> float:
    """The number in a cell; NaN where the cell is missing or not a number
    (``float`` gives NaN for "nan" and fails on the other missing tokens)."""
    try:
        return float(raw.strip())
    except ValueError:
        return np.nan


# Characters read at a time, topped up to a line end; about 3,000 rows.  Each
# block's cells become numbers and level codes before the next block is read,
# so no cell outlives its block.  Half the default ``csv.field_size_limit()``:
# only a block that its top-up made longer than the limit can hold a longer cell.
_BLOCK_CHARS = 1 << 16
# Rows whose cells are held at a time once the rest of the file goes through
# ``csv.reader``
_CSV_ROWS = 1 << 14
_FIXTURE_ROWS = 1 << 14  # rows of a fixture's data.csv formatted and written at a time


def _read_block(fh) -> str:
    """The next ``_BLOCK_CHARS`` characters of ``fh`` and the rest of their last line."""
    text = fh.read(_BLOCK_CHARS)
    return text if text.endswith("\n") else text + fh.readline()


def _plain_cells(text: str, width: int, limit: int) -> list[str] | None:
    """The cells of the lines of ``text``, row after row, split at commas,
    when ``csv`` would read each line as ``width`` cells the same way: no line
    holds a quote, a carriage return or a NUL, no cell is longer than
    ``limit``, and each line splits into exactly ``width`` cells.  None
    otherwise, and with fewer than two columns, where a blank line would
    split into one empty cell.  A line's last cell keeps its line end: the
    text is split once, at commas and after each line end."""
    if width < 2 or '"' in text or "\r" in text or "\0" in text:
        return None
    cells = text.replace("\n", "\n,").split(",")
    ends = text.count("\n")
    if text.endswith("\n"):
        del cells[-1]  # the empty cell after the last line end
    # a line end always ends a cell; with ``width`` cells to every line, each
    # line end falls in the last column
    if (len(cells) != width * (ends + (not text.endswith("\n")))
            or "".join(cells[width - 1::width]).count("\n") != ends
            or len(text) > limit and max(map(len, cells)) > limit):
        return None
    return cells


def _read_columns(path: Path, feeds: list) -> tuple[int, dict[str, int]]:
    """Give each ``(name, feed)`` of ``feeds`` the cells of the column
    ``name``, one list per block of rows, if the header has that column;
    return the number of rows and the header's column index.

    The header is read with ``csv.reader``, the body in blocks of whole lines
    (:func:`_read_block`).  Plain blocks (:func:`_plain_cells`) are split at
    commas; from the first block that is not plain, the rest of the file goes
    through one ``csv.reader``, which breaks lines where the file does.  Blank
    lines are dropped, as ``csv.DictReader`` drops them, and take no row
    number.  A repeated header name reads its last column, and a row too short
    to reach a column reads an empty cell there.
    """
    offset = 0  # lines read before ``reader``'s first, for its error messages
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            index = {h: i for i, h in enumerate(header)}
            picks = [(index[name], feed) for name, feed in feeds if name in index]
            width, limit, n = len(header), csv.field_size_limit(), 0
            text = _read_block(fh)
            while text and (cells := _plain_cells(text, width, limit)) is not None:
                for j, feed in picks:
                    feed(cells[j::width])
                n += len(cells) // width
                text = _read_block(fh)
            offset, reader = reader.line_num + n, csv.reader(chain(io.StringIO(text, newline=""), fh))
            # each row's cells go to column lists at once, so no row list
            # outlives its line (a batch of live rows sets off the collector)
            cols = [[] for _ in picks]
            appends = [(col.append, j) for col, (j, _) in zip(cols, picks)]
            need = max((j + 1 for j, _ in picks), default=0)
            full = n + _CSV_ROWS
            for row in reader:
                if len(row) < need:
                    if not row:
                        continue
                    row += [""] * (need - len(row))
                for append, j in appends:
                    append(row[j])
                n += 1
                if n == full:
                    _feed_columns(picks, cols)
                    full += _CSV_ROWS
            _feed_columns(picks, cols)
            return n, index
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {_undecodable(path) or exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"cannot read {path}: line {offset + reader.line_num}: {exc}") from exc


def _undecodable(path: Path) -> str | None:
    """The decode error of the first bytes of ``path`` that are not UTF-8, by
    file offset and by line, as csv ends lines (LF, CRLF or a lone CR); None
    if the file no longer reads so.  Only this error path reads it whole."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return f"line {line}: {exc}"
    except OSError:
        return None


def _feed_columns(picks: list, cols: list[list[str]]):
    """Give each pick's feed its column's cells, and empty the column."""
    for (_, feed), col in zip(picks, cols):
        feed(col)
        col.clear()


def _extend_numbers(out: array, cells: list[str]):
    """Append the number of each cell to ``out``.  Where ``float`` reads a
    cell, it reads the stripped cell the same; the cells it fails on go
    through :func:`_parse_float`."""
    base = len(out)
    rest = iter(cells)
    while True:
        try:
            out.extend(map(float, rest))
            return
        except ValueError:
            out.append(_parse_float(cells[len(out) - base]))


def _build_dataset(args) -> tuple[ResponseData, Grouping, dict]:
    """Response data, grouping and ingest report of the ``merge`` input.

    A row is rejected when its label, a response or its weight is missing;
    out-of-domain responses and weights <= 0 raise, naming the first such
    row.  Within a row the checks run in that order: label, response, domain,
    weight present, weight positive.  Each row's raw label becomes a code as
    its block is read; labels are stripped, tested and abbreviated once per
    distinct raw label.
    """
    survival = args.family == "survival"
    response_cols = [args.time, args.event] if survival else args.response or []
    weights = [args.weights] if args.weights else []
    needed = [*response_cols, args.factor, *weights]
    # one float column per name, whatever roles it has, and the raw labels'
    # codes in order of first appearance
    floats = {name: array("d") for name in [*response_cols, *weights]}
    code_of = defaultdict()
    code_of.default_factory = code_of.__len__  # a new raw label takes the next code
    raw_codes = array("q")
    feeds = [(name, partial(_extend_numbers, out)) for name, out in floats.items()]
    feeds.append((args.factor, lambda cells: raw_codes.extend(map(code_of.__getitem__, cells))))
    # the whole file is read before the arguments are checked, so a file error
    # comes first
    n, header = _read_columns(Path(args.input), feeds)

    if survival:
        if not args.time or not args.event:
            raise ConfigError("survival needs --time and --event columns")
    else:
        if not response_cols:
            raise ConfigError("--response is required for this family")
        if args.family == "binomial" and len(response_cols) != 1:
            raise ConfigError("binomial takes exactly one --response column")
    kind = {"survival": SURVIVAL, "binomial": BINOMIAL}.get(
        args.family, GAUSSIAN_1D if len(response_cols) == 1 else GAUSSIAN_ND)
    domain = DOMAINS[kind]
    missing_cols = [c for c in needed if c not in header]
    if missing_cols:
        raise DataError(f"missing columns: {missing_cols}")

    codes = np.frombuffer(raw_codes, np.int64)
    names = [raw.strip() for raw in code_of]
    values = np.column_stack([np.frombuffer(floats[c]) for c in response_cols])
    usable = np.array([name.lower() not in _MISSING for name in names], bool)[codes]
    usable &= ~np.isnan(values).any(axis=1)
    bad_domain = usable & domain.outside(values)
    w = np.frombuffer(floats[args.weights]) if args.weights else np.ones(n)
    raising = np.flatnonzero(bad_domain | (usable & (w <= 0)))
    if len(raising):
        i = raising[0]
        reason = domain.reason if bad_domain[i] else "weights must be positive"
        raise DataError(f"row {i + 1}: {reason}")
    kept = usable & ~np.isnan(w)

    if not kept.any():
        raise DataError("no usable rows after rejecting invalid ones")
    codes = codes[kept]
    distinct = sorted({names[c] for c in np.flatnonzero(np.bincount(codes)).tolist()})
    if len(distinct) < 2:
        raise DataError("need at least 2 factor levels")

    abbrev = abbreviate_levels(distinct)
    levels = tuple(sorted(abbrev.values()))
    index = {short: i for i, short in enumerate(levels)}
    # raw-label code -> level index, once per distinct raw label
    level_of_code = np.array([index.get(abbrev.get(name), -1) for name in names], np.intp)

    values = values[kept]
    try:
        data = ResponseData(kind, values[:, 0] if domain.scalar else values,
                            w[kept] if args.weights else None)
    except WeightsNotSupported as exc:
        raise DataError(str(exc)) from exc
    grouping = Grouping(codes=level_of_code[codes], levels=levels)
    meta = {
        "rows": n,
        "accepted": len(codes),
        "rejectedRows": (np.flatnonzero(~kept) + 1).tolist(),
        "levelNames": {abbrev[lv]: lv for lv in distinct},
    }
    return data, grouping, meta


# ------------------------------------------------------------------ #
# Output serialization
# ------------------------------------------------------------------ #


def _csv_cell(value) -> str:
    """A cell as ``csv.writer`` writes it, quoted where it holds a comma, a
    double quote or a line break ("\r" too, which Python's writer before 3.13
    leaves bare)."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header: list[str], rows) -> str:
    """CSV text with "\n" line ends; cells are quoted only where they must be."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in chain([header], rows))


def format_history_csv(history_rows: list[dict]) -> str:
    """Render history rows (result.json schema) as the history.csv text."""
    return _csv_text(
        ["step", "groupA", "groupB", "model", "pvalVsFull", "pvalVsPrevious"],
        ([r["step"], r["groupA"], r["groupB"], f'{r["model"]:.4f}',
          f'{r["pvalVsFull"]:.4f}', f'{r["pvalVsPrevious"]:.4f}'] for r in history_rows),
    )


_escape = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    """A float as ``json`` writes it: NaN and the infinities by name."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_parts(obj) -> list[str]:
    """Pieces of the text that :mod:`json` writes for ``obj`` with
    ``sort_keys=True, indent=2``.

    ``obj`` nests dicts with string keys, lists and tuples over strings,
    ints, floats, bools and None; anything else raises ``TypeError``, a
    non-string key too.  A list, tuple or dict met again at the same depth is
    encoded once: its pieces are joined on the second meeting and that text
    is reused.  No other text is joined, so a large result is held once.
    """
    parts: list[str] = []
    append = parts.append
    # depth -> {id of a container: the slice of its pieces, later its text}
    seen: defaultdict[int, dict[int, tuple[int, int] | str]] = defaultdict(dict)

    def value(o, depth: int):
        # no type is both a container and a scalar, so containers go first
        if isinstance(o, (dict, list, tuple)):
            container(o, depth)
        elif isinstance(o, str):
            append(_escape(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, float):
            append(_float_text(o))
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def container(o, depth: int):
        memo = seen[depth]
        done = memo.get(id(o))
        if done is not None:
            if done.__class__ is tuple:
                done = memo[id(o)] = "".join(parts[done[0]:done[1]])
            append(done)
            return
        dict_ = isinstance(o, dict)
        if not o:
            append("{}" if dict_ else "[]")
            return
        start = len(parts)
        inner = "\n" + "  " * (depth + 1)
        comma = "," + inner
        if dict_:
            for k, v in sorted(o.items()):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                append(comma)
                append(_escape(k))
                append(": ")
                value(v, depth + 1)
        else:
            for v in o:
                append(comma)
                value(v, depth + 1)
        parts[start] = ("{" if dict_ else "[") + inner
        append(inner[:-2] + ("}" if dict_ else "]"))
        memo[id(o)] = (start, len(parts))

    value(obj, 0)
    return parts


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, obj):
    """Write ``obj`` as :func:`_json_parts` gives it, and a line end; the
    pieces are joined in batches, not into one text."""
    parts = _json_parts(obj)
    parts.append("\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(0, len(parts), 8192):
            fh.write("".join(parts[i:i + 8192]))


def cmd_merge(args) -> int:
    try:
        criterion = SelectionCriterion(args.criterion, args.value)
        check_penalty(args.penalty)
    except FactorFuseError as exc:
        raise ConfigError(str(exc)) from exc
    data, grouping, meta = _build_dataset(args)
    spec = PlotSpec(
        panels=ALL_PANELS,
        response_panel=args.response_panel or FAMILIES[data.kind].panels[0],
        nodes_spacing=args.nodes_spacing,
        panel_grid=args.panel_grid,
        show_split=args.show_split,
        penalty=args.penalty,
        title=args.title,
    )
    check_panel_compat(data.kind, spec.response_panel)

    path = merge_factors(data, grouping, args.method)
    history = merging_history(path)
    gic = gic_profile(path, spec.penalty)
    stat, df, pvalue = global_null_test(path)
    chosen = cut_step(path, criterion, history=history, gic=gic)
    table = optimal_partition_table(path, criterion, step=chosen)

    level_names = meta["levelNames"]
    # one entry per cluster: a merge keeps the other clusters, so a cluster is
    # listed at every step it survives and written once
    entries: dict[int, dict] = {}

    def cluster_entry(c) -> dict:
        entry = entries.get(id(c))
        if entry is None:
            entry = entries[id(c)] = {"label": c.label, "members": list(c.members)}
        return entry

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
                    "step": r.step,
                    "groupA": r.group_a,
                    "groupB": r.group_b,
                    "loglik": s.model.loglik,
                    "clusterCount": s.model.partition.size,
                    "clusters": [cluster_entry(c) for c in s.model.partition.clusters],
                    "flags": list(s.model.flags),
                }
                for s, r in zip(path.steps, history)
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
    _write_json(out / "result.json", result)
    _write(out / "history.csv", format_history_csv(history_rows))
    _write(out / "partition.csv", _csv_text(
        ["orig", "abbrev", "pred"],
        ([r["orig"], r["abbrev"], r["pred"]] for r in result["optimalPartition"])))
    _write(
        out / "merging_path.svg",
        render_merging_path_svg(path, history, gic, data, grouping, spec),
    )
    _write(out / "gic.svg", render_gic_svg(gic))
    print(f"wrote results for {path.k} levels to {out}")
    return 0


def cmd_fixture(args) -> int:
    try:
        fx = make_fixture(args.kind, args.k, args.n_per_group, args.separation, args.seed,
                          n_clusters=args.clusters)
    except FactorFuseError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    indicators = DOMAINS[fx.data.kind].indicators  # 0/1 columns, written as integers
    values = fx.data.values.reshape(fx.data.n, -1)
    # a number never needs quoting; each level name is quoted once and ends its row
    labels = np.array([_csv_cell(v) + "\n" for v in fx.grouping.levels], object)[fx.grouping.codes]
    with open(out / "data.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_text([*fx.columns, "group"], []))
        for s in range(0, fx.data.n, _FIXTURE_ROWS):
            cells = [map(str, map(int, col)) if j in indicators else map(repr, col)
                     for j, col in enumerate(values[s:s + _FIXTURE_ROWS].T.tolist())]
            fh.write("".join(map(",".join, zip(*cells, labels[s:s + _FIXTURE_ROWS].tolist()))))

    truth = {
        "kind": args.kind,
        "k": args.k,
        "nPerGroup": args.n_per_group,
        "separation": args.separation,
        "seed": args.seed,
        "clusters": [list(c) for c in fx.planted],
    }
    _write_json(out / "truth.json", truth)
    print(f"wrote fixture with {len(fx.planted)} planted clusters to {out}")
    return 0


def cmd_bench(args) -> int:
    if args.kmax < 4 or args.n_per_group < 2 or args.repeats < 1:
        raise ConfigError("bench needs kmax >= 4, n-per-group >= 2 and repeats >= 1")
    ks = []
    k = 4
    while k <= args.kmax:
        ks.append(k)
        k *= 2
    rows = []
    for k in ks:
        for strategy in STRATEGIES:
            for rep in range(args.repeats):
                fx = make_fixture("gaussian", k, args.n_per_group, 1.0, seed=rep)
                t0 = time.perf_counter()
                path = merge_factors(fx.data, fx.grouping, strategy)
                millis = (time.perf_counter() - t0) * 1000.0
                rows.append([strategy, k, path.evaluations, f"{millis:.3f}"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "bench.csv", _csv_text(["strategy", "k", "evaluations", "wallMillis"], rows))
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
    m.add_argument("--criterion", default="gic", choices=list(CRITERIA))
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
    f.add_argument("--kind", required=True, choices=list(FIXTURE_KINDS))
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


# main's parser, built on its first call rather than at import, and reused
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IncompatiblePanel) as exc:
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
