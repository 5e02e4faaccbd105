"""Output checks for one `merge`, run outside the timed region.

The closed forms here share no code with factorfuse: per-level counts, means
and centred scatter matrices are parsed straight from the raw CSV, and the
pooled-covariance profile log-likelihood of a partition is

    -n/2 * (d*log(2*pi) + log det(W/n) + d),   W = sum of within-cluster scatter,

which for d = 1 is the pooled-variance Gaussian profile.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ARTIFACTS = ("result.json", "history.csv", "partition.csv", "merging_path.svg", "gic.svg")
LRT_TOL = 1e-9  # the CLI's tolerance on a negative likelihood-ratio statistic
LOGLIK_RTOL = 1e-8
NEAR_TIE = 1e-9  # the test-suite greedy oracle's near-tie window


class Reference:
    """Per-level sufficient statistics of a gaussian CSV: n, mean, scatter."""

    def __init__(self, stats: dict[str, tuple[int, np.ndarray, np.ndarray]]):
        self.stats = stats
        self.n = sum(s[0] for s in stats.values())
        self.d = len(next(iter(stats.values()))[1])

    @classmethod
    def from_csv(cls, path: Path, responses: list[str], factor: str) -> "Reference":
        rows: dict[str, list[list[float]]] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                try:
                    vals = [float(rec[c]) for c in responses]
                except ValueError:
                    continue  # NA cell: the CLI rejects the row
                if all(math.isfinite(v) for v in vals):
                    rows.setdefault(rec[factor], []).append(vals)
        stats = {}
        for level, vals in rows.items():
            y = np.asarray(vals)
            mean = y.mean(axis=0)
            c = y - mean
            stats[level] = (len(y), mean, c.T @ c)
        return cls(stats)

    def cluster(self, members) -> tuple[int, np.ndarray, np.ndarray]:
        parts = [self.stats[m] for m in members]
        n = sum(p[0] for p in parts)
        mean = sum(p[0] * p[1] for p in parts) / n
        scatter = sum(p[2] + p[0] * np.outer(p[1] - mean, p[1] - mean) for p in parts)
        return n, mean, scatter

    def loglik(self, scatter: np.ndarray) -> np.ndarray:
        """Profile log-likelihood for pooled scatter matrices (..., d, d)."""
        _, logdet = np.linalg.slogdet(scatter / self.n)
        return -0.5 * self.n * (self.d * math.log(2 * math.pi) + logdet + self.d)


def read_artifacts(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ARTIFACTS if (out / name).exists()}


def check_merge(artifacts: dict[str, bytes], k: int, reference: Reference | None,
                oracle_pairs: bool, expected: dict[str, bytes] | None) -> list[str]:
    """Problems found in one merge's artifacts; an empty list means it passed."""
    missing = [a for a in ARTIFACTS if a not in artifacts]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        result = json.loads(artifacts["result.json"])
        problems = _check_path(result, k)
        if not problems:
            problems += _check_history(result, artifacts["history.csv"].decode())
            problems += _check_partition(result, artifacts["partition.csv"].decode())
            if reference is not None:
                problems += _check_closed_form(result, reference, oracle_pairs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
    if expected is not None:
        differ = [a for a in ARTIFACTS if artifacts[a] != expected[a]]
        if differ:
            problems.append(f"repeated input gave different bytes in {differ}")
    return problems


def _members(step) -> dict[str, tuple[str, ...]]:
    return {c["label"]: tuple(c["members"]) for c in step["clusters"]}


def _check_path(result, k: int) -> list[str]:
    steps = result["path"]["steps"]
    if len(steps) != k:
        return [f"path has {len(steps)} steps, expected {k}"]
    problems = []
    if any(len(c["members"]) != 1 for c in steps[0]["clusters"]):
        problems.append("step 0 is not the singleton partition")
    for i, step in enumerate(steps):
        if step["clusterCount"] != k - i or len(step["clusters"]) != k - i:
            problems.append(f"step {i} has {step['clusterCount']} clusters, expected {k - i}")
        if i == 0:
            continue
        prev, cur = _members(steps[i - 1]), _members(step)
        a, b = step["groupA"], step["groupB"]
        nested = (a in prev and b in prev and a != b
                  and {x: m for x, m in prev.items() if x not in (a, b)}
                  | {a + b: prev[a] + prev[b]} == cur)
        if not nested:
            problems.append(f"step {i} is not step {i - 1} with {a} and {b} merged")
        stat = 2.0 * (steps[i - 1]["loglik"] - step["loglik"])
        if stat < -LRT_TOL:
            problems.append(f"loglik increases at step {i} by {-stat / 2:g}")
    penalty = result["config"]["criterion"]["value"]
    gic = [-2.0 * s["loglik"] + penalty * s["clusterCount"] for s in steps]
    argmin = min(range(k), key=lambda i: (gic[i], i))
    if result["config"]["criterion"]["kind"] == "gic" and result["selectedStep"] != argmin:
        problems.append(f"selectedStep {result['selectedStep']} is not the GIC argmin {argmin}")
    return problems


def _check_history(result, text: str) -> list[str]:
    rows = list(csv.reader(text.splitlines()))[1:]
    steps, history = result["path"]["steps"], result["history"]
    if not len(rows) == len(history) == len(steps):
        return ["history.csv, result.json history and path differ in length"]
    for row, h, s in zip(rows, history, steps):
        want = [str(h["step"]), h["groupA"], h["groupB"],
                f"{h['model']:.4f}", f"{h['pvalVsFull']:.4f}", f"{h['pvalVsPrevious']:.4f}"]
        if row != want or (h["groupA"], h["groupB"], h["model"]) != (
                s["groupA"], s["groupB"], s["loglik"]):
            return [f"history.csv step {h['step']} does not match result.json"]
    return []


def _check_partition(result, text: str) -> list[str]:
    chosen = result["path"]["steps"][result["selectedStep"]]
    label_of = {m: c["label"] for c in chosen["clusters"] for m in c["members"]}
    names = result["input"]["levelNames"]
    rows = list(csv.reader(text.splitlines()))[1:]
    want = [[names[abbr], f"({abbr})", label_of[abbr]] for abbr in sorted(names)]
    return [] if rows == want else ["partition.csv does not match the selected step"]


def _check_closed_form(result, ref: Reference, oracle_pairs: bool) -> list[str]:
    names = result["input"]["levelNames"]  # abbreviation -> level name in the CSV
    problems = []
    steps = result["path"]["steps"]
    for i, step in enumerate(steps):
        clusters = [ref.cluster([names[m] for m in c["members"]]) for c in step["clusters"]]
        want = float(ref.loglik(sum(c[2] for c in clusters)))
        if abs(step["loglik"] - want) > LOGLIK_RTOL * abs(want):
            problems.append(f"step {i} loglik {step['loglik']!r} != closed form {want!r}")
        if oracle_pairs and i + 1 < len(steps):
            pair = _oracle_pair(ref, step["clusters"], clusters)
            got = (steps[i + 1]["groupA"], steps[i + 1]["groupB"])
            if got != pair:
                problems.append(f"step {i + 1} merged {got}, closed-form best pair is {pair}")
    return problems


def _oracle_pair(ref: Reference, labelled, clusters) -> tuple[str, str]:
    """Best pair under the closed form: highest merged loglik, near-ties broken
    lexicographically by the pair's labels, as the test-suite oracle does."""
    ns = np.array([c[0] for c in clusters], dtype=float)
    means = np.array([c[1] for c in clusters])
    base = sum(c[2] for c in clusters)
    i, j = np.triu_indices(len(clusters), k=1)
    delta = means[i] - means[j]
    w = ns[i] * ns[j] / (ns[i] + ns[j])
    ll = ref.loglik(base + w[:, None, None] * delta[:, :, None] * delta[:, None, :])
    tied = np.flatnonzero(ll >= ll.max() - NEAR_TIE)
    labels = [c["label"] for c in labelled]
    return min((labels[i[t]], labels[j[t]]) for t in tied)
