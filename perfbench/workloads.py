"""Benchmark workloads: fixture sizes, input generation and `merge` arguments.

Every input comes from ``factorfuse.fixtures.make_fixture`` with fixture
seeds drawn from the workload seed, and is written as CSV during set-up.  The
program under test only ever sees that CSV.  No seed is skipped: a fixture
the program cannot merge counts as a failed merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from factorfuse.fixtures import make_fixture

from checks import Reference


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # make_fixture kind
    k: int
    n_per_group: int
    method: str
    # Distinct inputs per run, cycled by the loop.  Workloads whose merge time
    # depends on the data (Cox Newton iterations, MDS iterations) use one
    # input per merge, so a run's median averages over many fixtures.
    inputs: int
    na_frac: float = 0.0
    # Only gaussian1d has the closed-form greedy oracle, and it is exhaustive
    # only for the adaptive strategy.
    oracle_pairs: bool = False


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("levels", "gaussian", 32, 10, "adaptive", inputs=1, oracle_pairs=True),
        Workload("rows", "gaussian", 16, 10_000, "fast-fixed", inputs=1, na_frac=0.01),
        Workload("cox", "survival", 16, 20, "adaptive", inputs=24),
        Workload("multivariate", "gaussianNd", 8, 25, "fast-adaptive", inputs=48),
    )
}

# Sizes for the self-test: the same families and strategies, merges in ms.
TINY = {
    "levels": dict(k=6, n_per_group=5),
    "rows": dict(k=4, n_per_group=200),
    "cox": dict(k=5, n_per_group=10),
    "multivariate": dict(k=4, n_per_group=8),
}


@dataclass(frozen=True)
class Input:
    fixture_seed: int
    argv: tuple[str, ...]  # `merge` arguments without --out
    reference: Reference | None  # closed-form oracle, gaussian families only

    def merge_argv(self, out: Path) -> list[str]:
        return [*self.argv, "--out", str(out)]


def fixture_seeds(workload: Workload, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=workload.inputs)]


def make_inputs(workload: Workload, seed: int, workdir: Path) -> list[Input]:
    out = []
    for i, fseed in enumerate(fixture_seeds(workload, seed)):
        fx = make_fixture(workload.kind, workload.k, workload.n_per_group, 1.0, fseed)
        path = workdir / f"input{i:02d}.csv"
        header = _write_csv(path, fx, workload.na_frac, fseed)
        if workload.kind == "survival":
            cols = ["--family", "survival", "--time", "time", "--event", "event"]
            reference = None
        else:
            responses = header[:-1]
            cols = ["--family", "gaussian"]
            for c in responses:
                cols += ["--response", c]
            reference = Reference.from_csv(path, responses, "group")
        argv = ("merge", "--input", str(path), *cols, "--factor", "group",
                "--method", workload.method)
        out.append(Input(fseed, argv, reference))
    return out


def _write_csv(path: Path, fx, na_frac: float, fseed: int) -> list[str]:
    """Write the fixture as `factorfuse fixture` does; blank out a share of the
    response cells as ``NA`` so the CLI's rejected-row path runs."""
    values = np.asarray(fx.data.values, dtype=float)
    labels = fx.grouping.labels
    if fx.data.kind == "survival":
        header = ["time", "event", "group"]
        body = [f"{t!r},{int(e)},{g}" for (t, e), g in zip(values.tolist(), labels)]
    else:
        if values.ndim == 1:
            values = values[:, None]
        header = [f"y{j + 1}" for j in range(values.shape[1])] if values.shape[1] > 1 else ["y"]
        header.append("group")
        cells = [[repr(v) for v in row] for row in values.tolist()]
        if na_frac > 0:
            rng = np.random.default_rng([fseed, 1])
            for r in np.flatnonzero(rng.random(len(cells)) < na_frac).tolist():
                cells[r][0] = "NA"
        body = [",".join(row) + f",{g}" for row, g in zip(cells, labels)]
    path.write_text(",".join(header) + "\n" + "\n".join(body) + "\n", encoding="utf-8")
    return header
