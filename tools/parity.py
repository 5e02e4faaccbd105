"""Parity: the working tree's merges against those of a git revision.

    python3 tools/parity.py --against REV [--seed N]

Exports the ``src/`` of REV with ``git archive`` into a temporary directory
and runs two checks, each tree in its own subprocess, side by side.

Artifacts: the benchmark's inputs are written once, with
``perfbench/workloads`` (imported, never written to).  Each input is merged
under every method, plain and with ``--panel-grid --show-split
--nodes-spacing effects``, through ``factorfuse.cli.main``.  The runs must
agree in exit code, stderr and the sha256 of each artifact.

Engine: ``merge_factors`` runs on the ``make_fixture`` inputs of
``ENGINE_CASES``, 135 paths.  The paths must agree in merged pairs, the bits
of every log-likelihood, flags and evaluation breakdown, or in the error
raised; a path whose log-likelihoods differ is reported with their largest
absolute and relative gap.

Every differing run or path is printed, then one summary line per check;
the exit status is 1 on any difference."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from checks import ARTIFACTS  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

from factorfuse.engine import STRATEGIES  # noqa: E402
from factorfuse.fixtures import FIXTURE_KINDS  # noqa: E402

sys.dont_write_bytecode = _bytecode

VARIANTS = ((), ("--panel-grid", "--show-split", "--nodes-spacing", "effects"))

# (kind, k, rows per level, seed, strategy): every kind and strategy at small
# k, the large-k paths (gaussian adaptive among them, which scores its
# neighbours on the line of means), survival k=32 under adaptive, where Cox
# candidates start from fits carried over many steps, and survival at about
# 80,000 event times, where every candidate block is a single row
ENGINE_CASES = (
    [(kind, k, 20, seed, strategy) for kind in FIXTURE_KINDS for k in (6, 16)
     for seed in range(4) for strategy in STRATEGIES]
    + [(kind, 1024, 10, 0, "fast-fixed") for kind in ("gaussian", "binomial")]
    + [("gaussian", 1024, 10, 0, "adaptive")]
    + [("survival", 64, 20, 4, "fast-fixed"), ("survival", 32, 20, 4, "adaptive"),
       ("survival", 32, 3125, 0, "fast-fixed"), ("gaussianNd", 32, 3125, 0, "fast-fixed")]
)

# Runs in a tree's subprocess: reads [argv, out] pairs from stdin and writes,
# per run, its exit code, stderr and each artifact's sha256 (None if absent).
_RUNNER = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from factorfuse import cli
results = []
for argv, out in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", out])
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    files = [Path(out, name) for name in sys.argv[1:]]
    results.append([code, err.getvalue(),
                    [hashlib.sha256(f.read_bytes()).hexdigest() if f.exists() else None
                     for f in files]])
json.dump(results, sys.stdout)
"""

# Runs in a tree's subprocess: reads ENGINE_CASES-like cases from stdin and
# writes, per case, its path's merged pairs, log-likelihoods as float.hex,
# flags and evaluation breakdown, or the error it raised.
_ENGINE_RUNNER = """
import json, sys
from factorfuse.engine import merge_factors
from factorfuse.fixtures import make_fixture
results = []
for kind, k, rows, seed, strategy in json.load(sys.stdin):
    try:
        fx = make_fixture(kind, k, rows, 1.0, seed)
        path = merge_factors(fx.data, fx.grouping, strategy)
    except Exception as exc:
        results.append({"error": f"{type(exc).__name__}: {exc}"})
        continue
    results.append({"pairs": [s.merged_pair for s in path.steps],
                    "loglik": [s.model.loglik.hex() for s in path.steps],
                    "flags": [s.model.flags for s in path.steps],
                    "breakdown": path.evaluation_breakdown})
json.dump(results, sys.stdout)
"""


def export(rev: str, dest: Path) -> Path:
    """The ``src/`` of ``rev`` under ``dest``; returns that ``src/``."""
    dest.mkdir(parents=True)
    git = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"],
                           stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        sys.exit(f"git archive {rev} failed")
    return dest / "src"


def jobs(workloads, seed: int, workdir: Path, methods=STRATEGIES) -> list[tuple[str, list[str]]]:
    """(name, merge argv without --out) of each input of ``workloads`` under
    each method and variant; the inputs are written under ``workdir``."""
    out = []
    for w in workloads:
        (workdir / w.name).mkdir(parents=True)
        for n, inp in enumerate(make_inputs(w, seed, workdir / w.name)):
            for method in methods:
                for variant in VARIANTS:
                    # a later --method overrides the workload's own
                    out.append((" ".join([f"{w.name}/{n}", method, *variant]),
                                [*inp.argv, "--method", method, *variant]))
    return out


def run_tree(src: Path, runner: str, jobs, *args: str) -> subprocess.Popen:
    """Start ``runner`` with the factorfuse under ``src`` on ``jobs``, sent as JSON."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", runner, *args], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(jobs))
    proc.stdin.close()
    return proc


def run_both(src_a: Path, src_b: Path, runner: str, side_jobs, *args: str) -> list[list]:
    """The results of ``runner`` on each tree, run side by side: on
    ``side_jobs("a")`` with ``src_a`` and on ``side_jobs("b")`` with ``src_b``."""
    procs = [run_tree(src, runner, side_jobs(side), *args)
             for src, side in ((src_a, "a"), (src_b, "b"))]
    results = []
    for proc in procs:
        results.append(json.loads(proc.stdout.read()))
        if proc.wait():
            sys.exit(f"a merge subprocess failed with exit code {proc.returncode}")
    return results


def compare(src_a: Path, src_b: Path, runs, workdir: Path) -> list[str]:
    """Merge ``runs`` with both trees, side by side; one line per differing run."""
    results = run_both(src_a, src_b, _RUNNER, lambda side: [
        [argv, str(workdir / side / str(t))] for t, (_, argv) in enumerate(runs)], *ARTIFACTS)
    differing = []
    for (name, _), (code_a, err_a, sha_a), (code_b, err_b, sha_b) in zip(runs, *results):
        what = [f"exit code {code_a} != {code_b}"] if code_a != code_b else []
        what += ["stderr"] if err_a != err_b else []
        what += [f for f, a, b in zip(ARTIFACTS, sha_a, sha_b) if a != b]
        if what:
            differing.append(f"{name}: {', '.join(what)}")
    return differing


def case_name(case) -> str:
    kind, k, rows, seed, strategy = case
    return f"{kind} k={k} rows={rows} seed={seed} {strategy}"


def compare_engine(src_a: Path, src_b: Path, cases) -> list[str]:
    """Run ``merge_factors`` on ``cases`` with both trees, side by side; one
    line per differing case."""
    results = run_both(src_a, src_b, _ENGINE_RUNNER, lambda side: cases)
    differing = []
    for case, a, b in zip(cases, *results):
        what = [key for key in ("error", "pairs", "loglik", "flags", "breakdown")
                if a.get(key) != b.get(key)]
        if not what:
            continue
        line = f"{case_name(case)}: {', '.join(what)}"
        if "loglik" in what and "error" not in what:
            gaps = [(abs(x - y), abs(x - y) / (max(abs(x), abs(y)) or 1.0))
                    for x, y in zip(*([float.fromhex(h) for h in r["loglik"]] for r in (a, b)))]
            line += (f" (largest loglik gap {max(g for g, _ in gaps):.3g} absolute, "
                     f"{max(r for _, r in gaps):.3g} relative)")
        differing.append(line)
    return differing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", required=True, help="git revision to compare with")
    p.add_argument("--seed", type=int, default=1, help="workload seed of the inputs")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        against = export(args.against, tmp / "against")
        runs = jobs(WORKLOADS.values(), args.seed, tmp / "inputs")
        checks = [
            (f"parity against {args.against}, seed {args.seed}", len(runs),
             f"runs identical in exit code, stderr and {len(ARTIFACTS)} artifacts",
             compare(ROOT / "src", against, runs, tmp / "out")),
            (f"engine parity against {args.against}", len(ENGINE_CASES),
             "paths identical in merged pairs, loglik bits, flags and evaluation breakdown",
             compare_engine(ROOT / "src", against, ENGINE_CASES)),
        ]
    for *_, differing in checks:
        for line in differing:
            print(line)
    for what, total, identical, differing in checks:
        print(f"{what}: {total - len(differing)} of {total} {identical}")
    return 1 if any(differing for *_, differing in checks) else 0

if __name__ == "__main__":
    sys.exit(main())
