"""Artifact parity: the working tree's merges against those of a git revision.

    python3 tools/parity.py --against REV [--seed N]

Exports the ``src/`` of REV with ``git archive`` into a temporary directory
and writes the benchmark's inputs once, with ``perfbench/workloads``
(imported, never written to).  Each input is merged under every method,
plain and with ``--panel-grid --show-split --nodes-spacing effects``, through
``factorfuse.cli.main`` of each tree, all of a tree's merges in one
subprocess.  The runs must agree in exit code, stderr and the sha256 of each
artifact: every differing run is printed, then one summary line, and the exit
status is 1 on any difference.
"""

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

sys.dont_write_bytecode = _bytecode

VARIANTS = ((), ("--panel-grid", "--show-split", "--nodes-spacing", "effects"))

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


def run_tree(src: Path, runs, workdir: Path) -> subprocess.Popen:
    """Start merging ``runs`` with the factorfuse under ``src``, writing to ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", _RUNNER, *ARTIFACTS], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps([[argv, str(workdir / str(t))]
                                 for t, (_, argv) in enumerate(runs)]))
    proc.stdin.close()
    return proc


def compare(src_a: Path, src_b: Path, runs, workdir: Path) -> list[str]:
    """Merge ``runs`` with both trees, side by side; one line per differing run."""
    procs = [run_tree(src, runs, workdir / side) for src, side in ((src_a, "a"), (src_b, "b"))]
    results = []
    for proc in procs:
        results.append(json.loads(proc.stdout.read()))
        if proc.wait():
            sys.exit(f"a merge subprocess failed with exit code {proc.returncode}")
    differing = []
    for (name, _), (code_a, err_a, sha_a), (code_b, err_b, sha_b) in zip(runs, *results):
        what = [f"exit code {code_a} != {code_b}"] if code_a != code_b else []
        what += ["stderr"] if err_a != err_b else []
        what += [f for f, a, b in zip(ARTIFACTS, sha_a, sha_b) if a != b]
        if what:
            differing.append(f"{name}: {', '.join(what)}")
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
        differing = compare(ROOT / "src", against, runs, tmp / "out")
    for line in differing:
        print(line)
    print(f"parity against {args.against}, seed {args.seed}: {len(runs) - len(differing)} of "
          f"{len(runs)} runs identical in exit code, stderr and {len(ARTIFACTS)} artifacts")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
