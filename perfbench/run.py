"""factorfuse benchmark: `factorfuse merge` end to end, from a generated CSV to
result.json, history.csv, partition.csv and both SVGs.

    python3 perfbench/run.py --workload levels --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ``src/``.  The loop
is closed: one process runs one merge at a time through
``factorfuse.cli.main``, the entry point of the ``factorfuse`` script.  Every
merge is checked after its timed region (see ``checks.py``); a nonzero exit
or a failed check counts as a failed merge.

``--trace 0`` prints the end-to-end metrics.  Merge times are reported in
reference seconds (``ref_s``): each merge's wall seconds scaled by how fast
this host ran a fixed probe while the merge ran (see ``HostSpeed``).  ``--trace 1`` prints per-layer metrics: for ``--seconds`` it
alternates untraced merges with merges that record spans around each layer
(``spans.py``), then runs one more merge under ``tracemalloc`` for the
allocation peaks.  The last stdout line is the result object; the line
before it holds provenance and details.  Full details, and the spans of a
traced run, are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; every child process inherits them.  Unpinned
# OpenBLAS threads made identical MDS orderings range from 1.5 to 2.8 s.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "FACTORFUSE_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tracemalloc
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

try:
    import numpy as np
    from factorfuse import cli
except ImportError as exc:
    sys.exit(f"cannot import factorfuse from {SRC}: {exc}")

import checks
import spans
from workloads import TINY, WORKLOADS, make_inputs

SETUP_REPS = 12  # fresh interpreters, spread over the loop
MIN_SAMPLES = 11  # the tail needs at least 10 samples beyond it
MIN_TRACED = 5


@dataclasses.dataclass
class Merge:
    input: int
    out: Path
    rc: int
    seconds: float
    stderr: str
    probes: list = dataclasses.field(default_factory=list)  # see HostSpeed
    problems: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems

    @property
    def ref_seconds(self) -> float:
        """Wall time less the probes run inside it, in reference seconds."""
        work = self.seconds - sum(self.probes[1:])
        return work * PROBE_REF_S / statistics.fmean(self.probes)


def call_main(argv, main=None) -> tuple[int, str]:
    """Run ``factorfuse.cli.main`` in this process, capturing its output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = (main or cli.main)(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed merge, not a failed benchmark
            rc = 1
            err.write(traceback.format_exc())
    return rc, err.getvalue()


# Host-speed probe: a fixed small symmetric eigenproblem, run by numpy's
# LAPACK on one thread, calling no factorfuse code.  A shared host changes
# speed by up to 1.8x, sometimes within a second, and the probe slows with it
# ("Reference seconds" in README.md).
_PROBE = np.random.default_rng(0).standard_normal((64, 64))
_PROBE = _PROBE @ _PROBE.T
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.00075  # probe time that defines one reference second


def probe() -> float:
    """Wall time of one run of the host-speed probe."""
    t0 = perf_counter()
    for _ in range(4):
        np.linalg.eigvalsh(_PROBE)
    return perf_counter() - t0


def plain_call(fn, argv):
    """Run one merge; returns (exit code, stderr, wall seconds, probes)."""
    t0 = perf_counter()
    rc, err = fn(argv)
    return rc, err, perf_counter() - t0, []


class HostSpeed:
    """Runs merges with the probe timed just before each one and then every
    ``PROBE_INTERVAL_S`` inside it, from a SIGALRM handler, so the samples
    follow the host's speed through the merge.  The probes inside a merge are
    part of its wall time; ``Merge.ref_seconds`` takes them out again."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def call(self, fn, argv):
        self.samples = [probe()]
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            rc, err = fn(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        return rc, err, seconds, self.samples


def run_loop(inputs, seconds, min_samples, workdir, variants, call=plain_call,
             between=None):
    """Closed loop over the inputs.  ``variants`` maps a tag to a merge
    function, run through ``call``; each step runs every variant on the same
    input, rotating their order, so drift in machine speed reaches all of
    them alike.  ``between``, if given, is called with the elapsed loop time
    before each step, outside the merges' timed regions.  Returns the merges
    per tag and the loop's wall time."""
    merges = {tag: [] for tag in variants}
    order = list(variants)
    start = perf_counter()
    step = 0
    while perf_counter() - start < seconds or step < min_samples:
        if between is not None:
            between(perf_counter() - start)
        i = step % len(inputs)
        for tag in order[step % len(order):] + order[:step % len(order)]:
            out = workdir / f"{tag}{step:03d}"
            rc, err, wall, probes = call(variants[tag], inputs[i].merge_argv(out))
            merges[tag].append(Merge(i, out, rc, wall, err, probes))
        step += 1
    return merges, perf_counter() - start


def check_all(merges, inputs, workload, tamper=None):
    """Check every merge; the first artifacts of an input are the reference
    that later merges of the same input must reproduce byte for byte."""
    expected = {}
    for m in merges:
        if m.rc != 0:
            continue
        if tamper is not None:
            tamper(m)
        artifacts = checks.read_artifacts(m.out)
        m.problems = checks.check_merge(artifacts, workload.k, inputs[m.input].reference,
                                        workload.oracle_pairs, expected.get(m.input))
        expected.setdefault(m.input, artifacts)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports factorfuse.cli."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import factorfuse.cli"], env=child_env(),
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class SetupSampler:
    """Starts a fresh interpreter each time another ``1/SETUP_REPS`` of the
    loop has passed, so set-up is sampled over the whole run."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.samples: list[float] = []

    def __call__(self, elapsed):
        if elapsed >= len(self.samples) * self.seconds / SETUP_REPS:
            self.samples.append(measure_setup())

    def finish(self):
        while len(self.samples) < SETUP_REPS:
            self.samples.append(measure_setup())


def merge_in_child(inp, workdir) -> tuple[Merge, float]:
    """One merge in a fresh process; returns it with the child's ru_maxrss in MiB."""
    out = workdir / "child"
    errfile = workdir / "child.stderr"
    code = "import sys; from factorfuse.cli import main; sys.exit(main(sys.argv[1:]))"
    with open(errfile, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *inp.merge_argv(out)],
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    merge = Merge(0, out, proc.returncode, seconds, errfile.read_text())
    return merge, usage.ru_maxrss / 1024.0  # KiB on Linux


def tail(times) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, pct)."""
    s = sorted(times)
    if len(s) < MIN_SAMPLES:
        return s[-1], 100.0
    return s[-MIN_SAMPLES], 100.0 * (len(s) - 10) / len(s)


def ok_times(merges, times=None):
    """Times of the successful merges (``times`` if given, else wall seconds)."""
    times = [m.seconds for m in merges] if times is None else times
    ok = [t for t, m in zip(times, merges) if m.ok]
    return ok or times  # all failed: correct is false anyway


def end_to_end(workload, inputs, seconds, workdir, tamper=None):
    child, rss = merge_in_child(inputs[0], workdir)
    probe()  # warm-up: the first LAPACK call
    setup = SetupSampler(seconds)
    loop, wall = run_loop(inputs, seconds, MIN_SAMPLES, workdir, {"m": call_main},
                          HostSpeed().call, setup)
    setup.finish()
    merges = loop["m"]
    attempts = [child] + merges  # the child's artifacts are input 0's reference
    check_all(attempts, inputs, workload, tamper)
    work = [m.seconds - sum(m.probes[1:]) for m in merges]
    ref = [m.ref_seconds for m in merges]
    times, ref_times = ok_times(merges, work), ok_times(merges, ref)
    value, pct = tail(times)
    ref_tail, _ = tail(ref_times)
    failed = sum(not m.ok for m in attempts)
    ok = sum(m.ok for m in merges)
    goodput = ok / sum(work)  # probes, set-up samples and checks left out
    p50 = statistics.median(times)
    probes = [p for m in merges for p in m.probes]
    metrics = {
        # The fastest start: contention only ever adds to it, and it moves
        # with any work added to the import.
        "setup_s": (min(setup.samples), "s"),
        "merge_p50": (statistics.median(ref_times), "ref_s"),
        "merge_tail": (ref_tail, "ref_s"),
        "merges_per_ref_s": (ok / sum(ref), "1/ref_s"),
        "success_frac": (1.0 - failed / len(attempts), "ratio"),
        "peak_rss_mib": (rss, "MiB"),
    }
    details = {
        "samples": len(times), "tail_percentile": pct, "loop_wall_s": wall,
        "wall": {"merge_s_p50": p50, "merge_s_tail": value, "merges_per_s": goodput},
        "probe_s_p50": statistics.median(probes), "probes": len(probes),
        "merge_s": work, "merge_ref_s": ref,
        "setup_samples_s": setup.samples, "child_merge_s": child.seconds,
    }
    return metrics, attempts, details


def per_layer(workload, inputs, seconds, workdir, tracer):
    """Untraced and traced merges alternate on the same inputs; then one more
    traced merge runs under tracemalloc for the allocation peaks."""
    warned: dict[int, int] = {}
    root = tracer.wrap(cli.main, spans.ROOT)

    def traced_main(argv):
        merge_id = len(tracer.counts)
        tracer.begin_merge(merge_id)
        with spans.instrument(tracer), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call_main(argv, root)
        warned[merge_id] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        return result

    loop, _ = run_loop(inputs, seconds, MIN_TRACED, workdir, {"u": call_main, "t": traced_main})
    plain, traced = loop["u"], loop["t"]
    tracer.memory = True
    tracemalloc.start()
    try:
        mem = run_loop(inputs, 0.0, 1, workdir, {"a": traced_main})[0]["a"]
    finally:
        tracemalloc.stop()
    attempts = plain + traced + mem
    check_all(attempts, inputs, workload)

    timed = [i for i, m in enumerate(traced) if m.ok] or list(range(len(traced)))
    rows = [tracer.summary(i) for i in timed]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        metrics[name] = (statistics.median(r[name] for r in rows), unit)
    mem_id = len(traced)
    for name, peak in tracer.peaks[mem_id].items():
        metrics[name] = (peak, "MiB")
    for name in spans.MEMORY_SPANS.values():
        metrics.setdefault(name, (0.0, "MiB"))  # layer not called on this workload
    metrics["families.numpy_warnings"] = (
        statistics.fmean(warned[i] for i in timed), "count")
    untraced = statistics.median(ok_times(plain))
    traced_p50 = statistics.median(r["merge_s"] for r in rows)
    self_sum = sum(metrics[m][0] for m in set(spans.SELF_METRIC.values()))
    metrics.update({
        "trace.merge_s_p50": (traced_p50, "s"),
        "trace.untraced_merge_s_p50": (untraced, "s"),
        "trace.overhead_s": (traced_p50 - untraced, "s"),
        "trace.self_sum_frac": (self_sum / traced_p50, "ratio"),
    })
    details = {"traced_samples": len(traced), "untraced_samples": len(plain)}
    return metrics, attempts, details


PER_LAYER_UNITS = {
    "cli.ingest_s": "s", "cli.rows_read": "count", "cli.rows_rejected": "count",
    "cli.write_s": "s", "data.s": "s",
    "families.levelstats_s": "s", "families.levelstats_calls": "count",
    "families.fit_s": "s", "families.fits": "count", "families.fit_us_mean": "us",
    "engine.candidates_scored": "count", "engine.path_fits": "count",
    "engine.distinct_pair_frac": "ratio", "engine.self_s": "s",
    "engine.ordering_s": "s", "engine.ordering_calls": "count",
    "engine.ordering_calls_viz": "count",
    "mds.project_s": "s", "mds.points": "count",
    "inference.s": "s", "viz.render_s": "s", "viz.svg_bytes": "bytes",
}


def provenance(workload, seed, trace_mode, inputs) -> dict:
    return {
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "threads": THREAD_ENV,
        "workload": dataclasses.asdict(workload),
        "seed": seed,
        "fixture_seeds": [i.fixture_seed for i in inputs],
        "mode": "traced" if trace_mode else "untraced",
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "factorfuse").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run(workload_name, seed, seconds, trace_mode, tiny=False, tamper=None) -> dict:
    workload = WORKLOADS[workload_name]
    if tiny:
        workload = dataclasses.replace(workload, **TINY[workload_name])
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(workload, seed, workdir)
        if trace_mode:
            tracer = spans.Tracer()
            metrics, attempts, details = per_layer(workload, inputs, seconds, workdir, tracer)
        else:
            metrics, attempts, details = end_to_end(workload, inputs, seconds, workdir, tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [{"input": m.input, "rc": m.rc, "problems": m.problems[:5],
                 "stderr": m.stderr[-2000:]} for m in attempts if not m.ok]
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details.update(failed_frac=failed / len(attempts), failed_frac_base=len(attempts))
    info = {"provenance": provenance(workload, seed, trace_mode, inputs),
            "details": details, "failures": failures[:10]}
    stem = f"{workload_name}-seed{seed}-trace{int(trace_mode)}"
    (outdir / f"{stem}.json").write_text(json.dumps({**info, "result": result}, indent=2))
    if trace_mode:
        tracer.write_spans(outdir / f"{stem}.spans.jsonl")
    return {"info": info, "result": result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = p.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
