"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Passes only if, on every workload and in both modes, the last output line is
the result object with every metric BENCHMARK.json names, each with its unit
and a finite value, and if a deliberately corrupted artifact is counted as a
failed merge.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def expect(ok: bool, what):
    if not ok:
        raise SystemExit(f"FAIL {what}")


def check_printed(bench: dict, workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(want), f"{workload} trace={trace}: {set(got) ^ set(want)}")
    for name, unit in want.items():
        value = got[name]["value"]
        expect(got[name]["unit"] == unit, (name, got[name]))
        expect(isinstance(value, (int, float)) and math.isfinite(value), (name, value))
        expect(trace or value > 0, (name, value))


def check_corruption():
    import run

    def corrupt(merge):
        if merge.out.name == "m002":  # a loop merge of the one input, after the reference
            history = merge.out / "history.csv"
            lines = history.read_text().splitlines()
            lines[-1] = lines[-1].replace(",", ",9", 1)  # rename the merged group
            history.write_text("\n".join(lines) + "\n")

    out = run.run("levels", 3, 0.5, False, tiny=True, tamper=corrupt)
    result = out["result"]
    expect(result["failed"] == 1 and not result["correct"], result)
    expect(result["metrics"]["success_frac"]["value"] < 1.0, result)
    expect(bool(out["info"]["failures"][0]["problems"]), out["info"]["failures"])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_printed(bench, w["name"], trace)
            print(f"PASS {w['name']} trace={trace}: every metric printed with its unit")
    check_corruption()
    print("PASS a corrupted history.csv is counted as a failed merge")
    return 0


if __name__ == "__main__":
    sys.exit(main())
