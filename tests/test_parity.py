"""tools/parity.py on a few small inputs: a tree against an exact copy of
itself agrees, and a copy that writes coarser SVG coordinates, or that fits
Cox models to a looser tolerance, does not."""

import importlib.util
import shutil
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def test_parity_reports_the_artifacts_a_change_moves(tmp_path):
    parity = _parity()
    small = [replace(parity.WORKLOADS[name], k=4, n_per_group=8, inputs=1)
             for name in ("levels", "cox")]
    runs = parity.jobs(small, 0, tmp_path / "inputs", methods=("adaptive", "fast-fixed"))
    assert len(runs) == 8
    copy, cut = tmp_path / "copy", tmp_path / "cut"
    for tree in (copy, cut):
        shutil.copytree(ROOT / "src" / "factorfuse", tree / "factorfuse",
                        ignore=shutil.ignore_patterns("__pycache__"))
    viz = cut / "factorfuse" / "viz.py"
    text = viz.read_text(encoding="utf-8")
    assert 'return f"{v:.4f}"' in text
    viz.write_text(text.replace('return f"{v:.4f}"', 'return f"{v:.3f}"'), encoding="utf-8")

    assert parity.compare(ROOT / "src", copy, runs, tmp_path / "same") == []
    assert parity.compare(ROOT / "src", cut, runs, tmp_path / "cut-out") == [
        f"{name}: merging_path.svg, gic.svg" for name, _ in runs]


def test_engine_parity_reports_the_paths_a_change_moves(tmp_path):
    parity = _parity()
    cases = [("gaussian", 6, 20, 0, "adaptive"), ("survival", 6, 20, 0, "fast-fixed")]
    assert set(cases) < set(parity.ENGINE_CASES)
    copy, cut = tmp_path / "copy", tmp_path / "cut"
    for tree in (copy, cut):
        shutil.copytree(ROOT / "src" / "factorfuse", tree / "factorfuse",
                        ignore=shutil.ignore_patterns("__pycache__"))
    families = cut / "factorfuse" / "families.py"
    text = families.read_text(encoding="utf-8")
    assert "\nCOX_TOL = 1e-8\n" in text
    families.write_text(text.replace("\nCOX_TOL = 1e-8\n", "\nCOX_TOL = 1e-2\n"), encoding="utf-8")

    assert parity.compare_engine(ROOT / "src", copy, cases) == []
    differing = parity.compare_engine(ROOT / "src", cut, cases)
    assert len(differing) == 1
    assert differing[0].startswith("survival k=6 rows=20 seed=0 fast-fixed: loglik")
    assert "largest loglik gap" in differing[0]
