import subprocess
import sys
from pathlib import Path

from rtensor.dsl import run_script

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_golden_script_passes():
    report = run_script(SCRIPTS / "golden.rts", emit=lambda *_: None)
    assert report.ok
    assert report.statements >= 30


def test_run_demo_writes_the_images_and_reports_the_error(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_demo.py"), "--size", "32", "--seed", "7",
         "--max-iter", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    for name in ("source", "ground_truth", "mask", "aberrated", "corrected"):
        assert (tmp_path / f"{name}.pgm").stat().st_size > 0
    for name in ("aberrated", "phase", "report"):
        assert (tmp_path / f"{name}.csv").stat().st_size > 0
    assert "max |corrected - ground truth| = " in out.stdout
