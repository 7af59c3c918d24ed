"""Run the README's demos as scripts, the way a reader would."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(name, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env, timeout=120, cwd=cwd)


def test_crossing_walkthrough():
    done = _run("crossing_walkthrough.py")
    assert done.returncode == 0, done.stderr
    assert "9 pixels assigned to both" in done.stdout
    assert "masks identical to the bars we drew: True" in done.stdout


def test_quickstart(tmp_path):
    # the README's library flow: synth, train, infer, write overlays
    done = _run("quickstart.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert re.search(r"^predicted \d+ instance\(s\)", done.stdout, re.M), done.stdout
    assert (tmp_path / "quickstart_out" / "predicted.ppm").exists()
