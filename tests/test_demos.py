"""Run the README's demos as scripts, the way a reader would."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_crossing_walkthrough():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", "crossing_walkthrough.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "9 pixels assigned to both" in done.stdout
    assert "masks identical to the bars we drew: True" in done.stdout
