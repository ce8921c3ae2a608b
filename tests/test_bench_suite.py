"""The benchmark's own unit tests pass against the current library.

The benchmark checks every answer it times, through the same public
functions these tests cover, so a library change that breaks its
checker or its input generator fails here rather than only when the
benchmark is run.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_unittests_pass():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
