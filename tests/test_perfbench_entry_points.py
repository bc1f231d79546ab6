"""The entry points perfbench's tracer wraps still exist.

``perfbench/spans.py`` times the program from outside: ``install``
replaces named attributes of the library's classes and modules (read
through ``owner.__dict__[name]``) with recording wrappers.  A refactor
that renames or moves one of them must fail here, in the tier-1 suite,
not only in a traced benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_DIR, "src"), os.path.join(REPO_DIR, "perfbench")]
    )
    result = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Tracer())"],
        cwd=REPO_DIR, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
