"""The exact paths never load numpy.

numpy serves only the float Hadamard check.  A fresh interpreter imports the
CLI, then builds, verifies and derives every catalog entry that is not a
float family, and must finish without numpy, or the search module that only
the ``search`` command loads, in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import confhad

SCRIPT = """
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import confhad.cli
from confhad import catalog

codes = []
for name in catalog.names():
    if catalog.kind(name) == "family":
        continue
    for argv in (
        ["build", name],
        ["build", name, "--verified"],
        ["verify", name],
        ["verify", name, "--verified"],
        ["derive", name],
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.append(confhad.cli.main(argv))
assert 0 in codes and 1 in codes, codes  # passing and failing checks both ran
assert "confhad.search" not in sys.modules  # only the search command loads it
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""


def test_exact_catalog_paths_do_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(confhad.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
