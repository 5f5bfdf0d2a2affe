"""`import rmlab` loads nothing beyond numpy but a few small standard modules.

A process that imports the package anew pays for every module the import
pulls in, so a new dependency of `import rmlab` shows up here first.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rmlab

ALLOWED = ("json", "_json", "dataclasses", "copy", "__future__")


def test_import_loads_only_allowed_modules():
    code = "import sys; import numpy; before = set(sys.modules); import rmlab; print(sorted(set(sys.modules) - before))"
    src = str(Path(rmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = ast.literal_eval(proc.stdout.strip())
    assert "rmlab" in loaded
    others = [m for m in loaded if m != "rmlab" and not m.startswith("rmlab.")]
    assert [m for m in others if m.split(".")[0] not in ALLOWED] == []
