"""Every demo runs to completion, and every name of the public API that
the demos import resolves. Each demo runs in its own temporary working
directory, because demo 04 writes a file into the one it is started in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import genzsl

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    assert [name for name in genzsl.__all__ if not hasattr(genzsl, name)] == []
