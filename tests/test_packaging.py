"""Packaging contract of ``setup.py``, checked offline (no install)."""

import pathlib
import subprocess
import sys

from setuptools import find_packages

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_setup_names_the_project_and_lists_every_package():
    result = subprocess.run([sys.executable, "setup.py", "--name"],
                            cwd=REPO_ROOT, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip().splitlines()[-1] == "repro"
    source = REPO_ROOT / "src"
    with_init = {".".join(path.parent.relative_to(source).parts)
                 for path in (source / "repro").rglob("__init__.py")}
    assert set(find_packages(str(source))) == with_init

