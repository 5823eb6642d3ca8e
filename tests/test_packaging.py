"""Packaging contract of ``setup.py``, checked offline (no install)."""

import ast
import json
import os
import pathlib
import re
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


def test_cli_import_loads_no_comparison_only_code():
    # ``import repro.cli`` is the first import of ``repro serve`` and
    # ``repro worker``; the model-family comparison (and through SVR, scipy)
    # must stay out of it.
    comparison_only = ("repro.ml.svr", "repro.ml.mlp", "repro.ml.knn",
                       "repro.ml.model_selection", "repro.ease.training")
    probe = ("import json, sys; import repro.cli; "
             "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run([sys.executable, "-c", probe], cwd=REPO_ROOT,
                            env=env, capture_output=True, text=True,
                            check=True)
    loaded = json.loads(result.stdout)
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    assert [name for name in comparison_only if name in loaded] == []


def test_python_requires_is_the_oldest_ci_python():
    tree = ast.parse((REPO_ROOT / "setup.py").read_text(encoding="utf-8"))
    [call] = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "setup"]
    options = {keyword.arg: keyword.value for keyword in call.keywords}
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    matrix = re.search(r"python-version:\s*(\[[^\]]*\])", workflow)
    oldest = min(json.loads(matrix.group(1)),
                 key=lambda version: tuple(map(int, version.split("."))))
    assert ast.literal_eval(options["python_requires"]) == f">={oldest}"
    assert sys.version_info >= tuple(map(int, oldest.split(".")))
