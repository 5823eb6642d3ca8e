"""Packaging contract, checked offline (no install): ``setup.py``, the
modules each CLI process loads, and the lazily resolved package namespaces."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import pytest
from setuptools import find_packages

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Packages whose names resolve on first access (``repro._lazy``).
LAZY_PACKAGES = ("repro.graph", "repro.partitioning", "repro.processing",
                 "repro.ease", "repro.serving")


def _loaded_modules(probe: str, *argv: str) -> list:
    """``sys.modules`` of a fresh interpreter after it ran ``probe``."""
    probe += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run([sys.executable, "-c", probe, *argv],
                            cwd=REPO_ROOT, env=env, capture_output=True,
                            text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def _offenders(loaded: list, prefixes=(), names=()) -> list:
    return [module for module in loaded
            if module in names
            or any(module == prefix or module.startswith(prefix + ".")
                   for prefix in prefixes)]


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
    loaded = _loaded_modules("import repro.cli")
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    assert [name for name in comparison_only if name in loaded] == []


@pytest.fixture(scope="module")
def saved_bundle(tmp_path_factory):
    from repro.ease import EASE, GraphProfiler
    from repro.ease.persistence import save_ease
    from repro.generators import generate_rmat

    names = ("2d", "dbh", "ne")
    graphs = [generate_rmat(64, 300 + 100 * seed, seed=seed)
              for seed in range(3)]
    dataset = GraphProfiler(partitioner_names=names, partition_counts=(2,),
                            processing_partition_count=2,
                            algorithms=("pagerank",)).profile(graphs, graphs)
    path = str(tmp_path_factory.mktemp("bundle") / "ease.pkl")
    save_ease(EASE(partitioner_names=names).train(dataset), path)
    return path


def test_serve_path_loads_only_what_serving_runs(saved_bundle):
    # What ``_command_serve`` does before it listens: parse, build the
    # router (which unpickles the bundle), import the two front ends.
    probe = ("import sys\n"
             "from repro.cli import _build_router, build_parser\n"
             "args = build_parser().parse_args("
             "['serve', '--model', sys.argv[1]])\n"
             "_build_router(args)\n"
             "from repro.serving import PreforkFrontend, SelectionHTTPServer")
    loaded = _loaded_modules(probe, saved_bundle)
    assert "repro.serving.service" in loaded
    assert _offenders(loaded, prefixes=(
        "repro.runtime", "repro.generators"), names=(
        "repro.ease.profiling", "repro.ease.evaluation",
        "repro.ease.enrichment", "repro.ease.partitioning_cost",
        "repro.processing.engine", "repro.processing.cost_model",
        "repro.graph.sketches", "repro.serving.client",
        "repro.partitioning.kernels", "repro.partitioning.hashing",
        "repro.partitioning.dbh", "repro.partitioning.hdrf",
        "repro.partitioning.two_ps", "repro.partitioning.ne",
        "repro.partitioning.hep")) == []


def test_worker_path_loads_no_models_or_serving(tmp_path):
    # ``repro worker --drain`` on an empty queue: everything the worker
    # subcommand imports, and it exits at once.
    probe = ("import sys\n"
             "from repro.cli import main\n"
             "main(['worker', '--queue-dir', sys.argv[1], '--drain'])")
    loaded = _loaded_modules(probe, str(tmp_path / "queue"))
    assert "repro.runtime.backends" in loaded
    assert _offenders(loaded, prefixes=("repro.serving", "repro.ml"), names=(
        "repro.ease.pipeline", "repro.ease.selector",
        "repro.ease.quality_predictor",
        "repro.ease.partitioning_time_predictor",
        "repro.ease.processing_time_predictor")) == []


def _documented_imports():
    """``(package, name)`` of every package-level import in ``bench/``,
    ``examples/`` and ``docs/``."""
    pattern = re.compile(r"from (repro(?:\.\w+)*) import "
                         r"(?:\(([^)]*)\)|([\w ,]+))")
    found = set()
    for directory in ("bench", "examples", "docs"):
        for path in sorted((REPO_ROOT / directory).rglob("*")):
            if path.suffix not in (".py", ".md"):
                continue
            text = path.read_text(encoding="utf-8")
            for match in pattern.finditer(text):
                if match.group(1) not in LAZY_PACKAGES:
                    continue
                names = match.group(2) or match.group(3)
                for name in re.sub(r"#[^\n]*", "", names).split(","):
                    name = name.split(" as ")[0].strip()
                    if name:
                        found.add((match.group(1), name))
    return sorted(found)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_namespace_resolves_every_exported_name(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listing
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_namespace_rejects_unknown_names(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    name = module.__all__[0]
    original = getattr(module, name)
    with mock.patch(f"{package}.{name}", "patched"):
        assert getattr(module, name) == "patched"
    assert getattr(module, name) is original


def test_documented_package_imports_resolve():
    imports = _documented_imports()
    assert ("repro.ease", "EASE") in imports
    assert ("repro.serving", "SelectionClient") in imports
    for package, name in imports:
        assert name in importlib.import_module(package).__all__, \
            (package, name)


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
