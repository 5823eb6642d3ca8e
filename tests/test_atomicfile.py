"""Tests for :func:`repro.atomicfile.write_atomic` and the files it writes.

Every file another process or a later run reads back goes through the one
helper, so a failed write — an unpicklable object, a crash, a failing
rename — leaves the previous file intact and no temporary behind.  A lint
keeps new hand-rolled temp-file-and-rename copies out of ``src/repro``.
"""

import ast
import copy
import os
import pickle

import pytest

from repro.ease import EASE, GraphProfiler
from repro.ease.persistence import (
    load_dataset,
    load_ease,
    save_dataset,
    save_ease,
)
from repro.generators import generate_rmat
from repro.obs import MetricsRegistry, ScrapeDir
from repro.runtime import ArtifactStore, CheckpointJournal
from repro.runtime.backends import TaskEnvelope, _execute_claim
from repro.serving import ModelRegistry

PARTITIONERS = ("2d", "dbh", "ne")


@pytest.fixture(scope="module")
def small_profile():
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(4)]
    return profiler.profile(graphs, graphs)


@pytest.fixture(scope="module")
def trained_system(small_profile):
    return EASE(partitioner_names=PARTITIONERS).train(small_profile)


def _temp_files(root):
    return [os.path.join(directory, name)
            for directory, _, names in os.walk(root)
            for name in names if name.endswith(".tmp")]


class TestUnpicklableSaveKeepsPreviousFile:
    """``save_dataset`` / ``save_ease`` pickle before touching the file."""

    def test_save_dataset(self, tmp_path, small_profile):
        path = str(tmp_path / "profile.pkl")
        save_dataset(small_profile, path)
        broken = copy.copy(small_profile)
        broken.quality = list(small_profile.quality) + [lambda: None]
        with pytest.raises(Exception):
            save_dataset(broken, path)
        assert load_dataset(path).summary() == small_profile.summary()
        assert _temp_files(tmp_path) == []

    def test_save_ease(self, tmp_path, trained_system):
        path = str(tmp_path / "ease.pkl")
        save_ease(trained_system, path)
        broken = copy.copy(trained_system)
        broken.unpicklable = lambda: None
        with pytest.raises(Exception):
            save_ease(broken, path)
        assert isinstance(load_ease(path), EASE)
        assert _temp_files(tmp_path) == []


# --------------------------------------------------------------------------- #
# Failure atomicity of every writer
# --------------------------------------------------------------------------- #
# Each case returns ``(path, write)``: ``write(i)`` replaces the file at
# ``path`` with content that differs for every ``i``.
def _artifact_store(tmp_path, system):
    store = ArtifactStore(str(tmp_path / "cache"))
    key = ("partition", "fingerprint", "2d", 2)
    return store.path_for(key), lambda i: store.put(key, {"value": i})


def _journal_rewrite(tmp_path, system):
    journal = CheckpointJournal(str(tmp_path / "run.checkpoint"))
    return journal.path, lambda i: journal.rewrite({("task", 0): i})


def _queue_ack(tmp_path, system):
    queue_dir = str(tmp_path / "queue")
    claimed = os.path.join(queue_dir, "claimed", "t.task")
    os.makedirs(os.path.dirname(claimed))

    def ack(i):
        # The graph file is absent, so the worker acks an error result.
        with open(claimed, "wb") as handle:
            pickle.dump(TaskEnvelope(("task", i), None, "missing"), handle)
        _execute_claim(claimed, queue_dir, {}, ArtifactStore(None))

    return os.path.join(queue_dir, "results", "t.result"), ack


def _scrape_slot(tmp_path, system):
    scrape = ScrapeDir(str(tmp_path / "scrape"))

    def flush(i):
        registry = MetricsRegistry()
        registry.counter("writes_total", "test counter").inc(i + 1)
        scrape.flush(registry)

    return scrape.slot_path(), flush


def _registry_tag(tmp_path, system):
    registry = ModelRegistry(str(tmp_path / "registry"))
    version = registry.publish(system, "m").version
    return registry._tags_path("m"), \
        lambda i: registry.promote("m", version, tag=f"tag{i}")


def _ease_bundle(tmp_path, system):
    path = str(tmp_path / "ease.pkl")

    def save(i):
        variant = copy.copy(system)
        variant.marker = i
        save_ease(variant, path)

    return path, save


@pytest.mark.parametrize("writer", [
    _artifact_store, _journal_rewrite, _queue_ack, _scrape_slot,
    _registry_tag, _ease_bundle,
], ids=lambda writer: writer.__name__.lstrip("_"))
def test_failed_replace_keeps_old_file_and_leaves_no_temp(
        writer, tmp_path, monkeypatch, trained_system):
    path, write = writer(tmp_path, trained_system)
    write(0)
    with open(path, "rb") as handle:
        old = handle.read()

    def fail(*args):
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="injected rename failure"):
        write(1)
    monkeypatch.undo()
    with open(path, "rb") as handle:
        assert handle.read() == old
    assert _temp_files(tmp_path) == []


# --------------------------------------------------------------------------- #
# Lint: no hand-rolled temp-file-and-rename outside the helper
# --------------------------------------------------------------------------- #
#: ``(module, function)`` pairs allowed to call ``tempfile.mkstemp`` or
#: ``os.replace`` themselves; each carries a ``# Not write_atomic:`` comment.
ALLOWED = {
    ("atomicfile.py", "write_atomic"),
    # Bundle + manifest are staged in a directory published by one rename.
    ("serving/registry.py", "ModelRegistry.publish"),
}


def _replace_calls(path):
    """Yield ``(qualname, lineno, source)`` of every mkstemp / os.replace
    call, ``source`` being the text of the enclosing function."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()

    def visit(node, scope, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, scope + (child.name,), child)
                continue
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and isinstance(child.func.value, ast.Name) \
                    and (child.func.value.id, child.func.attr) in {
                        ("tempfile", "mkstemp"), ("os", "replace")}:
                source = "\n".join(
                    lines[function.lineno - 1:function.end_lineno]) \
                    if function is not None else ""
                yield ".".join(scope), child.lineno, source
            yield from visit(child, scope, function)

    yield from visit(ast.parse(text, filename=path), (), None)


def test_temp_and_rename_only_in_the_helper_and_documented_exceptions():
    import repro

    package_dir = os.path.dirname(repro.__file__)
    found = set()
    offenders = []
    for directory, _, names in os.walk(package_dir):
        for filename in sorted(names):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            module = os.path.relpath(path, package_dir).replace(os.sep, "/")
            for qualname, lineno, source in _replace_calls(path):
                where = f"{module}:{lineno} ({qualname})"
                if (module, qualname) not in ALLOWED:
                    offenders.append(where)
                elif module != "atomicfile.py" \
                        and "# Not write_atomic:" not in source:
                    offenders.append(where + " lacks a 'Not write_atomic' "
                                     "comment saying why")
                found.add((module, qualname))
    assert not offenders, \
        "use repro.atomicfile.write_atomic instead: " + str(offenders)
    assert found == ALLOWED  # a stale exception is dropped from the list
