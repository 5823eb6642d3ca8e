#!/usr/bin/env python3
"""The repository's benchmark: one command, both pipelines, end to end.

    python3 bench/run.py --workload online_warm --seed 1

runs one named workload against the program's public API and its CLI
(``python -m repro.cli serve``), checks the outputs, prints every metric by
name with its unit, writes a stamped record under ``bench/_runs/`` and
prints the result object as the last line of standard output.  ``--trace 1``
performs the separate traced run that yields the per-layer table instead.

    python3 bench/run.py --all --runs 5 --record bench/records/BENCH_0012.json
    python3 bench/run.py --noise-floor 10

See ``bench/README.md`` for the catalogue and the measured noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, "_runs")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
RECORDS_DIR = os.path.join(BENCH_DIR, "records")
#: Number this PR's committed records carry.
RECORD_ID = "0012"

# Offline work is single-threaded by contract; pinned before numpy loads so
# a BLAS pool cannot add its own scheduling noise (servers inherit it).
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
sys.path[:0] = [ROOT, SRC_DIR]

from bench import catalogue  # noqa: E402
from bench.compare import verdict  # noqa: E402
from bench.stats import quartile_spread, summarize  # noqa: E402

WORKLOADS = {spec.name: spec for spec in catalogue.WORKLOADS}


# --------------------------------------------------------------------------- #
# Stamps and records
# --------------------------------------------------------------------------- #
def environment_stamp(seed: int, seconds: float) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        import numba  # noqa: F401
        numba_importable = True
    except ImportError:
        numba_importable = False
    return {"commit": commit, "seed": seed, "seconds": seconds,
            "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "numba": numba_importable,
            "platform": platform.platform(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


# --------------------------------------------------------------------------- #
# One run (the driver's contract)
# --------------------------------------------------------------------------- #
def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from bench import lifecycle

    spec = WORKLOADS[workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    stem = os.path.join(RUNS_DIR, f"{workload}-s{seed}-t{int(trace)}")
    try:
        if trace:
            from bench import layers
            metrics, details, checks = layers.run(
                spec, seed, workdir, SRC_DIR, stem + ".trace.json")
            units = {name: unit for name, unit, _, _ in catalogue.PER_LAYER}
        else:
            metrics, details, checks = lifecycle.run(
                spec, seed, seconds, workdir, SRC_DIR)
            units = {name: unit
                     for name, unit, _, _, _ in catalogue.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(metrics)
    checks.require(not missing, f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": checks.correct, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    write_json(stem + ".json", {
        "workload": workload, "trace": trace, "result": result,
        "problems": checks.problems, "details": details,
        "stamp": environment_stamp(seed, seconds)})

    width = max(map(len, units))
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    for name in units:
        if name in metrics:
            print(f"{name:<{width}}  {metrics[name]:>14.6g}  {units[name]}")
    print(f"{'attempted':<{width}}  {checks.attempted:>14d}  count")
    print(f"{'failed':<{width}}  {checks.failed:>14d}  count")
    for problem in checks.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if checks.correct else 1


# --------------------------------------------------------------------------- #
# Many runs: the baseline record and the noise floor
# --------------------------------------------------------------------------- #
def child_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh-process run; returns its parsed result object."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def values_of(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def run_all(seed: int, runs: int, seconds: float, record_path: str) -> int:
    """Every workload ``runs`` times untraced (seeds ``seed``, ``seed + 1``,
    ...) and once traced -> one record ``compare.py`` reads."""
    record = {"stamp": environment_stamp(seed, seconds), "runs": runs,
              "workloads": {}}
    for workload in WORKLOADS:
        entry = {"end_to_end": {}, "attempted": 0, "failed": 0}
        for index in range(runs):
            result = child_run(workload, seed + index, seconds, trace=False)
            for name, value in values_of(result).items():
                entry["end_to_end"].setdefault(name, []).append(value)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
        entry["per_layer"] = values_of(
            child_run(workload, seed, seconds, trace=True))
        record["workloads"][workload] = entry
        print(f"{workload}: done", flush=True)
    write_json(record_path, record)
    print(f"wrote {record_path}")
    return 0


def run_noise_floor(runs: int, seconds: float, record_path: str) -> int:
    """Two alternating sets of ``runs`` runs per workload, run ``i`` of
    either set on seed ``i`` — the acceptance driver's own protocol."""
    if runs < 5:
        raise SystemExit("--noise-floor needs at least 5 runs per set")
    values = {workload: ({}, {}) for workload in WORKLOADS}
    for index in range(runs):
        for side in (0, 1):
            for workload in WORKLOADS:
                result = child_run(workload, index + 1, seconds, trace=False)
                for name, value in values_of(result).items():
                    values[workload][side].setdefault(name, []).append(value)
            print(f"run {index + 1}/{runs} set {'AB'[side]}: done", flush=True)
    better = {name: direction
              for name, _, direction, _, _ in catalogue.END_TO_END}
    bounds = {name: bound for name, _, _, bound, _ in catalogue.END_TO_END}
    record = {"stamp": environment_stamp(0, seconds), "runs_per_set": runs,
              "workloads": {}}
    worst = 0.0
    for workload, (first, second) in values.items():
        rows = {}
        for name in first:
            a, b = summarize(first[name]), summarize(second[name])
            _, shift = verdict(first[name], second[name], better[name],
                               bounds[name])
            rows[name] = {
                "bound": bounds[name], "set_a": a, "set_b": b,
                "values_a": first[name], "values_b": second[name],
                "spread_a": quartile_spread(first[name]),
                "spread_b": quartile_spread(second[name]),
                "median_worsening": shift}
            # The driver gates every median shift, and every spread except
            # that of set-up time.
            gated = [shift] if name == "setup_s" else [
                shift, rows[name]["spread_a"], rows[name]["spread_b"]]
            worst = max(worst, max(gated) / bounds[name])
            print(f"{workload:16s} {name:16s} median {a['median']:.5g} / "
                  f"{b['median']:.5g}  spread {rows[name]['spread_a']:.3f} / "
                  f"{rows[name]['spread_b']:.3f}  bound {bounds[name]}")
        record["workloads"][workload] = rows
    record["worst_share_of_bound"] = worst
    write_json(record_path, record)
    print(f"wrote {record_path}; worst spread or shift is "
          f"{worst:.2f} of its bound")
    return 0 if worst <= 1.0 else 1


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced and "
                             "write one record")
    parser.add_argument("--runs", type=int, default=1, metavar="N",
                        help="untraced runs per workload of --all, on "
                             "consecutive seeds")
    parser.add_argument("--noise-floor", type=int, metavar="N", default=None,
                        help="two alternating sets of N runs per workload")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="where --all / --noise-floor write their record")
    parser.add_argument("--write-manifest", action="store_true",
                        help="render BENCHMARK.json from bench/catalogue.py")
    args = parser.parse_args(argv)

    if args.write_manifest:
        write_json(os.path.join(ROOT, "BENCHMARK.json"), catalogue.manifest())
        return 0
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"the program under test is missing: {SRC_DIR}/repro",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally blocks that stop servers and
    # remove work directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.noise_floor is not None:
        return run_noise_floor(
            args.noise_floor, args.seconds,
            args.record or os.path.join(RECORDS_DIR,
                                        f"NOISE_{RECORD_ID}.json"))
    if args.all:
        return run_all(args.seed, args.runs, args.seconds,
                       args.record or os.path.join(
                           RECORDS_DIR, f"BENCH_{RECORD_ID}.json"))
    if args.workload is None:
        parser.error("--workload is required (or --all / --noise-floor)")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
