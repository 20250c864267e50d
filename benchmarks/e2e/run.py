"""End-to-end benchmark entry point.

Driver form (one workload, one run, this process)::

    python3 benchmarks/e2e/run.py --workload batch_deep --seed 7 --seconds 10 --trace 0

prints human-readable lines and, last, one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

Suite form (no ``--workload``)::

    python3 benchmarks/e2e/run.py [--seed N] [--quick] [--aa]

runs every workload in its own fresh subprocess, sequentially — an
untraced run for the end-to-end metrics, then a traced run for the layer
table — prints every metric by name with its unit, and records the result
under ``benchmarks/e2e/out/``.  ``--aa`` runs the suite twice on the same
tree and fails if any end-to-end metric disagrees by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DETAIL_PREFIX = "#detail "
#: The seed ``goldens.json`` is written for (and the suite's default).
DEFAULT_SEED = 1
#: Counts that depend on how two clients' requests interleave at the
#: service queue, so an A/A pair may differ on them.
INTERLEAVING_COUNTS = (
    "serve.service.batches",
    "serve.service.session_hits",
    "serve.service.coalesced",
)


def scrub_env(env: Dict[str, str]) -> None:
    """Isolation: drop the repo's bench/device switches, pin BLAS threads.

    Must run before numpy is imported — the thread pools read these at
    library load.
    """
    for key in list(env):
        if key in ("REPRO_DEVICE", "REPRO_BENCH_SCALE") or (
            key.startswith("REPRO_BENCH_") and key.endswith("_SMOKE")
        ):
            del env[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"


def load_benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Driver form: one workload in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    scrub_env(os.environ)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark needs the program under {SRC}; not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness  # noqa: E402 - after the environment is scrubbed

    spec = load_benchmark_json()
    if args.workload not in harness.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), quick=args.quick
    )
    detail = result.pop("detail")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(result["metrics"]):
        odd = sorted(set(units) ^ set(result["metrics"]))
        print(f"metrics differ from BENCHMARK.json: {odd}", file=sys.stderr)
        return 3
    print(
        f"{detail['workload']}: seed {detail['seed']}, mode {detail['mode']}, "
        f"{detail['units']} units, {detail['op_samples']} op samples, "
        f"failed_ops {detail['failed_ops']} of {detail['ops']} ops, "
        f"oracle_mismatch_nets {detail['oracle_mismatch_nets']}"
    )
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:<44s} {value:14.6f} {units[name]}")
    if "layer_table" in detail:
        print(detail.pop("layer_table"))
        if detail["trace_missing"]:
            print(f"  trace.missing targets: {detail['trace_missing']}")
    result["metrics"] = metrics
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Suite form: every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: int, trace: int, quick: bool) -> Dict[str, Any]:
    env = dict(os.environ)
    scrub_env(env)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    for line in lines[:-1]:
        if not line.startswith(DETAIL_PREFIX):
            print("  " + line)
    result = json.loads(lines[-1])
    result["detail"] = next(
        json.loads(line[len(DETAIL_PREFIX):])
        for line in reversed(lines)
        if line.startswith(DETAIL_PREFIX)
    )
    return result


def _provenance(seed: int, mode: str) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "mode": mode,
    }


def run_suite(seed: int, seconds: int, quick: bool) -> Dict[str, Any]:
    spec = load_benchmark_json()
    suite: Dict[str, Any] = {
        "provenance": _provenance(seed, "quick" if quick else "full"),
        "workloads": {},
    }
    print(f"provenance: {json.dumps(suite['provenance'], sort_keys=True)}")
    for entry in spec["workloads"]:
        name = entry["name"]
        print(f"== {name}: {entry['why']}")
        plain = _child(name, seed, seconds, 0, quick)
        traced = _child(name, seed, seconds, 1, quick)
        suite["workloads"][name] = {"end_to_end": plain, "per_layer": traced}
    return suite


def _merge_traces(names: List[str]) -> None:
    out = os.path.join(HERE, "out")
    merged: Dict[str, Any] = {}
    for name in names:
        path = os.path.join(out, f"trace.{name}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                merged[name] = json.load(handle)
            os.remove(path)
    with open(os.path.join(out, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump(merged, handle)


def _suite_ok(suite: Dict[str, Any]) -> bool:
    return all(
        run["correct"]
        for pair in suite["workloads"].values()
        for run in pair.values()
    )


def main_suite(args: argparse.Namespace) -> int:
    seconds = args.seconds or load_benchmark_json()["run_seconds"]
    suite = run_suite(args.seed, seconds, args.quick)
    _merge_traces(list(suite["workloads"]))
    ok = _suite_ok(suite)
    print("suite: " + ("all outputs correct" if ok else "WRONG OUTPUTS — see failed_ops above"))
    if args.quick:
        # A smoke run is a sanity check, never a baseline.
        print("quick mode: one unit per workload, no medians — not recorded")
    else:
        path = os.path.join(HERE, "out", "result.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(suite, handle, indent=1, sort_keys=True)
        print(f"recorded {path}")
    return 0 if ok else 1


def main_aa(args: argparse.Namespace) -> int:
    """A/A self-check: the same tree twice, judged by the benchmark's bounds."""
    if args.quick:
        print("--aa refuses --quick: a one-unit run cannot hold a bound", file=sys.stderr)
        return 2
    spec = load_benchmark_json()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first = run_suite(args.seed, seconds, False)
    second = run_suite(args.seed, seconds, False)
    outside: List[Tuple[str, str]] = []
    print("A/A: workload metric first second rel_diff bound")
    for name in first["workloads"]:
        a = first["workloads"][name]["end_to_end"]["metrics"]
        b = second["workloads"][name]["end_to_end"]["metrics"]
        for metric, bound in bounds.items():
            va, vb = a[metric]["value"], b[metric]["value"]
            diff = abs(vb - va) / va
            flag = "" if diff <= bound else "  OUTSIDE"
            print(f"  {name:<14s} {metric:<16s} {va:12.5f} {vb:12.5f} {diff:8.2%} {bound:6.0%}{flag}")
            if flag:
                outside.append((name, metric))
        ca = first["workloads"][name]["per_layer"]["metrics"]
        cb = second["workloads"][name]["per_layer"]["metrics"]
        for metric in ca:
            if ca[metric]["unit"] in ("s", "frac") or metric in INTERLEAVING_COUNTS:
                continue
            if ca[metric]["value"] != cb[metric]["value"]:
                print(f"  {name:<14s} {metric}: count differs {ca[metric]['value']} != {cb[metric]['value']}")
                outside.append((name, metric))
    ok = _suite_ok(first) and _suite_ok(second) and not outside
    print("A/A: " + ("agree within every bound" if ok else f"FAILED: {outside}"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (driver form)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=0, help="seconds one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one unit, no medians; never recorded")
    parser.add_argument("--aa", action="store_true", help="run the suite twice and compare")
    parser.add_argument("--write-goldens", action="store_true", help="regenerate goldens.json for the default seed")
    args = parser.parse_args(argv)
    if args.workload:
        if not args.seconds:
            args.seconds = load_benchmark_json()["run_seconds"]
        return run_one(args)
    if args.write_goldens:
        return write_goldens()
    if args.aa:
        return main_aa(args)
    return main_suite(args)


def write_goldens() -> int:
    """Regenerate ``goldens.json`` from quick runs at the default seed."""
    names = [entry["name"] for entry in load_benchmark_json()["workloads"]]
    goldens = {
        "seed": DEFAULT_SEED,
        "workloads": {
            # A stale goldens.json only makes these runs report a failed op.
            name: _child(name, DEFAULT_SEED, 1, 0, quick=True)["detail"]["golden"]
            for name in names
        },
    }
    with open(os.path.join(HERE, "goldens.json"), "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote goldens for {names} at seed {DEFAULT_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
