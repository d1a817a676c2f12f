"""Wrist-to-mmHg benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 wristbench/run.py --workload cohort --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``,
``peak_rss_mb``, ``work_per_s``, ``latency_ms``). ``--trace 1`` runs the
workload's set once untraced and once with every layer's public calls
wrapped in spans, and reports the per-layer ledger. Either way the
outputs are checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is 1 when a check failed. Without the program's sources next to
the benchmark the run exits 2 and prints no result.

Every run writes its full record (host, versions, samples, quartiles,
checks) under ``.wristbench/results`` and, when traced, its spans under
``.wristbench/traces``. Native kernels build in a private temporary
directory under ``.wristbench/tmp``; the run counts the build
directories the program leaves there and then removes them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".wristbench"

#: Fresh interpreters that repeat the cold start in an untraced run,
#: besides the run's own process.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("latency_ms", "ms"),
)


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cohort", "imaging", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only run the cold start and print its split as JSON",
    )
    return parser.parse_args(argv)


def _private_tmp() -> Path:
    """A temporary directory for this process alone, inside the checkout."""
    path = WORK / "tmp" / f"{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    return path


def _leaked_kernel_dirs(tmp: Path) -> int:
    return len(list(tmp.glob("repro-*-kernel-*")))


def _quartiles(values) -> dict:
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _probe(workload: str) -> dict:
    """Cold start in a fresh interpreter; returns its split."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", "0", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_origin() -> None:
    """The program must be the one in this checkout, not an installed copy."""
    module = sys.modules.get("repro")
    src = (ROOT / "src").resolve()
    if module is None or src not in Path(module.__file__).resolve().parents:
        raise ImportError(f"repro is not imported from {src}")


def _host() -> dict:
    import numpy

    def first_line(cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip().splitlines()[0] if done.returncode == 0 and done.stdout else None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": first_line(["gcc", "--version"]),
        "platform": platform.platform(),
    }


def _end_to_end(workload, outcome, setup_samples) -> tuple[dict, dict]:
    """Each end-to-end metric's value (a median) and its samples' quartiles."""
    import numpy as np

    units = outcome.unit_seconds
    if workload == "fleet":
        work = outcome.details["burst_fps"]
        latency = [outcome.details["frame_p50_ms"]]
    else:
        work = [1.0 / s for s in units]
        latency = [s * 1e3 for s in units]
    samples = {
        "setup_s": [s["setup_s"] for s in setup_samples],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "work_per_s": work,
        "latency_ms": latency,
    }
    values = {name: float(np.median(v)) for name, v in samples.items()}
    return values, {name: _quartiles(v) for name, v in samples.items()}


def _measure(args, tmp: Path) -> dict:
    import coldstart

    setup = coldstart.setup(args.workload)
    _check_origin()
    import workloads

    setup_samples = [setup["split"]] + [
        _probe(args.workload) for _ in range(SETUP_PROBES)
    ]
    inputs = workloads.PREPARE[args.workload](args.seed, args.seconds)
    start = time.perf_counter()
    deadline = start + args.seconds
    if args.workload == "fleet":
        min_units = 3
    elif args.workload == "cohort":
        min_units = workloads.COHORT_CHUNKS + 1
    else:
        min_units = workloads.IMAGING_FRAMES + 1
    outcome = workloads.PASSES[args.workload](
        inputs, setup["objects"], deadline=deadline, min_units=min_units
    )
    measured_s = time.perf_counter() - start
    values, spread = _end_to_end(args.workload, outcome, setup_samples)
    units = dict(END_TO_END)
    return {
        "outcome": outcome,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END},
        "record": {
            "measured_s": measured_s,
            "setup_samples": setup_samples,
            "tmpdirs_leaked": _leaked_kernel_dirs(tmp),
            "metric_quartiles": spread,
        },
    }


def _traced(args, tmp: Path) -> dict:
    import coldstart
    from spans import Tracer, ledger

    tracer = Tracer()
    t0 = time.perf_counter()
    setup = coldstart.setup(args.workload, tracer)
    setup_wall = time.perf_counter() - t0
    _check_origin()
    import layers
    import workloads

    inputs = workloads.PREPARE[args.workload](args.seed, args.seconds)
    run_pass = workloads.PASSES[args.workload]
    min_units = 3 if args.workload == "fleet" else None

    workloads.warm_up(args.workload, inputs, setup["objects"])
    t0 = time.perf_counter()
    plain = run_pass(inputs, coldstart.build_objects(args.workload), min_units=min_units)
    plain_wall = time.perf_counter() - t0

    objects = coldstart.build_objects(args.workload)
    layers.install(tracer)
    try:
        t0 = time.perf_counter()
        traced = run_pass(inputs, objects, tracer=tracer, min_units=min_units)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.restore()

    if traced.digest != plain.digest:
        traced.failures.append("traced output digest differs from the untraced one")
    traced.failures = plain.failures + traced.failures
    traced.attempted += plain.attempted
    traced.failed += plain.failed

    book = ledger(tracer.spans, setup_wall + traced_wall)
    extras = dict(traced.extras)
    split = setup["split"]
    extras.update(
        {
            "setup.import_s": split["import_s"],
            "setup.sdm_build_s": split["sdm_build_s"],
            "setup.batch_build_s": split["batch_build_s"],
            "setup.tmpdirs_leaked": _leaked_kernel_dirs(tmp),
            "ledger.wall_s": book["wall_s"],
            "ledger.unattributed_s": book["unattributed_s"],
            "ledger.unattributed_share": book["unattributed_share"],
            "ledger.overhead_s": traced_wall - plain_wall,
        }
    )
    values = layers.collect(tracer.counters, book["layers"], extras)
    units = {name: unit for name, unit, _ in layers.per_layer_names()}
    trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}-{time.time_ns()}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans})
    )
    return {
        "outcome": traced,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "record": {
            "setup_wall_s": setup_wall,
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "ledger": book,
            "untraced_details": plain.details,
            "spans_file": str(trace_path.relative_to(ROOT)),
        },
    }


def main(argv=None) -> int:
    args = _arguments(argv)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    tmp = _private_tmp()
    try:
        if args.setup_probe:
            import coldstart

            split = coldstart.setup(args.workload)["split"]
            split["tmpdirs_leaked"] = _leaked_kernel_dirs(tmp)
            print(json.dumps(split))
            return 0
        try:
            result = (_traced if args.trace else _measure)(args, tmp)
        except ImportError as exc:
            print(f"wristbench: cannot import the program: {exc}", file=sys.stderr)
            return 2
        outcome = result["outcome"]
        correct = not outcome.failures
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": _host(),
            "correct": correct,
            "failures": outcome.failures,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "fail_frac": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
            "units": outcome.units,
            "digest": outcome.digest,
            "metrics": result["metrics"],
            "details": outcome.details,
            **result["record"],
        }
        out_dir = WORK / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1, default=_jsonable))
        for failure in outcome.failures:
            print(f"CHECK FAILED: {failure}")
        for name, metric in result["metrics"].items():
            print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
        print(f"record: {path.relative_to(ROOT)}")
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(int(outcome.attempted), 1),
                    "failed": int(outcome.failed),
                    "metrics": result["metrics"],
                }
            )
        )
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _jsonable(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return repr(value)


if __name__ == "__main__":
    sys.exit(main())
