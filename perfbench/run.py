"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of a source checkout of idgnn; the program is imported
from ``src/``. Each worker is a fresh Python process (``worker.py``).

``--trace 0`` times the workload: ``SETUP_ONLY_WORKERS`` set-up-only workers
plus one measuring worker give the set-up samples, and the measuring worker
repeats rounds of the workload's CLI calls for ``--seconds``. Every gated
timing is a median of times scaled by the machine's pace (``pace.py``): on a
shared machine, load from outside slows the same call by up to a factor of
1.5 for minutes at a time, and the scaling takes most of that out. Raw
medians, fastest times, tails and sample counts are printed on the lines
before the result.

``--trace 1`` runs one untraced round per input set and then the same rounds
in a worker that wraps idgnn's public functions (``tracer.py``). It reports
per-layer calls, self time and counters, the tracing overhead, and fails the
run if any output file of the traced rounds differs from the untraced ones.

Human-readable lines, the machine and code record included, come first; the
last line of standard output is the JSON result. Spans and the full record
are kept under ``.perfbench_out/``. Exit code 2 means the checkout holds no
idgnn sources, 1 that a worker died or timed out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import COUNTERS, TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_WORKERS = 4
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"


def _env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("IDGNN_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkerFailed(Exception):
    pass


def _worker(env, deadline, work_dir, *flags) -> dict:
    os.makedirs(work_dir)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--dir", work_dir,
           "--result", result_path, *flags]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    with open(result_path) as fh:
        return json.load(fh)


def _calls(result: dict) -> list[dict]:
    return [call for rnd in result["rounds"] for call in rnd]


def _label_seconds(result: dict, key: str = "norm_seconds") -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for call in _calls(result):
        times.setdefault(call["label"], []).append(call[key])
    return times


def _role_seconds(result: dict, role: str, key: str = "norm_seconds") -> float:
    """Sum over the role's calls of each call's median time."""
    roles = {call["label"]: call["role"] for call in _calls(result)}
    return sum(statistics.median(times) for label, times in _label_seconds(result, key).items()
               if roles[label] == role)


def _tail(values: list[float]) -> tuple[float, int] | None:
    """Highest whole percentile above the median with at least ten samples
    above it."""
    values = sorted(values)
    for pct in range(99, 50, -1):
        rank = int(len(values) * pct / 100)
        if len(values) - rank - 1 >= 10:
            return values[rank], pct
    return None


def _code_record(root: str) -> dict:
    src = os.path.join(root, "src", "idgnn")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += sum(1 for line in data.splitlines() if line)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_nonempty_lines": lines}


def _per_layer_names() -> list[str]:
    names = [f"{m}.{f}.{k}" for m, f in TRACED for k in ("calls", "self_s")]
    return names + list(COUNTERS) + ["tasks.prepare_s", "tasks.epoch_s",
                                     "trace.main_overhead_s", "trace.aux_overhead_s"]


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    # subprocess.run kills and waits for its child when an exception
    # interrupts it, so turning SIGTERM into SystemExit stops the worker too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "idgnn", "cli.py")):
        print(f"error: no idgnn sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = os.path.join(root, ".perfbench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_dir, f"{tag}-{os.getpid()}")
    env = _env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            ref = _worker(env, deadline, os.path.join(work, "untraced"), *common)
            runs = [ref, _worker(env, deadline, os.path.join(work, "traced"), *common,
                                 "--trace", "1", "--spans",
                                 os.path.join(out_dir, f"{tag}.spans.jsonl"))]
        else:
            setups = [_worker(env, deadline, os.path.join(work, f"setup{i}"), *common,
                              "--setup-only") for i in range(SETUP_ONLY_WORKERS)]
            runs = [_worker(env, deadline, os.path.join(work, "run"), *common,
                            "--seconds", str(args.seconds))]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [call for run in runs for call in _calls(run)]
    if args.trace:
        ref, traced = runs
        for want, got in zip(_calls(ref), _calls(traced)):
            if got["hashes"] != want["hashes"]:
                got["failures"].append("traced outputs differ from untraced ones")
    failed = sum(1 for call in calls if call["failures"])
    for call in calls:
        for msg in call["failures"]:
            print(f"FAILED {call['label']}: {msg}")

    measured = runs[-1]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpu_count": os.cpu_count(), **measured["versions"],
        "blas_threads": BLAS_THREADS, "IDGNN_THREADS": "unset",
        **_code_record(root),
    }
    if args.trace:
        trace = dict(traced["trace"])
        trace["tasks.epoch_s"] = statistics.median(ref["epochs"]) if ref["epochs"] else 0.0
        for role in ("main", "aux"):
            trace[f"trace.{role}_overhead_s"] = (_role_seconds(traced, role, "seconds")
                                                 - _role_seconds(ref, role, "seconds"))
        metrics = {name: {"value": trace[name], "unit": _unit(name)}
                   for name in _per_layer_names()}
    else:
        setups.append(measured)
        setup_raw = [w["setup_s"] for w in setups]
        setup_norm = [w["setup_norm_s"] for w in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "main_s": {"value": _role_seconds(measured, "main"), "unit": "s"},
            "aux_s": {"value": _role_seconds(measured, "aux"), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{tag}: {len(measured['rounds'])} rounds; times scaled by pace, "
              f"then raw (median, fastest)")
        print(f"  setup_s = {statistics.median(setup_norm):.4f} s scaled; raw "
              f"{statistics.median(setup_raw):.4f} s, {min(setup_raw):.4f} s; "
              f"{len(setups)} samples")
        raw = _label_seconds(measured, "seconds")
        for label, times in _label_seconds(measured).items():
            line = (f"  {label}_s = {statistics.median(times):.4f} s scaled; raw "
                    f"{statistics.median(raw[label]):.4f} s, {min(raw[label]):.4f} s; "
                    f"{len(times)} samples")
            tail = _tail(times)
            if tail:
                line += f"; scaled p{tail[1]} {tail[0]:.4f} s"
            print(line)
        epochs = measured["epochs"]
        if epochs:
            line = f"  epoch_s = {statistics.median(epochs):.4f} s (median of {len(epochs)})"
            tail = _tail(epochs)
            if tail:
                line += f"; epoch_tail_s = {tail[0]:.4f} s (p{tail[1]})"
            print(line)
        for key, value in measured["record"].items():
            print(f"  {key} = {value}")
        print(f"  error_rate = {failed}/{len(calls)}")
    record["metrics"] = metrics
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
