"""One fresh process of a benchmark run: set-up, then timed rounds.

Set-up is the imports plus input generation, timed from the top of this file
and scaled by the machine's pace right after it (``pace.py``). Each round
runs the workload's CLI calls in order through ``idgnn.cli.main`` in this
process, times each call, checks its outputs outside the timed region, and
hashes every output file so that rounds, and traced against untraced
processes, can be compared byte for byte. An untraced measuring worker
samples the pace throughout its rounds and scales each call by it; a traced
one does not, so that spans hold only the program's time.

    python3 perfbench/worker.py --workload W --seed S --dir D --result R.json \
        [--seconds T] [--trace 0|1] [--spans S.jsonl] [--setup-only]
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_cli(cli, argv: list[str]) -> int:
    """Exit code of one CLI call; a traceback counts as exit code 1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash of the program under test is a failed call
        traceback.print_exc()
        return 1


def _check(work, call, ctx) -> list[str]:
    """The workload's checks; unreadable or malformed outputs fail the call."""
    try:
        return work.check(call, ctx)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    os.chdir(args.dir)

    import idgnn.cli as cli
    import pace
    import tracer
    import workloads

    rec = tracer.Recorder()
    if args.trace:
        rec.install(tracer.TRACED)
        rec.count_restarts()
    else:
        rec.install(tracer.EPOCH_CLOCK)
    work = workloads.WORKLOADS[args.workload]
    ctx = work.setup(cli, args.seed)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, "setup_norm_s": setup_s * pace.block_scale()}
    if not args.setup_only:
        clock = None if args.trace else pace.Pace()
        result.update(_measure(cli, rec, work, ctx, args.seconds, clock))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = _versions()
        if args.trace:
            result["trace"] = rec.summary()
            if args.spans:
                rec.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _measure(cli, rec, work, ctx, seconds: float, clock) -> dict:
    """Rounds until ``seconds`` have passed, at least one and at least one on
    each of the workload's inputs. ``clock`` is a pace.Pace, or None to time
    without it."""
    rounds, epochs, spans = [], [], []
    deadline = time.perf_counter() + seconds
    if clock:
        clock.start()
    while True:
        calls = []
        for call in work.calls(ctx, len(rounds)):
            first_span = len(rec.spans)
            handler_s = clock.handler_s if clock else 0.0
            start = time.perf_counter()
            rc = _run_cli(cli, call.argv)
            end = time.perf_counter()
            elapsed = end - start - ((clock.handler_s - handler_s) if clock else 0.0)
            failures = [] if rc == 0 else [f"exit code {rc}"]
            hashes = {}
            if rc == 0:
                failures += _check(work, call, ctx)
                hashes = {path: _sha256(path) for path in call.outputs}
                if len(rounds) >= work.inputs:
                    reference = rounds[len(rounds) % work.inputs][len(calls)]["hashes"]
                    failures += [f"{path} differs from the first round on this input"
                                 for path in hashes if hashes[path] != reference.get(path)]
            epochs += rec.epoch_seconds(first_span)
            spans.append((start, end))
            calls.append({"label": call.label, "role": call.role, "seconds": elapsed,
                          "rc": rc, "failures": failures, "hashes": hashes})
        rounds.append(calls)
        if time.perf_counter() >= deadline and len(rounds) >= work.inputs:
            break
    if clock:
        clock.stop()
    for call, (start, end) in zip((c for rnd in rounds for c in rnd), spans):
        call["norm_seconds"] = call["seconds"] * (clock.scale(start, end) if clock else 1.0)
    try:
        record = work.record(ctx)
    except (OSError, ValueError, KeyError, TypeError):
        record = {}
    return {"rounds": rounds, "epochs": epochs, "record": record}


if __name__ == "__main__":
    sys.exit(main())
