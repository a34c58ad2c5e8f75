#!/usr/bin/env python3
"""Run a fixed set of small CLI commands and print a digest of every result.

Each command runs in-process through idgnn.cli.main, in one scratch
directory and at one BLAS thread, so two checkouts that compute the same
bits print the same text. For every command the script prints its argv,
its exit code, the sha256 of its stdout, its stderr lines verbatim, and the
sha256 of each file that the command created or changed. The set covers
generate for every family, features, wl, expressiveness, train and eval for
every flavor and aggregation, variant and task, report, and failing
commands. A header of ``#`` lines names the Python, numpy, scipy and BLAS
versions. To compare two checkouts:

    diff <(scripts/output_digests.py --src OTHER/src) <(scripts/output_digests.py)

``tests/output_digests.txt`` holds this checkout's output, and a test
compares a fresh run with it line by line. A change that alters outputs on
purpose regenerates it, and names each changed command and why:

    scripts/output_digests.py > tests/output_digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

SCHEMES = (("gcn", None), ("sage", "sum"), ("sage", "mean"), ("sage", "max"), ("gin", None))
VARIANTS = ("plain", "id-full", "id-fast")
TASKS = ("node-cc", "edge-spd", "graph-cc")


def _line(path: str, index: int):
    """Line ``index`` of the file ``path``, read when the fixture is written."""
    return lambda root: (root / path).read_text().splitlines(keepends=True)[index]


def commands():
    """The fixed command list. A ``(name, text)`` item is a fixture file
    written before the next command; a callable text gets the directory."""
    yield ["generate", "--family", "d-regular", "--n", "10", "--d", "3", "--count", "6",
           "--seed", "0", "--out", "dreg.jsonl"]
    yield ["generate", "--family", "small-world", "--n", "12", "--k", "4", "--p", "0.2",
           "--count", "6", "--seed", "1", "--out", "sw.jsonl"]
    yield ["generate", "--family", "scale-free", "--n", "12", "--m", "2", "--p-triad", "0.3",
           "--count", "6", "--seed", "2", "--out", "sf.jsonl"]
    for family in ("d-regular", "small-world", "scale-free"):
        yield ["generate", "--family", family, "--n", "8", "--count", "2", "--seed", "0",
               "--out", "missing.jsonl"]
    yield ["features", "--data", "sw.jsonl", "--k", "4", "--out", "sw_feat.jsonl"]
    yield "g1.json", _line("sw.jsonl", 0)
    yield "g2.json", _line("sw.jsonl", 1)
    yield ["wl", "hash", "g1.json"]
    yield ["wl", "compare", "g1.json", "g2.json"]
    yield ["wl", "dedupe", "--data", "dreg.jsonl", "--out", "dreg_unique.jsonl"]
    yield ["expressiveness", "--n", "10", "--d", "3", "--count", "4", "--k-list", "3,4",
           "--seed", "0", "--out", "expr.json"]
    # candidates with double edges, which switchings remove: (40,5) and (24,3)
    yield ["expressiveness", "--n", "40", "--d", "5", "--count", "30", "--k-list", "3,4",
           "--seed", "0", "--out", "expr_40_5.json"]
    yield ["generate", "--family", "d-regular", "--n", "24", "--d", "3", "--count", "8",
           "--seed", "0", "--out", "dreg24.jsonl"]
    reports = []
    for task in TASKS:
        for flavor, aggregation in SCHEMES:
            for variant in VARIANTS:
                name = f"{task}_{flavor}{'_' + aggregation if aggregation else ''}_{variant}"
                agg = ["--aggregation", aggregation] if aggregation else []
                yield ["train", "--data", "sw.jsonl", "--task", task, "--flavor", flavor,
                       *agg, "--variant", variant, "--layers", "3", "--hidden", "8",
                       "--epochs", "3", "--fast-k", "4", "--seed", "5",
                       "--out", f"{name}.ckpt", "--report", f"{name}.json"]
                yield ["eval", "--model", f"{name}.ckpt", "--data", "sf.jsonl", "--task", task,
                       "--seed", "3", "--out", f"{name}_eval.json"]
                reports.append(f"{name}.json")
    yield ["report", *reports, "--out", "reports.csv"]
    # the five layers of an edge task's default depth
    yield ["train", "--data", "sw.jsonl", "--task", "edge-spd", "--flavor", "gcn",
           "--variant", "id-full", "--hidden", "16", "--epochs", "3", "--out", "deep.ckpt"]
    yield "lone.jsonl", '{"num_nodes":1,"edges":[]}\n' * 3
    yield ["train", "--data", "lone.jsonl", "--task", "edge-spd", "--out", "lone.ckpt"]
    yield ["train", "--data", "sf.jsonl", "--task", "edge-spd", "--lr", "1e300",
           "--epochs", "2", "--hidden", "8", "--out", "overflow.ckpt"]
    yield ["train", "--data", "sf.jsonl", "--task", "edge-spd", "--layers", "0",
           "--out", "bad.ckpt"]


def header():
    """The ``#`` lines naming the versions that computed the digests."""
    import platform
    from importlib.metadata import version

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    yield f"# python {platform.python_version()}"
    yield f"# numpy {numpy.__version__}, scipy {version('scipy')}, blas {blas}, 1 thread"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, str]:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(root.iterdir()) if p.is_file()}


def run_all(main, root: Path):
    """Yield the report lines of every command, run with ``root`` as the
    working directory."""
    before = _files(root)
    for cmd in commands():
        if isinstance(cmd, tuple):
            name, text = cmd
            (root / name).write_text(text(root) if callable(text) else text)
            before = _files(root)
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(cmd)
            except SystemExit as exc:
                code = exc.code
        yield "$ idgnn " + " ".join(cmd)
        yield f"exit {code}"
        yield f"stdout {_sha256(out.getvalue().encode())}"
        yield from (f"stderr | {line}" for line in err.getvalue().splitlines())
        after = _files(root)
        yield from (f"{digest}  {name}" for name, digest in after.items()
                    if before.get(name) != digest)
        before = after


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the source directory whose idgnn package runs "
                             "(default: this checkout's src)")
    args = parser.parse_args()
    # set before numpy loads: one BLAS thread sums in one order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    from idgnn.cli import main as cli_main

    for line in header():
        print(line)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for line in run_all(cli_main, Path(tmp)):
                print(line)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
