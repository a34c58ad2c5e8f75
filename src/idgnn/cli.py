"""Command-line entry point tying the toolkit into reproducible pipelines.

Subcommands: generate, features, wl, expressiveness, train, eval, report.
Every file output is written atomically and gets a sidecar
``<out>.manifest.json`` recording the subcommand, flags, seeds, input
digests (taken before the command writes its first output), and tool
version. No output reads a clock and all randomness flows from explicit
--seed flags, so identical manifests reproduce byte-identical outputs at a
fixed BLAS thread count (trained models may differ between thread counts).
A failed call removes the outputs it wrote, so none lacks its manifest.

A flag value spells a library name with ``-`` for ``_`` (``--task edge-spd``
is the task ``edge_spd``). ``train`` checks every flag and that the split
leaves both sides nonempty, then builds the model, then the task, for
every task kind, so a bad flag fails before any SPD pair is drawn. The SPD
classes a graph lacks are logged only once train or eval has succeeded.

main builds its argparse tree on its first call and reuses it, so a caller
that runs many commands in one process pays for the parser once;
build_parser returns a fresh tree on every call.

Exit codes: 0 success, 2 usage or input error, 3 capability limit,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import logging
import os
import sys
from dataclasses import asdict, replace

from . import __version__
from .counts import with_count_columns
from .datasets import (
    GraphRecord,
    atomic_write,
    dumps_canonical,
    load_graph,
    load_jsonl,
    save_jsonl,
)
from .errors import CapabilityError, InputError, NumericError
from .expressiveness import SignatureIndex, run_regular_experiment
from .generators import FAMILIES, RNG_NAME, STREAM_SPLIT, GeneratorSpec, check_seed, gen_dataset
from .nn import FLAVORS, VARIANTS, ModelConfig, init_model, load_model, save_model
from .tasks import (
    TASK_SPECS,
    check_classes,
    check_schedule,
    check_split,
    evaluate,
    make_graph_cc_task,
    make_node_cc_task,
    make_spd_task,
    split,
    train,
)
from .wl import are_isomorphic, wl_equivalent, wl_graph_hash

# the degree flag and the probability flag of each generator family;
# d-regular has no probability, so its generator gets 0.0
_FAMILY_FLAGS = {"d_regular": ("d", None), "small_world": ("k", "p"),
                 "scale_free": ("m", "p_triad")}


def _choices(names) -> list[str]:
    """The flag values of library ``names``, sorted: each ``_`` read as ``-``."""
    return sorted(name.replace("_", "-") for name in names)


def _digests(inputs: list[str]) -> dict[str, str]:
    """The sha256 of each input path, in path order. Taken before the first
    output is written, since an output may replace an input."""
    digests = {}
    for path in sorted(inputs):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
        digests[path] = h.hexdigest()
    return digests


def _publish(args, subcommand: str, inputs: dict[str, str], writes: list) -> None:
    """Write each ``(path, content)`` of ``writes``, text with atomic_write
    and a writer as ``content(path)``, then the manifest of ``args.out``
    listing them. If any write fails, the outputs already written are
    removed: a failed call leaves none of its outputs without a manifest."""
    written = []
    try:
        for path, content in writes:
            if callable(content):
                content(path)
            else:
                atomic_write(path, content)
            written.append(path)
        manifest = {
            "tool": "idgnn",
            "version": __version__,
            "subcommand": subcommand,
            "flags": {k: v for k, v in vars(args).items() if k != "func"},
            "inputs": inputs,
            "outputs": sorted(written),
            "rng": {"name": RNG_NAME, "stream_split": STREAM_SPLIT},
        }
        atomic_write(args.out + ".manifest.json",
                     json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except BaseException:
        for path in set(written):
            os.unlink(path)
        raise


def _cmd_generate(args) -> int:
    family = args.family.replace("-", "_")
    degree_flag, prob_flag = _FAMILY_FLAGS[family]
    degree = getattr(args, degree_flag)
    if degree is None:
        raise InputError(f"--{degree_flag} is required for {args.family}")
    spec = GeneratorSpec(
        family=family, num_nodes=args.n, degree_param=degree,
        rewire_or_triad_prob=vars(args).get(prob_flag, 0.0),
    )
    graphs = gen_dataset(spec, args.count, args.seed)
    _publish(args, "generate", {},
             [(args.out, functools.partial(save_jsonl, [GraphRecord(g) for g in graphs]))])
    print(f"wrote {len(graphs)} graphs to {args.out}")
    return 0


def _cmd_features(args) -> int:
    records = load_jsonl(args.data)
    graphs = [rec.graph for rec in records]
    feats = with_count_columns(graphs, [g.node_features for g in graphs], args.k)
    out_records = [GraphRecord(replace(g, node_features=x), rec.label, rec.node_labels)
                   for rec, g, x in zip(records, graphs, feats)]
    _publish(args, "features", _digests([args.data]),
             [(args.out, functools.partial(save_jsonl, out_records))])
    print(f"appended {args.k} walk-count columns to {len(out_records)} graphs")
    return 0


def _cmd_wl_hash(args) -> int:
    g = load_graph(args.graph)
    print(f"{wl_graph_hash(g):016x}")
    return 0


def _cmd_wl_compare(args) -> int:
    g1 = load_graph(args.graph1)
    g2 = load_graph(args.graph2)
    print(f"{wl_graph_hash(g1):016x}  {args.graph1}")
    print(f"{wl_graph_hash(g2):016x}  {args.graph2}")
    if not wl_equivalent(g1, g2):
        print("verdict: WL-distinguishable, NOT isomorphic")
    elif are_isomorphic(g1, g2):
        print("verdict: isomorphic")
    else:
        print("verdict: WL-indistinguishable, NOT isomorphic")
    return 0


def _cmd_wl_dedupe(args) -> int:
    records = load_jsonl(args.data)
    flags = SignatureIndex().add_many([rec.graph for rec in records])
    kept = [rec for rec, new in zip(records, flags) if new]
    _publish(args, "wl-dedupe", _digests([args.data]),
             [(args.out, functools.partial(save_jsonl, kept))])
    print(f"kept {len(kept)} of {len(records)} graphs")
    return 0


def _cmd_expressiveness(args) -> int:
    try:
        k_list = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"--k-list must be comma-separated integers, "
                         f"got {args.k_list!r}") from None
    report = run_regular_experiment(args.n, args.d, args.count, k_list, args.seed)
    _publish(args, "expressiveness", {},
             [(args.out, dumps_canonical(report.to_obj()) + "\n"),
              (os.path.splitext(args.out)[0] + ".csv", report.to_csv())])
    for k in sorted(report.fractions):
        print(f"K={k}: {report.fractions[k]:.2f}")
    print(f"1-WL baseline: {report.wl_distinguished_fraction:.2f} "
          f"(all hashes equal: {report.wl_all_equal})")
    return 0


def _load_task(records, task_kind: str, args, config: ModelConfig):
    """The task of ``records`` for a model of ``config``. A clustering task
    keeps the closed-walk counts of lengths 1..width from the one kernel
    call behind its labels: width is max(3, fast_k) for an id_fast model,
    whose inputs read their count columns from them, and 3 otherwise."""
    graphs = [rec.graph for rec in records]
    if task_kind == "edge_spd":
        return make_spd_task(graphs, args.pairs_per_graph, args.seed)
    width = max(3, config.fast_k) if config.variant == "id_fast" else 3
    if task_kind == "node_cc":
        return make_node_cc_task(graphs, width)
    return make_graph_cc_task(graphs, width)


def _log_skipped(task_data) -> None:
    """Log what the task skipped, once the command has succeeded: a failing
    command prints its one error line alone."""
    for line in task_data.skipped:
        logging.getLogger(__name__).warning(line)


def _cmd_train(args) -> int:
    task_kind = args.task.replace("-", "_")
    variant = args.variant.replace("-", "_")
    records = load_jsonl(args.data)
    if not records:
        raise InputError(f"dataset {args.data} is empty")
    if task_kind == "edge_spd":
        check_seed(args.seed)  # its range, as drawing the pairs would, before its sign
    layers = args.layers if args.layers is not None else (5 if task_kind == "edge_spd" else 3)
    base_dim = (records[0].graph.node_features.shape[1]
                if records[0].graph.node_features is not None else 1)
    input_dim = base_dim + args.fast_k if variant == "id_fast" else base_dim
    config = ModelConfig(
        flavor=args.flavor, variant=variant, num_layers=layers,
        hidden_dim=args.hidden, input_dim=input_dim,
        output_dim=TASK_SPECS[task_kind].num_classes,
        aggregation=args.aggregation or "", fast_k=args.fast_k, seed=args.seed,
    )
    check_split(args.split_fraction, args.seed, len(records))
    check_schedule(args.epochs, args.lr)
    model = init_model(config)
    task_data = _load_task(records, task_kind, args, config)
    report = train(model, split(task_data, args.split_fraction, args.seed), args.epochs, args.lr)
    writes = [(args.out, functools.partial(save_model, model))]
    if args.report:
        writes.append((args.report, dumps_canonical(asdict(report)) + "\n"))
    _publish(args, "train", _digests([args.data]), writes)
    _log_skipped(task_data)
    print(f"wiring: {report.wiring}")
    print(f"final validation accuracy: {report.final_val_accuracy:.4f}")
    return 0


def _cmd_eval(args) -> int:
    task_kind = args.task.replace("-", "_")
    model = load_model(args.model)
    check_classes(model, TASK_SPECS[task_kind])
    records = load_jsonl(args.data)
    if not records:
        raise InputError(f"dataset {args.data} is empty")
    task_data = _load_task(records, task_kind, args, model.config)
    accuracy = evaluate(model, task_data.spec, task_data.items)
    result = {"task": task_kind, "accuracy": accuracy, "graphs": len(records)}
    print(dumps_canonical(result))
    if args.out:
        _publish(args, "eval", _digests([args.model, args.data]),
                 [(args.out, dumps_canonical(result) + "\n")])
    _log_skipped(task_data)
    return 0


def _cmd_report(args) -> int:
    header = ("report", "flavor", "variant", "task", "seed", "accuracy")
    rows = []
    for path in args.reports:
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            rows.append((os.path.splitext(os.path.basename(path))[0],
                         obj["config"]["flavor"], obj["config"]["variant"],
                         obj["task"], obj["seed"], obj["final_val_accuracy"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"{path}: not a train report: {exc!r}") from None
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    _publish(args, "report", _digests(args.reports), [(args.out, buf.getvalue())])
    print(f"summarized {len(rows)} reports to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse tree of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="idgnn",
        description="identity-aware GNN toolkit: generators, WL lab, "
                    "walk-count analytics, and a trainable engine",
    )
    parser.add_argument("--version", action="version", version=f"idgnn {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="generate a synthetic JSONL dataset")
    p.add_argument("--family", required=True, choices=_choices(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d", type=int, help="degree (d-regular)")
    p.add_argument("--k", type=int, help="ring neighbors (small-world)")
    p.add_argument("--p", type=float, default=0.0, help="rewiring probability")
    p.add_argument("--m", type=int, help="attachments per node (scale-free)")
    p.add_argument("--p-triad", type=float, default=0.0, help="triad probability")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("features", help="append walk-count columns to node features")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("wl", help="WL hashing, comparison, and dedupe")
    wl_sub = p.add_subparsers(dest="wl_mode", required=True)
    q = wl_sub.add_parser("hash", help="print the WL hash of a graph JSON file")
    q.add_argument("graph")
    q.set_defaults(func=_cmd_wl_hash)
    q = wl_sub.add_parser("compare", help="compare two graph JSON files")
    q.add_argument("graph1")
    q.add_argument("graph2")
    q.set_defaults(func=_cmd_wl_compare)
    q = wl_sub.add_parser("dedupe", help="drop exact-isomorphic duplicates from a dataset")
    q.add_argument("--data", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_wl_dedupe)

    p = sub.add_parser("expressiveness",
                       help="distinguish random d-regular graphs by walk counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--k-list", default="3,4,5,6")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_expressiveness)

    p = sub.add_parser("train", help="train a model on a synthetic task")
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=_choices(TASK_SPECS))
    p.add_argument("--flavor", default="sage", choices=FLAVORS)
    p.add_argument("--variant", default="plain", choices=_choices(VARIANTS))
    p.add_argument("--layers", type=int, default=None,
                   help="default 3, or 5 for edge-spd")
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast-k", type=int, default=10)
    p.add_argument("--aggregation", default=None, choices=["sum", "mean", "max"])
    p.add_argument("--pairs-per-graph", type=int, default=20)
    p.add_argument("--split-fraction", type=float, default=0.8)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", default=None, help="TrainReport JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=_choices(TASK_SPECS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs-per-graph", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="summarize TrainReport JSONs into a CSV")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tree main parses with, built on its first call rather than at
    import. argparse picks its output streams and terminal width when it
    prints, and each parse returns a new Namespace, so reuse changes no
    output."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        # bad input, or a user-given path that cannot be opened as the file it names
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"capability error: out of memory: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
