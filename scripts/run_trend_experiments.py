#!/usr/bin/env python3
"""Train identity-aware variants against their plain counterparts.

Two desk-scale comparisons on seeded small-world datasets:
  node-cc  3-layer SAGE, plain vs id_fast (walk-count features)
  edge-spd 5-layer GCN, pair-concat baseline vs id_full conditional
Prints one CSV line per run (task, flavor, variant, seed, accuracy).
"""

import argparse
import sys

from idgnn.errors import InputError
from idgnn.generators import GeneratorSpec, gen_dataset
from idgnn.nn import ModelConfig, init_model
from idgnn.tasks import make_node_cc_task, make_spd_task, split, train


def run_node_cc(seeds, epochs):
    graphs = gen_dataset(GeneratorSpec("small_world", 40, 4, 0.3), 64, seed=11)
    # counts at the id_fast width: every id_fast run reads its inputs from them
    task = make_node_cc_task(graphs, 10)
    for variant, in_dim in (("plain", 1), ("id_fast", 11)):
        for seed in seeds:
            ts = split(task, 0.8, seed)
            cfg = ModelConfig(flavor="sage", variant=variant, num_layers=3,
                              hidden_dim=32, input_dim=in_dim, output_dim=10,
                              fast_k=10, seed=seed)
            rep = train(init_model(cfg), ts, epochs=epochs, lr=0.01)
            print(f"node-cc,sage,{variant},{seed},{rep.final_val_accuracy:.4f}")


def run_edge_spd(seeds, epochs):
    graphs = gen_dataset(GeneratorSpec("small_world", 40, 4, 0.1), 64, seed=21)
    task = make_spd_task(graphs, pairs_per_graph=20, seed=99)
    for variant in ("plain", "id_full"):
        for seed in seeds:
            ts = split(task, 0.8, seed)
            cfg = ModelConfig(flavor="gcn", variant=variant, num_layers=5,
                              hidden_dim=32, input_dim=1, output_dim=5, seed=seed)
            rep = train(init_model(cfg), ts, epochs=epochs, lr=0.01)
            print(f"edge-spd,gcn,{variant},{seed},{rep.final_val_accuracy:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", choices=["node-cc", "edge-spd", "both"],
                        default="both")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--epochs", type=int, default=200)
    args = parser.parse_args()
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.exit(2, f"{parser.prog}: error: --seeds must be comma-separated "
                       f"integers, got {args.seeds!r}\n")
    print("task,flavor,variant,seed,accuracy")
    try:
        if args.task in ("node-cc", "both"):
            run_node_cc(seeds, args.epochs)
        if args.task in ("edge-spd", "both"):
            run_edge_spd(seeds, args.epochs)
    except InputError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
