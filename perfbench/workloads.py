"""The benchmark workloads: inputs, the CLI calls of one round, and the
checks on their outputs.

Inputs come from the benchmark's seed, except that ``regular_table`` keeps
the Table's seed (see ``TABLE_SEED``) and ``wl_dedupe`` draws its base graphs
at ``DEDUPE_BASES_SEED``. A workload has ``inputs`` input sets; round ``r``
runs on set ``r % inputs``. Every call goes through
``idgnn.cli.main``. A call's role is ``main`` for the call the workload is
about and ``aux`` for the lighter ones (for training, ``train`` and
``eval``). Checks read the output files with the standard library and
numpy only, so they do not depend on the code they check. ``record`` returns
deterministic results for the report lines.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

# Criterion-1 bands of the paper's Table, per (n, d): K -> (low, high).
TABLE_BANDS = {
    (64, 4): {3: (0.02, 0.35), 5: (0.85, 1.0), 6: (1.0, 1.0)},
    (40, 5): {4: (0.60, 1.0), 5: (1.0, 1.0), 6: (1.0, 1.0)},
    (96, 6): {4: (0.70, 1.0), 5: (1.0, 1.0), 6: (1.0, 1.0)},
}
TABLE_COUNT = 100
TABLE_K = "3,4,5,6"
# The bands hold at the acceptance suite's TABLE_SEED = 0, not at every seed
# (at seed 14 the (64,4) K=3 fraction is 0.36), so this workload keeps that
# seed whatever seed the benchmark is given.
TABLE_SEED = 0

TRAIN_GRAPHS = 32

DEDUPE_N, DEDUPE_D = 10, 4
DEDUPE_DRAWS = 400   # d-regular graphs drawn to find the bases
DEDUPE_BASES = 20    # B: bases with pairwise-distinct spectra
DEDUPE_COPIES = 15   # R: relabeled copies of each base
# How long exact isomorphism takes depends on the base graphs: with bases drawn
# from the benchmark's seed, one seed's dedupe ran 17% more Python lines than
# another's. The bases come from this fixed draw; the seed sets the
# relabelings and their order, in DEDUPE_INPUTS sets that the rounds cycle
# through, so that a run's median spans several of them.
DEDUPE_BASES_SEED = 0
DEDUPE_INPUTS = 4


@dataclass
class Call:
    label: str
    role: str  # "main" or "aux"
    argv: list[str]
    outputs: list[str]


@dataclass
class Context:
    """What set-up made and what the checks expect."""

    seed: int
    expected: dict = field(default_factory=dict)


def _manifested(*paths: str) -> list[str]:
    return [p for path in paths for p in (path, path + ".manifest.json")]


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spectrum(obj: dict) -> tuple:
    n = obj["num_nodes"]
    a = np.zeros((n, n))
    for u, v in obj["edges"]:
        a[u, v] = a[v, u] = 1.0
    return tuple(np.round(np.linalg.eigvalsh(a), 6) + 0.0)


def _generate(cli, argv: list[str]) -> None:
    rc = cli.main(["generate"] + argv)
    if rc != 0:
        raise RuntimeError(f"set-up: generate {' '.join(argv)} exited {rc}")


@dataclass
class Training:
    """generate, then train and eval on the same graphs."""

    name: str
    rewire: str  # small-world rewiring probability
    task: str
    flavor: str
    variant: str
    extra: list[str]  # further train flags
    epochs: int
    wiring: str  # expected TrainReport wiring
    inputs = 1

    def setup(self, cli, seed: int) -> Context:
        _generate(cli, ["--family", "small-world", "--n", "40", "--k", "4",
                        "--p", self.rewire, "--count", str(TRAIN_GRAPHS), "--seed", str(seed),
                        "--out", "data.jsonl"])
        return Context(seed, {"graphs": TRAIN_GRAPHS})

    def calls(self, ctx: Context, round_index: int) -> list[Call]:
        seed = str(ctx.seed)
        return [
            Call("train", "main",
                 ["train", "--data", "data.jsonl", "--task", self.task,
                  "--flavor", self.flavor, "--variant", self.variant, *self.extra,
                  "--epochs", str(self.epochs), "--seed", seed,
                  "--out", "model.ckpt", "--report", "report.json"],
                 ["model.ckpt", "report.json", "model.ckpt.manifest.json"]),
            Call("eval", "aux",
                 ["eval", "--model", "model.ckpt", "--data", "data.jsonl",
                  "--task", self.task, "--seed", seed, "--out", "eval.json"],
                 _manifested("eval.json")),
        ]

    def check(self, call: Call, ctx: Context) -> list[str]:
        bad = []
        if call.label == "train":
            rep = _load("report.json")
            losses = rep["train_losses"]
            if rep["wiring"] != self.wiring:
                bad.append(f"wiring {rep['wiring']!r}, expected {self.wiring!r}")
            if len(losses) != self.epochs or not all(math.isfinite(x) for x in losses):
                bad.append("train_losses not finite or of the wrong length")
            elif not losses[-1] < losses[0]:
                bad.append(f"last loss {losses[-1]} not below first {losses[0]}")
            if not 0.0 <= rep["final_val_accuracy"] <= 1.0:
                bad.append(f"final_val_accuracy {rep['final_val_accuracy']}")
            with open("model.ckpt", "rb") as fh:
                if fh.read(8) != b"IDGNNMDL":
                    bad.append("checkpoint magic missing")
        else:
            res = _load("eval.json")
            if not 0.0 <= res["accuracy"] <= 1.0 or res["graphs"] != ctx.expected["graphs"]:
                bad.append(f"eval result {res}")
        return bad

    def record(self, ctx: Context) -> dict:
        rep = _load("report.json")
        return {"val_acc": rep["final_val_accuracy"], "final_loss": rep["train_losses"][-1]}


class Table:
    """expressiveness at the paper's three Table settings."""

    name = "regular_table"
    settings = ((64, 4), (40, 5), (96, 6))
    # A (96,6) call takes about 23 s and the light pair about 2.5 s; the pair
    # runs six times per round, three times on each side of the long call,
    # so that its median does not rest on a few samples.
    order = ((64, 4), (40, 5)) * 3 + ((96, 6),) + ((64, 4), (40, 5)) * 3
    inputs = 1

    def setup(self, cli, seed: int) -> Context:
        return Context(seed)

    def calls(self, ctx: Context, round_index: int) -> list[Call]:
        return [
            Call(f"table_n{n}d{d}", "main" if (n, d) == (96, 6) else "aux",
                 ["expressiveness", "--n", str(n), "--d", str(d),
                  "--count", str(TABLE_COUNT), "--k-list", TABLE_K,
                  "--seed", str(TABLE_SEED), "--out", f"table_n{n}d{d}.json"],
                 _manifested(f"table_n{n}d{d}.json") + [f"table_n{n}d{d}.csv"])
            for n, d in self.order
        ]

    def check(self, call: Call, ctx: Context) -> list[str]:
        rep = _load(call.outputs[0])
        n, d = rep["settings"]["n"], rep["settings"]["d"]
        fr = {int(k): v for k, v in rep["fractions"].items()}
        bad = [f"K={k}: {fr[k]} outside [{lo}, {hi}]"
               for k, (lo, hi) in TABLE_BANDS[(n, d)].items()
               if not lo <= fr[k] <= hi]
        values = [fr[k] for k in sorted(fr)]
        if values != sorted(values):
            bad.append(f"fractions decrease in K: {values}")
        if not rep["wl_all_equal"] or rep["wl_distinguished_fraction"] != 0.0:
            bad.append("1-WL separated some graphs")
        return bad

    def record(self, ctx: Context) -> dict:
        reps = {f"n{n}d{d}": _load(f"table_n{n}d{d}.json") for n, d in self.settings}
        return {f"fractions_{key}": rep["fractions"] for key, rep in reps.items()}


class Dedupe:
    """wl dedupe on relabeled copies of bases whose class count is known."""

    name = "wl_dedupe"
    inputs = DEDUPE_INPUTS

    def setup(self, cli, seed: int) -> Context:
        _generate(cli, ["--family", "d-regular", "--n", str(DEDUPE_N),
                        "--d", str(DEDUPE_D), "--count", str(DEDUPE_DRAWS),
                        "--seed", str(DEDUPE_BASES_SEED), "--out", "draws.jsonl"])
        bases: dict[tuple, dict] = {}
        for obj in _read_jsonl("draws.jsonl"):
            bases.setdefault(_spectrum(obj), obj)
            if len(bases) == DEDUPE_BASES:
                break
        if len(bases) < DEDUPE_BASES:
            raise RuntimeError(f"set-up: only {len(bases)} distinct spectra "
                               f"in {DEDUPE_DRAWS} draws")
        # Distinct spectra certify non-isomorphism, and relabeling keeps the
        # class, so exactly B classes are present without asking wl.
        rng = random.Random(seed)
        for i in range(DEDUPE_INPUTS):
            lines = []
            for obj in bases.values():
                for _ in range(DEDUPE_COPIES):
                    perm = list(range(DEDUPE_N))
                    rng.shuffle(perm)
                    edges = sorted(sorted((perm[u], perm[v])) for u, v in obj["edges"])
                    lines.append(json.dumps({"num_nodes": DEDUPE_N, "edges": edges}))
            rng.shuffle(lines)
            with open(f"copies{i}.jsonl", "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return Context(seed, {"spectra": sorted(bases)})

    def calls(self, ctx: Context, round_index: int) -> list[Call]:
        i = round_index % DEDUPE_INPUTS
        return [
            Call("dedupe", "main",
                 ["wl", "dedupe", "--data", f"copies{i}.jsonl", "--out", f"kept{i}.jsonl"],
                 _manifested(f"kept{i}.jsonl")),
            Call("dedupe_kept", "aux",
                 ["wl", "dedupe", "--data", f"kept{i}.jsonl", "--out", f"kept_again{i}.jsonl"],
                 _manifested(f"kept_again{i}.jsonl")),
        ]

    def check(self, call: Call, ctx: Context) -> list[str]:
        kept = _read_jsonl(call.outputs[0])
        if sorted(_spectrum(obj) for obj in kept) != ctx.expected["spectra"]:
            return [f"kept {len(kept)} graphs, expected one of each of "
                    f"{DEDUPE_BASES} classes"]
        if call.label == "dedupe_kept":
            with open(call.argv[3], "rb") as a, open(call.outputs[0], "rb") as b:
                if a.read() != b.read():
                    return ["dedupe of a duplicate-free set changed it"]
        return []

    def record(self, ctx: Context) -> dict:
        return {"kept": len(_read_jsonl("kept0.jsonl")),
                "copies": DEDUPE_BASES * DEDUPE_COPIES, "inputs": DEDUPE_INPUTS}


WORKLOADS = {
    w.name: w
    for w in (
        Training(
            "spd_id_full",
            "0.1", "edge-spd", "gcn", "id-full",
            ["--layers", "5", "--hidden", "32", "--pairs-per-graph", "20"],
            2, "conditional"),
        Training(
            "nodecc_id_fast",
            "0.3", "node-cc", "sage", "id-fast",
            ["--layers", "3", "--aggregation", "max"],
            4, "node_head"),
        Table(),
        Dedupe(),
    )
}
