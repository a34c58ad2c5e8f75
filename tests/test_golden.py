"""Pinned output digests at fixed seeds.

``features`` (with and without existing node features), ``wl dedupe`` and
``expressiveness`` (JSON and CSV, one pool that regenerates) must keep
writing these exact bytes: a change to how counts or signatures are
computed may not change a single output byte.

An id-fast sage-max node-cc ``train --epochs 0`` and its ``eval``, on the
``nodecc_id_fast`` benchmark's seed-1 data, pin the count columns of the
model inputs, which read the task's counts, and the untaped forward pass:
the checkpoint, the report and the eval JSON. These three files are the
same at 1 and 2 BLAS threads.

The checkpoints of freshly initialized models pin the parameter names,
their order and shapes, the draw order of the initialization and which
models have msg1 tensors. Initialization runs no BLAS, so these digests do
not depend on the machine.
"""

import hashlib

import pytest

from idgnn.cli import main
from idgnn.nn import ModelConfig, init_model, save_model

DIGESTS = {
    "f1.jsonl": "3e2f3948ce2ccb5781ad18b620442cf37d77e97f54c22dbfac88b8d52ef4bdfe",
    "f2.jsonl": "badb57b33322d8d45c485947c0164fc836045f42728b94402512b8b0e022901e",
    "kept.jsonl": "cded70cd46662f3edeb1a16482153d8b1b973f31a70677369742adf14564cdbf",
    "e16.json": "6719a038fded0464f60e61ef12f09632fe47276eab6f2e961ad694f690308db7",
    "e16.csv": "3162f6c81c9f11241c4cb6dc73cdb2e12165170ca0196d91263781a9ad90a3f4",
    "e8.json": "bf10d9ce390ad41148834e52a3c7c2c24b84197e5971670a2df4772654db01eb",
    "e8.csv": "e7ec151762344b2b30f256252ec9d886bf58e6c76f83aa3c9788a7eb8773f9a2",
    "fast.ckpt": "3b5c75c37dde0c776b2cae78d733bf36e1856c1a2d2b8b52e400f9a9d7fea920",
    "fast.json": "a0670dbe5f3f48d4e5bd9dddd1ff84d3f9fa359f481e5d28f8e5a475f91599f3",
    "fast_eval.json": "b7fa24dcf78436d7d7ee0a4e22a102e41eb47808dfbfeabbe439c8e09d05428b",
}

# flavor/aggregation/variant -> sha256 of save_model(init_model(config))
INIT_DIGESTS = {
    "gcn/mean/plain":
        "d0eee43951d27d8a62ae10714f21629aeda691e6efe4b4091a67dc6f86d4f3cd",
    "gcn/mean/id_full":
        "654f242059ac0f9ae9582c1cfe8edc76ea94c9156d104882c5e5d57416c2143b",
    "gcn/mean/id_fast":
        "fc60c42406783fe563dda694ae51a4a9c6884478897b7031fede080299388ecc",
    "sage/sum/plain":
        "4a0ada7f5f137b79064695c4096220bfb709a563cea9abb8bb8262003b937dd3",
    "sage/sum/id_full":
        "91fa7d873fdc3f95c99a4a3233a7a7fca8c5e91293d74ae6c96f8aac63e86c45",
    "sage/sum/id_fast":
        "cd66cd65fb14a94dfca2fae314b78b709e600353510d9b53cde46eeba63e9e03",
    "sage/mean/plain":
        "78446b0b3376c9bbcbc3378ad888134bde2f355cbb4c4f49cb419efc25f22f85",
    "sage/mean/id_full":
        "e8b7e6c17452bb08a87e9998197761badc2c5e7e69a77106be0c9bd9996c6f9b",
    "sage/mean/id_fast":
        "e5f5e9f433150d2da2cd9c11772b7a68e555ba7b69dbb2142241eab5f1329e32",
    "sage/max/plain":
        "eda86fb945ab54b16043def3987f8bc4fbbb1cc0d6d2871a64399d244725f080",
    "sage/max/id_full":
        "14107a9db19c035cfa7bf1a5eb753ce722ddbdc392e907051002fc27bfd74ca5",
    "sage/max/id_fast":
        "27d321665d94c63dc5b52c8f8993ef583803f37d44960e846ce6324f7872e9c2",
    "gin/sum/plain":
        "6ffa90926b4a13eba08e3cf8bfa825222e0ba21aa805557866b9e41ae2ad832c",
    "gin/sum/id_full":
        "bbd5ccdf9d4fcd275a68157db8749e0c870dacbfd680cd7548ed3e84c99b9261",
    "gin/sum/id_fast":
        "7e33f7bedb59771d961175608d36a808bf717464dfb5c495138414d742a40cc2",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")

    def p(name):
        return str(root / name)

    calls = [
        ["generate", "--family", "small-world", "--n", "20", "--k", "4", "--p", "0.3",
         "--count", "12", "--seed", "7", "--out", p("sw.jsonl")],
        ["features", "--data", p("sw.jsonl"), "--k", "6", "--out", p("f1.jsonl")],
        ["features", "--data", p("f1.jsonl"), "--k", "3", "--out", p("f2.jsonl")],
        ["generate", "--family", "d-regular", "--n", "8", "--d", "3", "--count", "40",
         "--seed", "3", "--out", p("reg.jsonl")],
        ["wl", "dedupe", "--data", p("reg.jsonl"), "--out", p("kept.jsonl")],
        ["expressiveness", "--n", "16", "--d", "3", "--count", "12",
         "--k-list", "2,3,4,5,6", "--seed", "1", "--out", p("e16.json")],
        ["expressiveness", "--n", "8", "--d", "3", "--count", "5", "--k-list", "3,5",
         "--seed", "0", "--out", p("e8.json")],
        ["generate", "--family", "small-world", "--n", "40", "--k", "4", "--p", "0.3",
         "--count", "32", "--seed", "1", "--out", p("nc.jsonl")],
        ["train", "--data", p("nc.jsonl"), "--task", "node-cc", "--flavor", "sage",
         "--variant", "id-fast", "--layers", "3", "--aggregation", "max", "--epochs", "0",
         "--seed", "1", "--out", p("fast.ckpt"), "--report", p("fast.json")],
        ["eval", "--model", p("fast.ckpt"), "--data", p("nc.jsonl"), "--task", "node-cc",
         "--seed", "1", "--out", p("fast_eval.json")],
    ]
    for argv in calls:
        assert main(argv) == 0
    return root


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("key", sorted(INIT_DIGESTS))
def test_initial_checkpoint_digest(tmp_path, key):
    flavor, aggregation, variant = key.split("/")
    cfg = ModelConfig(flavor=flavor, variant=variant, num_layers=2, hidden_dim=4,
                      input_dim=3, output_dim=5, aggregation=aggregation,
                      fast_k=2, seed=11)
    path = tmp_path / "init.ckpt"
    save_model(init_model(cfg), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INIT_DIGESTS[key]
