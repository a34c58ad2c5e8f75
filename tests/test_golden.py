"""Pinned output digests of the walk-count CLI paths at fixed seeds.

``features`` (with and without existing node features), ``wl dedupe`` and
``expressiveness`` (JSON and CSV, one pool that regenerates) must keep
writing these exact bytes: a change to how counts or signatures are
computed may not change a single output byte.
"""

import hashlib

import pytest

from idgnn.cli import main

DIGESTS = {
    "f1.jsonl": "3e2f3948ce2ccb5781ad18b620442cf37d77e97f54c22dbfac88b8d52ef4bdfe",
    "f2.jsonl": "badb57b33322d8d45c485947c0164fc836045f42728b94402512b8b0e022901e",
    "kept.jsonl": "cded70cd46662f3edeb1a16482153d8b1b973f31a70677369742adf14564cdbf",
    "e16.json": "228efb5e33bb992b8188ca2c2ae867e9e52624a96413f579d85475d554a55885",
    "e16.csv": "df736ff879ca81b41677565e753e5d1df6c0b8bdc09e7e8a93d0f0a7eb60dfde",
    "e8.json": "503df2b69154646f29db6e131013b61c557c046dd4c3ce1d04e551bd433e60ed",
    "e8.csv": "e7ec151762344b2b30f256252ec9d886bf58e6c76f83aa3c9788a7eb8773f9a2",
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
    ]
    for argv in calls:
        assert main(argv) == 0
    return root


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == DIGESTS[name]
