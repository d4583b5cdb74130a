"""Golden files: the bytes that `gen`, `graphon` and `solve-discrete --method
local` write are pinned by SHA-256.

The `gen` and `graphon` digests were taken from the tuple-set Graph that
preceded the array-backed one, so any change to edge order, sampling or number
formatting shows here.  The two local-search digests (a bisection of the
61-node sampled graph and a three-way 4,4,3 split of the 11-node block graph)
were taken from the swap descent that scored di and dj apart, so any change to
the labels, the swap counts or the reported value shows here.
"""
import hashlib

from graphlim.cli import main

CONSTANT_KERNEL = '{"type": "analytic", "kind": "constant", "params": {"c": 0.37}}\n'
STEP_KERNEL = (
    '{"type": "step", "widths": [0.1, 0.15, 0.2, 0.25, 0.3], "values": ['
    "[0.9, 0.2, 0.4, 0.0, 0.7], "
    "[0.2, 0.6, 1.0, 0.3, 0.1], "
    "[0.4, 1.0, 0.05, 0.5, 0.8], "
    "[0.0, 0.3, 0.5, 0.35, 0.25], "
    "[0.7, 0.1, 0.8, 0.25, 0.55]]}\n"
)

# output file -> the gen/graphon arguments that write it (with its --out)
RUNS = {
    "complete.json": ["gen", "--family", "complete", "--n", "9",
                      "--limit-out", "complete_limit.json"],
    "blocks.json": ["gen", "--family", "blocks", "--n", "11", "--lambdas", "0.2,0.3,0.5",
                    "--limit-out", "blocks_limit.json"],
    "bipartite.json": ["gen", "--family", "bipartite", "--n", "10", "--gamma", "0.3",
                       "--limit-out", "bipartite_limit.json"],
    "halfgraph.json": ["gen", "--family", "halfgraph", "--n", "12",
                       "--limit-out", "halfgraph_limit.json"],
    "checkerboard.json": ["gen", "--family", "checkerboard", "--n", "3"],
    "wrandom_constant.json": ["gen", "--family", "wrandom", "--kernel", "constant_kernel.json",
                              "--n", "61", "--seed", "2"],
    "wrandom_step.json": ["gen", "--family", "wrandom", "--kernel", "step_kernel.json",
                          "--n", "61", "--seed", "2"],
    "wrandom_step_graphon.json": ["graphon", "--graph", "wrandom_step.json"],
    "local_wrandom_step.json": ["solve-discrete", "--graph", "wrandom_step.json",
                                "--method", "local"],
    "local_blocks_three.json": ["solve-discrete", "--graph", "blocks.json",
                                "--method", "local", "--sizes", "4,4,3"],
}

GOLDEN = {
    "bipartite.json": "22290c027fce7ad90364ba5e29bd805559f5bf1953529e575111ab5582700d7b",
    "bipartite_limit.json": "785d1c2f3b06ea35ff7304bd44bdd91d63baebb4e99d42235c5f206984d7f94d",
    "blocks.json": "aac4ab4fe5e9131e3a82627e489dbb90ec1942ebc2522c786cf2f1f36beb7502",
    "blocks_limit.json": "dfbcc71d488bfd7f201f8b512ad7221d548d12cef5961092b31ef6f86287bfc8",
    "checkerboard.json": "8e1069f4919f39a975e0c0cf77991d185452d780682b56b3c60db147b80c7d40",
    "complete.json": "4a88290cdd99c50bd2c71a9b3a450cce577bf7bd52a79bdb205ce6fdb93c628f",
    "complete_limit.json": "3862f639e8d1771d1aeb3d637b4be8cb935edd99585848e3d451aac8872710cd",
    "halfgraph.json": "87d397a7df6fa7c4caa93ff5eadd4d034ec58434696b6165e1c062b1ef2bae05",
    "halfgraph_limit.json": "df111236262aefeb65bc62adb2a12f519095779b6abc7b997cc868651d09b698",
    "local_blocks_three.json": "3339fd76795c75d11abd6e13f0d6b01059641a89ac51251620676bccc8604a4a",
    "local_wrandom_step.json": "438125e8037c951adb75db5616518e7ca92a07204a205de1a5908fe569d5afb2",
    "wrandom_constant.json": "96f9a804b3262e033cc32bde7be51d0dd9c26fab4f962b1104f2b048dc2f91b5",
    "wrandom_step.json": "2e022f0508a7069087d87074225850da882acd3b535891bb17428af8c0e25408",
    "wrandom_step_graphon.json": "db17357809ca1095810195951cee81dcfcf6e5615ca001a4d1e5e3a39d78847d",
}


def written_digests(directory, monkeypatch):
    """Run every entry of RUNS in directory; SHA-256 of each file it wrote."""
    monkeypatch.chdir(directory)
    (directory / "constant_kernel.json").write_text(CONSTANT_KERNEL)
    (directory / "step_kernel.json").write_text(STEP_KERNEL)
    for out, argv in RUNS.items():
        assert main([*argv, "--out", out]) == 0
    inputs = {"constant_kernel.json", "step_kernel.json"}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.name not in inputs
    }


def test_written_files_match_golden_digests(tmp_path, monkeypatch):
    assert written_digests(tmp_path, monkeypatch) == GOLDEN
