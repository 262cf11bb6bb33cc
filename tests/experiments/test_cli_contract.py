"""The training subcommands' output contract: stdout line labels and artifacts.

Each case runs a tiny configuration through ``main`` and pins the ordered
labels of its report (the text before each value, padding included), so a
change to how the subcommands are assembled cannot reorder, rename or
re-align a line.  Exported artifacts must load with verification and carry
the model config and preprocessing spec that rebuild what was trained.
"""

import re

import pytest

from repro.data.text import CharVocab
from repro.experiments.cli import main
from repro.serve import load_model

IMAGE = "--model mlp --n-train 96 --n-test 48 --image-size 8 --epochs 1 --delta-t 2"
RL = (
    "--total-steps 300 --warmup-steps 64 --hidden 16 16 --batch-size 16 "
    "--delta-t 20 --target-sync-every 50"
)
LM = (
    "--n-chars 4096 --epochs 1 --batch-size 16 --n-embd 16 --n-layer 1 "
    "--block-len 8 --delta-t 10"
)
GAN = (
    "--mixture ring4 --total-steps 60 --hidden 16 16 --latent-dim 4 "
    "--batch-size 16 --delta-t 20 --n-eval-samples 200"
)
GNN = "--nodes 80 --epochs 3"
SEEDS = "--seeds 0 1 --nproc 1"

ARTIFACT = ("artifact:             ", "serve with:           ")

IMAGE_REPORT = (
    "method:               ",
    "dataset:              ",
    "final accuracy:       ",
    "best accuracy:        ",
    "actual sparsity:      ",
    "inference FLOPs:      ",
    "training FLOPs:       ",
    "exploration rate R:   ",
    "wall time:            ",
)
RL_REPORT = (
    "method:               ",
    "environment:          ",
    "episodes:             ",
    "env steps:            ",
    "gradient steps:       ",
    "final avg return:     ",
    "best avg return:      ",
    "solved (>= 195):   ",
    "actual sparsity:      ",
    "exploration rate R:   ",
    "wall time:            ",
)
LM_REPORT = (
    "method:               ",
    "corpus:               ",
    "epochs:               ",
    "gradient steps:       ",
    "train loss:           ",
    "val perplexity:       ",
    "next-token accuracy:  ",
    "parameters:           ",
    "actual sparsity:      ",
    "exploration rate R:   ",
    "wall time:            ",
)
GAN_REPORT = (
    "method:               ",
    "mixture:              ",
    "steps:                ",
    "modes covered:        ",
    "high-quality frac:    ",
    "final loss D/G:       ",
    "final G density:      ",
    "final D density:      ",
    "combined budget:      ",
    "G<->D transfers:      ",
    "wall time:            ",
)


def seeds_labels(subject, *summary):
    """``--seeds 0 1``: the header, one line per seed, then the summary."""
    header = ("method:               ", subject, "seeds:                ")
    return header + ("  seed 0: ", "  seed 1: ") + summary


CASES = {
    "run": (f"run {IMAGE}", IMAGE_REPORT),
    "run --seeds": (
        f"run {IMAGE} {SEEDS}",
        seeds_labels("dataset:              ", "accuracy:             "),
    ),
    "run-rl": (f"run-rl {RL}", RL_REPORT),
    "run-rl --seeds": (
        f"run-rl {RL} {SEEDS}",
        seeds_labels(
            "environment:          ", "avg return:           ", "solved seeds:         "
        ),
    ),
    "run-lm": (f"run-lm {LM}", LM_REPORT),
    "run-lm --seeds": (
        f"run-lm {LM} {SEEDS}",
        seeds_labels("corpus:               ", "val perplexity:       "),
    ),
    "run-gan": (f"run-gan {GAN}", GAN_REPORT),
    "run-gan --seeds": (
        f"run-gan {GAN} {SEEDS}",
        seeds_labels("mixture:              ", "mode coverage:        "),
    ),
    "gnn": (
        f"gnn {GNN}",
        (
            "method:          ",
            "dataset:         ",
            "final accuracy:  ",
            "actual sparsity: ",
            "wall time:       ",
        ),
    ),
    "gnn --seeds": (
        f"gnn {GNN} {SEEDS}",
        seeds_labels("dataset:              ", "accuracy:             "),
    ),
    "export": (
        f"export {IMAGE}",
        ("method:          ", "final accuracy:  ", "artifact:        ", "serve with:      "),
    ),
    "run-rl --out": (f"run-rl {RL}", RL_REPORT + ARTIFACT),
    "run-lm --out": (f"run-lm {LM}", LM_REPORT + ARTIFACT),
}

VOCAB = CharVocab()
EXPORTS = {
    "export": (
        {
            "builder": "mlp",
            "kwargs": {"in_features": 192, "hidden": [128, 64], "num_classes": 10, "seed": 0},
        },
        {"input_shape": [3, 8, 8]},
    ),
    "run-rl --out": (
        {
            "builder": "mlp",
            "kwargs": {"in_features": 4, "hidden": [16, 16], "num_classes": 2, "seed": 0},
        },
        {"input_shape": [4]},
    ),
    "run-lm --out": (
        {
            "builder": "char_gpt",
            "kwargs": {
                "vocab_size": len(VOCAB),
                "block_len": 8,
                "n_layer": 1,
                "n_head": 2,
                "n_embd": 16,
                "head": "last",
                "pad_id": VOCAB.pad_id,
                "seed": 0,
            },
        },
        {"kind": "sequence", "max_length": 8, "pad_id": VOCAB.pad_id, "vocab_size": len(VOCAB)},
    ),
}


def label(line):
    match = re.match(r"(.*?:\s+)\S", line)
    assert match, f"report line without a label: {line!r}"
    return match.group(1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_labels_and_artifacts(case, capsys, tmp_path):
    command, expected = CASES[case]
    argv = command.split()
    artifact = tmp_path / "model.npz"
    if case in EXPORTS:
        argv += ["--out", str(artifact)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert tuple(label(line) for line in lines) == expected
    if case in EXPORTS:
        model_config, preprocessing = EXPORTS[case]
        loaded = load_model(artifact)
        assert loaded.model_config == model_config
        assert loaded.preprocessing == preprocessing
        assert lines[-1].endswith(f"serve --artifact {artifact}")
