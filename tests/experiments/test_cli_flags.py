"""Every training subcommand's flags: spelling, default, type, choices, nargs.

The table is the parser as it stood before the shared flags were declared
once, so that refactor is pinned to keep each flag exactly as it was.  The
single intended difference: ``run-lm --sparse-backend`` offered
``blocked`` (which the kernels reject) instead of ``bsr``; every training
subcommand now offers the kernels' own modes.
"""

import pytest

from repro.experiments.cli import build_parser
from repro.experiments.registry import ALL_METHODS, GAN_METHODS, LM_METHODS, RL_METHODS

MODELS = ("vgg19", "vgg11", "resnet50", "resnet50_mini", "mlp")
DISTRIBUTIONS = ("erk", "er", "uniform")
BACKENDS = ("auto", "dense", "csr", "bsr")
REQUIRED = object()

# flag -> (default, type name, choices, nargs)
FLAGS = {
    "run": {
        "--dataset": ('cifar10', None, ('cifar10', 'cifar100', 'imagenet'), None),
        "--batch-size": (64, 'int', None, None),
        "--lr": (0.05, 'float', None, None),
        "--delta-t": (6, 'int', None, None),
        "--block-size": (None, 'int', None, None),
        "--sparse-backend": (None, None, BACKENDS, None),
        "--width-mult": (0.2, 'float', None, None),
        "--n-train": (1024, 'int', None, None),
        "--n-test": (512, 'int', None, None),
        "--image-size": (12, 'int', None, None),
        "--nproc": (None, 'int', None, None),
        "--checkpoint-dir": (None, None, None, None),
        "--checkpoint-every-epochs": (1, 'int', None, None),
        "--checkpoint-every-steps": (None, 'int', None, None),
        "--keep-last": (None, 'int', None, None),
        "--resume": (False, 'store_true', None, 0),
        "--method": ('dst_ee', None, ALL_METHODS, None),
        "--model": ('vgg19', None, MODELS, None),
        "--sparsity": (0.9, 'float', None, None),
        "--epochs": (4, 'int', None, None),
        "--c": (0.001, 'float', None, None),
        "--epsilon": (1.0, 'float', None, None),
        "--distribution": ('erk', None, DISTRIBUTIONS, None),
        "--seed": (0, 'int', None, None),
        "--seeds": (None, 'int', None, '+'),
        "--n-workers": (0, 'int', None, None),
    },
    "sweep": {
        "--dataset": ('cifar10', None, ('cifar10', 'cifar100', 'imagenet'), None),
        "--batch-size": (64, 'int', None, None),
        "--lr": (0.05, 'float', None, None),
        "--delta-t": (6, 'int', None, None),
        "--block-size": (None, 'int', None, None),
        "--sparse-backend": (None, None, BACKENDS, None),
        "--width-mult": (0.2, 'float', None, None),
        "--n-train": (1024, 'int', None, None),
        "--n-test": (512, 'int', None, None),
        "--image-size": (12, 'int', None, None),
        "--nproc": (None, 'int', None, None),
        "--checkpoint-dir": (None, None, None, None),
        "--checkpoint-every-epochs": (1, 'int', None, None),
        "--checkpoint-every-steps": (None, 'int', None, None),
        "--keep-last": (None, 'int', None, None),
        "--resume": (False, 'store_true', None, 0),
        "--methods": (['set', 'rigl', 'dst_ee'], None, ALL_METHODS, '+'),
        "--models": (['vgg11'], None, MODELS, '+'),
        "--sparsities": ([0.9], 'float', None, '+'),
        "--seeds": ([0], 'int', None, '+'),
        "--root-seed": (None, 'int', None, None),
        "--epochs": (2, 'int', None, None),
        "--seed": (0, 'int', None, None),
    },
    "export": {
        "--dataset": ('cifar10', None, ('cifar10', 'cifar100', 'imagenet'), None),
        "--batch-size": (64, 'int', None, None),
        "--lr": (0.05, 'float', None, None),
        "--delta-t": (6, 'int', None, None),
        "--block-size": (None, 'int', None, None),
        "--sparse-backend": (None, None, BACKENDS, None),
        "--width-mult": (0.2, 'float', None, None),
        "--n-train": (1024, 'int', None, None),
        "--n-test": (512, 'int', None, None),
        "--image-size": (12, 'int', None, None),
        "--nproc": (None, 'int', None, None),
        "--checkpoint-dir": (None, None, None, None),
        "--checkpoint-every-epochs": (1, 'int', None, None),
        "--checkpoint-every-steps": (None, 'int', None, None),
        "--keep-last": (None, 'int', None, None),
        "--resume": (False, 'store_true', None, 0),
        "--method": ('dst_ee', None, ALL_METHODS, None),
        "--model": ('mlp', None, MODELS, None),
        "--sparsity": (0.95, 'float', None, None),
        "--epochs": (4, 'int', None, None),
        "--c": (0.001, 'float', None, None),
        "--epsilon": (1.0, 'float', None, None),
        "--distribution": ('erk', None, DISTRIBUTIONS, None),
        "--seed": (0, 'int', None, None),
        "--out": (REQUIRED, None, None, None),
    },
    "run-rl": {
        "--env": ('cartpole', None, ('cartpole', 'acrobot'), None),
        "--method": ('dst_ee', None, RL_METHODS, None),
        "--sparsity": (0.9, 'float', None, None),
        "--total-steps": (5000, 'int', None, None),
        "--hidden": ([256, 256], 'int', None, '+'),
        "--batch-size": (64, 'int', None, None),
        "--lr": (0.001, 'float', None, None),
        "--gamma": (0.99, 'float', None, None),
        "--buffer-capacity": (10000, 'int', None, None),
        "--warmup-steps": (500, 'int', None, None),
        "--train-every": (1, 'int', None, None),
        "--target-sync-every": (200, 'int', None, None),
        "--epsilon-start": (1.0, 'float', None, None),
        "--epsilon-end": (0.05, 'float', None, None),
        "--huber-delta": (1.0, 'float', None, None),
        "--epsilon-decay-fraction": (0.4, 'float', None, None),
        "--delta-t": (100, 'int', None, None),
        "--drop-fraction": (0.3, 'float', None, None),
        "--c": (0.001, 'float', None, None),
        "--ee-epsilon": (1.0, 'float', None, None),
        "--distribution": ('erk', None, DISTRIBUTIONS, None),
        "--sparse-backend": (None, None, BACKENDS, None),
        "--seed": (0, 'int', None, None),
        "--seeds": (None, 'int', None, '+'),
        "--nproc": (None, 'int', None, None),
        "--checkpoint-dir": (None, None, None, None),
        "--checkpoint-every-episodes": (1, 'int', None, None),
        "--checkpoint-every-steps": (None, 'int', None, None),
        "--keep-last": (None, 'int', None, None),
        "--resume": (False, 'store_true', None, 0),
        "--out": (None, None, None, None),
    },
    "run-gan": {
        "--mixture": ('ring8', None, ('ring4', 'ring8', 'grid9'), None),
        "--method": ('dst_ee', None, GAN_METHODS, None),
        "--sparsity": (0.9, 'float', None, None),
        "--total-steps": (2000, 'int', None, None),
        "--hidden": ([64, 64], 'int', None, '+'),
        "--latent-dim": (8, 'int', None, None),
        "--batch-size": (64, 'int', None, None),
        "--lr": (0.001, 'float', None, None),
        "--delta-t": (100, 'int', None, None),
        "--drop-fraction": (0.3, 'float', None, None),
        "--c": (0.001, 'float', None, None),
        "--ee-epsilon": (1.0, 'float', None, None),
        "--distribution": ('erk', None, DISTRIBUTIONS, None),
        "--balance-max-shift": (0.05, 'float', None, None),
        "--balance-delta-t": (None, 'int', None, None),
        "--n-eval-samples": (2000, 'int', None, None),
        "--seed": (0, 'int', None, None),
        "--seeds": (None, 'int', None, '+'),
        "--nproc": (None, 'int', None, None),
        "--checkpoint-dir": (None, None, None, None),
        "--checkpoint-every-steps": (200, 'int', None, None),
        "--keep-last": (None, 'int', None, None),
        "--resume": (False, 'store_true', None, 0),
    },
    "run-lm": {
        "--corpus": ('markov-prose', None, ('markov-prose',), None),
        "--method": ('dst_ee', None, LM_METHODS, None),
        "--sparsity": (0.9, 'float', None, None),
        "--epochs": (3, 'int', None, None),
        "--n-chars": (65536, 'int', None, None),
        "--block-len": (32, 'int', None, None),
        "--n-layer": (2, 'int', None, None),
        "--n-head": (2, 'int', None, None),
        "--n-embd": (64, 'int', None, None),
        "--batch-size": (32, 'int', None, None),
        "--lr": (0.001, 'float', None, None),
        "--delta-t": (100, 'int', None, None),
        "--drop-fraction": (0.3, 'float', None, None),
        "--c": (0.001, 'float', None, None),
        "--epsilon": (1.0, 'float', None, None),
        "--distribution": ('erk', None, DISTRIBUTIONS, None),
        "--block-size": (None, 'int', None, None),
        "--sparse-backend": (None, None, BACKENDS, None),
        "--seed": (0, 'int', None, None),
        "--seeds": (None, 'int', None, '+'),
        "--nproc": (None, 'int', None, None),
        "--n-workers": (0, 'int', None, None),
        "--checkpoint-dir": (None, None, None, None),
        "--checkpoint-every-epochs": (1, 'int', None, None),
        "--checkpoint-every-steps": (None, 'int', None, None),
        "--keep-last": (None, 'int', None, None),
        "--resume": (False, 'store_true', None, 0),
        "--out": (None, None, None, None),
    },
    "gnn": {
        "--dataset": ('wiki_talk', None, ('wiki_talk', 'ia_email'), None),
        "--method": ('dst_ee', None, ('dense', 'dst_ee', 'admm'), None),
        "--sparsity": (0.9, 'float', None, None),
        "--epochs": (12, 'int', None, None),
        "--nodes": (400, 'int', None, None),
        "--seed": (0, 'int', None, None),
    },
}

# Every training subcommand with a --sparse-backend (the GAN trainer has none).
TRAINING_WITH_BACKEND = ("run", "sweep", "export", "run-rl", "run-lm")


def subparser(name):
    return build_parser()._subparsers._group_actions[0].choices[name]


def describe(action):
    if action.required:
        default = REQUIRED
    else:
        default = action.default
    kind = getattr(action.type, "__name__", None)
    if action.const is True and action.default is False:
        kind = "store_true"
    return default, kind, action.choices, action.nargs


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flags_match_table(command):
    actual = {
        action.option_strings[0]: describe(action)
        for action in subparser(command)._actions
        if action.option_strings and action.dest != "help"
    }
    expected = FLAGS[command]
    assert sorted(actual) == sorted(expected)
    for flag, (default, kind, choices, nargs) in expected.items():
        got_default, got_kind, got_choices, got_nargs = actual[flag]
        assert got_default is default if default is REQUIRED else got_default == default, flag
        assert got_kind == kind, flag
        assert (None if got_choices is None else set(got_choices)) == (
            None if choices is None else set(choices)
        ), flag
        assert got_nargs == nargs, flag


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_parsed_defaults_match_table(command):
    argv = [command] + (["--out", "model.npz"] if command == "export" else [])
    args = vars(build_parser().parse_args(argv))
    for action in subparser(command)._actions:
        if action.option_strings and action.dest != "help" and not action.required:
            assert args[action.dest] == FLAGS[command][action.option_strings[0]][0]


@pytest.mark.parametrize("command", TRAINING_WITH_BACKEND)
def test_sparse_backend_offers_exactly_the_kernel_modes(command):
    extra = ["--out", "model.npz"] if command == "export" else []
    for mode in BACKENDS:
        args = build_parser().parse_args([command, "--sparse-backend", mode, *extra])
        assert args.sparse_backend == mode
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--sparse-backend", "blocked", *extra])
    (action,) = [a for a in subparser(command)._actions if a.dest == "sparse_backend"]
    assert set(action.choices) == set(BACKENDS)
