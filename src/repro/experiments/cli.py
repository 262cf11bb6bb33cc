"""Command-line interface for running reproduction experiments.

Usage (after ``pip install -e .``)::

    python -m repro.experiments.cli run --method dst_ee --dataset cifar10 \
        --model vgg19 --sparsity 0.9 --epochs 4
    python -m repro.experiments.cli run --method dst_ee --seeds 0 1 2 --nproc 3
    python -m repro.experiments.cli sweep --methods set rigl dst_ee \
        --sparsities 0.9 0.95 --seeds 0 1 --nproc 4
    python -m repro.experiments.cli gnn --dataset wiki_talk --sparsity 0.9
    python -m repro.experiments.cli run-gan --method dst_ee --mixture ring8 \
        --sparsity 0.9 --total-steps 2000
    python -m repro.experiments.cli methods
    python -m repro.experiments.cli export --method dst_ee --sparsity 0.95 \
        --model mlp --epochs 2 --out model.npz
    python -m repro.experiments.cli serve --artifact model.npz --port 8100

The training subcommands ``run``, ``export``, ``run-rl``, ``run-lm``,
``run-gan`` and ``gnn`` are the :data:`TRAINING` table.  An entry's run
function declares its flags (default and type from the keyword signature,
unless the entry overrides them), and one body runs every entry:
``--seeds`` reports the paper's mean ± std over seeds, ``--out`` exports
the run.

``--nproc`` (or the ``REPRO_NPROC`` environment variable) shards seeds and
sweep cells across worker processes; ``--n-workers`` splits each mini-batch
across data-parallel gradient workers inside one run.  The heavyweight
table benches live in ``benchmarks/``; this CLI is for single cells and
ad-hoc grids.

Fault tolerance: ``--checkpoint-dir`` writes resume-exact training
checkpoints; after a crash or preemption, rerunning the same command with
``--resume`` continues bitwise-identically — completed sweep cells are
skipped, partial cells restore mid-epoch.  See ``docs/checkpointing.md``.

Serving: ``export`` (or ``--out`` on ``run-rl``/``run-lm``) writes a
versioned serving artifact; ``serve`` verifies its fingerprint and serves
it behind the micro-batching JSON HTTP frontend.  See ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import typing
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial

from repro.data.text import CharVocab
from repro.experiments.gan import run_gan
from repro.experiments.gnn import GRAPHS, run_gnn
from repro.experiments.lm import run_lm
from repro.experiments.registry import (
    ALL_METHODS,
    GAN_METHODS,
    GNN_METHODS,
    LM_METHODS,
    RL_METHODS,
    method_family,
)
from repro.experiments.rl import run_rl
from repro.experiments.runner import mean_std, run_image_classification, run_multi_seed
from repro.rl.envs import ENV_REGISTRY
from repro.sparse.kernels import MODES

__all__ = ["TRAINING", "build_parser", "main"]

MODELS = ("vgg19", "vgg11", "resnet50", "resnet50_mini", "mlp")
DISTRIBUTIONS = ("erk", "er", "uniform")
# The `small` scale the image subcommands train at.
IMAGE_SCALE = dict(lr=0.05, delta_t=6, epochs=4)
# Default of a flag that has none: the subcommand requires it.
REQUIRED = object()


def _add_training_flags(
    parser: argparse.ArgumentParser,
    methods,
    *,
    spelling: dict | None = None,
    **defaults,
) -> None:
    """Declare the training flags subcommands share, each in one place.

    ``parser`` gets exactly the flags whose dest appears in ``defaults``,
    with that default (:data:`REQUIRED` makes the flag required);
    ``--method`` offers ``methods``.  ``spelling`` renames a flag by dest:
    the RL and GAN subcommands spell ``--ee-epsilon`` (their ``--epsilon-*``
    flags are the ε-greedy schedule), RL ``--checkpoint-every-episodes`` and
    GNN ``--nodes``.
    """
    spelling = spelling or {}

    def add(flag: str, dest: str | None = None, **spec) -> None:
        dest = dest or flag[2:].replace("-", "_")
        if dest not in defaults:
            return
        if defaults[dest] is REQUIRED:
            spec["required"] = True
        else:
            spec["default"] = defaults[dest]
        parser.add_argument(spelling.get(dest, flag), dest=dest, **spec)

    add("--method", choices=methods)
    add("--sparsity", type=float)
    add("--epochs", type=int)
    add("--total-steps", type=int)
    add("--batch-size", type=int)
    add("--lr", type=float)
    add("--delta-t", type=int, help="mask-update period in gradient steps")
    add("--drop-fraction", type=float)
    add("--c", type=float, help="exploration-exploitation coefficient (Eq. 1)")
    add("--epsilon", type=float, help="DST-EE exploration weight epsilon")
    add("--distribution", choices=DISTRIBUTIONS)
    add("--block-size", type=int, help="mask tile size (default: 1 = unstructured)")
    add("--sparse-backend", choices=MODES, help="masked-layer backend (docs/performance.md)")
    add("--seed", type=int)
    add("--seeds", type=int, nargs="+", help="multi-seed protocol over these seeds")
    add("--nproc", type=int, help="processes sharding seeds/cells (default: REPRO_NPROC)")
    add("--n-workers", type=int, help="data-parallel gradient workers per run (0 = in-process)")
    add("--checkpoint-dir", help="write resume-exact checkpoints here (docs/checkpointing.md)")
    add("--checkpoint-every-epochs", type=int, help="checkpoint cadence")
    add("--checkpoint-every-steps", type=int, help="step-granularity checkpoint cadence")
    add("--keep-last", type=int, help="retain only the newest K checkpoints per run")
    add("--resume", action="store_true", help="continue from the newest checkpoint, bitwise")
    add("--out", help="export the trained model as a serving artifact (.npz)")


def _add_signature_flags(parser: argparse.ArgumentParser, run, names, spelling: dict) -> None:
    """Declare ``--<name>`` (or its ``spelling``) for each of ``run``'s keywords in ``names``.

    The default and type are the signature's: ``int``, ``float`` and
    ``int | None`` give ``type``; ``Sequence[int]`` gives ``nargs="+"``
    with the default as a list.
    """
    params = inspect.signature(run).parameters
    hints = typing.get_type_hints(run)
    for name in names:
        default, hint, spec = params[name].default, hints[name], {}
        if typing.get_origin(hint) is Sequence:
            (hint,) = typing.get_args(hint)
            default, spec["nargs"] = list(default), "+"
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        flag = spelling.get(name, "--" + name.replace("_", "-"))
        parser.add_argument(flag, dest=name, type=kind, default=default, **spec)


def _add_image_flags(parser: argparse.ArgumentParser, model: str | None = None) -> None:
    """The synthetic image-dataset flags of ``run``, ``sweep`` and ``export``."""
    parser.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "imagenet"])
    parser.add_argument("--width-mult", type=float, default=0.2)
    parser.add_argument("--n-train", type=int, default=1024)
    parser.add_argument("--n-test", type=int, default=512)
    parser.add_argument("--image-size", type=int, default=12)
    if model is not None:
        parser.add_argument("--model", default=model, choices=MODELS)


def _dataset(args):
    from repro.data import cifar10_like, cifar100_like, imagenet_like

    maker = {"cifar10": cifar10_like, "cifar100": cifar100_like, "imagenet": imagenet_like}
    return maker[args.dataset](
        n_train=args.n_train,
        n_test=args.n_test,
        image_size=args.image_size,
        seed=args.seed,
        **({} if args.dataset == "cifar10" else {"n_classes": 20}),
    )


def _model_kwargs(args, num_classes: int) -> dict:
    """Architecture kwargs per CLI model name.

    Single source of truth consumed by both the training factories and the
    exported artifact's ``model_config`` — they must agree, or a served
    artifact would rebuild a different architecture than was trained.
    """
    resnet = {"num_classes": num_classes, "width_mult": args.width_mult}
    vgg = dict(resnet, input_size=args.image_size)
    mlp = {"in_features": 3 * args.image_size**2, "hidden": [128, 64], "num_classes": num_classes}
    return {"vgg19": vgg, "vgg11": vgg, "resnet50": resnet, "resnet50_mini": resnet, "mlp": mlp}


def _model_builders(args, num_classes: int) -> dict:
    from repro.models import build_model

    return {
        name: (lambda seed, n=name, kw=kwargs: build_model(n, seed=seed, **kw))
        for name, kwargs in _model_kwargs(args, num_classes).items()
    }


def _format_return(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _print_artifact(path, width: int = 22) -> None:
    """The lines that follow a report once ``--out`` wrote an artifact."""
    if path is None:
        return
    print(f"{'artifact:':<{width}}{path} ({path.stat().st_size / 1024:.0f} KiB)")
    print(f"{'serve with:':<{width}}python -m repro.experiments.cli serve --artifact {path}")


# Image classification: `run` and `export`.
def _image_positional(args) -> tuple:
    data = _dataset(args)
    return args.method, _model_builders(args, data.num_classes)[args.model], data


def _image_export(args, result, method, model_factory, data) -> dict:
    model_kwargs = dict(_model_kwargs(args, data.num_classes)[args.model], seed=args.seed)
    return {
        "model_config": {"builder": args.model, "kwargs": model_kwargs},
        "preprocessing": {"input_shape": list(data.input_shape)},
        "metadata": {
            "method": method,
            "dataset": result.dataset,
            "sparsity": args.sparsity,
            "actual_sparsity": result.actual_sparsity,
            "final_accuracy": result.final_accuracy,
            "epochs": args.epochs,
            "seed": args.seed,
        },
    }


def _image_report(result, path) -> None:
    print(f"method:               {result.method}")
    print(f"dataset:              {result.dataset}")
    print(f"final accuracy:       {result.final_accuracy:.4f}")
    print(f"best accuracy:        {result.best_accuracy:.4f}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity:      {result.actual_sparsity:.4f}")
        print(f"inference FLOPs:      {result.inference_flops_multiplier:.2f}x dense")
        print(f"training FLOPs:       {result.training_flops_multiplier:.2f}x dense")
    if result.exploration_rate is not None:
        print(f"exploration rate R:   {result.exploration_rate:.4f}")
    print(f"wall time:            {result.seconds:.1f}s")


def _export_report(result, path) -> None:
    print(f"method:          {result.method}")
    print(f"final accuracy:  {result.final_accuracy:.4f}")
    _print_artifact(path, width=17)


def _image_seed(r) -> str:
    return f"final {r.final_accuracy:.4f} (best {r.best_accuracy:.4f}, {r.seconds:.1f}s)"


def _image_summary(mean, std, results) -> None:
    print(f"accuracy:             {mean:.4f} ± {std:.4f}")


# Reinforcement learning: `run-rl`.
def _rl_export(args, result, method, env) -> dict:
    env_cls = ENV_REGISTRY[env]
    return {
        "model_config": {
            "builder": "mlp",
            "kwargs": {
                "in_features": env_cls.observation_size,
                "hidden": list(args.hidden),
                "num_classes": env_cls.n_actions,
                "seed": args.seed,
            },
        },
        "preprocessing": {"input_shape": [env_cls.observation_size]},
        "metadata": {
            "workload": "rl",
            "method": method,
            "environment": env,
            "sparsity": args.sparsity,
            "actual_sparsity": result.actual_sparsity,
            "final_avg_return": result.final_avg_return,
            "total_steps": result.total_steps,
            "seed": args.seed,
        },
    }


def _rl_report(result, path) -> None:
    print(f"method:               {result.method}")
    print(f"environment:          {result.env}")
    print(f"episodes:             {result.episodes}")
    print(f"env steps:            {result.total_steps}")
    print(f"gradient steps:       {result.train_steps}")
    if result.final_avg_return is not None:
        print(f"final avg return:     {result.final_avg_return:.2f}")
        # best is None until a full solve window of episodes has finished.
        print(f"best avg return:      {_format_return(result.best_avg_return)}")
    solved = f"yes (step {result.solved_at_step})" if result.solved else "no"
    print(f"solved (>= {result.solve_threshold:g}):   {solved}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity:      {result.actual_sparsity:.4f}")
    if result.exploration_rate is not None:
        print(f"exploration rate R:   {result.exploration_rate:.4f}")
    print(f"wall time:            {result.seconds:.1f}s")
    _print_artifact(path)


def _rl_seed(result) -> str:
    solved = f"solved @ step {result.solved_at_step}" if result.solved else "not solved"
    # A run too short to finish a single episode reports no return.
    final = _format_return(result.final_avg_return)
    return f"final avg return {final} (best {_format_return(result.best_avg_return)}, {solved})"


def _rl_summary(mean, std, results) -> None:
    print(f"avg return:           {_format_return(mean)} ± {_format_return(std)}")
    print(f"solved seeds:         {sum(1 for r in results if r.solved)}/{len(results)}")


# Char-GPT language model: `run-lm`.
def _lm_export(args, result, method, corpus) -> dict:
    vocab = CharVocab()
    return {
        "model_config": {
            "builder": "char_gpt",
            "kwargs": {
                "vocab_size": len(vocab),
                "block_len": args.block_len,
                "n_layer": args.n_layer,
                "n_head": args.n_head,
                "n_embd": args.n_embd,
                # Serving answers greedy next-token queries: the loaded
                # model returns last-position logits for left-padded
                # prompts, unlike the flattened training head.
                "head": "last",
                "pad_id": vocab.pad_id,
                "seed": args.seed,
            },
        },
        "preprocessing": {
            "kind": "sequence",
            "max_length": args.block_len,
            "pad_id": vocab.pad_id,
            "vocab_size": len(vocab),
        },
        "metadata": {
            "workload": "lm",
            "method": method,
            "corpus": corpus,
            "sparsity": args.sparsity,
            "actual_sparsity": result.actual_sparsity,
            "val_perplexity": result.val_perplexity,
            "epochs": result.epochs,
            "seed": args.seed,
        },
    }


def _lm_report(result, path) -> None:
    print(f"method:               {result.method}")
    print(f"corpus:               {result.corpus}")
    print(f"epochs:               {result.epochs}")
    print(f"gradient steps:       {result.total_steps}")
    print(f"train loss:           {result.train_loss:.4f}")
    print(f"val perplexity:       {result.val_perplexity:.3f}")
    print(f"next-token accuracy:  {result.val_next_token_accuracy:.4f}")
    print(f"parameters:           {result.n_params}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity:      {result.actual_sparsity:.4f}")
    if result.exploration_rate is not None:
        print(f"exploration rate R:   {result.exploration_rate:.4f}")
    print(f"wall time:            {result.seconds:.1f}s")
    _print_artifact(path)


def _lm_seed(r) -> str:
    return f"val ppl {r.val_perplexity:.3f} (next-token acc {r.val_next_token_accuracy:.4f})"


def _lm_summary(mean, std, results) -> None:
    # The mean and std over seeds are of next-token accuracy; report perplexity.
    ppl_mean, ppl_std = mean_std(result.val_perplexity for result in results)
    print(f"val perplexity:       {ppl_mean:.3f} ± {ppl_std:.3f}")


# Sparse GAN: `run-gan`.
def _gan_report(result, path) -> None:
    print(f"method:               {result.method}")
    print(f"mixture:              {result.mixture}")
    print(f"steps:                {result.total_steps}")
    print(f"modes covered:        {result.modes_covered}/{result.n_modes}")
    print(f"high-quality frac:    {result.high_quality_fraction:.3f}")
    if result.final_loss_d is not None:
        print(f"final loss D/G:       {result.final_loss_d:.4f} / {result.final_loss_g:.4f}")
    if result.g_density is not None:
        print(f"final G density:      {result.g_density:.4f}")
        print(f"final D density:      {result.d_density:.4f}")
        print(f"combined budget:      {result.combined_budget}")
        print(f"G<->D transfers:      {len(result.transfers)}")
    print(f"wall time:            {result.seconds:.1f}s")


def _gan_seed(r) -> str:
    return f"{r.modes_covered}/{r.n_modes} modes (high-quality {r.high_quality_fraction:.3f})"


def _gan_summary(mean, std, results) -> None:
    print(f"mode coverage:        {mean:.3f} ± {std:.3f}")


# GNN link prediction: `gnn`.
def _gnn_report(result, path) -> None:
    print(f"method:          {result.method}")
    print(f"dataset:         {result.dataset}")
    print(f"final accuracy:  {result.final_accuracy:.4f}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity: {result.actual_sparsity:.4f}")
    print(f"wall time:       {result.seconds:.1f}s")


def _gnn_seed(r) -> str:
    return f"final {r.final_accuracy:.4f} ({r.seconds:.1f}s)"


@dataclass(frozen=True)
class Training:
    """One training subcommand: its run function, flags and printers.

    Flags: ``add_flags`` declares the subcommand's own.  Each shared flag
    whose dest is a keyword of ``run`` (unless in ``omit``) defaults to the
    signature's value or to the one in ``defaults``; each keyword in
    ``derived`` gets a flag of its own from the signature.  ``--seeds``
    comes with ``seeds`` = (subject label, result attribute, per-seed line,
    summary printer); ``--out`` with ``export(args, result, *positional)``,
    which returns the artifact's ``model_config``, ``preprocessing`` and
    ``metadata``.  ``report(result, artifact path or None)`` prints a run.
    """

    run: Callable
    help: str
    methods: Sequence[str]
    add_flags: Callable
    positional: Callable
    report: Callable
    defaults: dict = field(default_factory=dict)
    omit: Sequence[str] = ()
    derived: Sequence[str] = ()
    spelling: dict = field(default_factory=dict)
    seeds: tuple | None = None
    export: Callable | None = None

    def flag_defaults(self) -> dict:
        params = inspect.signature(self.run).parameters
        defaults = {name: p.default for name, p in params.items() if p.kind is p.KEYWORD_ONLY}
        defaults.update(method="dst_ee", nproc=None, keep_last=None, resume=False)
        if self.seeds is not None:
            defaults["seeds"] = None
        if self.export is not None:
            defaults["out"] = None
        defaults.update(self.defaults)
        for name in self.omit:
            del defaults[name]
        return defaults


def _choice_flag(flag: str, default: str, choices: tuple):
    return lambda parser: parser.add_argument(flag, default=default, choices=choices)


TRAINING = {
    "run": Training(
        run_image_classification,
        "one image-classification training run",
        ALL_METHODS,
        partial(_add_image_flags, model="vgg19"),
        _image_positional,
        _image_report,
        defaults=IMAGE_SCALE,
        omit=("drop_fraction",),
        seeds=("dataset", "dataset", _image_seed, _image_summary),
    ),
    "export": Training(
        run_image_classification,
        "train one configuration and write a serving artifact",
        ALL_METHODS,
        partial(_add_image_flags, model="mlp"),
        _image_positional,
        _export_report,
        defaults=dict(IMAGE_SCALE, sparsity=0.95, out=REQUIRED),
        omit=("drop_fraction", "n_workers", "nproc"),
        export=_image_export,
    ),
    "run-rl": Training(
        run_rl,
        "one DQN training run on a classic-control environment",
        RL_METHODS,
        _choice_flag("--env", "cartpole", ("cartpole", "acrobot")),
        lambda args: (args.method, args.env),
        _rl_report,
        derived=(
            "hidden gamma buffer_capacity warmup_steps train_every target_sync_every "
            "epsilon_start epsilon_end huber_delta epsilon_decay_fraction"
        ).split(),
        spelling={
            "epsilon": "--ee-epsilon",
            "checkpoint_every_epochs": "--checkpoint-every-episodes",
        },
        seeds=("environment", "env", _rl_seed, _rl_summary),
        export=_rl_export,
    ),
    "run-gan": Training(
        run_gan,
        "one sparse-GAN run on a synthetic 2-D Gaussian mixture",
        GAN_METHODS,
        _choice_flag("--mixture", "ring8", ("ring4", "ring8", "grid9")),
        lambda args: (args.method, args.mixture),
        _gan_report,
        derived=("hidden", "latent_dim", "balance_max_shift", "balance_delta_t", "n_eval_samples"),
        spelling={"epsilon": "--ee-epsilon"},
        seeds=("mixture", "mixture", _gan_seed, _gan_summary),
    ),
    "run-lm": Training(
        run_lm,
        "one sparse char-GPT language-model run on the synthetic prose corpus",
        LM_METHODS,
        _choice_flag("--corpus", "markov-prose", ("markov-prose",)),
        lambda args: (args.method, args.corpus),
        _lm_report,
        derived=("n_chars", "block_len", "n_layer", "n_head", "n_embd"),
        seeds=("corpus", "corpus", _lm_seed, _lm_summary),
        export=_lm_export,
    ),
    "gnn": Training(
        run_gnn,
        "GNN link-prediction experiment",
        GNN_METHODS,
        _choice_flag("--dataset", "wiki_talk", tuple(GRAPHS)),
        lambda args: (args.method, args.dataset),
        _gnn_report,
        derived=("n_nodes",),
        spelling={"n_nodes": "--nodes"},
        seeds=("dataset", "dataset", _gnn_seed, _image_summary),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DST-EE reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, entry in TRAINING.items():
        train = sub.add_parser(name, help=entry.help)
        entry.add_flags(train)
        _add_training_flags(train, entry.methods, spelling=entry.spelling, **entry.flag_defaults())
        _add_signature_flags(train, entry.run, entry.derived, entry.spelling)

    # A sweep cell is a `run` with that subcommand's defaults, at 2 epochs.
    sweep = sub.add_parser("sweep", help="grid of (method x model x sparsity x seed) cells")
    _add_image_flags(sweep)
    run_defaults = TRAINING["run"].flag_defaults()
    shared = (
        "seed batch_size lr delta_t block_size sparse_backend nproc checkpoint_dir "
        "checkpoint_every_epochs checkpoint_every_steps keep_last resume"
    ).split()
    defaults = {dest: run_defaults[dest] for dest in shared}
    _add_training_flags(sweep, ALL_METHODS, **defaults, epochs=2, seeds=[0])
    sweep.add_argument(
        "--methods",
        nargs="+",
        default=["set", "rigl", "dst_ee"],
        choices=ALL_METHODS,
    )
    sweep.add_argument("--models", nargs="+", default=["vgg11"], choices=MODELS)
    sweep.add_argument("--sparsities", type=float, nargs="+", default=[0.9])
    sweep.add_argument(
        "--root-seed",
        type=int,
        default=None,
        help="derive per-cell seeds from this root via SeedSequence.spawn",
    )

    serve = sub.add_parser("serve", help="serve a model artifact over HTTP")
    serve.add_argument("--artifact", required=True, help="artifact written by `export`")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100)
    serve.add_argument("--max-batch", type=int, default=32, help="flush at this many requests")
    serve.add_argument(
        "--max-latency-ms", type=float, default=2.0, help="flush when the oldest waited this long"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="admitted-but-unfinished bound; excess is shed with 429 (0 = no admission control)",
    )
    serve.add_argument(
        "--deadline-s",
        type=float,
        default=30.0,
        help="per-request deadline (a body's deadline_ms overrides it); expiry answers 504",
    )

    sub.add_parser("methods", help="list available methods by family")
    return parser


def _command_train(entry: Training, args) -> int:
    """Validate, then run one seed or the multi-seed protocol; export on ``--out``."""
    seeds = getattr(args, "seeds", None)
    out = getattr(args, "out", None)
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if seeds is not None and args.checkpoint_dir:
        raise SystemExit(
            f"--checkpoint-dir with --seeds is not supported by `{args.command}` "
            "(every seed would share one directory); use a sweep for "
            "resumable multi-seed grids"
        )
    if seeds is not None and out:
        raise SystemExit("--out exports a single run; drop --seeds")
    if out and method_family(args.method) == "dense":
        raise SystemExit(f"method {args.method!r} trains a dense model; nothing sparse to export")

    params = inspect.signature(entry.run).parameters
    kwargs = {
        dest: value
        for dest, value in vars(args).items()
        if dest in params and params[dest].kind is inspect.Parameter.KEYWORD_ONLY
    }
    kwargs["checkpoint_keep_last"] = args.keep_last
    kwargs["resume_from"] = args.checkpoint_dir if args.resume else None
    positional = entry.positional(args)

    if seeds is not None:
        subject, attr, seed_line, summary = entry.seeds
        del kwargs["seed"]
        mean, std, results = run_multi_seed(
            entry.run, *positional, seeds=tuple(seeds), n_proc=args.nproc, **kwargs
        )
        print(f"method:               {args.method}")
        print(f"{subject + ':':<22}{getattr(results[0], attr)}")
        print(f"seeds:                {list(seeds)}")
        for seed, result in zip(seeds, results):
            print(f"  seed {seed}: {seed_line(result)}")
        summary(mean, std, results)
        return 0

    result = entry.run(*positional, keep_model=bool(out), **kwargs)
    path = None
    if out:
        from repro.serve import export_model

        path = export_model(result.masked, out, **entry.export(args, result, *positional))
    entry.report(result, path)
    return 0


def _command_sweep(args) -> int:
    from repro.experiments.registry import enumerate_cells
    from repro.experiments.runner import run_sweep
    from repro.experiments.tables import format_float, format_table

    data = _dataset(args)
    cells = enumerate_cells(
        args.methods,
        args.models,
        [args.dataset],
        args.sparsities,
        seeds=args.seeds,
        root_seed=args.root_seed,
    )
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    sweep_kwargs = {}
    if args.checkpoint_dir:
        sweep_kwargs = {
            "checkpoint_dir": args.checkpoint_dir,
            "resume": args.resume,
            "checkpoint_every_epochs": args.checkpoint_every_epochs,
            "checkpoint_every_steps": args.checkpoint_every_steps,
            "checkpoint_keep_last": args.keep_last,
        }
    builders = _model_builders(args, data.num_classes)

    def run_cell(cell, **kwargs):
        return run_image_classification(
            cell.method,
            builders[cell.model],
            data,
            sparsity=cell.sparsity,
            seed=cell.seed,
            **kwargs,
        )

    report = run_sweep(
        cells,
        run_cell,
        n_proc=args.nproc,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        delta_t=args.delta_t,
        block_size=args.block_size,
        sparse_backend=args.sparse_backend,
        **sweep_kwargs,
    )
    rows = [
        {
            "method": row["method"],
            "model": row["model"],
            "sparsity": f"{row['sparsity']:g}",
            "accuracy": (
                f"{format_float(row['mean_accuracy'], 4)} "
                f"± {format_float(row['std_accuracy'], 4)}"
            ),
            "seeds": f"{row['seeds_ok']}"
            + (f" ({row['seeds_failed']} failed)" if row["seeds_failed"] else ""),
        }
        for row in report.aggregate()
    ]
    print(
        format_table(
            rows,
            ["method", "model", "sparsity", "accuracy", "seeds"],
            title=f"sweep on {args.dataset} ({len(cells)} cells)",
        )
    )
    for outcome in report.failures:
        print(f"\nFAILED {outcome.cell}:")
        print("  " + (outcome.error or "").strip().replace("\n", "\n  "))
    return 1 if report.failures else 0


def _command_serve(args) -> int:
    from repro.serve import AdmissionController, Server, load_model, serve_forever

    loaded = load_model(args.artifact)
    admission = (
        AdmissionController(max_pending=args.max_pending) if args.max_pending > 0 else None
    )
    server = Server(
        loaded,
        max_batch=args.max_batch,
        max_latency_ms=args.max_latency_ms,
        admission=admission,
    )
    metadata = loaded.metadata or {}
    print(f"artifact: {args.artifact}")
    print(f"  fingerprint: {loaded.fingerprint}")
    if metadata:
        print(f"  metadata:    {metadata}")
    serve_forever(server, args.host, args.port, default_deadline_s=args.deadline_s)
    return 0


def _command_methods() -> int:
    for name in ALL_METHODS:
        print(f"{name:16s} {method_family(name)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in TRAINING:
        return _command_train(TRAINING[args.command], args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "serve":
        return _command_serve(args)
    return _command_methods()


if __name__ == "__main__":
    sys.exit(main())
