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

``--nproc`` (or the ``REPRO_NPROC`` environment variable) shards seeds and
sweep cells across worker processes; ``--n-workers`` splits each mini-batch
across data-parallel gradient workers inside one run.  The heavyweight
table benches live in ``benchmarks/``; this CLI is for single cells and
ad-hoc grids.

Fault tolerance: ``--checkpoint-dir`` writes resume-exact training
checkpoints during ``run`` and ``sweep``; after a crash or preemption,
rerunning the same command with ``--resume`` continues bitwise-identically
— completed sweep cells are skipped, partial cells restore mid-epoch.  See
``docs/checkpointing.md``.

Serving: ``export`` trains one configuration and writes a versioned
serving artifact (compiled CSR weights + model config + preprocessing
spec); ``serve`` loads an artifact behind the micro-batching JSON HTTP
frontend, optionally fanning batches out across ``--n-workers`` forked
serving processes that share one read-only weight arena.  See
``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import (
    ALL_METHODS,
    GAN_METHODS,
    LM_METHODS,
    RL_METHODS,
    method_family,
)
from repro.sparse.kernels import MODES

__all__ = ["build_parser", "main"]

MODELS = ("vgg19", "vgg11", "resnet50", "resnet50_mini", "mlp")
DISTRIBUTIONS = ("erk", "er", "uniform")

# Defaults of the flag groups several training subcommands share.
CHECKPOINT_DEFAULTS = dict(
    checkpoint_dir=None,
    checkpoint_every_steps=None,
    keep_last=None,
    resume=False,
)
IMAGE_DEFAULTS = dict(
    batch_size=64,
    lr=0.05,
    delta_t=6,
    block_size=None,
    sparse_backend=None,
    nproc=None,
    checkpoint_every_epochs=1,
    **CHECKPOINT_DEFAULTS,
)
DST_DEFAULTS = dict(
    method="dst_ee",
    sparsity=0.9,
    lr=1e-3,
    delta_t=100,
    drop_fraction=0.3,
    c=1e-3,
    distribution="erk",
    seed=0,
    seeds=None,
    nproc=None,
)


def _add_training_flags(
    parser: argparse.ArgumentParser,
    methods,
    *,
    epsilon_flag: str = "--epsilon",
    cadence_flag: str = "--checkpoint-every-epochs",
    **defaults,
) -> None:
    """Declare the training flags subcommands share, each in one place.

    ``parser`` gets exactly the flags whose dest appears in ``defaults``,
    with that default; ``--method`` offers ``methods``.  The RL and GAN
    subcommands spell two knobs their own way: ``--ee-epsilon`` (their
    ``--epsilon-*`` flags are the ε-greedy schedule) and
    ``--checkpoint-every-episodes``.
    """

    def add(flag: str, dest: str | None = None, **spec) -> None:
        dest = dest or flag[2:].replace("-", "_")
        if dest in defaults:
            parser.add_argument(flag, dest=dest, default=defaults[dest], **spec)

    add("--method", choices=methods)
    add("--sparsity", type=float)
    add("--epochs", type=int)
    add("--total-steps", type=int)
    add("--batch-size", type=int)
    add("--lr", type=float)
    add("--delta-t", type=int, help="mask-update period in gradient steps")
    add("--drop-fraction", type=float)
    add("--c", type=float, help="exploration-exploitation coefficient (Eq. 1)")
    add(epsilon_flag, "epsilon", type=float, help="DST-EE exploration weight epsilon")
    add("--distribution", choices=DISTRIBUTIONS)
    add(
        "--block-size",
        type=int,
        help="block-structured mask tile size (1 = unstructured; "
        "default: REPRO_SPARSE_BLOCK_SIZE or 1)",
    )
    add(
        "--sparse-backend",
        choices=MODES,
        help="execution backend for masked layers during training "
        "(see docs/performance.md; default: plain masked-dense)",
    )
    add("--seed", type=int)
    add("--seeds", type=int, nargs="+", help="multi-seed protocol over these seeds")
    add(
        "--nproc",
        type=int,
        help="worker processes for seed/cell sharding (default: REPRO_NPROC, 1 = serial)",
    )
    add(
        "--n-workers",
        type=int,
        help="data-parallel gradient workers per run (0 = in-process)",
    )
    add(
        "--checkpoint-dir",
        help="write resume-exact training checkpoints here (see docs/checkpointing.md)",
    )
    add(cadence_flag, "checkpoint_every_epochs", type=int, help="checkpoint cadence")
    add("--checkpoint-every-steps", type=int, help="step-granularity checkpoint cadence")
    add("--keep-last", type=int, help="retain only the newest K checkpoints per run")
    add(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir "
        "(bitwise-identical to an uninterrupted run)",
    )
    add("--out", help="export the trained model as a serving artifact (.npz)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DST-EE reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Synthetic image-dataset knobs of `run`, `sweep` and `export`.
    image = argparse.ArgumentParser(add_help=False)
    image.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "imagenet"])
    image.add_argument("--width-mult", type=float, default=0.2)
    image.add_argument("--n-train", type=int, default=1024)
    image.add_argument("--n-test", type=int, default=512)
    image.add_argument("--image-size", type=int, default=12)

    run = sub.add_parser("run", parents=[image], help="one image-classification training run")
    _add_training_flags(
        run,
        ALL_METHODS,
        method="dst_ee",
        sparsity=0.9,
        epochs=4,
        c=1e-3,
        epsilon=1.0,
        distribution="erk",
        seed=0,
        seeds=None,
        n_workers=0,
        **IMAGE_DEFAULTS,
    )
    run.add_argument("--model", default="vgg19", choices=MODELS)

    sweep = sub.add_parser(
        "sweep",
        parents=[image],
        help="grid of (method x model x sparsity x seed) cells",
    )
    _add_training_flags(sweep, ALL_METHODS, epochs=2, seed=0, seeds=[0], **IMAGE_DEFAULTS)
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

    run_rl = sub.add_parser("run-rl", help="one DQN training run on a classic-control environment")
    run_rl.add_argument("--env", default="cartpole", choices=["cartpole", "acrobot"])
    _add_training_flags(
        run_rl,
        RL_METHODS,
        epsilon_flag="--ee-epsilon",
        cadence_flag="--checkpoint-every-episodes",
        total_steps=5000,
        batch_size=64,
        epsilon=1.0,
        sparse_backend=None,
        checkpoint_every_epochs=1,
        out=None,
        **DST_DEFAULTS,
        **CHECKPOINT_DEFAULTS,
    )
    run_rl.add_argument(
        "--hidden",
        type=int,
        nargs="+",
        default=[256, 256],
        help="Q-network widths",
    )
    run_rl.add_argument("--gamma", type=float, default=0.99)
    run_rl.add_argument("--buffer-capacity", type=int, default=10_000)
    run_rl.add_argument("--warmup-steps", type=int, default=500)
    run_rl.add_argument("--train-every", type=int, default=1, help="env steps per gradient step")
    run_rl.add_argument(
        "--target-sync-every",
        type=int,
        default=200,
        help="target-network sync cadence in gradient steps",
    )
    run_rl.add_argument("--epsilon-start", type=float, default=1.0)
    run_rl.add_argument("--epsilon-end", type=float, default=0.05)
    run_rl.add_argument(
        "--huber-delta",
        type=float,
        default=1.0,
        help="transition point of the Huber TD loss",
    )
    run_rl.add_argument(
        "--epsilon-decay-fraction",
        type=float,
        default=0.4,
        help="fraction of total steps over which epsilon decays",
    )

    run_gan = sub.add_parser(
        "run-gan",
        help="one sparse-GAN run on a synthetic 2-D Gaussian mixture",
    )
    run_gan.add_argument("--mixture", default="ring8", choices=["ring4", "ring8", "grid9"])
    _add_training_flags(
        run_gan,
        GAN_METHODS,
        epsilon_flag="--ee-epsilon",
        total_steps=2000,
        batch_size=64,
        epsilon=1.0,
        **DST_DEFAULTS,
        **dict(CHECKPOINT_DEFAULTS, checkpoint_every_steps=200),
    )
    run_gan.add_argument(
        "--hidden",
        type=int,
        nargs="+",
        default=[64, 64],
        help="generator/discriminator MLP widths",
    )
    run_gan.add_argument("--latent-dim", type=int, default=8)
    run_gan.add_argument(
        "--balance-max-shift",
        type=float,
        default=0.05,
        help="max fraction of the donor budget moved per G<->D rebalance",
    )
    run_gan.add_argument(
        "--balance-delta-t",
        type=int,
        default=None,
        help="G<->D rebalance cadence (default: --delta-t)",
    )
    run_gan.add_argument("--n-eval-samples", type=int, default=2000)

    run_lm = sub.add_parser(
        "run-lm",
        help="one sparse char-GPT language-model run on the synthetic prose corpus",
    )
    run_lm.add_argument("--corpus", default="markov-prose", choices=["markov-prose"])
    _add_training_flags(
        run_lm,
        LM_METHODS,
        epochs=3,
        batch_size=32,
        epsilon=1.0,
        block_size=None,
        sparse_backend=None,
        n_workers=0,
        checkpoint_every_epochs=1,
        out=None,
        **DST_DEFAULTS,
        **CHECKPOINT_DEFAULTS,
    )
    run_lm.add_argument("--n-chars", type=int, default=65536, help="corpus size in characters")
    run_lm.add_argument("--block-len", type=int, default=32, help="context window length")
    run_lm.add_argument("--n-layer", type=int, default=2)
    run_lm.add_argument("--n-head", type=int, default=2)
    run_lm.add_argument("--n-embd", type=int, default=64)

    export = sub.add_parser(
        "export",
        parents=[image],
        help="train one configuration and write a serving artifact",
    )
    _add_training_flags(
        export,
        ALL_METHODS,
        method="dst_ee",
        sparsity=0.95,
        epochs=4,
        c=1e-3,
        epsilon=1.0,
        distribution="erk",
        seed=0,
        **IMAGE_DEFAULTS,
    )
    export.add_argument("--model", default="mlp", choices=MODELS)
    export.add_argument("--out", required=True, help="artifact path to write (.npz)")

    serve = sub.add_parser("serve", help="serve a model artifact over HTTP")
    serve.add_argument(
        "--artifact",
        required=True,
        help="artifact written by `export` (or serve.export_model)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batching: flush at this many pending requests",
    )
    serve.add_argument(
        "--max-latency-ms",
        type=float,
        default=2.0,
        help="micro-batching: flush when the oldest request " "has waited this long",
    )
    serve.add_argument(
        "--n-workers",
        type=int,
        default=0,
        help="forked serving processes sharing one read-only " "weight arena (0 = in-process)",
    )
    serve.add_argument(
        "--no-batching",
        action="store_true",
        help="disable request coalescing (A/B baseline)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="admission control: bound on admitted-but-unfinished "
        "requests; excess traffic is shed with 429 + Retry-After "
        "(0 disables admission control)",
    )
    serve.add_argument(
        "--deadline-s",
        type=float,
        default=30.0,
        help="default per-request deadline; requests may override via "
        "deadline_ms in the body, expiry answers 504",
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip artifact fingerprint verification at load",
    )

    gnn = sub.add_parser("gnn", help="GNN link-prediction experiment")
    gnn.add_argument("--dataset", default="wiki_talk", choices=["wiki_talk", "ia_email"])
    _add_training_flags(
        gnn, ["dense", "dst_ee", "admm"], method="dst_ee", sparsity=0.9, epochs=12, seed=0
    )
    gnn.add_argument("--nodes", type=int, default=400)

    sub.add_parser("methods", help="list available methods by family")
    return parser


def _dataset(args):
    from repro.data import cifar10_like, cifar100_like, imagenet_like

    if args.dataset == "cifar10":
        return cifar10_like(
            n_train=args.n_train,
            n_test=args.n_test,
            image_size=args.image_size,
            seed=args.seed,
        )
    if args.dataset == "cifar100":
        return cifar100_like(
            n_train=args.n_train,
            n_test=args.n_test,
            image_size=args.image_size,
            n_classes=20,
            seed=args.seed,
        )
    return imagenet_like(
        n_train=args.n_train,
        n_test=args.n_test,
        image_size=args.image_size,
        n_classes=20,
        seed=args.seed,
    )


def _model_kwargs(args, num_classes: int) -> dict:
    """Architecture kwargs per CLI model name.

    Single source of truth consumed by both the training factories and the
    exported artifact's ``model_config`` — they must agree, or a served
    artifact would rebuild a different architecture than was trained.
    """
    return {
        "vgg19": {
            "num_classes": num_classes,
            "width_mult": args.width_mult,
            "input_size": args.image_size,
        },
        "vgg11": {
            "num_classes": num_classes,
            "width_mult": args.width_mult,
            "input_size": args.image_size,
        },
        "resnet50": {"num_classes": num_classes, "width_mult": args.width_mult},
        "resnet50_mini": {"num_classes": num_classes, "width_mult": args.width_mult},
        "mlp": {
            "in_features": 3 * args.image_size**2,
            "hidden": [128, 64],
            "num_classes": num_classes,
        },
    }


def _model_builders(args, num_classes: int) -> dict:
    from repro.models import build_model

    return {
        name: (lambda seed, n=name, kw=kwargs: build_model(n, seed=seed, **kw))
        for name, kwargs in _model_kwargs(args, num_classes).items()
    }


def _model_factory(args, num_classes: int):
    return _model_builders(args, num_classes)[args.model]


# Parsed flags that choose, fan out or export a run instead of configuring it.
_NOT_RUN_KWARGS = {
    "command",
    "method",
    "seed",
    "seeds",
    "nproc",
    "resume",
    "out",
    "env",
    "corpus",
    "mixture",
    "dataset",
    "model",
    "width_mult",
    "n_train",
    "n_test",
    "image_size",
}


def _run_kwargs(args) -> dict:
    """The entrypoint keywords a training subcommand's flags set.

    Serves ``run``, ``export``, ``run-rl``, ``run-gan`` and ``run-lm``:
    every other flag is passed under its dest, except that ``--keep-last``
    sets ``checkpoint_keep_last`` and ``--resume`` sets ``resume_from``.
    """
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if getattr(args, "seeds", None) is not None:
        if args.checkpoint_dir:
            raise SystemExit(
                f"--checkpoint-dir with --seeds is not supported by `{args.command}` "
                "(every seed would share one directory); use a sweep for "
                "resumable multi-seed grids"
            )
        if getattr(args, "out", None):
            raise SystemExit("--out exports a single run; drop --seeds")
    kwargs = {dest: value for dest, value in vars(args).items() if dest not in _NOT_RUN_KWARGS}
    kwargs["checkpoint_keep_last"] = kwargs.pop("keep_last")
    kwargs["resume_from"] = args.checkpoint_dir if args.resume else None
    return kwargs


def _command_run(args) -> int:
    from repro.experiments.runner import run_image_classification, run_multi_seed

    run_kwargs = _run_kwargs(args)
    data = _dataset(args)
    if args.seeds is not None:
        mean, std, results = run_multi_seed(
            args.method,
            _model_factory(args, data.num_classes),
            data,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            **run_kwargs,
        )
        print(f"method:               {args.method}")
        print(f"dataset:              {data.name}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            print(
                f"  seed {seed}: final {result.final_accuracy:.4f} "
                f"(best {result.best_accuracy:.4f}, {result.seconds:.1f}s)"
            )
        print(f"accuracy:             {mean:.4f} ± {std:.4f}")
        return 0
    result = run_image_classification(
        args.method,
        _model_factory(args, data.num_classes),
        data,
        seed=args.seed,
        **run_kwargs,
    )
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
    report = run_sweep(
        cells,
        {name: (lambda num_classes, b=builders[name]: b) for name in args.models},
        {args.dataset: data},
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


def _format_return(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _command_run_rl(args) -> int:
    from repro.experiments.rl import run_rl, run_rl_multi_seed
    from repro.rl.envs import ENV_REGISTRY

    rl_kwargs = _run_kwargs(args)
    if args.seeds is not None:
        mean, std, results = run_rl_multi_seed(
            args.method,
            args.env,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            **rl_kwargs,
        )
        print(f"method:               {args.method}")
        print(f"environment:          {args.env}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            solved = (
                f"solved @ step {result.solved_at_step}" if result.solved else "not solved"
            )
            # A run too short to finish a single episode reports no return.
            final = _format_return(result.final_avg_return)
            best = _format_return(result.best_avg_return)
            print(f"  seed {seed}: final avg return {final} (best {best}, {solved})")
        print(f"avg return:           {mean:.2f} ± {std:.2f}")
        print(f"solved seeds:         {sum(1 for r in results if r.solved)}" f"/{len(results)}")
        return 0

    result = run_rl(
        args.method,
        args.env,
        seed=args.seed,
        keep_model=bool(args.out),
        **rl_kwargs,
    )
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

    if args.out:
        from repro.serve import export_model

        if result.masked is None:
            raise SystemExit(
                f"method {args.method!r} trains a dense policy; nothing sparse "
                "to export"
            )
        env_cls = ENV_REGISTRY[args.env]
        path = export_model(
            result.masked,
            args.out,
            model_config={
                "builder": "mlp",
                "kwargs": {
                    "in_features": env_cls.observation_size,
                    "hidden": [int(width) for width in args.hidden],
                    "num_classes": env_cls.n_actions,
                    "seed": args.seed,
                },
            },
            preprocessing={"input_shape": [env_cls.observation_size]},
            metadata={
                "workload": "rl",
                "method": args.method,
                "environment": args.env,
                "sparsity": args.sparsity,
                "actual_sparsity": result.actual_sparsity,
                "final_avg_return": result.final_avg_return,
                "total_steps": result.total_steps,
                "seed": args.seed,
            },
        )
        size_kib = path.stat().st_size / 1024
        print(f"artifact:             {path} ({size_kib:.0f} KiB)")
        print(f"serve with:           python -m repro.experiments.cli serve " f"--artifact {path}")
    return 0


def _command_run_lm(args) -> int:
    from repro.experiments.lm import run_lm, run_lm_multi_seed

    lm_kwargs = _run_kwargs(args)
    if args.seeds is not None:
        mean, std, results = run_lm_multi_seed(
            args.method,
            args.corpus,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            **lm_kwargs,
        )
        print(f"method:               {args.method}")
        print(f"corpus:               {args.corpus}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            print(
                f"  seed {seed}: val ppl {result.val_perplexity:.3f} "
                f"(next-token acc {result.val_next_token_accuracy:.4f})"
            )
        print(f"val perplexity:       {mean:.3f} ± {std:.3f}")
        return 0

    result = run_lm(
        args.method,
        args.corpus,
        seed=args.seed,
        keep_model=bool(args.out),
        **lm_kwargs,
    )
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

    if args.out:
        from repro.data.text import CharVocab
        from repro.serve import export_model

        if result.masked is None:
            raise SystemExit(
                f"method {args.method!r} trains a dense model; nothing sparse to export"
            )
        pad_id = CharVocab().pad_id
        path = export_model(
            result.masked,
            args.out,
            model_config={
                "builder": "char_gpt",
                "kwargs": {
                    "vocab_size": 32,
                    "block_len": args.block_len,
                    "n_layer": args.n_layer,
                    "n_head": args.n_head,
                    "n_embd": args.n_embd,
                    # Serving answers greedy next-token queries: the loaded
                    # model returns last-position logits for left-padded
                    # prompts, unlike the flattened training head.
                    "head": "last",
                    "pad_id": pad_id,
                    "seed": args.seed,
                },
            },
            preprocessing={
                "kind": "sequence",
                "max_length": args.block_len,
                "pad_id": pad_id,
                "vocab_size": 32,
            },
            metadata={
                "workload": "lm",
                "method": args.method,
                "corpus": args.corpus,
                "sparsity": args.sparsity,
                "actual_sparsity": result.actual_sparsity,
                "val_perplexity": result.val_perplexity,
                "epochs": result.epochs,
                "seed": args.seed,
            },
        )
        size_kib = path.stat().st_size / 1024
        print(f"artifact:             {path} ({size_kib:.0f} KiB)")
        print(f"serve with:           python -m repro.experiments.cli serve " f"--artifact {path}")
    return 0


def _model_export_config(args, num_classes: int) -> dict:
    """Registry config that rebuilds the trained architecture at load time.

    Derived from the same kwargs table the training factory uses, so the
    exported artifact cannot drift from what was actually trained.
    """
    kwargs = dict(_model_kwargs(args, num_classes)[args.model])
    kwargs["seed"] = args.seed
    return {"builder": args.model, "kwargs": kwargs}


def _command_export(args) -> int:
    from repro.experiments.runner import run_image_classification
    from repro.serve import export_model

    run_kwargs = _run_kwargs(args)
    data = _dataset(args)
    result = run_image_classification(
        args.method,
        _model_factory(args, data.num_classes),
        data,
        seed=args.seed,
        keep_model=True,
        **run_kwargs,
    )
    if result.masked is None:
        raise SystemExit(f"method {args.method!r} trains a dense model; nothing sparse to export")
    path = export_model(
        result.masked,
        args.out,
        model_config=_model_export_config(args, data.num_classes),
        preprocessing={"input_shape": list(data.input_shape)},
        metadata={
            "method": args.method,
            "dataset": result.dataset,
            "sparsity": args.sparsity,
            "actual_sparsity": result.actual_sparsity,
            "final_accuracy": result.final_accuracy,
            "epochs": args.epochs,
            "seed": args.seed,
        },
    )
    size_kib = path.stat().st_size / 1024
    print(f"method:          {result.method}")
    print(f"final accuracy:  {result.final_accuracy:.4f}")
    print(f"artifact:        {path} ({size_kib:.0f} KiB)")
    print(f"serve with:      python -m repro.experiments.cli serve --artifact {path}")
    return 0


def _command_serve(args) -> int:
    from repro.serve import (
        AdmissionController,
        Server,
        ServingPool,
        load_model,
        serve_forever,
    )

    loaded = load_model(args.artifact, verify=not args.no_verify)
    pool = None
    forward = None
    if args.n_workers > 0:
        pool = ServingPool(loaded, n_workers=args.n_workers, preprocess=False)

        def forward(batch, _pool=pool):
            # Bounded wait: a wedged worker fails this batch instead of
            # blocking the batching-queue flusher thread forever.
            return _pool.predict(batch, timeout=60.0)
        arena_note = (
            f", shared weight arena {pool.arena.nbytes / 1024:.0f} KiB"
            if pool.arena is not None else ""
        )
        print(f"serving pool: {pool.n_workers} workers{arena_note}")
    admission = (
        AdmissionController(max_pending=args.max_pending) if args.max_pending > 0 else None
    )
    server = Server(
        loaded,
        max_batch=args.max_batch,
        max_latency_ms=args.max_latency_ms,
        batching=not args.no_batching,
        forward_override=forward,
        admission=admission,
    )
    metadata = loaded.metadata or {}
    print(f"artifact: {args.artifact}")
    print(f"  fingerprint: {loaded.fingerprint}")
    if metadata:
        print(f"  metadata:    {metadata}")
    try:
        serve_forever(server, args.host, args.port, default_deadline_s=args.deadline_s)
    finally:
        if pool is not None:
            pool.close()
    return 0


def _command_gnn(args) -> int:
    from repro.data import ia_email_like, wiki_talk_like
    from repro.experiments.gnn import (
        run_admm_prune_from_dense,
        run_gnn_dense,
        run_gnn_dst_ee,
    )

    maker = wiki_talk_like if args.dataset == "wiki_talk" else ia_email_like
    data = maker(n_nodes=args.nodes, seed=args.seed)
    if args.method == "dense":
        result = run_gnn_dense(data, epochs=args.epochs, seed=args.seed)
    elif args.method == "dst_ee":
        result = run_gnn_dst_ee(data, args.sparsity, epochs=args.epochs, seed=args.seed)
    else:
        third = max(1, args.epochs // 3)
        result = run_admm_prune_from_dense(
            data,
            args.sparsity,
            pretrain_epochs=third,
            admm_epochs=third,
            retrain_epochs=third,
            seed=args.seed,
        )
    print(f"method:          {result.method}")
    print(f"dataset:         {result.dataset}")
    print(f"best accuracy:   {result.best_accuracy:.4f}")
    print(f"final accuracy:  {result.final_accuracy:.4f}")
    if result.actual_sparsity is not None:
        print(f"actual sparsity: {result.actual_sparsity:.4f}")
    print(f"wall time:       {result.seconds:.1f}s")
    return 0


def _command_run_gan(args) -> int:
    from repro.experiments.gan import run_gan, run_gan_multi_seed

    gan_kwargs = _run_kwargs(args)
    if args.seeds is not None:
        mean, std, results = run_gan_multi_seed(
            args.method,
            args.mixture,
            seeds=tuple(args.seeds),
            n_proc=args.nproc,
            **gan_kwargs,
        )
        print(f"method:               {args.method}")
        print(f"mixture:              {args.mixture}")
        print(f"seeds:                {list(args.seeds)}")
        for seed, result in zip(args.seeds, results):
            print(
                f"  seed {seed}: {result.modes_covered}/{result.n_modes} modes "
                f"(high-quality {result.high_quality_fraction:.3f})"
            )
        print(f"mode coverage:        {mean:.3f} ± {std:.3f}")
        return 0

    result = run_gan(args.method, args.mixture, seed=args.seed, **gan_kwargs)
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
    return 0


def _command_methods() -> int:
    for name in ALL_METHODS:
        print(f"{name:16s} {method_family(name)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "run-rl":
        return _command_run_rl(args)
    if args.command == "run-gan":
        return _command_run_gan(args)
    if args.command == "run-lm":
        return _command_run_lm(args)
    if args.command == "export":
        return _command_export(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "gnn":
        return _command_gnn(args)
    return _command_methods()


if __name__ == "__main__":
    sys.exit(main())
