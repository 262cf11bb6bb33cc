"""Interleaved A/B: serial ``Trainer`` vs ``Trainer(n_workers=2)`` on the char-GPT.

Builds the 95%-sparse char-GPT training run (65 536 chars, block 32,
batch 32, DST-EE with ERK, ``sparse_backend="auto"``, Adam) and trains it
alternately in-process and with a two-process
:class:`~repro.parallel.GradientWorkerPool`, ``--pairs`` times each, for
``--steps`` steps per run.  Each run starts from a fresh build with the
same seed.  Prints the median step time of every run (first ``--warmup``
steps left out), then per side the median of the run medians and the
serial/pooled ratio.

Run with::

    PYTHONPATH=src python benchmarks/bench_workers_ab.py --pairs 4 --steps 120
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

import numpy as np

from repro.data.loader import DataLoader
from repro.data.text import make_char_lm_data
from repro.experiments.registry import build_method
from repro.models.char_gpt import CharGPT
from repro.nn.losses import lm_cross_entropy
from repro.optim import Adam
from repro.train import Callback, Trainer


class _Done(Exception):
    pass


class _StepTimer(Callback):
    def __init__(self, steps: int):
        self.steps = steps
        self.times: list[float] = []
        self._last = time.perf_counter()

    def on_step_end(self, step: int) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last)
        self._last = now
        if len(self.times) >= self.steps:
            raise _Done


def run(n_workers: int, steps: int, warmup: int, seed: int = 0) -> float:
    """Median step time (ms) of one fresh ``steps``-step run."""
    data = make_char_lm_data(n_chars=65536, block_len=32, val_fraction=0.1, seed=seed)
    model = CharGPT(
        vocab_size=data.vocab_size,
        block_len=data.block_len,
        n_layer=2,
        n_head=2,
        n_embd=64,
        head="train",
        seed=seed,
    )
    loader = DataLoader(
        data.train, batch_size=32, shuffle=True, rng=np.random.default_rng(seed + 1)
    )
    optimizer = Adam(model.parameters(), lr=1e-3)
    setup = build_method(
        "dst_ee",
        model,
        optimizer,
        0.95,
        20_000,
        distribution="erk",
        delta_t=25,
        rng=np.random.default_rng(seed),
    )
    timer = _StepTimer(steps)
    trainer = Trainer(
        model,
        optimizer,
        lm_cross_entropy,
        loader,
        controller=setup.controller,
        callbacks=[timer],
        sparse_backend="auto",
        n_workers=n_workers,
    )
    try:
        trainer.fit(10**6)
    except _Done:
        pass
    return statistics.median(timer.times[warmup:]) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--steps", type=int, default=120)
    parser.add_argument("--warmup", type=int, default=10)
    args = parser.parse_args()
    print(f"cores: {os.cpu_count()}")
    sides: dict[int, list[float]] = {1: [], 2: []}
    for pair in range(args.pairs):
        order = (1, 2) if pair % 2 == 0 else (2, 1)
        for n_workers in order:
            ms = run(n_workers, args.steps, args.warmup)
            sides[n_workers].append(ms)
            print(f"pair {pair} n_workers={n_workers}: median step {ms:.1f} ms")
    serial = statistics.median(sides[1])
    pooled = statistics.median(sides[2])
    print(f"serial  median of medians: {serial:.1f} ms  runs {sorted(sides[1])}")
    print(f"pooled  median of medians: {pooled:.1f} ms  runs {sorted(sides[2])}")
    print(f"serial/pooled: {serial / pooled:.2f}x")


if __name__ == "__main__":
    main()
