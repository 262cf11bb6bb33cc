"""Training workloads: a 95%-sparse char-GPT and a 98%-sparse block VGG-19.

Each workload builds exactly what ``run_lm`` / ``run_image_classification``
build (data, model, optimizer, ``build_method``, ``Trainer``) and trains
through ``Trainer.fit``.  The benchmark sees the loop only through the
public calls it makes: the DataLoader iteration, module ``forward``s, the
loss function, ``Tensor.backward``, the controller hooks and the optimizer
step.

A run trains until it has passed ``quality_steps`` and measured ``seconds``
of steps after warm-up.  Quality is evaluated once, at exactly
``quality_steps``, so the same seed gives the same quality whatever the
machine's speed; the evaluation is left out of every timing.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.sparse.kernels as kernels
from common import Result, median, peak_rss_mib, percentile
from repro.autograd.tensor import Tensor, no_grad
from repro.data.loader import DataLoader
from repro.data.synthetic import cifar100_like
from repro.data.text import make_char_lm_data
from repro.experiments.lm import evaluate_lm
from repro.experiments.registry import build_method
from repro.metrics.accuracy import topk_accuracy
from repro.models.char_gpt import CharGPT
from repro.models.vgg import vgg19
from repro.nn.losses import cross_entropy, lm_cross_entropy
from repro.optim import SGD, Adam
from repro.train import Trainer
from repro.train.callbacks import Callback
from tracing import Probes, Tracer

_perf = time.perf_counter

# Schedule horizon handed to build_method.  Runs stop long before the
# engine's stop fraction of it, so every ΔT round of a run moves a similar
# number of weights and timings do not drift with run length.
TOTAL_STEPS = 20_000


@dataclass
class Built:
    """One constructed workload, ready for ``trainer.fit``."""

    trainer: Trainer
    masked: object
    evaluate: Callable[[], float]
    forward_spans: list
    setup_parts: dict


@dataclass(frozen=True)
class TrainSpec:
    build: Callable[[int], Built]
    quality_steps: int
    warmup_steps: int
    trace_chunk: int
    # Steps per window of ``quiet_steps``: whole ΔT periods, about 2 s.
    window: int


class Batches:
    """The trainer's view of its DataLoader: counts items and marks set-up end."""

    def __init__(self, loader: DataLoader, on_first_iter: Callable[[], None]):
        self.loader = loader
        self.items = 0
        self._on_first_iter = on_first_iter

    def __len__(self) -> int:
        return len(self.loader)

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def __iter__(self):
        if self._on_first_iter is not None:
            first, self._on_first_iter = self._on_first_iter, None
            first()
        iterator = iter(self.loader)
        while True:
            try:
                inputs, targets = self.fetch(iterator)
            except StopIteration:
                return
            self.items += int(np.asarray(targets).size)
            yield inputs, targets

    def fetch(self, iterator):
        return next(iterator)


def _checked(loss_fn, flags: dict):
    """``loss_fn`` that records whether the step's loss was finite."""

    def loss(logits, targets):
        out = loss_fn(logits, targets)
        flags["finite"] = bool(np.isfinite(out.data).all())
        return out

    return loss


def _trainer(model, optimizer, loss_fn, loader, setup, backend) -> Trainer:
    return Trainer(
        model,
        optimizer,
        loss_fn,
        loader,
        None,
        controller=setup.controller,
        sparse_backend=backend,
    )


def build_lm(seed: int) -> Built:
    parts = {}
    start = _perf()
    data = make_char_lm_data(n_chars=65536, block_len=32, val_fraction=0.1, seed=seed)
    parts["experiments.setup.data_s"] = _perf() - start
    start = _perf()
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
    val_loader = DataLoader(data.val, batch_size=64)
    parts["experiments.setup.model_s"] = _perf() - start
    start = _perf()
    optimizer = Adam(model.parameters(), lr=1e-3)
    setup = build_method(
        "dst_ee",
        model,
        optimizer,
        0.95,
        TOTAL_STEPS,
        distribution="erk",
        delta_t=25,
        rng=np.random.default_rng(seed),
    )
    parts["experiments.setup.method_s"] = _perf() - start
    spans = [(model.tok_emb, "tok_emb"), (model.pos_emb, "pos_emb")]
    for block in model.blocks.children():
        spans.append((block, "blocks"))
        spans.extend((child, f"blocks.{name}") for name, child in block._modules.items())
    spans += [(model.ln_f, "ln_f"), (model.lm_head, "lm_head")]
    return Built(
        trainer=_trainer(model, optimizer, lm_cross_entropy, loader, setup, "auto"),
        masked=setup.masked,
        evaluate=lambda: evaluate_lm(model, val_loader)[1],
        forward_spans=spans,
        setup_parts=parts,
    )


def top5_accuracy(model, loader: DataLoader) -> float:
    """Test top-5 accuracy (eval mode, no graph recording).

    VGG quality is top-5, not top-1: after the run's 400 steps at 98%
    sparsity, top-1 ranged 0.13-0.86 across seeds, too wide for a bound.
    """
    model.eval()
    hits = total = 0
    with no_grad():
        for inputs, targets in loader:
            hits += topk_accuracy(model(inputs), targets, 5) * len(targets)
            total += len(targets)
    model.train()
    return hits / total


def build_vgg(seed: int) -> Built:
    parts = {}
    start = _perf()
    data = cifar100_like(image_size=12, n_classes=20, seed=seed)
    parts["experiments.setup.data_s"] = _perf() - start
    start = _perf()
    model = vgg19(num_classes=20, width_mult=0.25, input_size=12, seed=seed)
    loader = DataLoader(
        data.train, batch_size=64, shuffle=True, rng=np.random.default_rng(seed + 1)
    )
    test_loader = DataLoader(data.test, batch_size=256)
    parts["experiments.setup.model_s"] = _perf() - start
    start = _perf()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    setup = build_method(
        "dst_ee",
        model,
        optimizer,
        0.98,
        TOTAL_STEPS,
        distribution="erk",
        delta_t=10,
        loss_fn=cross_entropy,
        input_shape=data.input_shape,
        rng=np.random.default_rng(seed),
        block_size=4,
    )
    parts["experiments.setup.method_s"] = _perf() - start
    # One span per conv stage: the layers up to and including each max-pool.
    spans = [(model.features, "features")]
    stage = 1
    for layer in model.features.children():
        spans.append((layer, f"features.stage{stage}"))
        if type(layer).__name__ == "MaxPool2d":
            stage += 1
    spans += [(model.pool, "pool"), (model.classifier, "classifier")]
    return Built(
        trainer=_trainer(model, optimizer, cross_entropy, loader, setup, "bsr"),
        masked=setup.masked,
        evaluate=lambda: top5_accuracy(model, test_loader),
        forward_spans=spans,
        setup_parts=parts,
    )


LM = TrainSpec(build_lm, quality_steps=200, warmup_steps=26, trace_chunk=50, window=25)
VGG = TrainSpec(build_vgg, quality_steps=400, warmup_steps=11, trace_chunk=40, window=50)


class _Stop(Exception):
    """Ends ``trainer.fit``: at the first batch of a build made only to time
    set-up, or once a run has measured enough."""


@dataclass
class _Step:
    seconds: float
    items: int
    mask_update: bool
    traced: bool
    layers: dict = field(default_factory=dict)


class _Session(Callback):
    """One build of a workload plus, for the measured build, its training run."""

    def __init__(self, spec: TrainSpec, seed: int, measure: bool, seconds: float,
                 trace: bool, quality_steps: int, warmup_steps: int, trace_chunk: int):
        self.trace_chunk = trace_chunk
        self.measure = measure
        self.seconds = seconds
        self.trace = trace
        self.quality_steps = quality_steps
        self.warmup_steps = warmup_steps
        self.flags = {"finite": True}
        self.steps: list[_Step] = []
        self.nonfinite = 0
        self.quality = None
        self.eval_s = None
        self.rounds: list[tuple[int, int]] = []  # (grown, grown never active before)
        self.timed_s = 0.0
        self.started = _perf()
        self.built = spec.build(seed)
        trainer = self.built.trainer
        trainer.loss_fn = _checked(trainer.loss_fn, self.flags)
        self.batches = Batches(trainer.train_loader, self._first_batch)
        trainer.train_loader = self.batches
        trainer.callbacks.append(self)
        self.controller = trainer.controller
        self.masked = self.built.masked
        self.initial_budget = self.masked.global_budget
        self.mask_rounds = len(self.controller.history)
        self.tracer = Tracer()
        self.probes = Probes(self.tracer)
        self.setup_s = None
        # Timed seconds after which ``extra_setup`` builds the workload once
        # more, in increasing order.
        self.setup_times: list[float] = []
        self.extra_setup: Callable[[], None] = lambda: None
        if trace:
            self._ever = [t.mask.copy() for t in self.masked.targets]
            self._last = [t.mask.copy() for t in self.masked.targets]

    # -- set-up ends when the trainer asks for its first batch ----------
    def _first_batch(self) -> None:
        self.setup_s = _perf() - self.started
        if not self.measure:
            raise _Stop
        if self.trace:
            self._add_probes()
        self.items_before = 0
        self.prev_end = _perf()

    def _add_probes(self) -> None:
        trainer = self.built.trainer
        probes = self.probes
        probes.add(self.batches, "fetch", "data.batch")
        probes.add(trainer.model, "forward", "models.forward")
        for module, name in self.built.forward_spans:
            probes.add(module, "forward", f"models.forward.{name}")
        probes.add(trainer, "loss_fn", "nn.losses.loss")
        probes.add(Tensor, "backward", "autograd.backward")
        for hook in ("before_backward", "on_backward", "after_step"):
            probes.add(self.controller, hook, "sparse.engine.hooks")
        probes.add(self.controller, "mask_update", "sparse.engine.mask_update")
        probes.add(trainer.optimizer, "step", "optim.step")
        probes.add_kernels(trainer.model)

    def fit(self) -> None:
        try:
            self.built.trainer.fit(10**6)
        except _Stop:
            pass
        finally:
            self.probes.uninstall()

    # -- per-step bookkeeping (left out of the step's own time) ---------
    def on_step_end(self, step: int) -> None:
        now = _perf()
        seconds = now - self.prev_end
        items = self.batches.items - self.items_before
        self.items_before = self.batches.items
        rounds = len(self.controller.history)
        mask_update = rounds != self.mask_rounds
        self.mask_rounds = rounds
        traced = self.probes.installed
        layers, top_s, counts = self.tracer.take()
        if not self.flags["finite"]:
            self.nonfinite += 1
            self.flags["finite"] = True
        if self.trace and mask_update:
            self._record_round()
        if step > self.warmup_steps:
            if traced:
                layers = {name: s * 1e3 for name, s in layers.items()}
                layers["train.other"] = (seconds - top_s) * 1e3
                layers.update(counts)
            self.steps.append(_Step(seconds, items, mask_update, traced, layers))
            self.timed_s += seconds
        if step == self.quality_steps:
            self._untraced(self._evaluate)
        while self.setup_times and self.timed_s >= self.setup_times[0]:
            self.setup_times.pop(0)
            self._untraced(self.extra_setup)
        if self.trace and step >= self.warmup_steps:
            chunk = (step - self.warmup_steps) // self.trace_chunk
            at_boundary = (step - self.warmup_steps) % self.trace_chunk == 0
            if at_boundary and chunk >= 4 and self._done(step):
                raise _Stop
            if chunk % 2:
                self.probes.install()
            else:
                self.probes.uninstall()
        elif not self.trace and self._done(step):
            raise _Stop
        self.prev_end = _perf()

    def _done(self, step: int) -> bool:
        return step >= self.quality_steps and self.timed_s >= self.seconds

    def _untraced(self, fn) -> None:
        traced = self.probes.installed
        self.probes.uninstall()
        fn()
        if traced:
            self.probes.install()

    def _evaluate(self) -> None:
        start = _perf()
        self.quality = float(self.built.evaluate())
        self.eval_s = _perf() - start

    def _record_round(self) -> None:
        grown = fresh = 0
        for i, target in enumerate(self.masked.targets):
            mask = target.mask
            new = mask & ~self._last[i]
            grown += int(new.sum())
            fresh += int((new & ~self._ever[i]).sum())
            self._ever[i] |= mask
            self._last[i] = mask.copy()
        self.rounds.append((grown, fresh))

    # -- output checks through the public MaskedModel API ---------------
    def invariant_problems(self) -> list[str]:
        masked = self.masked
        problems = []
        if not masked.total_active == masked.global_budget == self.initial_budget:
            problems.append(
                f"active {masked.total_active} != budget {masked.global_budget} "
                f"(initial {self.initial_budget})"
            )
        nonzero = sum(
            int(np.count_nonzero(t.param.data[~t.mask])) for t in masked.targets
        )
        if nonzero:
            problems.append(f"{nonzero} pruned weights are not exactly zero")
        return problems


def _timed_install(parts: dict):
    """Wrap the kernel installer the trainer calls, timing each call."""
    original = kernels.install_training_backends

    def install(*args, **kwargs):
        start = _perf()
        try:
            return original(*args, **kwargs)
        finally:
            parts.setdefault("train.install_backend_s", []).append(_perf() - start)

    return original, install


def quiet_steps(steps: list, window: int) -> list:
    """The steps of the faster half of the run's windows of ``window`` steps.

    The shared host slows a process by ~30% for seconds at a time, and the
    share of a run spent slowed varies from run to run, so medians over all
    steps jump with it.  Interference only adds time: the faster half of
    the windows is the program's own speed.  Serving keeps the punctual
    half of its windows the same way.  Each window holds whole ΔT periods,
    so every window has the same share of mask-update steps.
    """
    windows = [steps[i:i + window] for i in range(0, len(steps) - window + 1, window)]
    if not windows:
        return steps
    windows.sort(key=lambda w: sum(s.seconds for s in w))
    return [s for w in windows[: max(1, len(windows) // 2)] for s in w]


def _throughput(steps: list) -> float:
    return sum(s.items for s in steps) / sum(s.seconds for s in steps)


def run(spec: TrainSpec, seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    result = Result()
    setup_repeats = 2 if tiny else 9
    quality_steps = 30 if tiny else spec.quality_steps
    warmup_steps = 2 if tiny else spec.warmup_steps
    trace_chunk = 3 if tiny else spec.trace_chunk
    parts: dict = {}
    original, install = _timed_install(parts)
    setups = []

    def new_session(measure: bool) -> _Session:
        return _Session(
            spec, seed, measure, seconds, trace, quality_steps, warmup_steps, trace_chunk
        )

    def record(session: _Session) -> None:
        setups.append(session.setup_s)
        for name, value in session.built.setup_parts.items():
            parts.setdefault(name, []).append(value)

    def extra_setup() -> None:
        # Trainer and callback refer to each other, so the abandoned build
        # is freed now rather than by a collection inside a timed step.
        extra = new_session(measure=False)
        extra.fit()
        record(extra)
        del extra
        gc.collect()

    kernels.install_training_backends = install
    try:
        session = new_session(measure=True)
        # The extra set-ups are spread evenly over the timed run, so they
        # sample the whole run rather than one moment of a shared machine.
        session.setup_times = [k * seconds / setup_repeats for k in range(1, setup_repeats)]
        session.extra_setup = extra_setup
        session.fit()
        record(session)
    finally:
        kernels.install_training_backends = original

    steps = session.steps
    result.attempted = len(steps) + warmup_steps + 2  # + evaluation + final check
    if session.nonfinite:
        result.fail(f"{session.nonfinite} steps had a non-finite loss", session.nonfinite)
    if session.quality is None or not np.isfinite(session.quality):
        result.fail("quality was not evaluated")
    for problem in session.invariant_problems():
        result.fail(problem)

    plain = [s for s in steps if not s.traced]
    quiet = quiet_steps(plain, spec.window)
    regular = [s.seconds * 1e3 for s in quiet if not s.mask_update]
    updates = [s.seconds * 1e3 for s in quiet if s.mask_update]
    # Set-up is interpreter-bound (the LM corpus is generated word by word),
    # and the host's slow phases, tens of seconds long, stretch such code by
    # up to 1.7x: a run's median set-up is fast or slow by the phase it
    # fell in.  The best of the set-ups spread over the run is not.
    result.put("setup_s", min(setups), "s")
    result.put("peak_rss_mib", peak_rss_mib(), "MiB")
    result.put("throughput_per_s", _throughput(quiet), "1/s")
    result.put("latency_p50_ms", median(regular), "ms")
    result.put("latency_p99_ms", percentile(regular, 99), "ms")
    result.put("mask_update_step_ms", median(updates) if updates else 0.0, "ms")
    result.put("quality", session.quality or 0.0, "fraction")
    result.put("goodput", 1.0 - result.failed / result.attempted, "fraction")
    result.info.update(
        steps=len(steps),
        quiet_steps=len(quiet),
        regular_steps=len(regular),
        mask_update_steps=len(updates),
        quality_steps=quality_steps,
        setup_repeats=setup_repeats,
        setups_s=setups,
    )
    if trace:
        # Traced steps are not filtered, so the overhead compares all steps.
        _per_layer(result, session, parts, _throughput(plain))
        result.spans = session.tracer.spans
    return result


def _per_layer(result: Result, session: _Session, parts: dict, untraced_tput: float) -> None:
    traced = [s for s in session.steps if s.traced]
    regular = [s for s in traced if not s.mask_update]
    updates = [s for s in traced if s.mask_update]
    names = sorted({name for s in regular for name in s.layers})
    rows = {name: sum(s.layers.get(name, 0.0) for s in regular) / len(regular) for name in names}
    step_ms = [s.seconds * 1e3 for s in regular]
    rows_sum = 0.0
    for name, value in rows.items():
        if name.startswith("sparse.kernels.") and name != "sparse.kernels.forward":
            result.put(name, value, "count")
        else:
            result.put(name + "_ms", value, "ms")
            rows_sum += value
    result.put("train.rows_sum_ms", rows_sum, "ms")
    result.put("train.step_p50_ms", median(step_ms), "ms")
    result.put("trace.reconcile_pct", (rows_sum / median(step_ms) - 1.0) * 100, "%")
    traced_tput = sum(s.items for s in traced) / sum(s.seconds for s in traced)
    result.put("trace.overhead_pct", (untraced_tput / traced_tput - 1.0) * 100, "%")
    update_ms = [s.layers.get("sparse.engine.mask_update", 0.0) for s in updates]
    result.put("sparse.engine.mask_update_ms", median(update_ms) if update_ms else 0.0, "ms")
    if session.rounds:
        grown = [g for g, _ in session.rounds]
        result.put("sparse.engine.grown_per_round", float(np.mean(grown)), "count")
        result.put(
            "sparse.engine.exploration_rate",
            sum(f for _, f in session.rounds) / max(sum(grown), 1),
            "fraction",
        )
    for name, values in parts.items():
        result.put(name, median(values), "s")
    result.put("train.eval_s", session.eval_s or 0.0, "s")
    result.info.update(traced_steps=len(traced), traced_regular_steps=len(regular))

