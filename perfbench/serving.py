"""Serving workload: a 95%-sparse MLP artifact behind an in-process Server.

Set-up builds the masked MLP, exports it as an artifact, loads it back
(fingerprint verified) and starts a micro-batching ``Server``.  The main
thread is the only client.  It drives two phases:

* an open loop: seeded Poisson arrivals at ``RATE`` requests/s, each
  request timed from when it was due, so a stalled generator shows up as
  latency and as lateness;
* saturation: a closed loop that keeps exactly ``MAX_BATCH`` requests in
  flight, measured in short windows whose median gives the throughput.

Every reply is compared with a dense forward of the same masked model.
Finally the deployment's mask is replaced several times through
``ModelRouter.hot_swap``, the serving side of a ΔT mask update.
"""

from __future__ import annotations

import tempfile
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from common import Result, median, peak_rss_mib, percentile
from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.models import MLP
from repro.serve import ModelRouter, Server, export_model, load_model
from repro.sparse import MaskedModel
from tracing import Probes, Tracer

_perf = time.perf_counter

IN_FEATURES, HIDDEN, CLASSES = 784, (512, 512), 10
SPARSITY = 0.95
MAX_BATCH, MAX_LATENCY_MS = 32, 2.0
RATE = 2000.0
DEADLINE_MS = 20.0
POOL = 2048
WINDOW_S = 0.5
# Open-loop latency windows hold RATE * LATENCY_WINDOW_S requests, 20 of
# them beyond each window's p99.
LATENCY_WINDOW_S = 1.0
# Replies are CSR products; the reference is the dense masked forward.
RTOL, ATOL = 1e-4, 1e-5


def masked_mlp(seed: int, mask_seed: int) -> MaskedModel:
    model = MLP(IN_FEATURES, HIDDEN, CLASSES, seed=seed)
    return MaskedModel(model, SPARSITY, distribution="erk", rng=np.random.default_rng(mask_seed))


def export(masked: MaskedModel, seed: int, path: Path) -> Path:
    return export_model(
        masked,
        path,
        model_config={
            "builder": "mlp",
            "kwargs": {
                "in_features": IN_FEATURES,
                "hidden": list(HIDDEN),
                "num_classes": CLASSES,
                "seed": seed,
            },
        },
        preprocessing={"input_shape": [IN_FEATURES]},
    )


def reference(seed: int, mask_seed: int, inputs: np.ndarray) -> np.ndarray:
    """Dense forward of the masked model an artifact was compiled from."""
    model = masked_mlp(seed, mask_seed).model
    model.eval()
    with no_grad():
        return np.asarray(model(Tensor(inputs)).data)


def matches(replies: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Per-row verdict: does each reply equal the reference forward?"""
    return np.all(np.isclose(replies, expected, rtol=RTOL, atol=ATOL), axis=1)


class Requests:
    """Timestamps and replies of one stretch of traffic.

    Futures are not kept: a done-callback stores each reply, so memory and
    garbage-collector work do not grow with the number of requests served.
    """

    def __init__(self, capacity: int):
        self.due = np.zeros(capacity)
        self.submitted = np.zeros(capacity)
        self.done = np.zeros(capacity)
        self.example = np.zeros(capacity, dtype=np.int64)
        self.replies = np.zeros((capacity, CLASSES), dtype=np.float32)
        self.replied = np.zeros(capacity, dtype=bool)
        self.sent = 0
        self.completed = 0  # written only by the server's batching thread

    def submit(self, server: Server, inputs: np.ndarray, example: int, due: float,
               on_done=None) -> None:
        i = self.sent
        self.due[i] = due
        self.example[i] = example
        self.submitted[i] = _perf()
        future = server.submit(inputs[example])
        self.sent = i + 1
        future.add_done_callback(partial(self._finish, i, on_done))

    def _finish(self, i: int, on_done, future) -> None:
        self.done[i] = _perf()
        if future.exception() is None:
            self.replies[i] = future.result()
            self.replied[i] = True
        self.completed += 1
        if on_done is not None:
            on_done()

    def drain(self, timeout: float = 10.0) -> None:
        deadline = _perf() + timeout
        while self.completed < self.sent and _perf() < deadline:
            time.sleep(0.001)

    def verdicts(self, expected: np.ndarray) -> np.ndarray:
        """Per request: replied, and equal to the reference forward."""
        n = self.sent
        return self.replied[:n] & matches(self.replies[:n], expected[self.example[:n]])

    def lateness_ms(self) -> np.ndarray:
        return (self.submitted[: self.sent] - self.due[: self.sent]) * 1e3

    def throughput(self) -> float:
        return self.completed / (self.done[: self.sent].max() - self.submitted[0])


def open_loop(server: Server, inputs: np.ndarray, rng, seconds: float) -> Requests:
    n = max(1, int(RATE * seconds))
    examples = rng.integers(0, len(inputs), size=n)
    due = _perf() + 0.005 + np.cumsum(rng.exponential(1.0 / RATE, size=n))
    requests = Requests(n)
    for i in range(n):
        delay = due[i] - _perf()
        if delay > 0:
            time.sleep(delay)
        requests.submit(server, inputs, int(examples[i]), due[i])
    requests.drain()
    return requests


def saturate(server: Server, inputs: np.ndarray, seconds: float, first: int) -> Requests:
    """Closed loop with exactly MAX_BATCH requests in flight for ``seconds``.

    A request is due when its slot is freed, so ``submitted - due`` is the
    generator's lateness in refilling the slot.
    """
    slots = threading.Semaphore(MAX_BATCH)
    freed = deque()

    def release() -> None:
        freed.append(_perf())
        slots.release()

    requests = Requests(int(seconds * 100_000) + MAX_BATCH)
    end = _perf() + seconds
    example = first
    while requests.sent < len(requests.due) and _perf() < end:
        slots.acquire()
        due = freed.popleft() if freed else _perf()
        requests.submit(server, inputs, example % len(inputs), due, release)
        example += 1
    requests.drain()
    return requests


def build(seed: int, path: Path, parts: dict) -> Server:
    """Set-up: masked MLP -> exported artifact -> verified load -> Server."""
    masked = masked_mlp(seed, seed + 1)
    start = _perf()
    export(masked, seed, path)
    parts["serve.artifact.export_ms"].append((_perf() - start) * 1e3)
    start = _perf()
    loaded = load_model(path)
    parts["serve.artifact.load_ms"].append((_perf() - start) * 1e3)
    return Server(loaded, max_batch=MAX_BATCH, max_latency_ms=MAX_LATENCY_MS)


class HotSwaps:
    """Re-masked artifacts swapped into a ``ModelRouter``, one per call.

    Swaps are spread between the saturation windows rather than made in
    one burst, so their median samples the whole run, not one moment of a
    shared machine.
    """

    def __init__(self, seed: int, inputs: np.ndarray, directory: Path, n: int):
        self.seed = seed
        self.mask_seeds = [seed + 100 + r for r in range(n + 1)]
        self.paths = [
            export(masked_mlp(seed, m), seed, directory / f"swap{m}.npz") for m in self.mask_seeds
        ]
        self.probe = inputs[:MAX_BATCH]
        self.times_ms: list[float] = []
        self.failures = 0
        self.router = ModelRouter(max_batch=MAX_BATCH, max_latency_ms=MAX_LATENCY_MS)
        self.router.deploy("mlp", self.paths[0])

    def swap(self) -> None:
        done = len(self.times_ms) + 1
        if done >= len(self.paths):
            return
        start = _perf()
        self.router.hot_swap("mlp", self.paths[done], canary=self.probe)
        self.times_ms.append((_perf() - start) * 1e3)
        served = self.router.resolve("mlp").server.predict(self.probe)
        if not matches(served, reference(self.seed, self.mask_seeds[done], self.probe)).all():
            self.failures += 1

    def close(self) -> None:
        self.router.close()


class ForwardLog:
    """Wraps the served model's forward: a span plus batch start and size."""

    def __init__(self, model, tracer: Tracer):
        self.model = model
        self.tracer = tracer
        self.batches: list[tuple[float, int]] = []

    def __enter__(self) -> "ForwardLog":
        original = self.model.forward

        def forward(x):
            self.batches.append((_perf(), int(x.data.shape[0])))
            return self.tracer.call("serve.forward", original, x)

        self.model.forward = forward
        return self

    def __exit__(self, *exc_info) -> None:
        del self.model.forward


@dataclass
class Window:
    """Summary of one saturation window (its requests are not kept)."""

    traced: bool
    sent: int
    ok: int
    throughput: float
    lateness_ms: np.ndarray
    batches: int


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    sat_seconds = 0.5 * seconds
    n_windows = max(2, round(sat_seconds / WINDOW_S))
    n_windows += n_windows % 2 if trace else 0
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((POOL, IN_FEATURES)).astype(np.float32)
    parts = {"serve.artifact.export_ms": [], "serve.artifact.load_ms": []}
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench-") as tmp:
        directory = Path(tmp)
        setups = []

        def timed_build() -> Server:
            start = _perf()
            built = build(seed, directory / f"model{len(setups)}.npz", parts)
            setups.append(_perf() - start)
            return built

        server = timed_build()
        expected = reference(seed, seed + 1, inputs)
        swaps = HotSwaps(seed, inputs, directory, n_windows)
        try:
            probes = Probes(tracer)
            probes.add(server, "preprocessor", "serve.preprocess")
            # Warm the path (first CSR products, allocator) outside timing.
            saturate(server, inputs, min(0.2, seconds / 10), first=0)
            log = ForwardLog(server.model, tracer) if trace else None
            if trace:
                probes.install()
            with log or nullcontext():
                requests = open_loop(server, inputs, rng, 0.5 * seconds)
            probes.uninstall()
            tracer.take()

            def between_windows(k: int) -> None:
                # One hot-swap after every window, one more set-up after
                # every other: both then sample the whole saturation phase.
                swaps.swap()
                if k % 2 == 0:
                    timed_build().close()

            windows = _saturation(
                server, inputs, expected, sat_seconds, n_windows, trace, probes, between_windows
            )
        finally:
            server.close()
            swaps.close()

    ok_open = requests.verdicts(expected)
    n_open = requests.sent
    latency_ms = (requests.done[:n_open] - requests.due[:n_open]) * 1e3
    sat_sent = sum(w.sent for w in windows)
    sat_ok = sum(w.ok for w in windows)
    swap_ms, swap_failures = swaps.times_ms, swaps.failures
    result.attempted = n_open + sat_sent + len(swap_ms)
    bad_open, bad_sat = n_open - int(ok_open.sum()), sat_sent - sat_ok
    for count, what in (
        (bad_open, "open-loop replies failed or differed from the reference"),
        (bad_sat, "saturation replies failed or differed from the reference"),
        (swap_failures, "hot-swapped models differed from the reference"),
    ):
        if count:
            result.fail(f"{count} {what}", count)

    plain = [w for w in windows if not w.traced]
    throughput = median([w.throughput for w in plain])
    p50, p99, latency_windows = punctual_latency(requests, ok_open, latency_ms)
    result.put("setup_s", median(setups), "s")
    result.put("peak_rss_mib", peak_rss_mib(), "MiB")
    result.put("throughput_per_s", throughput, "1/s")
    result.put("latency_p50_ms", p50, "ms")
    result.put("latency_p99_ms", p99, "ms")
    result.put("mask_update_step_ms", median(swap_ms), "ms")
    result.put("quality", (int(ok_open.sum()) + sat_ok) / (n_open + sat_sent), "fraction")
    result.put("goodput", float((ok_open & (latency_ms <= DEADLINE_MS)).mean()), "fraction")
    open_late = requests.lateness_ms()
    sat_late = np.concatenate([w.lateness_ms for w in plain])
    phase_counts = {
        "open_loop": (n_open, n_open - bad_open, bad_open),
        "saturation": (sat_sent, sat_ok, bad_sat),
    }
    answered = latency_ms[ok_open]
    result.info.update(
        {phase: dict(zip(("sent", "ok", "failed"), n)) for phase, n in phase_counts.items()},
        open_late_p99_ms=percentile(open_late, 99),
        open_latency_all_p50_p99_ms=(median(answered), percentile(answered, 99)),
        open_latency_windows=latency_windows,
        saturation_late_p99_ms=percentile(sat_late, 99),
        saturation_windows=len(windows),
        setups_s=setups,
        hot_swaps=len(swap_ms),
    )
    if trace:
        for name, values in parts.items():
            result.put(name, median(values), "ms")
        result.put("serve.generator.late_p99_ms", percentile(open_late, 99), "ms")
        result.put("serve.generator.saturation_late_p99_ms", percentile(sat_late, 99), "ms")
        for phase, counts in phase_counts.items():
            for key, value in zip(("sent", "ok", "failed"), counts):
                result.put(f"serve.{phase}.{key}", value, "count")
        traced = [w for w in windows if w.traced]
        traced_tput = median([w.throughput for w in traced])
        result.put("trace.overhead_pct", (throughput / traced_tput - 1) * 100, "%")
        _queue_metrics(result, requests, log.batches)
        self_s, _, _ = tracer.take()
        n_requests = sum(w.sent for w in traced)
        n_batches = sum(w.batches for w in traced)
        result.put("serve.preprocess_us", self_s["serve.preprocess"] / n_requests * 1e6, "us")
        result.put("serve.forward_ms", self_s["serve.forward"] / n_batches * 1e3, "ms")
        result.spans = tracer.spans
    return result


def _saturation(server, inputs, expected, seconds, n, trace, probes, between) -> list[Window]:
    """``n`` saturation windows, calling ``between(k)`` after window ``k``.

    With tracing the windows alternate untraced and traced, so both
    throughputs come from the same stretch of the run.
    """
    windows = []
    for k in range(n):
        traced = trace and k % 2 == 1
        log = ForwardLog(server.model, probes.tracer) if traced else None
        if traced:
            probes.install()
        with log or nullcontext():
            requests = saturate(server, inputs, seconds / n, first=k * 7919)
        probes.uninstall()
        windows.append(
            Window(
                traced=traced,
                sent=requests.sent,
                ok=int(requests.verdicts(expected).sum()),
                throughput=requests.throughput(),
                lateness_ms=requests.lateness_ms(),
                batches=len(log.batches) if log else 0,
            )
        )
        between(k)
    return windows


def punctual_latency(requests: Requests, ok: np.ndarray, latency_ms: np.ndarray) -> tuple:
    """(p50, p99, windows used) of the open loop over its punctual windows.

    The loop is cut into ``LATENCY_WINDOW_S`` windows.  A window in which
    the generator itself ran late measures the shared host's scheduling,
    not the server, so only the half of the windows with the lowest
    generator lateness count; p50 and p99 are the medians of their
    per-window percentiles.
    """
    due = requests.due[: requests.sent]
    late = requests.lateness_ms()
    window = ((due - due[0]) // LATENCY_WINDOW_S).astype(np.int64)
    stats = []
    for k in range(max(1, int(window.max()))):  # the last, partial window is left out
        answered = latency_ms[(window == k) & ok]
        if len(answered):
            stats.append(
                (percentile(late[window == k], 99), median(answered), percentile(answered, 99))
            )
    stats.sort()
    kept = stats[: max(1, len(stats) // 2)]
    return median([s[1] for s in kept]), median([s[2] for s in kept]), len(kept)


def _queue_metrics(result: Result, requests: Requests, batches: list) -> None:
    """Queue wait and batch shape of the open loop, from the forward log.

    Requests are dispatched in FIFO order, so the k-th batch holds the
    next ``rows`` requests after those of batches 0..k-1.
    """
    sizes = np.array([rows for _, rows in batches])
    starts = np.repeat([start for start, _ in batches], sizes)
    n = min(len(starts), requests.sent)
    queue_wait = (starts[:n] - requests.submitted[:n]) * 1e3
    result.put("serve.batching.queue_wait_p50_ms", median(queue_wait), "ms")
    result.put("serve.batching.queue_wait_p99_ms", percentile(queue_wait, 99), "ms")
    result.put("serve.batching.batch_size_mean", float(sizes.mean()), "count")
    result.put("serve.batching.timer_flush_ratio", float((sizes < MAX_BATCH).mean()), "fraction")
