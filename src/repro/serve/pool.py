"""Supervised multi-process serving pool over one shared read-only arena.

One Python process can only push one core's worth of CSR matmuls.  The pool
forks ``n_workers`` serving processes that all read the *same* physical
copy of the compiled weights: the parent packs every sparse layer's CSR
components (the one matrix its forward reads) and bias into a single
:class:`~repro.parallel.shm.SharedArena`, re-points the layer matrices at
read-only views of it, and forks.  At the paper's 90–98% sparsities the
arena is a fraction of the dense weight bytes, and the workers add no
per-process weight copies at all — the scaling cost of one more worker is
its Python interpreter, not the model.

Transport is one **pipe pair per worker** (requests down, responses up),
each with exactly one writer and one reader — deliberately *not* a shared
queue.  A shared queue has shared locks, and a worker SIGKILLed mid-``get``
dies holding the reader lock, wedging every sibling; with private pipes a
dead worker poisons nothing, and the parent knows exactly which requests
it held.

That record is what makes the pool *supervised* instead of fail-fast: a
supervisor thread watches the response pipes, and on an unexpected worker
death it respawns a replacement against the **existing** read-only arena
(fork again — the weights are already shared memory, so a restart costs an
interpreter, not a model load), re-dispatches the dead worker's in-flight
requests to live workers (bounded retries with exponential backoff), and —
if the restart budget is exhausted and no workers remain — degrades to
in-process execution rather than failing traffic.  On platforms without
``fork`` the pool serves in-process with the same API from the start.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
import time
import traceback
import warnings
from concurrent.futures import Future

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.parallel import SharedArena, fork_available
from repro.serve.artifact import LoadedModel, load_model
from repro.sparse.inference import SparseConv2d, SparseLinear

__all__ = ["ServingPool", "share_model_weights", "unshare_model_weights"]


def share_model_weights(model: Module) -> SharedArena | None:
    """Move every compiled layer's weight arrays into one shared arena.

    The layers' scipy matrices are re-pointed at read-only arena views in
    place; the returned arena owns the segment (``close`` it when done).
    Returns ``None`` when the model has no compiled sparse layers.
    """
    packed: dict[str, np.ndarray] = {}
    layers: list[tuple[str, Module]] = []
    for name, module in model.named_modules():
        if not isinstance(module, (SparseLinear, SparseConv2d)):
            continue
        layers.append((name, module))
        for orient, matrix in module.shared_matrices():
            packed[f"{name}.{orient}.data"] = matrix.data
            packed[f"{name}.{orient}.indices"] = matrix.indices
            packed[f"{name}.{orient}.indptr"] = matrix.indptr
        if module.bias_data is not None:
            packed[f"{name}.bias"] = module.bias_data
    if not layers:
        return None
    arena = SharedArena(packed, readonly=True)
    for name, module in layers:
        for orient, matrix in module.shared_matrices():
            matrix.data = arena.view(f"{name}.{orient}.data")
            matrix.indices = arena.view(f"{name}.{orient}.indices")
            matrix.indptr = arena.view(f"{name}.{orient}.indptr")
        if module.bias_data is not None:
            module.bias_data = arena.view(f"{name}.bias")
    return arena


def unshare_model_weights(model: Module) -> None:
    """Give every compiled layer back private copies of its weight arrays.

    Must run before the backing arena's ``close()``: that unmaps the shared
    segment, and any scipy matrix still pointing into it would fault on
    next use.  Copying unconditionally is deliberate — it is correct (and
    cheap at serving sparsities) whether or not a given array is a view.
    """
    for _, module in model.named_modules():
        if not isinstance(module, (SparseLinear, SparseConv2d)):
            continue
        for _orient, matrix in module.shared_matrices():
            matrix.data = np.array(matrix.data, copy=True)
            matrix.indices = np.array(matrix.indices, copy=True)
            matrix.indptr = np.array(matrix.indptr, copy=True)
        if module.bias_data is not None:
            module.bias_data = np.array(module.bias_data, copy=True)


def _pool_worker(requests, responses, loaded: LoadedModel, preprocess: bool) -> None:
    """Worker loop: one request (a whole batch) per pipe message."""
    model = loaded.model
    preprocessor = loaded.preprocessor
    try:
        while True:
            try:
                item = requests.recv()
            except (EOFError, OSError):
                return
            if item is None:
                return
            request_id, payload = item
            try:
                batch = np.asarray(payload, dtype=np.float32)
                if preprocess:
                    batch = preprocessor(batch)
                with no_grad():
                    out = model(Tensor(batch))
                responses.send((request_id, np.asarray(out.data), None))
            except BaseException:
                responses.send((request_id, None, traceback.format_exc()))
    finally:
        try:
            responses.close()
        except OSError:
            pass


class _Entry:
    """One dispatched request batch the parent is accountable for."""

    __slots__ = ("request_id", "payload", "future", "attempts")

    def __init__(self, request_id: int, payload, future: Future):
        self.request_id = request_id
        self.payload = payload
        self.future = future
        self.attempts = 0


class _WorkerHandle:
    """Parent-side record of one forked worker and the requests it holds."""

    __slots__ = ("worker_id", "process", "send", "recv", "send_lock", "inflight", "alive")

    def __init__(self, worker_id: int, process, send, recv):
        self.worker_id = worker_id
        self.process = process
        self.send = send  # parent writes requests here
        self.recv = recv  # parent reads responses here
        self.send_lock = threading.Lock()
        self.inflight: dict[int, _Entry] = {}
        self.alive = True


class ServingPool:
    """N supervised forked serving workers sharing one read-only arena.

    Parameters
    ----------
    source:
        Artifact path, or an already-:func:`~repro.serve.artifact.load_model`-ed
        :class:`LoadedModel`.
    n_workers:
        Forked serving processes.  ``0`` (or a platform without fork)
        serves in-process with the same API.
    max_restarts:
        Total worker respawns the supervisor may perform over the pool's
        lifetime.  Once exhausted, further deaths shrink the pool; when no
        workers remain the pool degrades to in-process execution instead
        of failing traffic.
    max_redispatch:
        Bounded retries per request: how many times a request held by a
        dying worker is re-dispatched before its future fails.
    redispatch_backoff_s:
        Base of the exponential backoff between re-dispatches of the same
        request (doubles per attempt, capped at 0.2 s).

    The unit of work is one *request batch*: ``predict``/``submit`` take a
    batch of examples and the pool parallelizes across concurrent requests
    (pair it with a :class:`~repro.serve.batching.BatchingQueue` upstream
    to also coalesce single-example traffic).

    ``preprocess=False`` skips the artifact's preprocessing spec in the
    workers — pass it when an upstream :class:`~repro.serve.Server` already
    preprocessed the batch (applying mean/std twice would corrupt it).
    """

    def __init__(
        self,
        source,
        n_workers: int = 2,
        verify: bool = True,
        preprocess: bool = True,
        *,
        max_restarts: int = 3,
        max_redispatch: int = 2,
        redispatch_backoff_s: float = 0.01,
    ):
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        if max_redispatch < 0:
            raise ValueError(f"max_redispatch must be >= 0, got {max_redispatch}")
        if isinstance(source, LoadedModel):
            self.loaded = source
        else:
            self.loaded = load_model(source, verify=verify)
        if n_workers > 0 and not fork_available():
            warnings.warn(
                "fork start method unavailable; ServingPool falls back to "
                "in-process serving",
                RuntimeWarning,
                stacklevel=2,
            )
            n_workers = 0
        self.n_workers = int(n_workers)
        self.preprocess = bool(preprocess)
        self.max_restarts = int(max_restarts)
        self.max_redispatch = int(max_redispatch)
        self.redispatch_backoff_s = float(redispatch_backoff_s)
        self.arena = share_model_weights(self.loaded.model) if n_workers > 0 else None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._forward_lock = threading.Lock()  # serializes in-process forwards
        self._closed = False
        self._restarts = 0
        self._deaths = 0
        self._redispatched = 0
        self._dropped = 0
        self._worker_seq = itertools.count()
        self._workers: list[_WorkerHandle] = []
        self._supervisor = None
        self._wake_r = None
        self._wake_w = None
        if self.n_workers > 0:
            self._ctx = mp.get_context("fork")
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
            for _ in range(self.n_workers):
                self._workers.append(self._spawn_worker())
            self._supervisor = threading.Thread(
                target=self._supervise,
                name="repro-serve-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        """Fork one worker against the existing arena; parent keeps its ends.

        The parent-side copies of the child's pipe ends are closed right
        after the fork so the child is the *only* writer of its response
        pipe — that is what turns a SIGKILL into a clean EOF in the
        supervisor instead of a silent hang.
        """
        worker_id = next(self._worker_seq)
        request_recv, request_send = self._ctx.Pipe(duplex=False)
        response_recv, response_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_pool_worker,
            args=(request_recv, response_send, self.loaded, self.preprocess),
            name=f"repro-serve-{worker_id}",
            daemon=True,
        )
        process.start()
        request_recv.close()
        response_send.close()
        return _WorkerHandle(worker_id, process, request_send, response_recv)

    def worker_pids(self) -> list[int]:
        """PIDs of the currently live workers (chaos tooling hook)."""
        with self._lock:
            return [h.process.pid for h in self._workers if h.alive]

    def live_workers(self) -> int:
        with self._lock:
            return sum(1 for h in self._workers if h.alive)

    @property
    def degraded(self) -> bool:
        """True when no forked workers remain and requests run in-process."""
        if self.n_workers == 0:
            return False
        with self._lock:
            return not any(h.alive for h in self._workers)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, batch) -> Future:
        """Dispatch one request batch; resolves to its output array."""
        future: Future = Future()
        if self.n_workers == 0:
            self._run_inprocess(_Entry(-1, np.asarray(batch), future))
            return future
        with self._lock:
            if self._closed:
                raise RuntimeError("ServingPool is closed")
            request_id = next(self._ids)
        entry = _Entry(request_id, np.asarray(batch), future)
        self._dispatch(entry)
        return future

    def predict(self, batch, timeout: float | None = None) -> np.ndarray:
        """Blocking request; raises the worker's error on failure."""
        return self.submit(batch).result(timeout=timeout)

    def _pick_worker_locked(self) -> _WorkerHandle | None:
        """Least-loaded live worker, or None (degraded / all dead)."""
        best: _WorkerHandle | None = None
        for handle in self._workers:
            if not handle.alive:
                continue
            if best is None or len(handle.inflight) < len(best.inflight):
                best = handle
        return best

    def _dispatch(self, entry: _Entry) -> None:
        """Send ``entry`` to a live worker, or run it in-process.

        The send happens *outside* the pool lock (a full pipe must not
        stall every other submit), so a worker picked here can die before
        the send lands: ownership is resolved through ``handle.inflight``
        — whichever of this thread and the supervisor pops the entry first
        is responsible for it.
        """
        entry.attempts += 1
        while True:
            with self._lock:
                handle = self._pick_worker_locked()
                if handle is not None:
                    handle.inflight[entry.request_id] = entry
            if handle is None:
                self._run_inprocess(entry)
                return
            try:
                with handle.send_lock:
                    handle.send.send((entry.request_id, entry.payload))
                return
            except (OSError, ValueError):
                # Worker died under us.  If the supervisor already claimed
                # the entry (popped it from inflight), it owns the retry;
                # otherwise reclaim it and try the next worker.
                with self._lock:
                    owned = handle.inflight.pop(entry.request_id, None) is not None
                if not owned:
                    return

    def _run_inprocess(self, entry: _Entry) -> None:
        """Serve one request on the caller's thread (fallback / degraded)."""
        try:
            batch = np.asarray(entry.payload, dtype=np.float32)
            if self.preprocess:
                batch = self.loaded.preprocessor(batch)
            with self._forward_lock, no_grad():
                out = self.loaded.model(Tensor(batch))
            entry.future.set_result(np.asarray(out.data))
        except BaseException as exc:
            entry.future.set_exception(exc)

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Collect responses and keep the worker fleet alive.

        One thread does both jobs because they share the same signal: a
        readable response pipe is either a result to deliver or an EOF —
        and an EOF *is* the death notification, delivered exactly when the
        kernel tears down the dead worker's last pipe end.
        """
        from multiprocessing.connection import wait as connection_wait

        while True:
            with self._lock:
                live = {h.recv: h for h in self._workers if h.alive}
                if self._closed and not live:
                    return
            ready = connection_wait(list(live) + [self._wake_r])
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        self._wake_r.recv_bytes()
                    except (EOFError, OSError):
                        pass
                    continue
                handle = live[conn]
                try:
                    message = conn.recv()
                except Exception:
                    # EOFError/OSError: the worker's pipe end is gone.  Any
                    # other failure (e.g. UnpicklingError from a partial
                    # message written right up to a SIGKILL) means the
                    # stream's framing is lost for good — same recovery:
                    # declare the worker dead and re-dispatch its requests.
                    self._on_worker_death(handle)
                    continue
                self._resolve(handle, message)

    def _resolve(self, handle: _WorkerHandle, message) -> None:
        request_id, value, error = message
        with self._lock:
            entry = handle.inflight.pop(request_id, None)
        if entry is None:
            return
        if error is not None:
            entry.future.set_exception(RuntimeError(f"serving worker failed:\n{error}"))
        else:
            entry.future.set_result(value)

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Supervised restart: reap, respawn, re-dispatch, or degrade."""
        with self._lock:
            if not handle.alive:
                return
            handle.alive = False
            held = list(handle.inflight.values())
            handle.inflight.clear()
            closed = self._closed
        for conn in (handle.send, handle.recv):
            try:
                conn.close()
            except OSError:
                pass
        # Reap: the process is dead (we got EOF) or wedged with its pipes
        # gone — either way it must not linger as a zombie.
        handle.process.join(timeout=0.5)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join()
        if closed:
            for entry in held:
                entry.future.set_exception(RuntimeError("ServingPool closed mid-request"))
            return
        self._deaths += 1
        respawned = False
        with self._lock:
            may_restart = self._restarts < self.max_restarts and not self._closed
        if may_restart:
            try:
                replacement = self._spawn_worker()
            except OSError as exc:  # fork failure: out of pids/memory
                warnings.warn(
                    f"ServingPool could not respawn a worker ({exc}); "
                    "continuing with a smaller pool",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                with self._lock:
                    self._restarts += 1
                    self._workers.append(replacement)
                respawned = True
        if not respawned and not any(h.alive for h in self._workers):
            warnings.warn(
                "ServingPool restart budget exhausted and no workers remain; "
                "degrading to in-process execution",
                RuntimeWarning,
                stacklevel=2,
            )
        # Re-dispatch what the dead worker held: bounded retries with
        # exponential backoff.  A request that keeps landing on dying
        # workers fails loudly instead of cycling forever.
        for entry in held:
            if entry.attempts > self.max_redispatch:
                self._dropped += 1
                entry.future.set_exception(
                    RuntimeError(
                        f"request re-dispatched {entry.attempts - 1} time(s) after "
                        "worker deaths and failed; giving up"
                    )
                )
                continue
            backoff = min(0.2, self.redispatch_backoff_s * (2.0 ** (entry.attempts - 1)))
            if backoff > 0:
                time.sleep(backoff)
            self._redispatched += 1
            self._dispatch(entry)

    # ------------------------------------------------------------------
    # introspection & lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Supervision counters (deaths, restarts, re-dispatches, capacity)."""
        with self._lock:
            alive = sum(1 for h in self._workers if h.alive)
            inflight = sum(len(h.inflight) for h in self._workers)
            return {
                "n_workers": self.n_workers,
                "live_workers": alive,
                "inflight": inflight,
                "deaths": self._deaths,
                "restarts": self._restarts,
                "redispatched": self._redispatched,
                "dropped": self._dropped,
                "degraded": self.n_workers > 0 and alive == 0,
            }

    def close(self) -> None:
        """Stop workers, fail unresolved futures, release the arena."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._workers)
        if self.n_workers > 0:
            for handle in handles:
                if not handle.alive:
                    continue
                try:
                    with handle.send_lock:
                        handle.send.send(None)
                except (OSError, ValueError):
                    pass
            # Workers drain the requests already in their pipes, answer
            # them, then exit; their EOFs walk the supervisor out once the
            # last one is gone.
            for handle in handles:
                handle.process.join(timeout=10.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join()
            try:
                self._wake_w.send_bytes(b"x")
            except (OSError, ValueError):
                pass
            if self._supervisor is not None:
                self._supervisor.join(timeout=10.0)
            for conn in (self._wake_r, self._wake_w):
                try:
                    conn.close()
                except OSError:
                    pass
            leftover: list[Future] = []
            with self._lock:
                for handle in self._workers:
                    leftover.extend(entry.future for entry in handle.inflight.values())
                    handle.inflight.clear()
            for future in leftover:
                if not future.done():
                    future.set_exception(RuntimeError("ServingPool closed mid-request"))
        if self.arena is not None:
            # The arena is about to be unmapped; the (possibly caller-owned)
            # LoadedModel must get private weight copies back first, or its
            # next predict would fault on the dead mapping.
            unshare_model_weights(self.loaded.model)
            self.arena.close()
            self.arena = None

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
