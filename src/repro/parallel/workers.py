"""Data-parallel gradient workers: split each mini-batch across processes.

:class:`GradientWorkerPool` forks ``n_workers`` persistent worker processes
around a model.  Every training step the parent splits the mini-batch into
contiguous shards, each worker runs forward + backward on its shard against
the **shared** parameters, and the parent all-reduces (averages, weighted by
shard size) the per-worker gradients before the optimizer step.  DST
semantics are unchanged: the controller sees one averaged dense gradient per
parameter, exactly as if the full batch had been processed in-process, and
drop/grow decisions happen only in the parent.

Shared-memory layout (all created before the fork, inherited by workers):

* ``params``  — one contiguous float32 block holding every parameter; each
  ``Parameter.data`` is rebound to a view into it, so the parent's optimizer
  step and mask surgery are immediately visible to the workers with no
  parameter broadcast;
* ``grads``   — an ``(n_workers, total_params)`` float32 block; worker ``w``
  writes its shard gradient into row ``w``;
* ``masks``   — a flat bool block mirroring every
  :class:`~repro.sparse.masked.SparseParam` mask.  The parent re-publishes a
  layer's mask when its ``mask_version`` moved since the last step (i.e.
  after each drop-and-grow round) and names the changed layers in the step
  command; workers copy those slices into their local masks and invalidate
  cached index sets, which keeps worker-side CSR kernel structures in sync.

Commands and small results (loss, shard size, correct count, norm-layer
buffers) travel over per-worker pipes; only the batch shard is pickled,
never the model.

Semantics notes
---------------
* Gradient averaging is weighted by shard size, so the result equals the
  full-batch mean gradient up to float32 summation order.
* Batch-norm layers normalize by per-shard statistics and the parent
  adopts the running buffers of the first worker — the same per-replica
  semantics as standard data-parallel training.
"""

from __future__ import annotations

import numpy as np
import multiprocessing as mp

from repro.autograd.tensor import Tensor
from repro.parallel.pool import fork_available
from repro.parallel.shm import ParamLayout, SharedArray

__all__ = ["GradientWorkerPool"]


class GradientWorkerPool:
    """Persistent fork workers computing sharded gradients for one model.

    Parameters
    ----------
    model:
        The model to replicate.  Its parameters are moved into shared
        memory for the pool's lifetime (and copied back on :meth:`close`).
    loss_fn:
        ``loss_fn(logits, targets) -> Tensor`` (scalar, mean reduction).
    n_workers:
        Number of worker processes (>= 2; use the trainer's serial path
        otherwise).
    masked:
        Optional :class:`~repro.sparse.masked.MaskedModel` whose masks are
        mirrored into shared memory and resynced on ``mask_version`` bumps.
    """

    def __init__(self, model, loss_fn, n_workers: int, masked=None):
        if n_workers < 2:
            raise ValueError(f"n_workers must be >= 2, got {n_workers}")
        if not fork_available():
            raise RuntimeError("GradientWorkerPool requires fork support")
        if mp.current_process().daemon:
            # Daemonic processes (e.g. run_sharded seed workers) cannot have
            # children; the trainer falls back to in-process gradients.
            raise RuntimeError(
                "GradientWorkerPool cannot start inside a daemonic worker "
                "process (nested parallelism); use Trainer(n_workers=0) there"
            )
        self.model = model
        self.loss_fn = loss_fn
        self.n_workers = int(n_workers)
        self.masked = masked
        self._closed = False

        params = list(model.parameters())
        for param in params:
            if param.data.dtype != np.float32:
                raise TypeError(
                    f"shared-parameter pool requires float32 parameters, "
                    f"got {param.data.dtype} for {param.name!r}"
                )
        self.layout = ParamLayout(params)
        self._param_shm = SharedArray((self.layout.total,), np.float32)
        self._grad_shm = SharedArray((self.n_workers, self.layout.total), np.float32)
        self._views: list[np.ndarray] = []
        for index, param in enumerate(params):
            view = self.layout.view(self._param_shm.array, index)
            np.copyto(view, param.data)
            param.data = view
            self._views.append(view)

        self._targets = list(masked.targets) if masked is not None else []
        self._mask_offsets: list[int] = []
        total_mask = 0
        for target in self._targets:
            self._mask_offsets.append(total_mask)
            total_mask += int(target.size)
        self._mask_shm = SharedArray((max(total_mask, 1),), np.bool_)
        self._mask_versions = [-1] * len(self._targets)  # force first publish

        self._avg = np.empty(self.layout.total, dtype=np.float32)
        self._scratch = np.empty(self.layout.total, dtype=np.float32)
        self._has_buffers = any(True for _ in model.named_buffers())

        ctx = mp.get_context("fork")
        self._procs = []
        self._conns = []
        for worker_id in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=self._worker_loop, args=(worker_id, child_conn), daemon=True
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)

    # ------------------------------------------------------------------
    # parent side
    # ------------------------------------------------------------------
    def _rebind_shared_parameters(self) -> None:
        """Re-attach parameters that were rebound to private arrays.

        Most updates are in-place (SGD, mask surgery), but some code paths
        *replace* ``param.data`` with a fresh array — Adam's dense step,
        STR's shrink, ``load_state_dict``.  Workers would then silently
        keep training against the frozen shared block, so every step the
        parent copies any rebound value back into its shared view and
        restores the binding.
        """
        for index, param in enumerate(self.layout.params):
            view = self._views[index]
            if param.data is view:
                continue
            if param.data.shape != view.shape:
                raise RuntimeError(
                    f"parameter {param.name!r} changed shape "
                    f"{view.shape} -> {param.data.shape} under a worker pool"
                )
            np.copyto(view, param.data)
            param.data = view

    def _publish_masks(self) -> list[int]:
        """Copy changed masks into shared memory; return their target indices."""
        changed = []
        flat = self._mask_shm.array
        for index, target in enumerate(self._targets):
            if target.mask_version != self._mask_versions[index]:
                offset = self._mask_offsets[index]
                np.copyto(
                    flat[offset : offset + target.size], target.mask.reshape(-1)
                )
                self._mask_versions[index] = target.mask_version
                changed.append(index)
        return changed

    def step(self, inputs, targets) -> tuple[float, float]:
        """Compute averaged gradients for one mini-batch.

        Splits ``(inputs, targets)`` into ``n_workers`` contiguous shards,
        all-reduces the worker gradients into ``param.grad`` (weighted mean)
        and returns ``(mean loss, accuracy)`` over the full batch.
        """
        if self._closed:
            raise RuntimeError("GradientWorkerPool is closed")
        x = inputs.data if isinstance(inputs, Tensor) else np.asarray(inputs)
        y = np.asarray(targets)
        n = len(y)
        self._rebind_shared_parameters()
        changed = self._publish_masks()
        bounds = np.linspace(0, n, self.n_workers + 1).astype(int)
        for worker_id, conn in enumerate(self._conns):
            lo, hi = bounds[worker_id], bounds[worker_id + 1]
            conn.send(("step", x[lo:hi], y[lo:hi], changed))

        loss_total = 0.0
        correct_total = 0
        shard_sizes = []
        buffers = None
        any_grad = [False] * len(self.layout.params)
        for conn in self._conns:
            try:
                loss_w, n_w, correct_w, buffers_w, had_grad = conn.recv()
            except EOFError as exc:
                self.close()
                raise RuntimeError("gradient worker died during step") from exc
            shard_sizes.append(n_w)
            loss_total += loss_w * n_w
            correct_total += correct_w
            if buffers_w is not None and buffers is None:
                buffers = buffers_w
            if had_grad is not None:
                any_grad = [a or h for a, h in zip(any_grad, had_grad)]

        grads = self._grad_shm.array
        started = False
        for worker_id, n_w in enumerate(shard_sizes):
            if n_w == 0:
                continue
            coef = n_w / n
            if not started:
                np.multiply(grads[worker_id], coef, out=self._avg)
                started = True
            else:
                np.multiply(grads[worker_id], coef, out=self._scratch)
                np.add(self._avg, self._scratch, out=self._avg)
        for index, param in enumerate(self.layout.params):
            if not param.requires_grad:
                continue
            # A parameter no worker produced a gradient for (unused in the
            # forward) keeps grad=None, exactly as in serial training — the
            # optimizer must skip it, not weight-decay a zero gradient.
            if any_grad[index]:
                param.grad = self.layout.view(self._avg, index)
            else:
                param.grad = None

        if buffers is not None:
            owners = self.model._buffer_owners()
            for name, value in buffers:
                if name in owners:
                    owner, attr = owners[name]
                    owner.register_buffer(attr, value)
        # ``correct_total`` counts predictions, one per logits row — for
        # language models that is ``y.size`` tokens, not ``len(y)`` examples.
        return loss_total / max(n, 1), correct_total / max(y.size, 1)

    def close(self) -> None:
        """Stop workers and move parameters back into private memory."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join()
        for conn in self._conns:
            conn.close()
        for param in self.layout.params:
            param.data = np.array(param.data, copy=True)
            if param.grad is not None and param.grad.base is self._avg:
                param.grad = np.array(param.grad, copy=True)
        self._param_shm.close()
        self._grad_shm.close()
        self._mask_shm.close()

    def __enter__(self) -> "GradientWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # worker side (runs in the forked child)
    # ------------------------------------------------------------------
    def _apply_mask_updates(self, changed) -> None:
        flat = self._mask_shm.array
        for index in changed:
            target = self._targets[index]
            offset = self._mask_offsets[index]
            np.copyto(target.mask.reshape(-1), flat[offset : offset + target.size])
            target.mark_mask_dirty()

    def _worker_loop(self, worker_id: int, conn) -> None:
        grad_row = self._grad_shm.array[worker_id]
        send_buffers = self._has_buffers and worker_id == 0
        while True:
            command = conn.recv()
            if command[0] == "stop":
                conn.close()
                return
            _, x, y, changed = command
            self._apply_mask_updates(changed)
            if len(y) == 0:
                conn.send((0.0, 0, 0, None, None))
                continue
            self.model.zero_grad()
            logits = self.model(Tensor(x))
            loss = self.loss_fn(logits, y)
            loss.backward()
            had_grad = []
            for index, param in enumerate(self.layout.params):
                view = self.layout.view(grad_row, index)
                if param.grad is not None:
                    np.copyto(view, param.grad)
                    had_grad.append(True)
                else:
                    view.fill(0.0)
                    had_grad.append(False)
            # Flatten targets so (B, T) language-model labels line up with
            # the (B*T, V) logits; a no-op for 1-D classification targets.
            correct = int((logits.data.argmax(axis=1) == y.reshape(-1)).sum())
            buffers = None
            if send_buffers:
                buffers = [
                    (name, np.array(value, copy=True))
                    for name, value in self.model.named_buffers()
                ]
            conn.send((float(loss.item()), int(len(y)), correct, buffers, had_grad))
