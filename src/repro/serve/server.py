"""In-process serving: one loaded artifact behind a predict API.

:class:`Server` is the composition point of the serving subsystem: it owns
a loaded model (see :mod:`repro.serve.artifact`), applies the artifact's
preprocessing spec to every request, and — unless batching is disabled —
routes single-example requests through a :class:`~repro.serve.batching.BatchingQueue`
so concurrent callers share one CSR matmul.  An optional
:class:`~repro.serve.admission.AdmissionController` gates :meth:`submit`
so overload is shed at the door instead of queued into unbounded latency.
The HTTP frontend (:mod:`repro.serve.http`) and the hot-swap router
(:mod:`repro.serve.router`) are thin layers over this class; every
request is answered in this process.
"""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.serve.artifact import LoadedModel, load_model
from repro.serve.batching import BatchingQueue
from repro.serve.preprocess import Preprocessor

__all__ = ["Server"]


class Server:
    """Serve predictions from a compiled sparse model.

    Parameters
    ----------
    model:
        A :class:`LoadedModel` (from :func:`repro.serve.artifact.load_model`)
        or a bare eval-mode :class:`Module`.
    max_batch / max_latency_ms:
        Micro-batching knobs (see :class:`BatchingQueue`).
    batching:
        ``False`` disables the queue; :meth:`submit` then runs the request
        synchronously — useful as the A/B baseline in benchmarks.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`.
        When set, :meth:`submit` calls ``acquire`` before enqueueing and
        releases the slot when the request's future resolves, so the
        bounded-queue and deadline-rejection rules apply to every caller
        (HTTP and in-process alike).
    fault_injector:
        Optional :class:`~repro.serve.faults.FaultInjector`; the forward
        path calls its ``slow_batch`` fault point on every batch, letting
        the chaos harness stall batches deterministically.
    """

    def __init__(
        self,
        model: LoadedModel | Module,
        *,
        max_batch: int = 32,
        max_latency_ms: float = 2.0,
        batching: bool = True,
        admission=None,
        fault_injector=None,
    ):
        if isinstance(model, LoadedModel):
            self.loaded = model
            self.model = model.model
            self.preprocessor = model.preprocessor
            self.fingerprint = model.fingerprint
            self.metadata = model.metadata
        else:
            self.loaded = None
            self.model = model
            self.preprocessor = Preprocessor(None)
            self.fingerprint = None
            self.metadata = None
        self.model.eval()
        self.admission = admission
        self._fault_injector = fault_injector
        self._queue = (
            BatchingQueue(self._forward, max_batch=max_batch, max_latency_ms=max_latency_ms)
            if batching
            else None
        )

    @classmethod
    def from_artifact(cls, path, verify: bool = True, **kwargs) -> "Server":
        """Load ``path`` and wrap it in a server (kwargs as in ``__init__``)."""
        return cls(load_model(path, verify=verify), **kwargs)

    # ------------------------------------------------------------------
    # prediction paths
    # ------------------------------------------------------------------
    def _forward(self, batch: np.ndarray) -> np.ndarray:
        """Model forward on an already-preprocessed batch (no autograd)."""
        if self._fault_injector is not None:
            self._fault_injector.sleep_if("slow_batch")
        with no_grad():
            out = self.model(Tensor(batch))
        return np.asarray(out.data)

    def predict(self, inputs) -> np.ndarray:
        """Synchronous whole-batch path: preprocess + one forward call.

        ``inputs`` is a batch (leading axis = examples).  Bypasses the
        batching queue and admission control — use :meth:`submit` /
        :meth:`predict_one` for request-per-example traffic.
        """
        return self._forward(self.preprocessor(np.asarray(inputs)))

    def submit(self, example, deadline_s: float | None = None) -> Future:
        """Asynchronous single-example path through the batching queue.

        With an admission controller attached this may raise
        :class:`~repro.serve.admission.AdmissionRejected` instead of
        queueing; ``deadline_s`` (remaining budget in seconds) feeds its
        deadline-aware rejection rule.
        """
        example = self.preprocessor(np.asarray(example)[None])[0]
        admitted_at = None
        if self.admission is not None:
            admitted_at = self.admission.acquire(deadline_s)
        try:
            if self._queue is None:
                future: Future = Future()
                try:
                    future.set_result(self._forward(example[None])[0])
                except BaseException as exc:
                    future.set_exception(exc)
            else:
                future = self._queue.submit(example)
        except BaseException:
            if admitted_at is not None:
                self.admission.release(admitted_at)
            raise
        if admitted_at is not None:
            release_at = admitted_at

            def _release(_future, _self=self, _at=release_at):
                _self.admission.release(_at)

            future.add_done_callback(_release)
        return future

    def predict_one(self, example, timeout: float | None = None) -> np.ndarray:
        """Blocking single-example prediction (through the queue)."""
        return self.submit(example).result(timeout=timeout)

    # ------------------------------------------------------------------
    # introspection & lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving statistics (queue counters + identity of the model)."""
        info = {
            "fingerprint": self.fingerprint,
            "metadata": self.metadata,
            "batching": self._queue is not None,
        }
        if self._queue is not None:
            info.update(self._queue.stats())
        if self.admission is not None:
            info["admission"] = self.admission.snapshot()
        return info

    def drain(self) -> None:
        """Stop accepting; serve every already-queued request, then stop.

        This is what the router calls on the *old* deployment after a
        hot-swap flip: pending futures resolve against the old weights,
        new traffic has already moved on.  Alias of :meth:`close` — the
        queue's close contract is exactly drain semantics.
        """
        self.close()

    def close(self) -> None:
        if self._queue is not None:
            self._queue.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
