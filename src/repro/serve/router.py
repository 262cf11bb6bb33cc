"""Multi-model router: named deployments with zero-downtime hot-swap.

One process, many named models, and — the production-critical part —
replacing the artifact behind a name **without dropping a request**.  The
rollout protocol for ``hot_swap(name, new_artifact)`` is:

1. **Load beside the old.**  The new artifact is loaded (fingerprint
   verified) and given its own :class:`~repro.serve.Server` while the
   old deployment keeps serving every request that arrives.
2. **Canary.**  A health-check batch runs through the *new* serving path
   end to end; the output must be finite and the right shape (an optional
   reference output may be pinned exactly).  A canary failure — or a
   corrupt artifact caught by the fingerprint check in step 1 — aborts the
   swap: the new model is torn down and the old one never stops serving.
   Rollback is automatic because the flip has not happened yet.
3. **Atomic flip.**  Under the router lock the name is re-pointed at the
   new deployment.  Requests are batched per deployment, so a batch is
   served entirely by one model — the fingerprint a request sees flips
   atomically from old to new, never a mixed batch.
4. **Drain and retire.**  The old deployment's queue is drained (pending
   futures resolve against the old weights) and closed.  Draining happens
   after the flip, so there is no window where neither model accepts
   traffic.

Submission races are absorbed by a resolve-and-retry loop: a request that
grabbed the old deployment just as it drained gets transparently
re-submitted to the new one.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

import numpy as np

from repro.serve.admission import AdmissionController
from repro.serve.artifact import ArtifactError, LoadedModel, load_model
from repro.serve.server import Server

__all__ = ["HotSwapError", "ModelRouter", "RouterDeployment"]


class HotSwapError(RuntimeError):
    """A rollout was aborted (bad artifact or failed canary); old model kept."""


class RouterDeployment:
    """One named, versioned serving unit: a loaded artifact behind a server."""

    def __init__(
        self,
        name: str,
        loaded: LoadedModel,
        *,
        generation: int,
        max_batch: int = 32,
        max_latency_ms: float = 2.0,
        admission: AdmissionController | None = None,
        fault_injector=None,
    ):
        self.name = name
        self.loaded = loaded
        self.generation = generation
        self.fingerprint = loaded.fingerprint
        self.metadata = loaded.metadata
        self.server = Server(
            loaded,
            max_batch=max_batch,
            max_latency_ms=max_latency_ms,
            admission=admission,
            fault_injector=fault_injector,
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "generation": self.generation,
            "fingerprint": self.fingerprint,
            "metadata": self.metadata,
        }

    def retire(self) -> None:
        """Drain the queue: pending requests resolve, new ones are refused."""
        self.server.drain()


class ModelRouter:
    """Route requests to named model deployments; swap them without downtime.

    Parameters
    ----------
    max_batch / max_latency_ms:
        Micro-batching knobs applied to every deployment's server.
    admission:
        One shared :class:`AdmissionController` for the whole router —
        overload protection is a property of the process, not of one model.
    verify:
        Verify artifact fingerprints at (re)load.  Leave on: it is also the
        corrupt-artifact gate of the hot-swap canary.
    canary_atol:
        Tolerance when a hot-swap canary is checked against a pinned
        reference output.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_latency_ms: float = 2.0,
        admission: AdmissionController | None = None,
        verify: bool = True,
        fault_injector=None,
        canary_atol: float = 1e-5,
    ):
        self.max_batch = int(max_batch)
        self.max_latency_ms = float(max_latency_ms)
        self.admission = admission
        self.verify = bool(verify)
        self.canary_atol = float(canary_atol)
        self._fault_injector = fault_injector
        self._lock = threading.Lock()
        self._models: dict[str, RouterDeployment] = {}
        self._default: str | None = None
        self._generation = 0
        self._swaps = 0
        self._rollbacks = 0
        self._closed = False

    # ------------------------------------------------------------------
    # deployment lifecycle
    # ------------------------------------------------------------------
    def _load(self, source) -> LoadedModel:
        if isinstance(source, LoadedModel):
            return source
        return load_model(source, verify=self.verify)

    def _build(self, name: str, loaded: LoadedModel) -> RouterDeployment:
        with self._lock:
            self._generation += 1
            generation = self._generation
        return RouterDeployment(
            name,
            loaded,
            generation=generation,
            max_batch=self.max_batch,
            max_latency_ms=self.max_latency_ms,
            admission=self.admission,
            fault_injector=self._fault_injector,
        )

    def deploy(self, name: str, source, *, default: bool | None = None) -> dict:
        """Deploy ``source`` under ``name`` (must not exist yet; see hot_swap).

        The first deployment becomes the default route unless ``default``
        is explicitly False.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("ModelRouter is closed")
            if name in self._models:
                raise ValueError(f"model {name!r} already deployed; use hot_swap")
        deployment = self._build(name, self._load(source))
        with self._lock:
            self._models[name] = deployment
            if default or (default is None and self._default is None):
                self._default = name
        return deployment.describe()

    def hot_swap(self, name: str, source, *, canary=None, canary_reference=None) -> dict:
        """Replace the artifact behind ``name`` with zero downtime.

        ``canary`` is a health-check batch run through the new serving
        path before the flip; ``canary_reference`` optionally pins its
        expected output.  On any failure (corrupt artifact, wrong
        architecture, bad canary output) the swap rolls back: the old
        deployment never stops serving and :class:`HotSwapError` is
        raised.  Returns a rollout report with old/new fingerprints.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("ModelRouter is closed")
            old = self._models.get(name)
        if old is None:
            raise KeyError(f"model {name!r} is not deployed; use deploy first")
        # 1. load beside the old (fingerprint verified = corruption gate)
        try:
            loaded = self._load(source)
        except (ArtifactError, OSError, ValueError) as exc:
            with self._lock:
                self._rollbacks += 1
            raise HotSwapError(
                f"hot-swap of {name!r} aborted at load: {exc}; old model kept"
            ) from exc
        new = self._build(name, loaded)
        # 2. canary through the full new serving path
        try:
            self._run_canary(new, canary, canary_reference)
        except BaseException as exc:
            new.retire()
            with self._lock:
                self._rollbacks += 1
            raise HotSwapError(
                f"hot-swap of {name!r} rolled back at canary: {exc}; old model kept"
            ) from exc
        # 3. atomic flip
        with self._lock:
            current = self._models.get(name)
            self._models[name] = new
            self._swaps += 1
        # 4. drain + retire the displaced deployment
        if current is not None:
            current.retire()
        return {
            "model": name,
            "old_fingerprint": None if current is None else current.fingerprint,
            "new_fingerprint": new.fingerprint,
            "generation": new.generation,
            "canary_examples": 0 if canary is None else int(np.asarray(canary).shape[0]),
        }

    def _run_canary(self, deployment: RouterDeployment, canary, reference) -> None:
        if canary is None:
            return
        batch = np.asarray(canary, dtype=np.float32)
        out = deployment.server.predict(batch)
        if out.shape[0] != batch.shape[0]:
            raise RuntimeError(
                f"canary returned {out.shape[0]} rows for {batch.shape[0]} examples"
            )
        if not np.all(np.isfinite(out)):
            raise RuntimeError("canary forward produced non-finite outputs")
        if reference is not None and not np.allclose(out, reference, atol=self.canary_atol):
            raise RuntimeError("canary output does not match the pinned reference")

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def resolve(self, model: str | None = None) -> RouterDeployment:
        """The deployment that would serve ``model`` right now."""
        with self._lock:
            name = model if model is not None else self._default
            if name is None:
                raise KeyError("router has no deployments")
            deployment = self._models.get(name)
        if deployment is None:
            raise KeyError(f"unknown model {name!r}")
        return deployment

    def submit(
        self, example, model: str | None = None, deadline_s: float | None = None
    ) -> tuple[Future, RouterDeployment]:
        """Submit one example; returns (future, serving deployment).

        The deployment is returned so callers can report *which* model
        version actually served the request (the chaos harness asserts the
        fingerprint flip is atomic).  A submit that races a hot-swap drain
        is retried against the freshly resolved deployment.
        """
        for _ in range(8):
            deployment = self.resolve(model)
            try:
                return deployment.server.submit(example, deadline_s=deadline_s), deployment
            except RuntimeError as exc:
                if "closed" not in str(exc):
                    raise
                # The deployment drained between resolve and submit — a
                # hot-swap flipped the name.  Re-resolve and retry.
                continue
        raise RuntimeError(f"could not route request for model {model!r} (swap storm?)")

    def predict_one(
        self,
        example,
        model: str | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        future, _ = self.submit(example, model=model, deadline_s=timeout)
        return future.result(timeout=timeout)

    # ------------------------------------------------------------------
    # introspection & lifecycle
    # ------------------------------------------------------------------
    @property
    def default_model(self) -> str | None:
        with self._lock:
            return self._default

    def models(self) -> list[dict]:
        """Deployment descriptions, default first, stable order."""
        with self._lock:
            deployments = list(self._models.values())
            default = self._default
        rows = [d.describe() for d in deployments]
        for row in rows:
            row["default"] = row["name"] == default
        rows.sort(key=lambda row: (not row["default"], row["name"]))
        return rows

    def stats(self) -> dict:
        with self._lock:
            info = {
                "models": len(self._models),
                "default": self._default,
                "swaps": self._swaps,
                "rollbacks": self._rollbacks,
            }
        if self.admission is not None:
            info["admission"] = self.admission.snapshot()
        return info

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            deployments = list(self._models.values())
            self._models.clear()
            self._default = None
        for deployment in deployments:
            deployment.retire()

    def __enter__(self) -> "ModelRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
