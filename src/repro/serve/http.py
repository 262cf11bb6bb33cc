"""Stdlib JSON frontend: POST /predict over ``http.server``.

No web framework is baked into the container, and none is needed for a
request/response JSON API: :class:`ThreadingHTTPServer` gives one thread
per connection, and because every example is routed through the owning
:class:`~repro.serve.Server`'s batching queue, concurrent HTTP clients are
coalesced into shared CSR matmuls exactly like in-process callers.  The
frontend also fronts a :class:`~repro.serve.router.ModelRouter`, adding
multi-model routing and the ``/models`` endpoint.

Endpoints
---------
``POST /predict``
    Body ``{"inputs": [<example>, ...]}`` (always a list of examples, even
    for one), optionally ``"model"`` (router only) and ``"deadline_ms"``.
    Response ``{"outputs": [[...logits...], ...], "predictions": [argmax,
    ...], "latency_ms": <float>, "fingerprint": <served model>}``.
``GET /healthz``
    Liveness + model fingerprint.
``GET /stats``
    Serving statistics (request counts, batch sizes, latency percentiles,
    admission counters).
``GET /models``
    Router deployments (name, generation, fingerprint, default flag).

Error contract (all JSON bodies with an ``"error"`` key):

======  ==============================================================
400     malformed request (bad JSON, missing/empty/ragged ``inputs``)
404     unknown path / unknown model name
413     ``Content-Length`` over the request-size bound
429     shed by admission control (queue full) — ``Retry-After`` set
503     shed by admission control (hopeless deadline) — ``Retry-After``
504     deadline expired while the request was queued or running
500     anything else (a bug, not an operating condition)
======  ==============================================================
"""

from __future__ import annotations

import json
import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.serve.admission import AdmissionRejected
from repro.serve.router import ModelRouter
from repro.serve.server import Server

__all__ = ["make_http_server", "serve_forever"]

_MAX_BODY_BYTES = 64 * 1024 * 1024
DEFAULT_DEADLINE_S = 30.0


class _PayloadTooLarge(ValueError):
    """Content-Length exceeded the request-size bound (maps to 413)."""


class _ServingHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/2.0"
    protocol_version = "HTTP/1.1"

    # The handler class is shared; the Server/ModelRouter instance hangs
    # off the ThreadingHTTPServer (see make_http_server).
    @property
    def serving(self):
        return self.server.repro_server

    @property
    def router(self) -> ModelRouter | None:
        serving = self.serving
        return serving if isinstance(serving, ModelRouter) else None

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "repro_quiet", True):
            return
        super().log_message(format, *args)

    def _reply(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if status >= 400:
            # Error paths may leave an unread request body on the socket;
            # under HTTP/1.1 keep-alive the next request would be parsed
            # mid-body, so drop the connection instead.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _reply_rejected(self, rejected: AdmissionRejected) -> None:
        """429 for a full queue, 503 for a hopeless deadline; Retry-After set."""
        status = 429 if rejected.reason == "queue_full" else 503
        retry_after = max(0.0, rejected.retry_after)
        self._reply(
            status,
            {
                "error": str(rejected),
                "reason": rejected.reason,
                "retry_after": round(retry_after, 3),
            },
            headers={"Retry-After": f"{retry_after:.3f}"},
        )

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        router = self.router
        if self.path == "/healthz":
            if router is not None:
                names = [row["name"] for row in router.models()]
                default = router.default_model
                fingerprint = None
                if default is not None:
                    fingerprint = router.resolve(default).fingerprint
                self._reply(
                    200,
                    {"status": "ok", "fingerprint": fingerprint, "models": names},
                )
            else:
                self._reply(200, {"status": "ok", "fingerprint": self.serving.fingerprint})
        elif self.path == "/stats":
            self._reply(200, self.serving.stats())
        elif self.path == "/models":
            if router is None:
                self._reply(
                    404,
                    {"error": "no model router attached (single-model server)"},
                )
            else:
                self._reply(200, {"models": router.models()})
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    # ------------------------------------------------------------------
    # POST /predict
    # ------------------------------------------------------------------
    def _parse_predict_body(self) -> tuple[list[np.ndarray], str | None, float]:
        length = int(self.headers.get("Content-Length", "0"))
        if length <= 0:
            raise ValueError(f"Content-Length {length} out of range")
        if length > _MAX_BODY_BYTES:
            raise _PayloadTooLarge(
                f"Content-Length {length} exceeds the {_MAX_BODY_BYTES}-byte bound"
            )
        raw = self.rfile.read(length)
        if len(raw) < length:
            raise ValueError(f"truncated body: Content-Length {length}, got {len(raw)} bytes")
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        inputs = payload["inputs"]
        if not isinstance(inputs, list) or not inputs:
            raise ValueError("'inputs' must be a non-empty list of examples")
        model = payload.get("model")
        if model is not None and not isinstance(model, str):
            raise ValueError("'model' must be a string model name")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            deadline_s = getattr(self.server, "repro_deadline_s", DEFAULT_DEADLINE_S)
        else:
            deadline_s = float(deadline_ms) / 1e3
            if deadline_s <= 0:
                raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        examples = [np.asarray(example, dtype=np.float32) for example in inputs]
        return examples, model, deadline_s

    def do_POST(self) -> None:
        if self.path != "/predict":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            examples, model, deadline_s = self._parse_predict_body()
        except _PayloadTooLarge as exc:
            self._reply(413, {"error": str(exc)})
            return
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        router = self.router
        if model is not None and router is None:
            self._reply(400, {"error": "this server has a single model; omit 'model'"})
            return
        deadline = time.perf_counter() + deadline_s
        start = time.perf_counter()
        fingerprint = self.serving.fingerprint if router is None else None
        try:
            futures = []
            for example in examples:
                remaining = max(1e-3, deadline - time.perf_counter())
                if router is not None:
                    future, deployment = router.submit(example, model=model, deadline_s=remaining)
                    fingerprint = deployment.fingerprint
                else:
                    future = self.serving.submit(example, deadline_s=remaining)
                futures.append(future)
            outputs = []
            for future in futures:
                remaining = deadline - time.perf_counter()
                outputs.append(future.result(timeout=max(1e-3, remaining)))
        except AdmissionRejected as rejected:
            self._reply_rejected(rejected)
            return
        except FutureTimeout:
            # Cancel what can still be cancelled: abandoned rows are shed
            # at dispatch instead of computed for a caller that is gone.
            for future in futures:
                future.cancel()
            self._reply(
                504,
                {
                    "error": f"deadline of {deadline_s * 1e3:.0f} ms expired "
                    "before the prediction completed",
                    "deadline_ms": round(deadline_s * 1e3, 3),
                },
            )
            return
        except KeyError as exc:  # unknown model name
            self._reply(404, {"error": str(exc)})
            return
        except ValueError as exc:  # preprocessing rejected the example shape
            self._reply(400, {"error": str(exc)})
            return
        except Exception as exc:
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        latency_ms = (time.perf_counter() - start) * 1e3
        self._reply(
            200,
            {
                "outputs": [np.asarray(out).tolist() for out in outputs],
                "predictions": [int(np.argmax(out)) for out in outputs],
                "latency_ms": round(latency_ms, 3),
                "fingerprint": fingerprint,
            },
        )


def make_http_server(
    server: Server | ModelRouter,
    host: str = "127.0.0.1",
    port: int = 8100,
    quiet: bool = True,
    default_deadline_s: float = DEFAULT_DEADLINE_S,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server over a ``Server`` or ``ModelRouter``.

    ``port=0`` binds an ephemeral port.  The caller owns the lifecycle:
    ``serve_forever()`` to run, ``shutdown()`` + ``server_close()`` to
    stop.  The bound port is ``httpd.server_address[1]``.
    ``default_deadline_s`` is the per-request deadline applied when the
    request body carries no ``deadline_ms``.
    """
    if default_deadline_s <= 0:
        raise ValueError(f"default_deadline_s must be > 0, got {default_deadline_s}")
    httpd = ThreadingHTTPServer((host, port), _ServingHandler)
    httpd.repro_server = server
    httpd.repro_quiet = quiet
    httpd.repro_deadline_s = float(default_deadline_s)
    # Graceful drain joins the in-flight request threads at server_close.
    httpd.daemon_threads = False
    httpd.block_on_close = True
    return httpd


def serve_forever(
    server: Server | ModelRouter,
    host: str = "127.0.0.1",
    port: int = 8100,
    default_deadline_s: float = DEFAULT_DEADLINE_S,
) -> None:
    """Blocking runner with graceful shutdown on SIGTERM and Ctrl-C.

    Containers stop workloads with SIGTERM; catching only
    ``KeyboardInterrupt`` turns every orchestrated restart into dropped
    requests.  On either signal the server stops accepting, finishes the
    requests already on their threads (``block_on_close``), drains the
    batching queue, and closes the serving side.
    """
    httpd = make_http_server(
        server, host, port, quiet=False, default_deadline_s=default_deadline_s
    )
    address = httpd.server_address
    print(f"serving on http://{address[0]}:{address[1]}  (POST /predict)")

    previous_handler = None

    def _on_sigterm(signum, frame):
        # shutdown() blocks until serve_forever's poll loop notices; from
        # the main thread (where signal handlers run) that is a deadlock,
        # so hand it to a helper thread and let serve_forever unwind.
        threading.Thread(target=httpd.shutdown, name="repro-serve-sigterm").start()

    try:
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (tests); SIGTERM drain unavailable
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        httpd.shutdown()
        httpd.server_close()  # joins in-flight request threads
        server.close()  # drains pending batches
        print("drained and stopped")
