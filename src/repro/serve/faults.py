"""Fault injection for the serving stack: seeded, deterministic chaos.

Resilience claims that are not exercised are wishes.  This module gives the
chaos smoke (``scripts/chaos_smoke.py``), the trace benchmark
(``benchmarks/bench_serve.py``), and the unit tests one shared, *seeded*
way to produce the faults production traffic produces:

* **slow_batch** — stall a batch inside the forward (surfaces as a deadline
  miss upstream; the HTTP layer must answer 504, not a bare 500).
* **corrupt_artifact** — flip bytes in a copied artifact file (the loader's
  fingerprint check — and therefore the router's canary — must refuse it).
* **malformed_request** — a deterministic zoo of broken HTTP bodies (the
  frontend must answer 400 to each without poisoning healthy neighbors).

Everything is driven by :class:`FaultSchedule`: a seeded mapping from fault
point to the exact invocation indices at which it fires, so a chaos run is
reproducible bit for bit from its seed.  :class:`FaultInjector` is the
runtime half — code under test calls ``injector.fire("slow_batch")`` at its
fault point and acts only when the schedule says so.  A ``FaultInjector()``
with no schedule never fires, so leaving the hooks in production paths
costs one dict lookup.
"""

from __future__ import annotations

import io
import json
import pathlib
import time
import zlib

import numpy as np

__all__ = [
    "FaultInjector",
    "FaultSchedule",
    "corrupt_artifact",
    "malformed_payloads",
]


class FaultSchedule:
    """Deterministic fault plan: ``{fault point: sorted invocation indices}``.

    Build one explicitly (``FaultSchedule({"slow_batch": [3, 17]})``) or
    sample one with :meth:`generate`.  Indices count the calls to
    :meth:`FaultInjector.fire` for that point, starting at 0.
    """

    def __init__(self, plan: dict[str, list[int]] | None = None, params: dict | None = None):
        self.plan = {
            str(point): sorted(int(i) for i in indices)
            for point, indices in (plan or {}).items()
        }
        self.params = dict(params or {})

    @classmethod
    def generate(
        cls,
        seed: int,
        n_events: int,
        *,
        rates: dict[str, float],
        params: dict | None = None,
    ) -> "FaultSchedule":
        """Sample a schedule over ``n_events`` invocations per fault point.

        ``rates`` maps each fault point to its per-invocation firing
        probability; each point gets an independent seeded stream, so adding
        a point never reshuffles the others.
        """
        plan: dict[str, list[int]] = {}
        for point in sorted(rates):
            rng = np.random.default_rng([seed, zlib.crc32(point.encode())])
            hits = np.flatnonzero(rng.random(n_events) < rates[point])
            plan[point] = [int(i) for i in hits]
        return cls(plan, params)

    def indices(self, point: str) -> list[int]:
        return list(self.plan.get(point, []))

    def to_json(self) -> str:
        return json.dumps({"plan": self.plan, "params": self.params}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        payload = json.loads(text)
        return cls(payload.get("plan", {}), payload.get("params", {}))


class FaultInjector:
    """Runtime fault points driven by a :class:`FaultSchedule`.

    Each call to :meth:`fire` advances that point's invocation counter and
    reports whether the schedule fires there.  ``fire`` is thread-safe only
    in the sense numpy-free integer ops under the GIL are; callers that
    need exact per-thread schedules should use one injector per thread.
    """

    def __init__(self, schedule: FaultSchedule | None = None):
        self.schedule = schedule or FaultSchedule()
        self._fired: dict[str, int] = {}
        self._calls: dict[str, int] = {}
        self._hit_sets = {
            point: frozenset(indices) for point, indices in self.schedule.plan.items()
        }

    def fire(self, point: str) -> bool:
        """Advance ``point``'s counter; True when the schedule fires here."""
        index = self._calls.get(point, 0)
        self._calls[point] = index + 1
        hits = self._hit_sets.get(point)
        if hits is not None and index in hits:
            self._fired[point] = self._fired.get(point, 0) + 1
            return True
        return False

    def sleep_if(self, point: str, default_ms: float = 50.0) -> bool:
        """Stall for the scheduled duration when ``point`` fires (slow batch)."""
        if not self.fire(point):
            return False
        delay_ms = float(self.schedule.params.get(f"{point}_ms", default_ms))
        time.sleep(delay_ms / 1e3)
        return True

    def counts(self) -> dict:
        """``{point: {"calls": n, "fired": m}}`` for every point seen."""
        points = set(self._calls) | set(self._hit_sets)
        return {
            point: {
                "calls": self._calls.get(point, 0),
                "fired": self._fired.get(point, 0),
            }
            for point in sorted(points)
        }


def corrupt_artifact(path, out_path, *, seed: int = 0, n_flips: int = 64) -> pathlib.Path:
    """Copy the artifact at ``path`` to ``out_path`` with corrupted weights.

    The corruption is *semantic*, not structural: the npz is re-packed with
    ``n_flips`` bytes of one weight array XOR-flipped while the stored
    manifest (and its fingerprint) is kept verbatim.  The copy therefore
    still parses as a perfectly valid archive — raw byte flips would trip
    the zip CRC first — and the only thing standing between the corrupted
    weights and production traffic is the artifact fingerprint check
    (``load_model(verify=True)``), which is exactly the gate under test.
    """
    path = pathlib.Path(path)
    out_path = pathlib.Path(out_path)
    with np.load(path, allow_pickle=False) as archive:
        entries = {key: np.array(archive[key], copy=True) for key in archive.files}
    rng = np.random.default_rng(seed)
    # Only float payloads: flipped value bytes stay loadable (the point is
    # garbage *predictions*, caught by the fingerprint), whereas a flipped
    # CSR index array would crash matrix construction outright.
    victims = [
        key
        for key in sorted(entries)
        if not key.startswith("__")
        and entries[key].nbytes > 0
        and entries[key].dtype.kind == "f"
    ]
    if not victims:
        raise ValueError(f"{path} has no weight arrays to corrupt")
    victim = victims[int(rng.integers(len(victims)))]
    blob = bytearray(entries[victim].tobytes())
    for offset in rng.integers(0, len(blob), size=n_flips):
        blob[int(offset)] ^= 0xFF
    entries[victim] = np.frombuffer(bytes(blob), dtype=entries[victim].dtype).reshape(
        entries[victim].shape
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **entries)
    out_path.write_bytes(buffer.getvalue())
    return out_path


def malformed_payloads(seed: int = 0, n: int = 8) -> list[bytes]:
    """A deterministic zoo of broken ``POST /predict`` bodies.

    Covers the parser's distinct failure classes: not JSON, wrong top-level
    type, missing/empty/ragged ``inputs``, non-numeric examples, and raw
    binary garbage.  The seed only shuffles/extends the garbage entries —
    the structured cases are always present.
    """
    rng = np.random.default_rng(seed)
    zoo: list[bytes] = [
        b"{not json at all",
        b"[]",
        json.dumps({"wrong_key": [[1.0]]}).encode(),
        json.dumps({"inputs": []}).encode(),
        json.dumps({"inputs": "not-a-list"}).encode(),
        json.dumps({"inputs": [["a", "b"], [1.0, 2.0]]}).encode(),
        json.dumps({"inputs": [[1.0, 2.0], [1.0]]}).encode(),
    ]
    while len(zoo) < n:
        zoo.append(bytes(rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8)))
    return zoo[:n]
