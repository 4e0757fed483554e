"""Span tracing from outside the package.

The tracer replaces module and class attributes that lybandit looks up at
call time (``lybandit.harness.simulate_batch``, ``lybandit.engine._Outcomes.draw``,
...) with timing wrappers.  Spans are kept in memory as flat
``(name, start_ns, end_ns, parent)`` records and written once at exit.  A
wrapped name that no longer exists is recorded as absent instead of failing,
so the trace keeps working across refactors of the package.

Random streams that the engine gets from ``episode_env_rng`` /
``episode_policy_rng`` are handed out behind a proxy whose ``random`` is timed; it delegates to the real
generator, so every drawn number is unchanged.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (attribute looked up at call time, span name); several attributes may
# share a span name when the same layer is reached through several modules.
# Write spans include the scaling report that write_scaling_csv computes.
WRAPPED = (
    ("lybandit.cli.load_config", "cli.load_config"),
    ("lybandit.cli.write_results_csv", "cli.write_csv"),
    ("lybandit.cli.write_scaling_csv", "cli.write_csv"),
    ("lybandit.cli.run_batch", "harness.run_batch"),
    ("lybandit.harness.solve_lfp", "oracle.solve_lfp"),
    ("lybandit.harness.derive_bounds", "model.derive_bounds"),
    ("lybandit.harness._aggregate_cell", "harness.aggregate"),
    ("lybandit.harness.simulate_batch", "engine.simulate_batch"),
    ("lybandit.engine._Outcomes.draw", "engine.draw"),
    ("lybandit.engine._gamma_matrix", "policies.index"),
    ("lybandit.engine.episode_env_rng", "model.rng_init"),
    ("lybandit.engine.episode_policy_rng", "model.rng_init"),
)
REFILL = "model.refill"


class _TimedGenerator:
    """Generator stand-in whose ``random`` calls are recorded as spans."""

    __slots__ = ("_gen", "_tracer", "_nid")

    def __init__(self, gen, tracer: "Tracer", nid: int):
        self._gen = gen
        self._tracer = tracer
        self._nid = nid

    def random(self, *args, **kwargs):
        return self._tracer.call(self._nid, self._gen.random, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Records nested spans and batch counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # flat (name id, start ns, end ns, parent index)
        self.counters = {"pulls": 0, "epochs": 0, "episode_slots": 0}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._refill = self.name_id(REFILL)
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def call(self, nid: int, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans) >> 2
        spans.extend((nid, perf_counter_ns(), 0, stack[-1] if stack else -1))
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[4 * idx + 2] = perf_counter_ns()
            stack.pop()

    def _count_batch(self, batch):
        n = np.asarray(batch.n_pulls)
        longest = int(n.max()) if n.size else 0
        self.counters["pulls"] += int(n.sum())
        self.counters["epochs"] += longest
        self.counters["episode_slots"] += longest * int(n.size)
        return batch

    def _timed_rng(self, gen):
        return _TimedGenerator(gen, self, self._refill)

    def install(self) -> None:
        for path, span in WRAPPED:
            owner, attr = _resolve(path)
            if owner is None:
                self.absent.append(path)
                continue
            original = getattr(owner, attr)
            post = None
            if span == "engine.simulate_batch":
                post = self._count_batch
            elif span == "model.rng_init":
                post = self._timed_rng
            setattr(owner, attr, self._wrap(original, self.name_id(span), post))
            self._restore.append((owner, attr, original))

    def _wrap(self, fn, nid: int, post):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(nid, fn, args, kwargs)
            return post(result) if post is not None else result

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, prefix: Path) -> None:
        """Write the spans (binary int64 records) and a JSON index."""
        with open(f"{prefix}.bin", "wb") as fh:
            self.spans.tofile(fh)
        meta = {"names": self.names, "counters": self.counters, "absent": self.absent}
        Path(f"{prefix}.json").write_text(json.dumps(meta), encoding="utf-8")


def _resolve(path: str):
    """(owner, attribute) for a dotted name, or (None, None) if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        attr = parts[-1]
        if isinstance(owner, type):
            return (owner, attr) if attr in owner.__dict__ else (None, None)
        return (owner, attr) if callable(getattr(owner, attr, None)) else (None, None)
    return None, None


def load(prefix: Path) -> tuple[dict, np.ndarray]:
    meta = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    records = np.fromfile(f"{prefix}.bin", dtype=np.int64).reshape(-1, 4)
    return meta, records


def span_totals(meta: dict, records: np.ndarray) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; the traced workloads are single-threaded, so children of one
    span never overlap.
    """
    names = meta["names"]
    out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    if records.size == 0:
        return out
    name, start, end, parent = records.T
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    k = len(names)
    count = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=dur - child, minlength=k)
    for i, label in enumerate(names):
        out[label] = {
            "count": int(count[i]),
            "total_s": float(total[i]) / 1e9,
            "self_s": float(own[i]) / 1e9,
        }
    return out


def layer_metrics(meta: dict, records: np.ndarray) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced process; 0 for a layer not entered.

    ``*_s`` values are inclusive span totals, ``*.self_s`` exclude child spans.
    """
    spans = span_totals(meta, records)
    zero = {"count": 0, "total_s": 0.0, "self_s": 0.0}

    def total(name: str) -> tuple[float, str]:
        return spans.get(name, zero)["total_s"], "s"

    def own(name: str) -> tuple[float, str]:
        return spans.get(name, zero)["self_s"], "s"

    def count(name: str) -> tuple[float, str]:
        return float(spans.get(name, zero)["count"]), "count"

    counters = meta["counters"]
    batch_s = total("engine.simulate_batch")[0]
    pulls = counters["pulls"]
    slots = counters["episode_slots"]
    return {
        "engine.simulate_batch_s": total("engine.simulate_batch"),
        "engine.ns_per_pull": (batch_s * 1e9 / pulls if pulls else 0.0, "ns"),
        "engine.self_s": own("engine.simulate_batch"),
        "engine.epochs": (float(counters["epochs"]), "count"),
        "engine.useful_epoch_frac": (pulls / slots if slots else 0.0, "ratio"),
        "engine.draw_s": total("engine.draw"),
        "policies.index_s": total("policies.index"),
        "policies.index_calls": count("policies.index"),
        "model.rng_init_s": total("model.rng_init"),
        "model.rng_inits": count("model.rng_init"),
        "model.refill_s": total(REFILL),
        "oracle.solve_lfp_s": total("oracle.solve_lfp"),
        "model.derive_bounds_s": total("model.derive_bounds"),
        "harness.run_batch_s": total("harness.run_batch"),
        "harness.aggregate_s": total("harness.aggregate"),
        "harness.self_s": own("harness.run_batch"),
        "harness.chunks": count("engine.simulate_batch"),
        "cli.load_config_s": total("cli.load_config"),
        "cli.write_csv_s": total("cli.write_csv"),
    }
