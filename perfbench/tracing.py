"""Per-layer tracing of ``repro-ft`` from outside the program.

The traced child is ``python perfbench/tracing.py SPAWN_T SPANS_PATH --
REPRO_FT_ARGS...``.  Before handing ``REPRO_FT_ARGS`` to
``repro.cli.main`` it replaces each layer function in :data:`PATCHES`
with a wrapper that records a span (name, start, end, parent) — patching
the name the *caller* looks up, e.g. ``repro.core.painting.find_enclosing_frame``
(what ``paint_tiles`` calls), not the definition in ``core.healthiness``.
Nothing under ``src/`` changes.  Spans stay in memory and are written to
``SPANS_PATH`` when the command returns.

The root span ``api.other`` starts at ``SPAWN_T``, the parent's
``perf_counter`` reading just before it spawned this process (the clock
is ``CLOCK_MONOTONIC``, shared between processes), so interpreter start
counts as time no layer accounts for.  A layer's *self* time is its span
durations minus the time covered by its child spans
(:func:`self_times`), so self times of all spans sum to the root span.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "api.other"

#: Fallback outcome categories reported by name; anything else is "other".
FALLBACK_CATEGORIES = ("ok", "no-frame", "region-overflow", "segment-overflow")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent_index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        #: Route lengths of the last ``build_routes_batch`` call, read by
        #: the ``simulate_batch`` hook to count hops of delivered messages.
        self.last_lengths = None

    def begin(self, name: str, at: float | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if at is None else at, 0.0, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump({"spans": [tuple(s) for s in self.spans],
                          "counters": self.counters}, fh)


def load(path) -> dict:
    """Read a span file written by :meth:`Tracer.dump` (this benchmark's own)."""
    with open(path, "rb") as fh:
        return marshal.load(fh)


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, tuple[float, int]]:
    """``{name: (self seconds, calls)}`` over ``(name, start, end, parent)`` spans.

    Self time is a span's duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[float, int]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(idx, []), start, end)
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + own, calls + 1)
    return out


# -- what gets wrapped --------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

    ``span`` names the recorded span; ``None`` records no span and only
    bumps ``count``.  With ``within`` set, the wrapper records only when
    the innermost open span has that name and is a plain pass-through
    otherwise.  ``after(tracer, args, result)`` derives counters from a
    call's arguments and result.
    """

    module: str
    attr: str
    span: str | None
    within: str | None = None
    after: Callable | None = None
    count: str | None = None
    serve_only: bool = False


def _after_bn_batch(tracer, args, result) -> None:
    tracer.count("fastpath.bn_batch.trials", len(args[2]))


def _after_fallback(tracer, args, result) -> None:
    cat = result.category if result.category in FALLBACK_CATEGORIES else "other"
    tracer.count(f"api.adapters.fallback_outcome.{cat}")


def _after_routes(tracer, args, result) -> None:
    tracer.last_lengths = result[1]


def _after_simulate(tracer, args, result) -> None:
    tracer.count("sim.messages_offered", int(result.total))
    tracer.count("sim.messages_delivered", int(result.delivered))
    tracer.count("sim.cycles", int(result.cycles))
    lengths = tracer.last_lengths
    if lengths is not None and len(lengths) == len(result.message_latencies):
        tracer.count("sim.hops", int(lengths[result.message_latencies >= 0].sum()))
    tracer.last_lengths = None


def _after_event(tracer, args, result) -> None:
    tracer.count(f"serve.state.apply_event.{result.get('action')}")


PATCHES: tuple[Patch, ...] = (
    # setup / registry / runner
    Patch("repro.api.registry", "get", "api.registry.get"),
    Patch("repro.api.experiment", "_cached_construction", None,
          count="api.construction_cache.lookups"),
    Patch("repro.api.experiment", "_run_chunk", "api.experiment.run_chunk"),
    Patch("repro.analysis.montecarlo", "MCMerge.add", "api.merge"),
    Patch("repro.analysis.montecarlo", "MCMerge.finish", "api.merge"),
    Patch("repro.api.lifetime", "LifetimeMerge.add", "api.merge"),
    Patch("repro.api.lifetime", "LifetimeMerge.finish", "api.merge"),
    Patch("repro.api.traffic", "TrafficMerge.add", "api.merge"),
    Patch("repro.api.traffic", "TrafficMerge.finish", "api.merge"),
    Patch("repro.api.experiment", "ExperimentResult.to_dict", "api.serialise"),
    Patch("repro.api.experiment", "ExperimentResult.save", "api.serialise"),
    # fast straight-placement classifier and its scalar fallback
    Patch("repro.fastpath.bn_batch", "run_bn_batch", "fastpath.bn_batch.run",
          after=_after_bn_batch),
    Patch("repro.fastpath.bn_batch", "sample_bn_faults_batch", "fastpath.bn_batch.sample"),
    Patch("repro.fastpath.bn_batch", "straight_survival_batch", "fastpath.bn_batch.classify"),
    Patch("repro.api.adapters", "BnConstruction.trial", "api.adapters.fallback",
          within="fastpath.bn_batch.run", after=_after_fallback),
    Patch("repro.core.bn", "BTorus.sample_faults", "core.bn.sample_faults",
          within="api.adapters.fallback"),
    Patch("repro.core.bn", "place_bands", "core.placement.place_bands"),
    Patch("repro.core.placement", "paint_tiles", "core.painting.paint_tiles"),
    Patch("repro.core.painting", "find_enclosing_frame",
          "core.healthiness.find_enclosing_frame"),
    Patch("repro.topology.grid", "TileGeometry.frame_and_interior",
          "topology.grid.frame_and_interior"),
    Patch("repro.core.bn", "extract_torus", "core.reconstruction.extract_torus"),
    # traffic (serve's traffic queries)
    Patch("repro.fastpath.traffic_batch", "simulate_batch", "fastpath.traffic_batch.simulate",
          after=_after_simulate),
    Patch("repro.fastpath.traffic_batch", "build_routes_batch",
          "fastpath.traffic_batch.build_routes", after=_after_routes),
    # lifetime
    Patch("repro.fastpath.lifetime_batch", "run_bn_lifetime_batch", "fastpath.lifetime_batch.run"),
    Patch("repro.core.online", "OnlineRecovery.add_fault", "core.online.add_fault"),
    # serve daemon
    Patch("repro.serve.state", "get", "api.registry.get", serve_only=True),
    Patch("repro.serve.protocol", "decode_frame", "serve.protocol.decode_frame",
          serve_only=True),
    Patch("repro.serve.protocol", "encode_frame", "serve.protocol.encode_frame",
          serve_only=True),
    Patch("repro.serve.state", "MachineState.apply_event", "serve.state.apply_event",
          after=_after_event, serve_only=True),
    Patch("repro.serve.state", "MachineState.traffic_query", "serve.state.traffic_query",
          serve_only=True),
)

#: Every span name a traced run can record, root included.
SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN, "setup.import"]
                                 + [p.span for p in PATCHES if p.span]))


def _wrap(tracer: Tracer, patch: Patch, fn: Callable) -> Callable:
    span, within, after, count = patch.span, patch.within, patch.after, patch.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            tracer.count(count)
            return fn(*args, **kwargs)
        if within is not None and tracer.current() != within:
            return fn(*args, **kwargs)
        idx = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    wrapper.perfbench_wrapped = True
    return wrapper


def install(tracer: Tracer, *, serve: bool) -> None:
    """Patch every layer function the command can reach."""
    for patch in PATCHES:
        if patch.serve_only and not serve:
            continue
        owner = importlib.import_module(patch.module)
        *path, name = patch.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, name)
        # A name bound by ``from ... import`` after an earlier patch is
        # already the wrapper; wrapping it twice would count calls twice.
        if not getattr(fn, "perfbench_wrapped", False):
            setattr(owner, name, _wrap(tracer, patch, fn))


def main(argv: list) -> int:
    spawned, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPAWN_T SPANS_PATH -- REPRO_FT_ARGS...")
    tracer = Tracer()
    root = tracer.begin(ROOT_SPAN, at=float(spawned))
    imports = tracer.begin("setup.import")
    import repro.cli

    install(tracer, serve="serve" in cli_args)
    tracer.end(imports)
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.end(root)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
