"""Benchmark-side spans around the calls into each ``repro`` layer.

Nothing here edits the program: :func:`install` replaces class
attributes with timing wrappers, so it must run *before* ``build_round``
(components bind methods and probe bundles at construction).  Two kinds
of span are recorded:

* **call spans** around the public entry points listed in
  :data:`ENTRY_POINTS` and every mobility model's ``position`` /
  ``positions_at_time``;
* **event spans** around every callback the simulator dispatches,
  attributed to a layer by the module that defines the callback (a
  process resumption by its generator's module).  They keep private
  event handlers such as the medium's instant-end drain or the AP's
  flow tick from landing in the scheduler's self time.

Spans are recorded only while :attr:`SpanRecorder.active` is set, which
the harness does around each round's step loop, so the layer self times
partition the traced step time (round building and row collection are
timed by the harness).  A span's self time is its duration minus the
time its child spans cover.  Aggregates (self time, call count and
direct-child count per span name) are exact; the individual spans
(name, start, end, parent, round id) go to a bounded in-memory buffer
that :meth:`SpanRecorder.dump` writes out when the run ends.

A span's own bookkeeping runs outside its start/end window, inside its
parent's, so it would be charged to the parent's self time.
:func:`span_overhead_s` measures that cost per span on an empty wrapped
call; the report takes ``children × overhead`` out of each parent and
reports the total on its own line.
"""

from __future__ import annotations

from array import array
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Layers the traced step time is attributed to, in report order.
LAYERS = (
    "sim",
    "mac.medium",
    "mac.interface",
    "radio.sample",
    "radio.batch",
    "radio.fer",
    "core",
    "net",
    "mobility",
    "trace",
)

#: (module, class, method, layer) of every wrapped public call.
ENTRY_POINTS = (
    ("repro.sim.simulator", "Simulator", "run", "sim"),
    ("repro.mac.medium", "Medium", "transmit", "mac.medium"),
    ("repro.mac.medium", "Medium", "busy", "mac.medium"),
    ("repro.mac.interface", "NetworkInterface", "send", "mac.interface"),
    ("repro.mac.interface", "NetworkInterface", "deliver", "core"),
    ("repro.radio.channel", "Channel", "sample", "radio.sample"),
    ("repro.radio.channel", "Channel", "sample_batch", "radio.batch"),
    ("repro.radio.channel", "Channel", "sample_multibatch", "radio.batch"),
    ("repro.radio.channel", "Channel", "frame_delivered", "radio.fer"),
    ("repro.radio.channel", "Channel", "frames_delivered_batch", "radio.fer"),
    ("repro.radio.channel", "Channel", "delivery_draws", "radio.fer"),
    ("repro.core.engine", "ProtocolPool", "deliver_broadcast", "core"),
    ("repro.trace.capture", "TraceCollector", "on_tx", "trace"),
    ("repro.trace.capture", "TraceCollector", "on_rx", "trace"),
)

#: Layer of an event callback, by the ``repro`` package path of its code.
_EVENT_LAYERS = (
    ("mac/medium", "mac.medium"),
    ("mac/", "mac.interface"),
    ("core/", "core"),
    ("baselines/", "core"),
    ("net/", "net"),
    ("mobility/", "mobility"),
    ("trace/", "trace"),
    ("sim/", "sim"),
)

#: Spans kept individually for the dump; aggregates never drop any.
SPAN_CAPACITY = 200_000


class SpanRecorder:
    """Span stack, per-name aggregates and a bounded span buffer."""

    def __init__(self, capacity: int = SPAN_CAPACITY) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Direct child spans of every span of a name.
        self.children: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        self.lanes = 0
        self.round_id = -1
        self.active = False
        self._capacity = capacity
        self._next_id = 0
        # Root frame: [span id, seconds covered by child spans, child spans].
        self._stack: list[list] = [[-1, 0.0, 0]]
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        # One slot more than the capacity: spans past it all write the
        # last slot, so every span costs the same bookkeeping.
        slots = capacity + 1
        self._cols = {
            "name": array("i", bytes(4 * slots)),
            "start": array("d", bytes(8 * slots)),
            "end": array("d", bytes(8 * slots)),
            "parent": array("q", bytes(8 * slots)),
            "round": array("i", bytes(4 * slots)),
        }

    @property
    def spans(self) -> int:
        """Spans recorded so far."""
        return self._next_id

    @property
    def dropped(self) -> int:
        """Spans past the buffer's capacity (counted in the aggregates only)."""
        return max(self._next_id - self._capacity, 0)

    def wrap(self, name: str, layer: str, fn, *, lanes_arg: int | None = None):
        """*fn* wrapped in a span called *name*, attributed to *layer*.

        ``lanes_arg`` names the positional argument whose length is added
        to :attr:`lanes` (the candidate count of a batch sampling call).
        """
        self.layer_of[name] = layer
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        index = self._name_index[name]
        stack = self._stack
        self_s, calls, children = self.self_s, self.calls, self.children
        cols = self._cols
        starts, ends, parents, rounds, names = (
            cols["start"], cols["end"], cols["parent"], cols["round"], cols["name"]
        )
        capacity = self._capacity
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1]
            frame = [span_id, 0.0, 0]
            stack.append(frame)
            if lanes_arg is not None:
                recorder.lanes += len(args[lanes_arg])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                parent[2] += 1
                self_s[name] += duration - frame[1]
                children[name] += frame[2]
                calls[name] += 1
                slot = span_id if span_id < capacity else capacity
                names[slot] = index
                starts[slot] = start
                ends[slot] = end
                parents[slot] = parent[0]
                rounds[slot] = recorder.round_id

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        """Write the kept spans and the aggregates to a ``.npz`` file."""
        import numpy as np

        kept = min(self._next_id, self._capacity)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self._names),
            dropped=np.array(self.dropped),
            **{
                key: np.frombuffer(col, dtype=col.typecode)[:kept]
                for key, col in self._cols.items()
            },
        )


def _calibration_loop(fn, calls: int) -> None:
    for _ in range(calls):
        fn()


def _empty() -> None:
    pass


def span_overhead_s(calls: int = 20_000, trials: int = 9) -> float:
    """Seconds one child span's bookkeeping adds to its parent's self time.

    Per trial, a wrapped loop calls a wrapped empty function *calls*
    times; the loop's self time, less the same loop calling the bare
    function, is the bookkeeping of *calls* child spans.  Median of
    *trials*, alternating the two loops.
    """
    samples = []
    for _ in range(trials):
        recorder = SpanRecorder(capacity=calls + 1)
        child = recorder.wrap("child", "calibration", _empty)
        parent = recorder.wrap("parent", "calibration", _calibration_loop)
        recorder.active = True
        parent(child, calls)
        recorder.active = False
        start = perf_counter()
        _calibration_loop(_empty, calls)
        bare = perf_counter() - start
        samples.append((recorder.self_s["parent"] - bare) / calls)
    return statistics.median(samples)


def _event_layer(code) -> str:
    path = code.co_filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "unattributed"
    relative = path[marker + len("/repro/"):]
    for prefix, layer in _EVENT_LAYERS:
        if relative.startswith(prefix):
            return layer
    return "unattributed"


def _event_span(recorder: SpanRecorder, cache: dict, callback):
    """The span wrapper to schedule in place of *callback*, which becomes its first argument."""
    func = getattr(callback, "__func__", callback)
    code = getattr(func, "__code__", None)
    if code is not None and code.co_name == "_resume":
        generator = getattr(getattr(callback, "__self__", None), "_generator", None)
        code = getattr(generator, "gi_code", code)
    wrapped = cache.get(code)
    if wrapped is None:
        layer = "unattributed" if code is None else _event_layer(code)
        label = "event:" + (code.co_qualname if code is not None else repr(func))
        wrapped = cache[code] = recorder.wrap(label, layer, _call)
    return wrapped


def _call(callback, *args):
    return callback(*args)


def _mobility_classes():
    from repro.mobility.base import MobilityModel

    pending, seen = [MobilityModel], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point and the simulator's scheduling calls."""
    import importlib

    import repro.scenarios  # noqa: F401  (registers plugins, loads models)
    from repro.sim.event import Priority
    from repro.sim.simulator import Simulator

    for module_name, class_name, method, layer in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        lanes = 2 if method in ("sample_batch", "sample_multibatch") else None
        setattr(
            cls,
            method,
            recorder.wrap(
                f"{class_name}.{method}", layer, getattr(cls, method), lanes_arg=lanes
            ),
        )
    for cls in _mobility_classes():
        for method in ("position", "positions_at_time"):
            raw = cls.__dict__.get(method)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            name = f"{cls.__name__}.{method}"
            if isinstance(raw, staticmethod):
                setattr(cls, method, staticmethod(recorder.wrap(name, "mobility", raw.__func__)))
            else:
                setattr(cls, method, recorder.wrap(name, "mobility", raw))

    cache: dict = {}
    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at

    def traced_schedule(self, delay, callback, *args, priority=Priority.NORMAL):
        span = _event_span(recorder, cache, callback)
        return schedule(self, delay, span, callback, *args, priority=priority)

    def traced_schedule_at(self, time, callback, *args, priority=Priority.NORMAL):
        span = _event_span(recorder, cache, callback)
        return schedule_at(self, time, span, callback, *args, priority=priority)

    Simulator.schedule = traced_schedule
    Simulator.schedule_at = traced_schedule_at
