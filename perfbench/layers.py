"""What the drivers share: the metric tables, percentiles, the outcome of
a run, and span tracing from outside the program.

The traced run wraps public calls at each layer boundary -- from the
benchmark's own files; nothing under ``src/`` knows it is being traced.
Every wrapped call records one span: its name, start, end, parent span
and, where the call carries one, the message id.  Spans are held in
memory and written out when the run ends.  A layer's self time is its
spans' duration minus the part their child spans cover.

:func:`install_tcp` wraps the layers the TCP workloads cross.  The shard
workload runs its lanes in a worker process, so its layer numbers come
from the coordinator's calls and the worker's counters instead
(see :mod:`shard_driver`).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Every per-layer metric with its unit, in report order.  The traced run
#: prints all of them on every workload; a layer a workload bypasses
#: reads 0 (no calls were made into it).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("gen.late_p99_ms", "ms"),
    ("gen.offered_ratio", "ratio"),
    ("net.host.invoke_us_per_msg", "us"),
    ("net.host.deliver_us_per_msg", "us"),
    ("net.host.pending_local_calls_per_msg", "count"),
    ("net.host.pending_local_us_per_call", "us"),
    ("net.transport.transmit_us_per_msg", "us"),
    ("net.transport.frames_per_flush", "count"),
    ("net.transport.queue_depth_max", "count"),
    ("net.transport.frames_shed", "count"),
    ("net.codec.encode_us_per_frame", "us"),
    ("net.codec.decode_us_per_frame", "us"),
    ("net.codec.frames_per_msg", "count"),
    ("net.codec.bytes_per_msg", "B"),
    ("protocols.on_invoke_us_per_msg", "us"),
    ("protocols.on_user_message_us_per_msg", "us"),
    ("protocols.tag_bytes_per_msg", "B"),
    ("simulation.trace.records_per_msg", "count"),
    ("simulation.trace.record_us", "us"),
    ("obs.bus.emits_per_msg", "count"),
    ("obs.bus.emit_us_per_msg", "us"),
    ("obs.flight.records_per_msg", "count"),
    ("verification.advance_us_per_event", "us"),
    ("verification.checks_per_event", "count"),
    ("verification.lag_max_events", "count"),
    ("verification.verdict_drain_s", "s"),
    ("wal.appends_per_msg", "count"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_msg", "B"),
    ("wal.sync_ms_p99", "ms"),
    ("net.shard.coordinator_cpu_us_per_msg", "us"),
    ("net.shard.worker_cpu_us_per_msg", "us"),
    ("net.shard.rows_per_batch", "count"),
    ("net.shard.drain_s", "s"),
    ("net.shard.oracle_s", "s"),
    ("loop.busy_share", "ratio"),
    ("trace.overhead_us_per_msg", "us"),
)


#: The end-to-end metrics every workload prints, with units.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sat_msgs_per_s", "msg/s"),
    ("cpu_us_per_msg", "us"),
    ("p50_ms", "ms"),
    ("rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


@dataclass
class Outcome:
    """What one benchmark run measured and how its outputs checked out."""

    metrics: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failures: Dict[str, int]
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


#: Spans whose individual durations a metric needs (a percentile).
KEEP_DURATIONS = frozenset({"wal.sync"})


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def block_percentiles(
    samples: Sequence[Sequence[float]],
    points: Sequence[float] = (50, 95, 99),
    block: int = 1000,
) -> Tuple[float, ...]:
    """Median over blocks of consecutive trials of each percentile in
    ``points``.

    Trials are pooled in order into blocks of at least ``block`` samples
    (a short tail joins the last block), so every block's p99 has at least
    ten samples beyond it.  The median across blocks keeps one trial that
    met a burst of machine noise from setting the run's figure.
    """
    blocks: List[List[float]] = []
    current: List[float] = []
    for trial in samples:
        current.extend(trial)
        if len(current) >= block:
            blocks.append(current)
            current = []
    if current:
        if blocks:
            blocks[-1].extend(current)
        else:
            blocks.append(current)
    if not blocks:
        return tuple(0.0 for _ in points)
    return tuple(
        statistics.median(percentile(b, point) for b in blocks) for point in points
    )


def self_times(parents: Sequence[int], durations: Sequence[float]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from synchronous calls on one thread, so a child lies
    wholly inside its parent and children never overlap one another.
    """
    covered = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    return [duration - child for duration, child in zip(durations, covered)]


class Tracer:
    """In-memory span recorder behind the call wrappers.

    Spans are kept column-wise (one list per field) so recording one is a
    handful of list appends.  Recording happens only while
    :attr:`enabled`; a disabled wrapper costs one attribute test.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.message_ids: List[Optional[str]] = []
        self._stack: List[int] = []
        #: Named counters recorded at the same boundaries (bytes, depths).
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        #: name -> [calls, self seconds, durations] over folded recordings.
        self.folded: Dict[str, list] = {}
        self.last: List[tuple] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        message_id: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call while enabled.

        ``message_id`` extracts the id from the call's arguments; ``after``
        sees the result and arguments, to update counters.
        """
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, ids, stack = self.parents, self.message_ids, self._stack
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            # An awaited call's span is its wall time.  It is not pushed
            # as a parent: other tasks run while it waits.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                index = len(names)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                ids.append(None)
                ends.append(0.0)
                starts.append(clock())
                try:
                    return await fn(*args, **kwargs)
                finally:
                    ends[index] = clock()

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ids.append(message_id(args, kwargs) if message_id is not None else None)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def patch(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        """Replace ``owner.attribute`` with a wrapped version (undone by
        :meth:`uninstall`).  Properties wrap their getter; a method a class
        inherits is wrapped on that class alone."""
        if isinstance(owner, type):
            original = next(
                klass.__dict__[attribute]
                for klass in owner.__mro__
                if attribute in klass.__dict__
            )
            own = attribute in owner.__dict__
        else:
            original, own = getattr(owner, attribute), True
        if isinstance(original, property):
            replacement: Any = property(self.wrap(name, original.fget, **options))
        else:
            replacement = self.wrap(name, original, **options)
        setattr(owner, attribute, replacement)
        if own:
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            self._undo.pop()()

    # -- reduction -------------------------------------------------------------

    def fold(self) -> None:
        """Reduce the recorded spans into the running per-name totals and
        start a fresh recording; the folded spans stay for :meth:`dump`."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = self_times(self.parents, durations)
        for name, duration, self_time in zip(self.names, durations, own):
            total = self.folded.setdefault(name, [0, 0.0, []])
            total[0] += 1
            total[1] += self_time
            if name in KEEP_DURATIONS:
                total[2].append(duration)
        self.last = list(
            zip(self.names, self.starts, self.ends, self.parents, self.message_ids)
        )
        for column in (self.names, self.starts, self.ends, self.parents, self.message_ids):
            del column[:]

    def calls(self, name: str) -> int:
        return self.folded.get(name, (0, 0.0, []))[0]

    def self_seconds(self, name: str) -> float:
        return self.folded.get(name, (0, 0.0, []))[1]

    def durations(self, name: str) -> List[float]:
        return self.folded.get(name, (0, 0.0, []))[2]

    def dump(self, path: str) -> None:
        """Write the last folded recording's spans as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "message_id"],
                    "spans": self.last,
                },
                handle,
            )


# -- the TCP layers -----------------------------------------------------------


def _arg_id(position: int) -> Callable[[tuple, dict], Optional[str]]:
    def extract(args: tuple, kwargs: dict) -> Optional[str]:
        return getattr(args[position], "id", None) if len(args) > position else None

    return extract


def _packet_id(args: tuple, kwargs: dict) -> Optional[str]:
    message = getattr(args[2], "message", None) if len(args) > 2 else None
    return message.id if message is not None else None


def _event_id(args: tuple, kwargs: dict) -> Optional[str]:
    return getattr(args[3], "message_id", None) if len(args) > 3 else None


def _probe_id(args: tuple, kwargs: dict) -> Optional[str]:
    return kwargs.get("message_id")


def install_tcp(tracer: Tracer, protocol_classes: Iterable[type]) -> None:
    """Wrap the public calls at every layer boundary the TCP path crosses."""
    from repro.net import codec
    from repro.net.host import NetHost, NetProtocolHost
    from repro.net.transport import AsyncTransport
    from repro.obs.bus import Bus
    from repro.simulation.trace import Trace
    from repro.verification.engine import SpecMonitor
    from repro.wal.segment import SegmentWriter

    counters, maxima = tracer.counters, tracer.maxima

    def count_frame(result: bytes, args: tuple) -> None:
        counters["codec.frames"] += 1
        counters["codec.bytes"] += len(result)

    flushed_at: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()

    def count_flush(result: None, args: tuple) -> None:
        # Frames queue in the coalescing outbox between flushes, and
        # ``frames_sent`` counts them as they queue, so its growth since
        # the previous traced flush is this flush's depth.  A transport's
        # first traced flush only sets the baseline.
        transport = args[0]
        sent = transport.frames_sent
        previous = flushed_at.get(transport)
        flushed_at[transport] = sent
        if previous is not None:
            counters["transport.flushes"] += 1
            counters["transport.flushed_frames"] += sent - previous
            maxima["transport.depth"] = max(maxima["transport.depth"], sent - previous)

    tracer.patch(NetHost, "invoke", "net.host.invoke", message_id=_arg_id(1))
    tracer.patch(NetProtocolHost, "deliver", "net.host.deliver", message_id=_arg_id(1))
    tracer.patch(NetProtocolHost, "pending_local", "net.host.pending_local")
    tracer.patch(
        AsyncTransport, "transmit", "net.transport.transmit", message_id=_packet_id
    )
    tracer.patch(
        AsyncTransport, "flush_outboxes", "net.transport.flush", after=count_flush
    )
    tracer.patch(codec, "encode_frame", "net.codec.encode", after=count_frame)
    # ``read_frame`` awaits the socket; its synchronous decode step is the
    # part that costs CPU, so the span wraps that step alone.
    tracer.patch(codec, "_decode_payload", "net.codec.decode")
    for cls in protocol_classes:
        tracer.patch(cls, "on_invoke", "protocols.on_invoke", message_id=_arg_id(2))
        tracer.patch(
            cls,
            "on_user_message",
            "protocols.on_user_message",
            message_id=_arg_id(2),
        )
    tracer.patch(Trace, "record", "simulation.trace.record", message_id=_event_id)
    tracer.patch(Bus, "emit", "obs.bus.emit", message_id=_probe_id)
    tracer.patch(SpecMonitor, "advance", "verification.advance")
    tracer.patch(SegmentWriter, "append", "wal.append")
    tracer.patch(SegmentWriter, "sync", "wal.sync")


def tcp_layer_metrics(
    tracer: Tracer, messages: int, deltas: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of the folded, traced saturated phases.

    ``messages`` is the number delivered while tracing; ``deltas`` holds
    the program's own counters read before and after (trace records,
    flight records, tag bytes, WAL bytes, monitor work, sheds).
    """
    per = max(1, messages)
    calls, self_s = tracer.calls, tracer.self_seconds

    def us_per(name: str, denominator: float) -> float:
        return self_s(name) * 1e6 / denominator if denominator else 0.0

    counters, maxima = tracer.counters, tracer.maxima
    frames = counters.get("codec.frames", 0.0)
    flushes = counters.get("transport.flushes", 0.0)
    sync_ms = [d * 1000.0 for d in tracer.durations("wal.sync")]
    return {
        "net.host.invoke_us_per_msg": us_per("net.host.invoke", per),
        "net.host.deliver_us_per_msg": us_per("net.host.deliver", per),
        "net.host.pending_local_calls_per_msg": calls("net.host.pending_local") / per,
        "net.host.pending_local_us_per_call": us_per(
            "net.host.pending_local", calls("net.host.pending_local")
        ),
        "net.transport.transmit_us_per_msg": us_per("net.transport.transmit", per)
        + us_per("net.transport.flush", per),
        "net.transport.frames_per_flush": (
            counters.get("transport.flushed_frames", 0.0) / flushes if flushes else 0.0
        ),
        "net.transport.queue_depth_max": maxima.get("transport.depth", 0.0),
        "net.transport.frames_shed": deltas.get("frames_shed", 0.0),
        "net.codec.encode_us_per_frame": us_per("net.codec.encode", frames),
        "net.codec.decode_us_per_frame": us_per(
            "net.codec.decode", calls("net.codec.decode")
        ),
        "net.codec.frames_per_msg": frames / per,
        "net.codec.bytes_per_msg": counters.get("codec.bytes", 0.0) / per,
        "protocols.on_invoke_us_per_msg": us_per("protocols.on_invoke", per),
        "protocols.on_user_message_us_per_msg": us_per(
            "protocols.on_user_message", per
        ),
        "protocols.tag_bytes_per_msg": (
            deltas.get("tag_bytes", 0.0) / deltas["user_messages"]
            if deltas.get("user_messages")
            else 0.0
        ),
        "simulation.trace.records_per_msg": calls("simulation.trace.record") / per,
        "simulation.trace.record_us": us_per(
            "simulation.trace.record", calls("simulation.trace.record")
        ),
        "obs.bus.emits_per_msg": calls("obs.bus.emit") / per,
        "obs.bus.emit_us_per_msg": us_per("obs.bus.emit", per),
        "obs.flight.records_per_msg": deltas.get("flight_records", 0.0) / per,
        "verification.advance_us_per_event": us_per(
            "verification.advance", deltas.get("monitor_events", 0.0)
        ),
        "verification.checks_per_event": (
            deltas.get("monitor_searches", 0.0) / deltas["monitor_checked"]
            if deltas.get("monitor_checked")
            else 0.0
        ),
        "verification.lag_max_events": maxima.get("monitor.lag", 0.0),
        "verification.verdict_drain_s": deltas.get("verdict_drain_s", 0.0),
        "wal.appends_per_msg": calls("wal.append") / per,
        "wal.append_us": us_per("wal.append", calls("wal.append")),
        "wal.bytes_per_msg": deltas.get("wal_bytes", 0.0) / per,
        "wal.sync_ms_p99": percentile(sync_ms, 99),
    }
