"""Seeded driver for the in-process TCP workloads (tcp-fifo, causal-live).

One trial builds a fresh three-host cluster on the running event loop --
the composition :func:`repro.net.cluster.run_cluster` uses, called through
its public pieces so each step is timed on its own -- and runs three
phases on it:

warm-up
    a short closed loop that lets lazy set-up finish before timing;
paced
    an open loop: message ``i`` is due at ``start + i / rate`` and is
    offered by ``loop.call_at``, whatever the cluster's state.  Latency
    runs from the due time to the receiver's delivery hook, so a stall
    also counts against every message queued behind it;
saturated
    a closed loop that keeps ``window`` messages outstanding until a fixed
    count is delivered (and, with a live monitor, until the monitor has
    consumed every event and returned its verdict).

Messages enter through the public ``NetHost.invoke`` and are seen through
the public ``NetHost.host.delivery_listener`` hook, so the generator opens
no connection of its own.  Message counts are fixed per workload, because
per-message cost on the net path and in the monitor grows with history.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.events import Message
from repro.net.cluster import LiveObserver, free_ports
from repro.net.host import NetHost
from repro.protocols import catalogue
from repro.verification.engine import compile_predicate

from layers import (
    PER_LAYER,
    Outcome,
    Tracer,
    block_percentiles,
    install_tcp,
    percentile,
    tcp_layer_metrics,
)

#: Processes per cluster (the paper's examples and the net tests use 3).
N_PROCESSES = 3

#: Wall seconds one phase may take before its messages count as lost.
PHASE_TIMEOUT = 60.0


@dataclass(frozen=True)
class TcpWorkload:
    """Everything that defines one TCP workload.

    ``paced_rate`` sits below the rate the saturated phase reaches, so the
    paced phase measures the latency of a cluster that keeps up.
    """

    name: str
    protocol: str
    monitor: bool
    wal: bool
    warmup: int
    paced: int
    paced_rate: float
    saturated: int
    window: int
    min_trials: int
    faults: Optional[Any] = None

    def factory(self) -> Callable[[int, int], object]:
        if self.protocol.startswith("broken-"):
            from repro.mc.mutations import mutation_factories

            return mutation_factories()[self.protocol]
        return catalogue()[self.protocol].factory

    def spec(self):
        """The ordering spec the live monitor checks (``None`` if off)."""
        if not self.monitor:
            return None
        return catalogue()[self.protocol.removeprefix("broken-")].spec


def make_inputs(
    workload: TcpWorkload, seed: int, trial: int
) -> Dict[str, List[Tuple[int, int]]]:
    """Seeded ``(sender, receiver != sender)`` pairs for each phase of a
    trial; the same ``(seed, trial)`` always gives the same pairs."""
    rng = random.Random(seed * 1_000_003 + trial)
    phases = {}
    for phase, count in (
        ("warmup", workload.warmup),
        ("paced", workload.paced),
        ("saturated", workload.saturated),
    ):
        pairs = []
        for _ in range(count):
            sender = rng.randrange(N_PROCESSES)
            receiver = rng.randrange(N_PROCESSES - 1)
            if receiver >= sender:
                receiver += 1
            pairs.append((sender, receiver))
        phases[phase] = pairs
    return phases


def cpu_seconds() -> float:
    """CPU of this process plus every reaped child, in seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def settle() -> None:
    """Let a torn-down cluster's connection handlers finish, then free
    its reference cycles now -- not in a collection that would otherwise
    land in the next trial's timed phases."""
    await asyncio.sleep(0.05)
    gc.collect()


@dataclass
class PhaseResult:
    """What one phase measured."""

    offered: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    offer_span_s: float = 0.0
    planned_span_s: float = 0.0
    verdict_drain_s: float = 0.0


class Cluster:
    """Three ``NetHost`` s (plus an optional ``LiveObserver``) on one loop.

    Every delivery passes through the listener :meth:`_listener` installs
    on each host, which keeps the correctness ledger: how many times each
    offered message was delivered, and where.
    """

    def __init__(self, workload: TcpWorkload, seed: int, work_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.hosts: List[NetHost] = []
        self.observer: Optional[LiveObserver] = None
        self.wal_dir: Optional[str] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: message id -> receiver, for every offered message.
        self.offered: Dict[str, int] = {}
        #: Checks that could not complete (a monitor verdict that never came).
        self.unfinished = 0
        self.delivered: Dict[str, int] = {}
        self.wrong_receiver = 0
        self.next_id = 0
        #: Per-phase delivery hook (set by the phase runners).
        self.on_delivery: Optional[Callable[[str, float], None]] = None
        #: Traced runs: called at each delivery with the events the hosts
        #: have recorded but the live monitor has not yet consumed.
        self.lag_sink: Optional[Callable[[int], None]] = None

    # -- set-up / tear-down ---------------------------------------------------

    async def start(self) -> None:
        """Nothing -> ready cluster (hosts rendezvoused, observer attached,
        spec compiled)."""
        workload = self.workload
        self.loop = asyncio.get_running_loop()
        run_id = "perfbench-%s-%d" % (workload.name, self.seed)
        ports = free_ports(N_PROCESSES)
        if workload.wal:
            self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.work_dir)
        factory = workload.factory()
        self.hosts = [
            NetHost(
                factory,
                process_id,
                ports,
                run_id=run_id,
                faults=workload.faults,
                observability=True,
                wal_dir=self.wal_dir,
                wal_meta={"protocol": workload.protocol} if self.wal_dir else None,
            )
            for process_id in range(N_PROCESSES)
        ]
        for host in self.hosts:
            host.host.delivery_listener = self._listener(host.process_id)
            await host.start()
        await asyncio.gather(*(host.ready() for host in self.hosts))
        spec = workload.spec()
        if spec is not None:
            for predicate in spec.predicates:
                compile_predicate(predicate)
            self.observer = LiveObserver(N_PROCESSES, spec=spec)
            await self.observer.connect(ports, run_id=run_id)

    async def stop(self) -> None:
        if self.observer is not None:
            await self.observer.close()
        for host in self.hosts:
            await host.shutdown()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        await settle()

    # -- offering and delivery ------------------------------------------------

    def _listener(self, process_id: int) -> Callable[[Message], None]:
        def on_deliver(message: Message) -> None:
            now = self.loop.time()
            mid = message.id
            self.delivered[mid] = self.delivered.get(mid, 0) + 1
            if self.offered.get(mid) != process_id:
                self.wrong_receiver += 1
            if self.on_delivery is not None:
                self.on_delivery(mid, now)
            if self.lag_sink is not None and self.observer is not None:
                recorded = sum(host.trace.record_count for host in self.hosts)
                self.lag_sink(recorded - self.observer.monitor.consumed)

        return on_deliver

    def offer(self, sender: int, receiver: int) -> str:
        """Invoke one fresh message at ``sender`` through the public API."""
        mid = "m%d" % self.next_id
        self.next_id += 1
        self.offered[mid] = receiver
        self.hosts[sender].invoke(Message(id=mid, sender=sender, receiver=receiver))
        return mid

    # -- phases ----------------------------------------------------------------

    async def closed_loop(
        self, pairs: Sequence[Tuple[int, int]], window: int, wait_verdict: bool
    ) -> PhaseResult:
        """Keep ``window`` messages outstanding until all of ``pairs`` are
        delivered; with ``wait_verdict`` also until the monitor has
        consumed every event and returned its verdict."""
        loop = self.loop
        result = PhaseResult(offered=len(pairs))
        done = loop.create_future()
        mine: Dict[str, bool] = {}
        state = {"next": 0, "delivered": 0}

        def offer_next() -> None:
            index = state["next"]
            if index < len(pairs):
                state["next"] = index + 1
                mine[self.offer(*pairs[index])] = True

        def on_delivery(mid: str, now: float) -> None:
            if mine.pop(mid, None) is None:
                return
            state["delivered"] += 1
            if state["delivered"] == len(pairs):
                if not done.done():
                    done.set_result(now)
            else:
                loop.call_soon(offer_next)

        self.on_delivery = on_delivery
        cpu0 = cpu_seconds()
        t0 = loop.time()
        for _ in range(min(window, len(pairs))):
            offer_next()
        try:
            last_delivery = await asyncio.wait_for(done, PHASE_TIMEOUT)
            if wait_verdict and self.observer is not None:
                if not await self.await_verdict(PHASE_TIMEOUT):
                    self.unfinished += 1
                result.verdict_drain_s = loop.time() - last_delivery
        except asyncio.TimeoutError:
            pass
        result.wall_s = loop.time() - t0
        result.cpu_s = cpu_seconds() - cpu0
        self.on_delivery = None
        return result

    async def paced(
        self, pairs: Sequence[Tuple[int, int]], rate: float
    ) -> PhaseResult:
        """Open loop: message ``i`` is due at ``start + i / rate``."""
        loop = self.loop
        result = PhaseResult(offered=len(pairs))
        due: Dict[str, float] = {}
        done = loop.create_future()
        state = {"delivered": 0, "last_offer": 0.0}

        def offer(index: int, due_at: float) -> None:
            now = loop.time()
            result.late_ms.append((now - due_at) * 1000.0)
            state["last_offer"] = now
            due[self.offer(*pairs[index])] = due_at

        def on_delivery(mid: str, now: float) -> None:
            due_at = due.pop(mid, None)
            if due_at is None:
                return
            result.latencies_ms.append((now - due_at) * 1000.0)
            state["delivered"] += 1
            if state["delivered"] == len(pairs) and not done.done():
                done.set_result(now)

        self.on_delivery = on_delivery
        cpu0 = cpu_seconds()
        start = loop.time() + 0.01
        handles = [
            loop.call_at(start + index / rate, offer, index, start + index / rate)
            for index in range(len(pairs))
        ]
        try:
            await asyncio.wait_for(done, PHASE_TIMEOUT + len(pairs) / rate)
        except asyncio.TimeoutError:
            pass
        finally:
            for handle in handles:
                handle.cancel()
        result.wall_s = loop.time() - start
        result.cpu_s = cpu_seconds() - cpu0
        result.planned_span_s = (len(pairs) - 1) / rate if len(pairs) > 1 else 0.0
        result.offer_span_s = state["last_offer"] - start
        self.on_delivery = None
        return result

    async def await_verdict(self, timeout: float) -> bool:
        """Wait until the observer merged and the monitor consumed every
        event of every offered message (4 per message); ``False`` if that
        did not happen within ``timeout`` seconds."""
        observer = self.observer
        monitor = observer.monitor
        expected = 4 * len(self.offered)
        deadline = self.loop.time() + timeout
        while self.loop.time() < deadline:
            if (
                observer.events_merged >= expected
                and not observer.pending_merge
                and (monitor is None or monitor.consumed >= observer.trace.record_count
                     or monitor.violation is not None)
            ):
                observer.final_check()
                return True
            await asyncio.sleep(0.0005)
        return False

    # -- the correctness gate -----------------------------------------------

    def failures(self) -> Dict[str, int]:
        """Every failure the trial produced, by kind."""
        undelivered = sum(1 for mid in self.offered if mid not in self.delivered)
        duplicated = sum(count - 1 for count in self.delivered.values() if count > 1)
        unknown = sum(1 for mid in self.delivered if mid not in self.offered)
        host_errors = sum(len(host.errors) for host in self.hosts)
        shed = sum(
            host.transport.user_shed + host.transport.control_shed
            for host in self.hosts
        )
        out = {
            "undelivered": undelivered,
            "duplicated": duplicated,
            "unknown": unknown,
            "wrong_receiver": self.wrong_receiver,
            "host_errors": host_errors,
            "frames_shed": shed,
            "unfinished_checks": self.unfinished,
        }
        if self.observer is not None:
            out["observer_errors"] = len(self.observer.errors)
            out["spec_violation"] = int(self.observer.violation is not None)
        return out

    def errors_text(self) -> List[str]:
        lines = []
        for host in self.hosts:
            lines.extend("host %d: %s" % (host.process_id, e) for e in host.errors)
        if self.observer is not None:
            lines.extend("observer: %s" % e for e in self.observer.errors)
            if self.observer.violation is not None:
                lines.append("violation: %r" % (self.observer.violation,))
        return lines

    # -- the program's own counters -------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Counters the program keeps, read between phases."""
        out = {
            "frames_shed": float(sum(
                host.transport.user_shed + host.transport.control_shed
                for host in self.hosts
            )),
            "tag_bytes": float(sum(host.stats.tag_bytes_total for host in self.hosts)),
            "user_messages": float(sum(host.stats.user_messages for host in self.hosts)),
            "flight_records": float(sum(
                host.flight.recorded for host in self.hosts if host.flight is not None
            )),
            "wal_bytes": float(_tree_bytes(self.wal_dir)) if self.wal_dir else 0.0,
        }
        if self.observer is not None:
            stats = self.observer.monitor.stats
            out.update(
                monitor_events=float(stats.events_consumed),
                monitor_checked=float(stats.events_checked),
                monitor_searches=float(stats.searches),
            )
        return out


def _tree_bytes(directory: str) -> int:
    total = 0
    for parent, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
    return total


# -- workloads ----------------------------------------------------------------

WORKLOADS: Dict[str, TcpWorkload] = {
    # fifo with the observability plane on (the ``repro serve`` default);
    # no WAL, no monitor: the net path does nearly all the work.
    "tcp-fifo": TcpWorkload(
        name="tcp-fifo",
        protocol="fifo",
        monitor=False,
        wal=False,
        warmup=200,
        paced=1000,
        paced_rate=1000.0,
        saturated=3000,
        window=64,
        min_trials=2,
    ),
    # causal-rst with obs plane, host WAL and a live causal-ordering
    # monitor on the same loop: the durable, verified deployment, where
    # the monitor's search does most of the work.
    "causal-live": TcpWorkload(
        name="causal-live",
        protocol="causal-rst",
        monitor=True,
        wal=True,
        warmup=20,
        paced=150,
        paced_rate=100.0,
        saturated=100,
        window=16,
        min_trials=10,
    ),
}

#: The negative control: a causal-rst mutant that skips the delivery
#: condition for one sender, with latency spikes that make the skip
#: reorder deliveries.  The live monitor must flag it.
CONTROL = TcpWorkload(
    name="control",
    protocol="broken-causal-rst",
    monitor=True,
    wal=True,
    warmup=0,
    paced=400,
    paced_rate=100.0,
    saturated=0,
    window=0,
    min_trials=1,
)

#: Bare set-up/tear-down cycles per run, on top of one per trial, so the
#: reported set-up median rests on enough samples.
SETUP_SAMPLES = 5


@dataclass
class TrialResult:
    """One trial's measurements and correctness ledger."""

    setup_s: float
    paced: PhaseResult
    saturated: PhaseResult
    offered: int
    failures: Dict[str, int]
    errors: List[str]
    traced: bool = False
    deltas: Dict[str, float] = field(default_factory=dict)


async def run_trial(
    workload: TcpWorkload,
    seed: int,
    trial: int,
    work_dir: str,
    tracer: Optional[Tracer] = None,
) -> TrialResult:
    """Set up a fresh cluster, run warm-up, paced and saturated phases,
    check the outcome and tear the cluster down."""
    inputs = make_inputs(workload, seed, trial)
    cluster = Cluster(workload, seed, work_dir)
    started = time.perf_counter()
    await cluster.start()
    setup_s = time.perf_counter() - started
    try:
        await cluster.closed_loop(inputs["warmup"], 16, wait_verdict=True)
        paced = await cluster.paced(inputs["paced"], workload.paced_rate)
        before = cluster.counters()
        if tracer is not None:
            maxima = tracer.maxima
            cluster.lag_sink = lambda lag: maxima.__setitem__(
                "monitor.lag", max(maxima["monitor.lag"], lag)
            )
            tracer.enabled = True
        try:
            saturated = await cluster.closed_loop(
                inputs["saturated"], workload.window, wait_verdict=True
            )
        finally:
            if tracer is not None:
                tracer.enabled = False
                cluster.lag_sink = None
        after = cluster.counters()
        deltas = {key: after[key] - before.get(key, 0.0) for key in after}
        deltas["verdict_drain_s"] = saturated.verdict_drain_s
        return TrialResult(
            setup_s=setup_s,
            paced=paced,
            saturated=saturated,
            offered=len(cluster.offered),
            failures=cluster.failures(),
            errors=cluster.errors_text(),
            traced=tracer is not None,
            deltas=deltas,
        )
    finally:
        await cluster.stop()


async def bare_setup(workload: TcpWorkload, seed: int, work_dir: str) -> float:
    """One set-up from nothing to a ready cluster, then tear-down."""
    cluster = Cluster(workload, seed, work_dir)
    started = time.perf_counter()
    await cluster.start()
    elapsed = time.perf_counter() - started
    await cluster.stop()
    return elapsed


async def run_control(seed: int, work_dir: str) -> Tuple[bool, int]:
    """Drive :data:`CONTROL` until the monitor flags it or its messages
    run out; returns (flagged, messages offered)."""
    from repro.faults import FaultPlan

    workload = dataclasses.replace(
        CONTROL, faults=FaultPlan(spike_rate=0.3, spike_delay=20.0, seed=seed)
    )
    cluster = Cluster(workload, seed, work_dir)
    await cluster.start()
    try:
        phase = asyncio.ensure_future(
            cluster.paced(make_inputs(workload, seed, 0)["paced"], workload.paced_rate)
        )
        while not phase.done() and cluster.observer.violation is None:
            await asyncio.sleep(0.01)
        if not phase.done():
            phase.cancel()
        await asyncio.gather(phase, return_exceptions=True)
        if cluster.observer.violation is None:
            await cluster.await_verdict(PHASE_TIMEOUT)
        return cluster.observer.violation is not None, len(cluster.offered)
    finally:
        await cluster.stop()


#: No new trial starts once a run has lasted this long, so a run of a
#: much slower program still ends within three minutes.
HARD_LIMIT_S = 120.0


async def run(
    name: str, seed: int, seconds: float, trace: bool, work_dir: str
) -> Outcome:
    """One benchmark run of a TCP workload.

    Fixed-size trials repeat until ``seconds`` have been spent (and at
    least ``min_trials`` ran).  In a traced run the first trial runs
    before any wrapper is installed; it is the untraced baseline for the
    tracing overhead.
    """
    workload = WORKLOADS[name]
    setups = [await bare_setup(workload, seed, work_dir) for _ in range(SETUP_SAMPLES)]
    failures: Dict[str, int] = {}
    errors: List[str] = []
    notes: List[str] = []
    if workload.monitor:
        flagged, control_offered = await run_control(seed, work_dir)
        notes.append(
            "negative control broken-causal-rst: %s after %d messages"
            % ("flagged" if flagged else "NOT flagged", control_offered)
        )
        if not flagged:
            failures["control_not_flagged"] = 1
            errors.append("the live monitor missed the broken-causal-rst control")
    began = time.monotonic()
    trials = [await run_trial(workload, seed, 0, work_dir)]
    tracer = None
    if trace:
        tracer = Tracer()
        install_tcp(tracer, {type(workload.factory()(0, N_PROCESSES))})
    try:
        # A traced run needs one traced trial after the untraced baseline.
        needed = max(workload.min_trials, 2 if trace else 1)
        while (
            len(trials) < needed or time.monotonic() - began < seconds
        ) and time.monotonic() - began < HARD_LIMIT_S:
            trials.append(
                await run_trial(workload, seed, len(trials), work_dir, tracer)
            )
            if tracer is not None:
                tracer.fold()
    finally:
        if tracer is not None:
            tracer.uninstall()
    for trial in trials:
        for kind, count in trial.failures.items():
            if count:
                failures[kind] = failures.get(kind, 0) + count
        errors.extend(trial.errors)
    plain = [trial for trial in trials if not trial.traced]
    traced = [trial for trial in trials if trial.traced]
    p50, p95, p99 = block_percentiles([trial.paced.latencies_ms for trial in plain])
    late = [x for trial in plain for x in trial.paced.late_ms]
    attempted = sum(trial.offered for trial in trials)
    failed = sum(failures.values())

    def sat_cpu_us(trial: TrialResult) -> float:
        return trial.saturated.cpu_s / trial.saturated.offered * 1e6

    metrics = {
        "setup_s": statistics.median(setups + [trial.setup_s for trial in trials]),
        "sat_msgs_per_s": statistics.median(
            trial.saturated.offered / trial.saturated.wall_s for trial in plain
        ),
        "cpu_us_per_msg": statistics.median(sat_cpu_us(trial) for trial in plain),
        "p50_ms": p50,
        "rss_mb": peak_rss_mb(),
        "ok_ratio": max(0.0, (attempted - failed) / max(1, attempted)),
    }
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update(
        {
            "gen.late_p99_ms": percentile(late, 99),
            "gen.offered_ratio": statistics.median(
                trial.paced.planned_span_s / trial.paced.offer_span_s
                for trial in plain
            ),
            "loop.busy_share": statistics.median(
                trial.paced.cpu_s / trial.paced.wall_s for trial in plain
            ),
        }
    )
    samples = sum(len(trial.paced.latencies_ms) for trial in plain)
    notes.extend(generator_flags(layers, None if trace else samples))
    notes.append(tail_note(p95, p99, samples))
    if tracer is not None and traced:
        deltas: Dict[str, float] = {}
        for trial in traced:
            for key, value in trial.deltas.items():
                deltas[key] = deltas.get(key, 0.0) + value
        deltas["verdict_drain_s"] = statistics.median(
            trial.saturated.verdict_drain_s for trial in traced
        )
        layers.update(
            tcp_layer_metrics(
                tracer, sum(trial.saturated.offered for trial in traced), deltas
            )
        )
        layers["trace.overhead_us_per_msg"] = statistics.median(
            sat_cpu_us(trial) for trial in traced
        ) - statistics.median(sat_cpu_us(trial) for trial in plain)
        tracer.dump(os.path.join(work_dir, "spans-%s-seed%d.json" % (name, seed)))
    return Outcome(
        metrics=metrics,
        layers=layers,
        attempted=attempted,
        failures=failures,
        errors=errors,
        notes=notes,
    )


def tail_note(p95: float, p99: float, samples: int) -> str:
    """The tail is printed for people, not gated: on a shared machine its
    run-to-run spread comes too close to the largest bound a gate may use."""
    return "paced p95 %.4f ms, p99 %.4f ms over %d deliveries (printed, not gated)" % (
        p95,
        p99,
        samples,
    )


def generator_flags(layers: Dict[str, float], samples: Optional[int]) -> List[str]:
    """Notes on whether the paced phase's numbers can be trusted: the
    generator finished its schedule on time (its last offer less than 2%
    of the schedule late), and (when ``samples`` is given) p99 has ten
    samples beyond it."""
    notes = []
    if layers["gen.offered_ratio"] < 0.98:
        notes.append(
            "FLAG generator fell behind its schedule: offered ratio %.3f, late p99 %.2f ms"
            % (layers["gen.offered_ratio"], layers["gen.late_p99_ms"])
        )
    if samples is not None and samples < 1000:
        notes.append("FLAG only %d paced samples: p99 has fewer than ten beyond it" % samples)
    return notes
