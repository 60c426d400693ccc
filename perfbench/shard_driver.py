"""Driver for the shard-fifo workload (``repro.net.shard``).

One trial starts a :class:`~repro.net.shard.ShardCoordinator` with one
worker process (8 paper processes, 64 ordering keys, fifo lanes) and runs
its public pieces one phase at a time.  The generator is the
coordinator's own pacer over its one ingress connection, so the trial
keeps two processes busy -- one per core on a 2-core machine.

warm-up
    a short paced load that lets lazy set-up finish before timing;
paced
    load at a fixed rate below the knee.  Each row is due when its pacer
    tick is scheduled; latency runs from that due time to the worker's
    delivery stamp, read back from the worker's delivered-row ring;
saturated
    load offered far above capacity, timed until every row is
    delivered, then the final DRAIN and (on a run's first trial and on
    traced ones) the cross-key oracle.

DRAIN is terminal on a worker, so the earlier phases end by polling STATS
until the worker has taken in and delivered every row.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.net import codec
from repro.net.cluster import Pacer, free_ports
from repro.net.shard import ShardCoordinator, cross_key_oracle

from layers import PER_LAYER, Outcome, Tracer, block_percentiles, percentile
from tcp_driver import HARD_LIMIT_S, cpu_seconds, generator_flags, settle, tail_note

N_PROCESSES = 8
KEYS = 64
WARMUP = (40_000.0, 0.25)
PACED = (50_000.0, 0.5)
#: Offered far above the ~150k rows/s one worker sustains.
SATURATED = (400_000.0, 0.5)
MIN_TRIALS = 4
SETUP_SAMPLES = 5
CATCH_UP_TIMEOUT = 60.0


# Invoke rows are ``[id, sender, receiver, key, invoked]``.
_ID = itemgetter(0)
_RECEIVER = itemgetter(2)
_ROUTE = itemgetter(1, 2, 3)


def worker_cpu_seconds(pid: int) -> float:
    """CPU a live process has used so far (ns-resolution scheduler
    accounting; ``RUSAGE_CHILDREN`` only counts reaped children)."""
    with open("/proc/%d/schedstat" % pid) as handle:
        return int(handle.read().split()[0]) / 1e9


def worker_peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


@dataclass
class ShardTrial:
    """One trial's measurements and correctness ledger."""

    setup_s: float
    sat_rate: float = 0.0
    cpu_us: float = 0.0
    coordinator_cpu_us: float = 0.0
    worker_cpu_us: float = 0.0
    rows_per_batch: float = 0.0
    drain_s: float = 0.0
    oracle_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    offered_ratio: float = 0.0
    busy_share: float = 0.0
    rss_mb: float = 0.0
    offered: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class Fleet:
    """A one-worker coordinator plus the ledger of what it was sent."""

    def __init__(self, seed: int, trial: int) -> None:
        self.coordinator = ShardCoordinator(
            1,
            N_PROCESSES,
            port_base=free_ports(1)[0],
            run_id="perfbench-shard-%d" % seed,
            seed=seed * 1_000_003 + trial,
        )
        self.offered = 0
        #: receiver -> rows sent for it, over the whole trial.
        self.expected: Counter = Counter()
        #: Loop times of each INVOKE_BATCH send in the current phase.
        self.sends: List[float] = []
        #: message id -> (sender, receiver, key) of the rows sent while
        #: ``keep_rows`` is set.
        self.intended: Dict[str, Tuple[int, int, str]] = {}
        self.keep_rows = False
        self.pid = 0

    async def start(self) -> float:
        started = time.perf_counter()
        await self.coordinator.start()
        elapsed = time.perf_counter() - started
        self.pid = self.coordinator.processes[0].pid
        link = self.coordinator.links[0]
        send = link.send
        loop = asyncio.get_running_loop()

        def recording_send(kind: int, body: Dict[str, Any]) -> None:
            if kind == codec.INVOKE_BATCH:
                rows = body["rows"]
                self.sends.append(loop.time())
                # C-level iteration: this runs inside the timed phases.
                self.expected.update(map(_RECEIVER, rows))
                if self.keep_rows:
                    self.intended.update(zip(map(_ID, rows), map(_ROUTE, rows)))
            send(kind, body)

        link.send = recording_send
        return elapsed

    async def stop(self) -> None:
        await self.coordinator.stop()
        await settle()

    async def load(self, rate: float, duration: float) -> Tuple[int, float, float]:
        """One paced load; returns (rows offered, loop start, loop end)."""
        self.sends = []
        loop = asyncio.get_running_loop()
        start = loop.time()
        offered = await self.coordinator.run_load(rate, duration, KEYS)
        self.offered += offered
        return offered, start, loop.time()

    async def catch_up(self) -> Dict[str, Any]:
        """Poll STATS until the worker has taken in and delivered every
        row offered so far.  The first reply queues behind every
        INVOKE_BATCH frame on the ingress stream."""
        deadline = time.monotonic() + CATCH_UP_TIMEOUT
        while True:
            body = (await self.coordinator.stats())[0]
            if body.get("invoked", 0) >= self.offered and body.get("pending", 1) == 0:
                return body
            if time.monotonic() > deadline:
                return body
            await asyncio.sleep(0.001)


def _paced_due_times(rate: float, duration: float, start: float) -> List[float]:
    """The scheduled send time of each row of one pacer run: rows of
    tick ``k`` are sent at the deadline of tick ``k - 1``."""
    pacer = Pacer(rate, duration)
    due = []
    for tick in range(1, pacer.ticks + 1):
        due.extend([start + pacer.deadline(tick - 1)] * (pacer.due(tick) - pacer.due(tick - 1)))
    return due


def _check_receivers(
    expected: Counter, body: Dict[str, Any], offered: int
) -> Dict[str, int]:
    """Compare rows sent per receiver with the worker's delivery counts."""
    got = Counter(
        {row["process"]: row["deliveries"] for row in body.get("per_process", [])}
    )
    delivered = int(body.get("deliveries", 0))
    spread = sum(abs(expected[p] - got[p]) for p in set(expected) | set(got))
    return {
        "undelivered": max(0, offered - delivered),
        "duplicated": max(0, delivered - offered),
        "wrong_receiver": max(0, spread - abs(offered - delivered)) // 2,
    }


async def run_trial(
    seed: int, trial: int, tracer: Optional[Tracer] = None, judge: bool = True
) -> ShardTrial:
    """One trial on a fresh worker.  ``judge`` runs the cross-key oracle
    at the end; it costs about as much as the saturated phase, so a run
    judges its first trial and its traced ones."""
    fleet = Fleet(seed, trial)
    result = ShardTrial(setup_s=await fleet.start())
    coordinator = fleet.coordinator
    oracle = cross_key_oracle
    if tracer is not None:
        for name in ("run_load", "stats", "drain", "collect"):
            tracer.patch(coordinator, name, "net.shard.%s" % name)
        oracle = tracer.wrap("net.shard.cross_key_oracle", cross_key_oracle)
        tracer.enabled = True
    loop = asyncio.get_running_loop()
    failures: Counter = Counter()
    try:
        await fleet.load(*WARMUP)
        await fleet.catch_up()

        # -- paced ----------------------------------------------------------
        base = fleet.offered
        fleet.keep_rows = True
        wall_offset = time.time() - loop.time()
        worker0 = worker_cpu_seconds(fleet.pid)
        offered, start, load_end = await fleet.load(*PACED)
        fleet.keep_rows = False
        await fleet.catch_up()
        paced_wall = loop.time() - start
        result.busy_share = (worker_cpu_seconds(fleet.pid) - worker0) / paced_wall
        pacer = Pacer(*PACED)
        result.late_ms = [
            (sent - (start + pacer.deadline(tick))) * 1000.0
            for tick, sent in enumerate(fleet.sends)
        ]
        result.offered_ratio = pacer.deadline(pacer.ticks - 1) / max(
            1e-9, fleet.sends[-1] - start
        ) if fleet.sends else 0.0
        due = _paced_due_times(*PACED, start=start + wall_offset)
        intended, fleet.intended = fleet.intended, {}
        delivered_rows = await coordinator.collect(per_shard_limit=fleet.offered)
        seen: Counter = Counter()
        for message_id, src, dst, key, _, delivered_at in delivered_rows:
            index = int(message_id[1:]) - base
            if not 0 <= index < offered:
                continue
            seen[message_id] += 1
            if intended.get(message_id) != (src, dst, key):
                failures["wrong_receiver"] += 1
            result.latencies_ms.append((delivered_at - due[index]) * 1000.0)
        failures["undelivered"] += sum(1 for mid in intended if mid not in seen)
        failures["duplicated"] += sum(count - 1 for count in seen.values())
        # Free the paced ledger before the saturated phase allocates.
        intended = seen = delivered_rows = None
        gc.collect()

        # -- saturated ------------------------------------------------------
        before = (await fleet.catch_up())
        own0 = cpu_seconds()
        worker0 = worker_cpu_seconds(fleet.pid)
        offered, start, load_end = await fleet.load(*SATURATED)
        body = await fleet.catch_up()
        end = loop.time()
        coordinator_cpu = cpu_seconds() - own0
        worker_cpu = worker_cpu_seconds(fleet.pid) - worker0
        delivered = int(body.get("deliveries", 0)) - int(before.get("deliveries", 0))
        result.sat_rate = delivered / (end - start)
        result.drain_s = end - load_end
        result.coordinator_cpu_us = coordinator_cpu / max(1, delivered) * 1e6
        result.worker_cpu_us = worker_cpu / max(1, delivered) * 1e6
        result.cpu_us = result.coordinator_cpu_us + result.worker_cpu_us
        flushes = int(body.get("flushes", 0)) - int(before.get("flushes", 0))
        result.rows_per_batch = delivered / max(1, flushes)

        # -- verdicts -------------------------------------------------------
        if not await coordinator.drain():
            failures["not_drained"] += 1
        body = (await coordinator.stats())[0]
        if judge:
            started = time.perf_counter()
            verdict = oracle(await coordinator.collect(), N_PROCESSES)
            result.oracle_s = time.perf_counter() - started
            memberships = verdict.get("memberships", {})
            if not (memberships.get("async") and memberships.get("co")):
                failures["oracle_violation"] += 1
                result.errors.append("cross-key oracle: %r" % (memberships,))
        failures.update(_check_receivers(fleet.expected, body, fleet.offered))
        failures["lane_violations"] += len(body.get("violations") or [])
        failures["worker_errors"] += len(body.get("errors") or [])
        failures["pending"] += int(body.get("pending", 0))
        result.errors.extend(body.get("violations") or [])
        result.errors.extend(body.get("errors") or [])
        result.rss_mb = worker_peak_rss_mb(fleet.pid)
        result.offered = fleet.offered
    finally:
        await fleet.stop()
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
            tracer.fold()
    result.failures = {kind: count for kind, count in failures.items()}
    return result


async def bare_setup(seed: int) -> float:
    fleet = Fleet(seed, -1)
    elapsed = await fleet.start()
    await fleet.stop()
    return elapsed


async def run(seed: int, seconds: float, trace: bool, work_dir: str) -> Outcome:
    """One benchmark run of shard-fifo: fixed-size trials until
    ``seconds`` have been spent (at least :data:`MIN_TRIALS`).  In a
    traced run the first trial is the untraced baseline."""
    setups = [await bare_setup(seed) for _ in range(SETUP_SAMPLES)]
    began = time.monotonic()
    trials: List[Tuple[ShardTrial, bool]] = []
    tracer = Tracer() if trace else None
    # A traced run needs one traced trial after the untraced baseline.
    needed = max(MIN_TRIALS, 2 if trace else 1)
    while (
        len(trials) < needed or time.monotonic() - began < seconds
    ) and time.monotonic() - began < HARD_LIMIT_S:
        traced = tracer is not None and bool(trials)
        trials.append(
            (
                await run_trial(
                    seed, len(trials), tracer if traced else None, not trials or traced
                ),
                traced,
            )
        )
    failures: Counter = Counter()
    errors: List[str] = []
    for trial, _ in trials:
        failures.update(trial.failures)
        errors.extend(trial.errors)
    plain = [trial for trial, traced in trials if not traced]
    p50, p95, p99 = block_percentiles([trial.latencies_ms for trial in plain])
    attempted = sum(trial.offered for trial, _ in trials)
    failed = sum(failures.values())
    metrics = {
        "setup_s": statistics.median(setups + [trial.setup_s for trial, _ in trials]),
        "sat_msgs_per_s": statistics.median(trial.sat_rate for trial in plain),
        "cpu_us_per_msg": statistics.median(trial.cpu_us for trial in plain),
        "p50_ms": p50,
        "rss_mb": statistics.median(trial.rss_mb for trial, _ in trials),
        "ok_ratio": max(0.0, (attempted - failed) / max(1, attempted)),
    }
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update(
        {
            "gen.late_p99_ms": percentile([x for t in plain for x in t.late_ms], 99),
            "gen.offered_ratio": statistics.median(t.offered_ratio for t in plain),
            "loop.busy_share": statistics.median(t.busy_share for t in plain),
        }
    )
    samples = sum(len(trial.latencies_ms) for trial in plain)
    notes = generator_flags(layers, None if trace else samples)
    notes.append(tail_note(p95, p99, samples))
    if tracer is not None:
        sample = [trial for trial, traced in trials if traced] or plain
        layers.update(
            {
                "net.shard.coordinator_cpu_us_per_msg": statistics.median(
                    t.coordinator_cpu_us for t in sample
                ),
                "net.shard.worker_cpu_us_per_msg": statistics.median(
                    t.worker_cpu_us for t in sample
                ),
                "net.shard.rows_per_batch": statistics.median(
                    t.rows_per_batch for t in sample
                ),
                "net.shard.drain_s": statistics.median(t.drain_s for t in sample),
                "net.shard.oracle_s": statistics.median(
                    t.oracle_s for t in sample if t.oracle_s
                ),
                "trace.overhead_us_per_msg": statistics.median(
                    t.cpu_us for t in sample
                ) - statistics.median(t.cpu_us for t in plain),
            }
        )
        tracer.dump(os.path.join(work_dir, "spans-shard-fifo-seed%d.json" % seed))
    return Outcome(
        metrics=metrics,
        layers=layers,
        attempted=attempted,
        failures={kind: count for kind, count in failures.items() if count},
        errors=errors,
        notes=notes,
    )
