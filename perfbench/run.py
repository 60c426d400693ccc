"""The repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tcp-fifo --seed 1 --seconds 36 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``).  A
run repeats fixed-size trials on fresh clusters for ``--seconds``; each
trial has a warm-up, an open-loop paced phase (latency from each
message's due time) and a saturated phase (throughput and CPU per
message):

``tcp-fifo``
    three in-process ``NetHost`` s over loopback TCP running catalogue
    ``fifo`` with the observability plane on; no WAL, no monitor.  Paced:
    1000 messages at 1000/s.  Saturated: a closed loop of 64 outstanding
    until 3000 are delivered.
``causal-live``
    three ``NetHost`` s running ``causal-rst`` with the obs plane, host
    WAL and a ``LiveObserver`` checking ``causal-ordering`` live.  Paced:
    150 at 100/s.  Saturated: 16 outstanding until 100 are delivered and
    the monitor has returned its verdict.  Each run also drives the
    ``broken-causal-rst`` mutant under latency spikes and requires the
    monitor to flag it (the negative control).
``shard-fifo``
    ``repro.net.shard`` with one worker, 8 processes, 64 keys, fifo lanes,
    driven by the coordinator's pacer.  Paced: 50k rows/s for 0.5 s.
    Saturated: 200k rows offered at 400k/s, timed until all are delivered.

End-to-end figures are medians over trials; p50 (and the printed p95 and
p99) are medians over blocks of at least 1000 paced deliveries.  The tail
percentiles are printed but not part of the result: on a shared machine
their run-to-run spread comes too close to the largest bound a gate may
use (p99 far exceeds it).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
layer boundaries and reports the per-layer metrics plus the tracing
overhead.  Every run checks its outputs (each offered message delivered
exactly once at its receiver, no host or worker error, no shed frame,
clean live, lane and oracle verdicts).  The human-readable report goes
to standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 for a correct run, 1 for a run whose outputs failed the checks and 2
when the run could not be made at all.

Spans of a traced run and the WAL segments of causal-live are written
under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("tcp-fifo", "causal-live", "shard-fifo")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def stamp() -> Dict[str, Any]:
    """Which code ran where: git sha and dirty flag (when the checkout is
    a git repository), CPU model, core count, Python and the network."""
    sha: Optional[str] = None
    dirty: Optional[bool] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "network": "loopback",
    }


async def measure(args: argparse.Namespace):
    if args.workload == "shard-fifo":
        import shard_driver

        return await shard_driver.run(args.seed, args.seconds, bool(args.trace), OUT)
    import tcp_driver

    return await tcp_driver.run(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT
    )


def result_line(outcome, trace: bool) -> Dict[str, Any]:
    """The final JSON object: the end-to-end or the per-layer metrics."""
    from layers import END_TO_END, PER_LAYER

    table, values = (PER_LAYER, outcome.layers) if trace else (END_TO_END, outcome.metrics)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in table
        },
    }


def render(args: argparse.Namespace, outcome, result: Dict[str, Any]) -> str:
    lines = [
        "perfbench %s seed %d (%s)"
        % (args.workload, args.seed, "traced" if args.trace else "untraced"),
        "stamp %s" % json.dumps(stamp(), sort_keys=True),
    ]
    for name, metric in result["metrics"].items():
        lines.append("  %-40s %14.4f %s" % (name, metric["value"], metric["unit"]))
    if args.trace:
        lines.append(
            "  tracing overhead: %.1f us/msg (traced minus untraced CPU per message)"
            % outcome.layers["trace.overhead_us_per_msg"]
        )
    lines.append(
        "  attempted %d, failed %d %s"
        % (outcome.attempted, outcome.failed, json.dumps(outcome.failures, sort_keys=True))
    )
    lines.extend("  note: %s" % note for note in outcome.notes)
    lines.extend("  error: %s" % error for error in outcome.errors[:20])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: %s/repro not found; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    outcome = asyncio.run(measure(args))
    result = result_line(outcome, bool(args.trace))
    print(render(args, outcome, result))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
