"""Tests of the benchmark itself: ``python -m pytest perfbench``.

The drivers run here on shrunken workloads, so a test checks the plumbing
(every metric printed with its unit, the correctness gate, the negative
control) in seconds; the real sizes live in the driver modules.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import shard_driver
import tcp_driver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a fraction of a second."""
    for name, workload in list(tcp_driver.WORKLOADS.items()):
        monkeypatch.setitem(
            tcp_driver.WORKLOADS,
            name,
            dataclasses.replace(
                workload, warmup=10, paced=40, paced_rate=200.0, saturated=40, min_trials=1
            ),
        )
    monkeypatch.setattr(tcp_driver, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(shard_driver, "WARMUP", (20_000.0, 0.05))
    monkeypatch.setattr(shard_driver, "PACED", (20_000.0, 0.1))
    monkeypatch.setattr(shard_driver, "SATURATED", (100_000.0, 0.1))
    monkeypatch.setattr(shard_driver, "MIN_TRIALS", 1)
    monkeypatch.setattr(shard_driver, "SETUP_SAMPLES", 1)


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


class TestDeclaration:
    def test_metric_names_and_units_match_benchmark_json(self):
        declared = _declared()
        assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
            layers.END_TO_END
        )
        assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
            layers.PER_LAYER
        )
        assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in _declared()["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())


class TestTinyRuns:
    @pytest.mark.parametrize("workload", run.WORKLOADS)
    @pytest.mark.parametrize("trace", [0, 1])
    def test_run_prints_every_metric_with_its_unit(self, tiny, capsys, workload, trace):
        code, result, lines = _run(
            capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
            "--trace", str(trace),
        )
        assert code == 0, "\n".join(lines)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        table = layers.PER_LAYER if trace else layers.END_TO_END
        assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(table)
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        if not trace:
            assert result["metrics"]["ok_ratio"]["value"] == 1.0
            assert result["metrics"]["sat_msgs_per_s"]["value"] > 0
            assert result["metrics"]["p50_ms"]["value"] > 0
            assert any("paced p95" in line for line in lines)
        assert any(line.startswith("stamp ") for line in lines)

    def test_traced_tcp_run_sees_the_layers(self, tiny, capsys):
        _, result, _ = _run(
            capsys, "--workload", "tcp-fifo", "--seed", "4", "--seconds", "0.01",
            "--trace", "1",
        )
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        for name in (
            "net.host.pending_local_us_per_call",
            "obs.bus.emit_us_per_msg",
            "net.codec.encode_us_per_frame",
            "net.codec.decode_us_per_frame",
        ):
            assert metrics[name] > 0, name
        assert metrics["simulation.trace.records_per_msg"] == pytest.approx(4.0)
        assert metrics["verification.advance_us_per_event"] == 0.0

    def test_a_monitor_that_misses_the_control_fails_the_run(
        self, tiny, capsys, monkeypatch
    ):
        # A correct protocol in the control's place is never flagged, which
        # is what a switched-off monitor would look like.
        monkeypatch.setattr(
            tcp_driver,
            "CONTROL",
            dataclasses.replace(tcp_driver.CONTROL, protocol="causal-rst", paced=30),
        )
        code, result, _ = _run(
            capsys, "--workload", "causal-live", "--seed", "1", "--seconds", "0.01",
            "--trace", "0",
        )
        assert code == 1
        assert result["correct"] is False and result["failed"] >= 1
        assert result["metrics"]["ok_ratio"]["value"] < 1.0


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        #   0 [0, 10]
        #   +-- 1 [1, 5]
        #   |   +-- 3 [2, 3]
        #   +-- 2 [6, 9]
        parents = [-1, 0, 0, 1]
        durations = [10.0, 4.0, 3.0, 1.0]
        assert layers.self_times(parents, durations) == [3.0, 3.0, 3.0, 1.0]

    def test_wrapped_calls_nest_and_fold(self):
        tracer = layers.Tracer()

        def leaf(x):
            return x + 1

        wrapped_leaf = tracer.wrap("leaf", leaf)

        def outer(x):
            return wrapped_leaf(x) + wrapped_leaf(x)

        wrapped_outer = tracer.wrap("outer", outer)
        assert wrapped_outer(1) == 4  # disabled: no spans
        assert tracer.names == []
        tracer.enabled = True
        wrapped_outer(1)
        assert tracer.names == ["outer", "leaf", "leaf"]
        assert tracer.parents == [-1, 0, 0]
        total = tracer.ends[0] - tracer.starts[0]
        children = sum(tracer.ends[i] - tracer.starts[i] for i in (1, 2))
        tracer.fold()
        assert tracer.calls("outer") == 1 and tracer.calls("leaf") == 2
        assert tracer.self_seconds("outer") == pytest.approx(total - children)
        assert tracer.names == [] and len(tracer.last) == 3

    def test_patch_is_undone(self):
        class Host:
            def invoke(self, message):
                return message

        class Sub(Host):
            pass

        tracer = layers.Tracer()
        original = Host.__dict__["invoke"]
        tracer.patch(Sub, "invoke", "sub.invoke")
        tracer.patch(Host, "invoke", "host.invoke")
        tracer.enabled = True
        assert Sub().invoke(5) == 5
        assert Host().invoke(6) == 6
        assert tracer.names == ["sub.invoke", "host.invoke"]
        tracer.uninstall()
        assert Host.__dict__["invoke"] is original
        assert "invoke" not in Sub.__dict__

    def test_block_percentiles_need_a_thousand_samples_per_block(self):
        # Three trials of 600: the first two pool into one block of 1200,
        # the third (too short alone) joins it, so there is one block.
        flat = [[float(i) for i in range(600)]] * 3
        assert layers.block_percentiles(flat, (50, 99)) == (
            layers.percentile(flat[0] * 3, 50),
            layers.percentile(flat[0] * 3, 99),
        )
        # Two blocks of 1000: the median of two block p99s is their mean.
        fast = [1.0] * 985 + [10.0] * 15
        slow = [2.0] * 985 + [30.0] * 15
        assert layers.block_percentiles([fast, slow], (50, 99)) == (1.5, 20.0)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert layers.percentile(values, 50) == 50
        assert layers.percentile(values, 99) == 99
        assert layers.percentile([], 99) == 0.0


class TestInputs:
    def test_tcp_inputs_depend_only_on_seed_and_trial(self):
        workload = tcp_driver.WORKLOADS["tcp-fifo"]
        first = tcp_driver.make_inputs(workload, 7, 2)
        assert first == tcp_driver.make_inputs(workload, 7, 2)
        assert first != tcp_driver.make_inputs(workload, 8, 2)
        assert first != tcp_driver.make_inputs(workload, 7, 3)
        assert {phase: len(pairs) for phase, pairs in first.items()} == {
            "warmup": workload.warmup,
            "paced": workload.paced,
            "saturated": workload.saturated,
        }
        assert all(s != r for pairs in first.values() for s, r in pairs)

    def test_shard_rows_depend_only_on_seed_and_trial(self):
        import asyncio

        async def rows(seed):
            fleet = shard_driver.Fleet(seed, 0)
            await fleet.start()
            try:
                fleet.keep_rows = True
                await fleet.load(10_000.0, 0.02)
                await fleet.catch_up()
                return dict(fleet.intended)
            finally:
                await fleet.stop()

        first = asyncio.run(rows(5))
        assert len(first) == 200
        assert first == asyncio.run(rows(5))
        assert first != asyncio.run(rows(6))


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    """Without the program's sources the run fails before measuring."""
    bench = tmp_path / "perfbench"
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tcp-fifo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
