"""Smoke test of the benchmark: every workload's code path, its checks and the
traced run, on tiny inputs, in a few seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math

import pytest

import run
import tracer
import workloads
from gridflex import forecaster
from gridflex.autodiff import Tensor

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_puts_the_originals_back():
    train, init = forecaster.train, Tensor.__init__
    with tracer.Tracer().installed():
        assert forecaster.train is not train and Tensor.__init__ is not init
    assert forecaster.train is train and Tensor.__init__ is init


def test_a_failed_check_counts_as_a_failed_operation():
    class Broken(workloads.Workload):
        cycle = 2
        min_ops = 4

        def op(self, i):
            if i == 1:
                raise workloads.CheckFailed("wrong output")
            return 1.0, 1

        def end_cycle(self):
            if self.cycles_checked == 1:
                raise workloads.CheckFailed("wrong cycle")
            self.cycles_checked += 1

    broken = Broken()
    broken.cycles_checked = 0
    tally = run._measure(broken, 0)
    # Op 1 fails its own check; the second cycle's check fails ops 2 and 3.
    assert (tally.attempted, tally.failed, tally.durations) == (4, 3, [1.0, 1.0, 1.0])


def test_spearman_averages_tied_ranks():
    assert workloads.spearman([1, 2, 3, 4], [10, 20, 20, 40]) == pytest.approx(0.9486832980505138)
    assert math.isnan(workloads.spearman([1, 2, 3], [5, 5, 5]))
