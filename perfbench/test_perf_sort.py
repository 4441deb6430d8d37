#!/usr/bin/env python3
"""Small-scale self-test of the sort benchmark.

    python3 perfbench/test_perf_sort.py

Runs every workload through run.py on a scaled-down input (the same
input-to-memory ratio as the full benchmark) and checks that the benchmark
emits what BENCHMARK.json names, that its exact counts repeat, and that
the traced breakdown adds up.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# 61 memories of input, as 4M records against 64Ki do.
SCALE = ["--records", "500000", "--memory", "8192"]
# Counts that must repeat bit for bit on the serial workloads.
EXACT = ["core.runs", "core.run_len_x_mem", "core.diverted_frac",
         "core.victim_frac", "io.read_calls", "io.write_calls",
         "io.files_opened", "io.bytes_read_per_rec",
         "io.bytes_written_per_rec", "merge.steps",
         "merge.records_written_per_rec", "merge.intermediate_runs"]

_cache = {}


def run(workload, trace, repeat=0):
    """Metrics of one run.py invocation, as {name: (value, unit)}; runs
    with another `repeat` are separate invocations on the same seed."""
    key = (workload, trace, repeat)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), *SCALE],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        _cache[key] = {name: (m["value"], m["unit"])
                       for name, m in result["metrics"].items()}
    return _cache[key]


class PerfSortTest(unittest.TestCase):
    workloads = [w["name"] for w in SPEC["workloads"]]

    def test_every_named_metric_is_emitted_with_its_unit(self):
        for workload in self.workloads:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                got = run(workload, trace)
                want = {m["name"]: m["unit"] for m in SPEC[group]}
                self.assertEqual(
                    {name: unit for name, (_, unit) in got.items()}, want,
                    f"{workload} --trace {trace}")

    def test_exact_counts_repeat(self):
        for workload in ("mixed_2wrs", "random_lss", "topk_random"):
            first, again = run(workload, 1), run(workload, 1, repeat=1)
            for name in EXACT:
                self.assertEqual(first[name], again[name], (workload, name))
            self.assertEqual(run(workload, 0)["io_bytes_per_record"],
                             run(workload, 0, repeat=1)["io_bytes_per_record"])

    def test_2wrs_on_random_runs_twice_memory(self):
        ratio = run("random_2wrs_par2", 1)["core.run_len_x_mem"][0]
        self.assertLess(abs(ratio - 2.0), 0.2, ratio)

    def test_2wrs_on_mixed_makes_one_run(self):
        self.assertEqual(run("mixed_2wrs", 1)["core.runs"][0], 1)

    def test_traced_phases_add_up_to_the_wall(self):
        for workload in self.workloads:
            m = run(workload, 1)
            parts = (m["core.rungen_s"][0] + m["merge.s"][0] +
                     m["trace.unattributed_s"][0])
            self.assertAlmostEqual(parts, m["trace.wall_s"][0], places=9,
                                   msg=workload)


if __name__ == "__main__":
    unittest.main()
