"""Self-test of the benchmark on a tiny (sf0.001-sized, 500-doc) corpus.

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, traced and untraced, with no failed rep; and that a copy
of a crawl output with one vertex row removed is reported as a failed
rep. Takes about four minutes. Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow.dataset as pads
import pyarrow.parquet as pq

import gate
from workloads import NAMES, WORKLOADS, oracle_path, work_dir

HERE = os.path.dirname(os.path.abspath(__file__))
TINY_PERSONS = 500
SEED = 7


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--persons", str(TINY_PERSONS)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{label}: {result}"
    names = {m["name"]: m["unit"] for m in spec}
    assert set(result["metrics"]) == set(names), \
        f"{label}: metric names differ: {set(result['metrics']) ^ set(names)}"
    for name, unit in names.items():
        m = result["metrics"][name]
        assert m["unit"] == unit and isinstance(m["value"], (int, float)), f"{label}: {name} {m}"


def drop_one_vertex(src: str, dst: str) -> None:
    """Copy a crawl output and remove the first row of one vertex part."""
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    vdir = os.path.join(dst, "hop=0", "vertices.parquet")
    for part in sorted(pads.dataset(vdir, format="parquet").files):
        t = pq.read_table(part)
        if len(t):
            pq.write_table(t.slice(1), part)
            return
    raise AssertionError("no vertex rows to remove")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in NAMES:
        check_metrics(run_bench(workload, 0), bench["end_to_end"], f"{workload} untraced")
        check_metrics(run_bench(workload, 1), bench["per_layer"], f"{workload} traced")
        print(f"ok {workload}: every metric printed with its unit, no failed rep")

    # the deep crawl's last rep output is left in the work dir
    out = os.path.join(work_dir(root), "runs", "deep_crawl", "rep")
    with open(oracle_path(root, SEED, TINY_PERSONS, WORKLOADS["deep_crawl"])) as f:
        oracle = json.load(f)
    tally = gate.Tally()
    tally.record("intact", gate.check(gate.read_output(out), oracle, exact=True))
    corrupt = os.path.join(work_dir(root), "runs", "selftest_corrupt")
    drop_one_vertex(out, corrupt)
    tally.record("one vertex removed", gate.check(gate.read_output(corrupt), oracle, exact=True))
    assert (tally.attempted, tally.failed) == (2, 1), tally.failures
    assert tally.failures[0]["rep"] == "one vertex removed", tally.failures
    print("ok corrupted output: reported as a failed rep:", tally.failures[0]["problems"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
