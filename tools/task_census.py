"""Remote tasks and Ray Data executions per phase of a perfbench workload.

Sets up the way ``perfbench/run.py`` does (its corpus, seeds, crawl
config and Ray session, then one cold crawl and one cold graph build),
then runs one warm crawl, one resume (the last hop's ``log.json``
removed) and one graph build (resolve + adjacency export). For each of
the three phases it prints the remote tasks launched, counted by
function name (each ``RemoteFunction._remote`` call; actor method calls
are not counted) in two groups: Ray Data's own tasks (functions defined
under ``ray.``: ``_map_task``, a sort's ``map``/``reduce``/
``_sample_block``) and the package's plain tasks (the shuffle exchange's
``_exchange_split``/``_exchange_reduce``, ``_add_index``); then the Ray
Data executions started (each
``StreamingExecutor.execute`` call), and the membership RPCs (shard-host
``call``s) and hop-sink calls that the lineage.json of the hops the
phase wrote records. Run from the root of a checkout::

    python3 tools/task_census.py --workload deep_crawl --seed 71

The last line of stdout is one JSON object, ``{phase: {"tasks",
"by_function", "ray_data_tasks", "plain_tasks", "executions",
"membership_rpcs", "rpcs_by_call", "sink_calls"}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

from gate import complete_hops  # noqa: E402
from workloads import NAMES  # noqa: E402


class Census:
    """Counts remote-task launches by function name and Ray Data
    executions while :attr:`phase` is set."""

    def __init__(self):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor
        from ray.remote_function import RemoteFunction

        self.phase: str | None = None
        self.tasks: dict[str, Counter] = {}
        #: function name -> True for a function Ray Data defines
        self.ray_data: dict[str, bool] = {}
        self.executions: Counter = Counter()
        launch, execute = RemoteFunction._remote, StreamingExecutor.execute
        census = self

        def counting_launch(fn, *args, **kwargs):
            if census.phase is not None:
                f = fn._function
                census.tasks[census.phase][f.__name__] += 1
                census.ray_data[f.__name__] = f.__module__.startswith("ray.")
            return launch(fn, *args, **kwargs)

        def counting_execute(executor, *args, **kwargs):
            if census.phase is not None:
                census.executions[census.phase] += 1
            return execute(executor, *args, **kwargs)

        RemoteFunction._remote = counting_launch
        StreamingExecutor.execute = counting_execute

    def run(self, phase: str, fn, *args):
        self.phase = phase
        self.tasks[phase] = Counter()
        try:
            return fn(*args)
        finally:
            self.phase = None

    def report(self, lineage: dict[str, list[dict]]) -> dict:
        """The counts of each phase, with the membership RPCs and sink
        calls of the hop lineages it wrote (``lineage[phase]``)."""
        out = {}
        for p, c in self.tasks.items():
            rpcs = Counter()
            for lin in lineage.get(p, []):
                for method, names in lin["shards"]["rpcs"].items():
                    for name, n in names.items():
                        rpcs[f"{method}({name})"] += n["calls"]
            out[p] = {"tasks": sum(c.values()), "by_function": dict(c.most_common()),
                      **{group: {k: n for k, n in c.most_common() if self.ray_data[k] == rd}
                         for group, rd in (("ray_data_tasks", True), ("plain_tasks", False))},
                      "executions": self.executions[p],
                      "membership_rpcs": sum(rpcs.values()),
                      "rpcs_by_call": dict(rpcs.most_common()),
                      "sink_calls": sum(len({e["bucket"] for e in lin["sink"]["entries"]})
                                        for lin in lineage.get(p, []))}
        return out


def hop_lineage(out_dir: str, hops: list[int]) -> list[dict]:
    lineage = []
    for h in hops:
        with open(os.path.join(out_dir, f"hop={h}", "lineage.json")) as f:
            lineage.append(json.load(f))
    return lineage


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    a = ap.parse_args(argv)
    os.chdir(ROOT)  # Ray workers import the package from the driver's cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    from run import Run, parse_args

    bench = Run(parse_args(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", "0"]), ROOT)
    bench.prepare_inputs()
    try:
        bench.setup()
        census = Census()
        census.run("crawl", bench._crawl, bench.rep_out)
        hops = complete_hops(bench.rep_out)
        lineage = {"crawl": hop_lineage(bench.rep_out, hops)}
        os.remove(os.path.join(bench.rep_out, f"hop={hops[-1]}", "log.json"))
        census.run("resume", bench._crawl, bench.rep_out, True)
        lineage["resume"] = hop_lineage(bench.rep_out, hops[-1:])
        census.run("graph_build", bench._graph_build)
    finally:
        bench.shutdown()
    report = census.report(lineage)
    for phase, r in report.items():
        print(f"{phase}: {r['tasks']} remote tasks, {r['executions']} executions, "
              f"{r['membership_rpcs']} membership RPCs, {r['sink_calls']} sink calls")
        for group in ("ray_data_tasks", "plain_tasks"):
            print(f"  {sum(r[group].values()):5d}  {group.replace('_', ' ')}")
            for name, n in r[group].items():
                print(f"    {n:5d}  {name}")
        for name, n in r["rpcs_by_call"].items():
            print(f"  {n:5d}  rpc {name}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
