"""Remote tasks, Ray Data executions and worker births per phase of a perfbench workload.

Sets up the way ``perfbench/run.py`` does (its corpus, seeds, crawl
config and Ray session, then one cold crawl and one cold graph build),
then runs one warm crawl, one resume (the last hop's ``log.json``
removed) and one graph build (resolve + adjacency export). For each of
these phases, set-up's two included, it prints the remote tasks
launched, counted by function name (each ``RemoteFunction._remote``
call; actor method calls are not counted) in two groups: Ray Data's own
tasks (functions defined under ``ray.``: ``_map_task``, a sort's
``map``/``reduce``/``_sample_block``) and the package's plain tasks (the
shuffle exchange's ``_exchange_split``/``_exchange_reduce``,
``_add_index``); then the Ray Data executions started (each
``StreamingExecutor.execute`` call), the membership RPCs (shard-host
``call``s) and hop-sink calls that the lineage.json of the hops the
phase wrote records, and the Ray worker processes born during the
phase (a thread lists the session's processes every 20 ms; a worker
is a process titled ``ray::...`` or running ``default_worker.py``).
Births before the cold crawl (``ray.init``'s prestarted workers) and
between phases count under ``init`` and ``between``, and ``processes``
is the session's process count when the phase ends. Last come the CPU
seconds each phase cost, read from ``/proc/<pid>/stat`` over the
session's processes at its start and end: the driver's (less the
census's own sampling thread), and the session's, split by process
kind (driver, raylet + gcs, membership shard hosts, other workers). A
process that exits during a phase takes its CPU with it. Run from the
root of a checkout::

    python3 tools/task_census.py --workload deep_crawl --seed 71

The last line of stdout is one JSON object, ``{phase: {"tasks",
"by_function", "ray_data_tasks", "plain_tasks", "executions",
"membership_rpcs", "rpcs_by_call", "sink_calls", "births",
"processes", "driver_cpu_s", "session_cpu_s", "cpu_s_by_kind"},
"births": {phase: births}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

import machine  # noqa: E402
from gate import complete_hops  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_PHASES = ("setup_cold_crawl", "setup_cold_graph_build")


class Births:
    """Ray worker processes of this session first seen while each phase
    was set, from a thread that lists the session's processes every
    ``interval_s``; :meth:`set` lists them once more before the phase
    changes, so a birth is charged to the phase it happened in."""

    def __init__(self, interval_s: float = 0.02):
        #: CPU seconds the sampling thread itself has used
        self.cpu_s = 0.0
        self.phase = "init"
        self.by_phase: Counter = Counter()
        self.processes: dict[str, int] = {}
        self._seen: set[int] = set()
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(interval_s,), daemon=True)
        self._thread.start()

    @staticmethod
    def _is_worker(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read(400)
        except OSError:
            return False
        return cmd.startswith(b"ray::") or b"default_worker.py" in cmd

    def poll(self) -> int:
        """Charge the workers not seen before to the current phase;
        returns the session's process count."""
        with self._lock:
            pids = machine.session_pids(os.getpid())
            for pid in pids:
                if pid not in self._seen:
                    self._seen.add(pid)
                    if self._is_worker(pid):
                        self.by_phase[self.phase] += 1
            return len(pids)

    def set(self, phase: str) -> None:
        n = self.poll()
        with self._lock:
            if self.phase not in ("init", "between"):
                self.processes[self.phase] = n
            self.phase = phase

    def _run(self, interval_s: float) -> None:
        while not self._done.wait(interval_s):
            t0 = time.thread_time()
            self.poll()
            self.cpu_s += time.thread_time() - t0

    def stop(self) -> None:
        self._done.set()
        self._thread.join()


def _kind(pid: int) -> str:
    """The kind of a session process, from its command line."""
    if pid == os.getpid():
        return "driver"
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read(400)
    except OSError:
        return "other"
    if b"raylet" in cmd or b"gcs_server" in cmd:
        return "raylet+gcs"
    if cmd.startswith(b"ray::MembershipShard"):
        return "shard hosts"
    return "workers" if Births._is_worker(pid) else "other"


def session_ticks() -> dict[int, int]:
    """CPU ticks (user + system) of each process of this Ray session."""
    table = machine.proc_table()
    return {p: table[p][1] for p in machine.session_pids(os.getpid(), table) if p in table}


class Census:
    """Counts remote-task launches by function name and Ray Data
    executions while :attr:`phase` is set."""

    def __init__(self, births: Births):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor
        from ray.remote_function import RemoteFunction

        self.phase: str | None = None
        self.births = births
        self.tasks: dict[str, Counter] = {}
        #: function name -> True for a function Ray Data defines
        self.ray_data: dict[str, bool] = {}
        self.executions: Counter = Counter()
        #: phase -> {"driver_cpu_s", "session_cpu_s", "cpu_s_by_kind"}
        self.cpu: dict[str, dict] = {}
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
        self.births.set(phase)
        ticks, sampler_s = session_ticks(), self.births.cpu_s
        try:
            return fn(*args)
        finally:
            self.births.set("between")
            self.phase = None
            by_kind: Counter = Counter()
            for pid, t in session_ticks().items():
                by_kind[_kind(pid)] += (t - ticks.get(pid, 0)) * machine.TICK_S
            by_kind["driver"] -= self.births.cpu_s - sampler_s
            self.cpu[phase] = {"driver_cpu_s": round(by_kind["driver"], 3),
                               "session_cpu_s": round(sum(by_kind.values()), 3),
                               "cpu_s_by_kind": {k: round(v, 3)
                                                 for k, v in by_kind.most_common()}}

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
                                        for lin in lineage.get(p, [])),
                      "births": self.births.by_phase[p],
                      "processes": self.births.processes.get(p),
                      **self.cpu[p]}
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
    census = Census(Births())
    try:
        # set-up as perfbench/run.py runs it, its cold crawl and cold
        # graph build counted as phases of their own
        crawl, graph_build = bench._crawl, bench._graph_build
        bench._crawl = lambda *a: census.run(SETUP_PHASES[0], crawl, *a)
        bench._graph_build = lambda: census.run(SETUP_PHASES[1], graph_build)
        try:
            bench.setup()
        finally:
            bench._crawl, bench._graph_build = crawl, graph_build
        hops = complete_hops(bench.rep_out)
        lineage = {SETUP_PHASES[0]: hop_lineage(bench.rep_out, hops)}
        census.run("crawl", bench._crawl, bench.rep_out)
        hops = complete_hops(bench.rep_out)
        lineage["crawl"] = hop_lineage(bench.rep_out, hops)
        os.remove(os.path.join(bench.rep_out, f"hop={hops[-1]}", "log.json"))
        census.run("resume", bench._crawl, bench.rep_out, True)
        lineage["resume"] = hop_lineage(bench.rep_out, hops[-1:])
        census.run("graph_build", bench._graph_build)
    finally:
        census.births.stop()
        bench.shutdown()
    report = census.report(lineage)
    for phase, r in report.items():
        print(f"{phase}: {r['tasks']} remote tasks, {r['executions']} executions, "
              f"{r['membership_rpcs']} membership RPCs, {r['sink_calls']} sink calls, "
              f"{r['births']} worker births, {r['processes']} processes at its end")
        for group in ("ray_data_tasks", "plain_tasks"):
            print(f"  {sum(r[group].values()):5d}  {group.replace('_', ' ')}")
            for name, n in r[group].items():
                print(f"    {n:5d}  {name}")
        for name, n in r["rpcs_by_call"].items():
            print(f"  {n:5d}  rpc {name}")
        print(f"  CPU-s: driver {r['driver_cpu_s']:.2f}, session {r['session_cpu_s']:.2f} ("
              + ", ".join(f"{k} {v:.2f}" for k, v in r["cpu_s_by_kind"].items()) + ")")
    report["births"] = dict(census.births.by_phase)
    print("worker births by phase: " + ", ".join(
        f"{p} {n}" for p, n in report["births"].items()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
