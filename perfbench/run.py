"""Steady-state crawl benchmark.

Runs one named workload on inputs made from ``--seed`` and prints, as
the last line of stdout, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from spans, lineage read-back and replay probes) with
``--trace 1``. Run it from the root of a checkout::

    python3 perfbench/run.py --workload deep_crawl --seed 1 --seconds 20 --trace 0

Protocol of one run:

1. preflight (refuses beside foreign Ray/pytest processes, waits for
   load) and a single-core md5 calibration probe — recorded, untimed;
2. inputs: the seeded corpus and the oracle's answer, built once per
   seed in a child process — outside every timed region and set-up;
3. set-up (``setup_s``): imports, ``ray.init(num_cpus=4)``, opening the
   corpus, one untimed cold crawl of the workload and one untimed cold
   graph build on its output;
4. measurement: rounds of a crawl rep, a resume rep (the last hop's
   ``log.json`` removed, then ``resume=True``) and a graph-build rep
   (resolve + adjacency export), at least MIN_ROUNDS and until
   ``--seconds`` have passed, each checked against the oracle. Each rep
   records its wall time and the CPU seconds the Ray session spent on
   it (stolen time is not counted); peak session PSS is sampled
   meanwhile, and every figure reported is a median over the reps;
5. with ``--trace 1`` only: the floor, polite and replay probes.

Every run also writes a record (machine state, per-rep numbers, and the
spans of a traced run) under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import gate  # noqa: E402
import machine  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (NAMES, NUM_CPUS, PERSONS, WORKLOADS,  # noqa: E402
                       corpus_dir, crawl_config, crawl_seeds, oracle_path, work_dir)

HERE = os.path.dirname(os.path.abspath(__file__))
#: object store cap: the machine is shared, and a 16k-doc crawl keeps
#: well under this in flight
OBJECT_STORE_BYTES = 1_000_000_000
#: every reported figure is a median over at least this many rounds
MIN_ROUNDS = 3
#: md5 rounds of the speed probe run before every rep (~0.15 s of one core)
PROBE_ROUNDS = 200_000
#: Ray's session sockets live under its temp dir; a unix socket path is
#: limited to 107 bytes, so a long checkout path falls back to Ray's default
MAX_RAY_TEMP_LEN = 40


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="steady-state crawl benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--persons", type=int, default=PERSONS,
                    help="corpus size (the self-test uses a tiny corpus)")
    return ap.parse_args(argv)


class Run:
    def __init__(self, args: argparse.Namespace, root: str):
        self.args = args
        self.root = root
        self.wl = WORKLOADS[args.workload]
        self.work = work_dir(root)
        self.run_dir = os.path.join(self.work, "runs", args.workload)
        self.tracer = Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}",
                             enabled=bool(args.trace))
        self.tally = gate.Tally()
        self.reps: list[dict] = []
        self.resumes: list[dict] = []
        self.graphs: list[dict] = []
        self.layer: dict[str, tuple[float, str]] = {}
        self.sampler = machine.PssSampler()  # replaced by the measuring one

    # -- inputs --------------------------------------------------------
    def prepare_inputs(self) -> None:
        """Everything the benchmark does for itself before set-up: the
        corpus and oracle answers, the crawl seeds, a page-cache read of
        the corpus files (as every rep reads them) and a clean run dir."""
        names = [self.wl.name] + (["polite_probe"] if self.args.trace else [])
        paths = {n: oracle_path(self.root, self.args.seed, self.args.persons, WORKLOADS[n])
                 for n in names}
        missing = [n for n, p in paths.items() if not os.path.exists(p)]
        if missing:
            cmd = [sys.executable, os.path.join(HERE, "prepare.py"), "--root", self.root,
                   "--seed", str(self.args.seed), "--persons", str(self.args.persons)]
            for n in missing:
                cmd += ["--workload", n]
            subprocess.run(cmd, check=True)
        self.oracles = {}
        for n, p in paths.items():
            with open(p) as f:
                self.oracles[n] = json.load(f)
        self.corpus_dir = corpus_dir(self.root, self.args.persons)
        with open(os.path.join(self.corpus_dir, "meta.json")) as f:
            meta = json.load(f)
        import pyarrow.dataset as pads

        documents = meta["documents_path"]
        self.doc_ids = pads.dataset(documents).to_table(columns=["doc_id"])["doc_id"].to_pylist()
        self.seeds = crawl_seeds(self.wl, self.args.seed, self.doc_ids)
        for top in (documents, meta["relationships_path"]):
            for dirpath, _, files in os.walk(top):
                for fn in files:
                    with open(os.path.join(dirpath, fn), "rb") as f:
                        while f.read(1 << 24):
                            pass
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.rep_out = os.path.join(self.run_dir, "rep")

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        with self.tracer.span("engine.import"):
            import ray  # noqa: F401

            from fs_crawler_ray.crawl import crawl  # noqa: F401
        t0 = time.perf_counter()
        with self.tracer.span("engine.ray_init"):
            self._init_ray()
        self.layer["engine.ray_init_s"] = (time.perf_counter() - t0, "s")
        with self.tracer.span("corpus.open"):
            from fs_crawler_ray.corpus import CorpusInfo

            self.info = CorpusInfo.load(self.corpus_dir)
            self.config = crawl_config(self.wl)
        with self.tracer.span("engine.cold_crawl"):
            self.layer["engine.cold_crawl_s"] = (self._crawl(self.rep_out), "s")
        # the first graph build of a session pays cold costs too (it often
        # took up to 1.5x as long as later ones), so it is set-up, not a
        # timed rep
        with self.tracer.span("engine.cold_graph_build"):
            self._graph_build()

    def _init_ray(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        temp = os.path.join(self.work, "ray")
        kw = {"_temp_dir": temp} if len(temp) <= MAX_RAY_TEMP_LEN else {}
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, **kw)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def _crawl(self, out_dir: str, resume: bool = False) -> float:
        from fs_crawler_ray.crawl import crawl

        t0 = time.perf_counter()
        crawl(self.info, self.seeds, out_dir, self.config, resume=resume)
        return time.perf_counter() - t0

    # -- checks ----------------------------------------------------------
    def check_output(self, out_dir: str, wl=None) -> list[str]:
        wl = wl or self.wl
        return gate.check(gate.read_output(out_dir), self.oracles[wl.name],
                          exact=wl.membership_mode == "exact")

    def _attempt(self, label: str, fn):
        """Run one rep or phase; a raise or a failed check is a failed rep."""
        try:
            return self.tally.record(label, fn())
        except Exception:  # a rep boundary: record and keep measuring
            self.tally.record(label, [traceback.format_exc(limit=8)])
            return None

    # -- measurement -----------------------------------------------------
    def measure(self) -> None:
        """Rounds of (crawl rep, resume rep, graph-build rep), at least
        MIN_ROUNDS and until --seconds have passed. Every workload runs
        all three kinds, as each prints every end-to-end metric. Peak
        session PSS is sampled throughout. A rep that raises ends the
        measurement; one that fails its check is counted and measuring
        goes on."""
        kinds = (("crawl", self._crawl_rep), ("resume", self._resume_rep),
                 ("graph_build", self._graph_rep))
        t_start = time.perf_counter()
        cpu0 = machine.cpu_times()
        with machine.PssSampler() as self.sampler:
            rounds, ok = 0, True
            while ok and (rounds < MIN_ROUNDS
                          or time.perf_counter() - t_start < self.args.seconds):
                ok = all(self._attempt(f"{kind}{rounds}", fn) is not None
                         for kind, fn in kinds)
                rounds += 1
        self.peak_pss_mb = self.sampler.peak_mb
        busy, steal = machine.busy_and_steal(cpu0, machine.cpu_times())
        self.window_cpu = {"busy": round(busy, 3), "steal": round(steal, 3)}
        self.layer["membership.shard_state_mb"] = (self.sampler.shard_peak_mb, "MB")

    def _timed(self, span: str, fn, *args) -> tuple[float, dict]:
        """Wall and session CPU seconds of ``fn(*args)`` (less the PSS
        sampler's own), the share of the machine's CPU time stolen
        meanwhile, and the speed probe run just before."""
        gc.collect()
        probe = machine.calibration_probe(PROBE_ROUNDS)
        settle_s = machine.settle()
        meter = machine.CpuMeter()
        meter.start()
        sampler_s = self.sampler.cpu_s
        t0 = time.perf_counter()
        with self.tracer.span(span):
            out = fn(*args)
        wall = time.perf_counter() - t0
        cpu_s, steal = meter.stop()
        cpu_s -= self.sampler.cpu_s - sampler_s
        return wall, {"out": out, "wall": wall, "cpu_s": cpu_s, "cpu_steal": steal,
                      "probe_s": probe, "settle_s": settle_s}

    @staticmethod
    def _rep_row(m: dict, **extra) -> dict:
        return {k: m[k] for k in ("wall", "cpu_s", "cpu_steal", "probe_s", "settle_s")} | extra

    def _crawl_rep(self) -> list[str]:
        wall, m = self._timed("crawl.rep", self._crawl, self.rep_out)
        rep = gate.lineage_summary(self.rep_out, wall)
        urls = rep["fetch"].get("ids_attempted", 0.0)
        rep.update(self._rep_row(m, urls_per_s=urls / wall, urls_per_cpu_s=urls / m["cpu_s"]))
        self.reps.append(rep)
        with self.tracer.span("gate.check"):
            return self.check_output(self.rep_out)

    def _resume_rep(self) -> list[str]:
        """Remove the last hop's log.json (the hop-complete marker), as if
        the driver died before writing it, and time ``resume=True``."""
        hops = gate.complete_hops(self.rep_out)
        os.remove(os.path.join(self.rep_out, f"hop={hops[-1]}", "log.json"))
        wall, m = self._timed("crawl.resume", self._crawl, self.rep_out, True)
        rerun = gate.lineage_summary(self.rep_out, wall)["last_hop_stage_s"]
        self.resumes.append(self._rep_row(m, rebuild=wall - rerun))
        with self.tracer.span("gate.check"):
            return self.check_output(self.rep_out)

    def _graph_build(self):
        """Resolve, then adjacency export, on the rep output; returns the
        resolved edges, the export dir and both walls."""
        from fs_crawler_ray.crawl import CrawlResult
        from fs_crawler_ray.stages.export import write_adjacency_shards
        from fs_crawler_ray.stages.resolve import resolve_relationships

        adj = os.path.join(self.run_dir, "adjacency")
        shutil.rmtree(adj, ignore_errors=True)
        res = CrawlResult.load(self.rep_out)
        t0 = time.perf_counter()
        with self.tracer.span("resolve.resolve_relationships"):
            final = resolve_relationships(
                res.edges(), res.vertices(), self.info.relationships_path,
                num_partitions=2 * NUM_CPUS, num_buckets=64, fetch_concurrency=2,
            ).materialize()
        t1 = time.perf_counter()
        with self.tracer.span("export.write_adjacency_shards"):
            write_adjacency_shards(res.vertices(), final, adj, shard_size=1 << 12,
                                   num_partitions=2 * NUM_CPUS)
        return final, adj, t1 - t0, time.perf_counter() - t1

    def _graph_rep(self) -> list[str]:
        import pyarrow as pa
        import pyarrow.dataset as pads
        import ray

        from fs_crawler_ray.model import ADJACENCY_EDGE_TYPES

        wall, m = self._timed("graph_build", self._graph_build)
        final, adj, t_resolve, t_export = m["out"]
        self.graphs.append(self._rep_row(m, resolve=t_resolve, export=t_export))
        out = gate.read_output(self.rep_out)
        typed = pa.concat_tables(t for t in ray.get(
            final.select_columns(["source", "destination", "type"]).to_arrow_refs())
            if t.num_columns)
        src, dst = typed["source"].to_pylist(), typed["destination"].to_pylist()
        verts = set(out["vertices"])
        n_adj_edges = sum(1 for s, d, ty in zip(src, dst, typed["type"].to_pylist())
                          if ty in ADJACENCY_EDGE_TYPES and s in verts and d in verts)
        ent = pads.dataset(adj, format="parquet", partitioning="hive")
        n_rows = ent.count_rows()
        self.layer.update({
            "resolve.rows_in": (len(out["edges"]), "count"),
            "resolve.rows_out": (len(src), "count"),
            "export.shards": (len({os.path.dirname(p) for p in ent.files}), "count"),
            "export.bytes": (sum(os.path.getsize(p) for p in ent.files), "bytes"),
        })
        bad = []
        if sorted(zip(src, dst)) != sorted(out["edges"]):
            bad.append("resolved edges are not the crawl's edges")
        if n_rows != len(verts) + n_adj_edges:
            bad.append(f"adjacency rows {n_rows} != vertices {len(verts)} "
                       f"+ typed edges {n_adj_edges}")
        return bad

    def shutdown(self) -> None:
        """Stop the Ray session and wait until every process it started
        has ended (a zombie has ended; only its parent can reap it)."""
        import ray

        pids = [p for p in machine.session_pids(os.getpid()) if p != os.getpid()]
        ray.shutdown()
        machine.wait_ended(pids, timeout_s=30.0)

    # -- result ----------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "crawl_urls_per_cpu_s": (_med(self.reps, lambda r: r["urls_per_cpu_s"]), "1/cpu_s"),
            "resume_cpu_s": (_med(self.resumes, lambda r: r["cpu_s"]), "cpu_s"),
            "graph_build_cpu_s": (_med(self.graphs, lambda r: r["cpu_s"]), "cpu_s"),
            "peak_rss_mb": (self.peak_pss_mb, "MB"),
        }

    def lineage_layers(self) -> None:
        """Per-layer medians over the reps: the end-to-end phases' wall
        times, lineage marks, phase splits."""
        self.layer["wall.crawl_urls_per_s"] = (_med(self.reps, lambda r: r["urls_per_s"]), "1/s")
        self.layer["wall.resume_s"] = (_med(self.resumes, lambda r: r["wall"]), "s")
        self.layer["wall.graph_build_s"] = (_med(self.graphs, lambda r: r["wall"]), "s")

        for mark in ("hop_plan", "hop_exec", "hop_post", "log_classify"):
            self.layer[f"crawl.{mark}_s"] = (
                _med(self.reps, lambda r: r["stage"].get(mark, 0.0)), "s")
        self.layer["crawl.prep_s"] = (
            _med(self.reps, lambda r: r["wall"] - sum(r["stage"].values())), "s")
        self.layer["crawl.hops"] = (_med(self.reps, lambda r: r["hops"]), "count")
        self.layer["crawl.records"] = (_med(self.reps, lambda r: r["records"]), "count")
        self.layer["crawl.resume_rebuild_s"] = (_med(self.resumes, lambda r: r["rebuild"]), "s")
        self.layer["resolve.s"] = (_med(self.graphs, lambda r: r["resolve"]), "s")
        self.layer["export.s"] = (_med(self.graphs, lambda r: r["export"]), "s")


def _med(reps: list[dict], fn) -> float:
    return statistics.median(fn(r) for r in reps) if reps else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "fs_crawler_ray")):
        print("perfbench: run from the root of a checkout (no fs_crawler_ray/ here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    run = Run(args, root)
    t_excl = time.perf_counter()
    pre = machine.preflight()
    calib = machine.calibration_probe()
    run.prepare_inputs()
    gc.collect()
    excluded = time.perf_counter() - t_excl
    try:
        run.setup()
        setup_s = time.perf_counter() - T_PROCESS - excluded
        run.measure()
        run.lineage_layers()
        e2e = run.end_to_end(setup_s)
        if args.trace:
            import probes

            probes.run_all(run)
            run.layer["driver.vmhwm_mb"] = (machine.vmhwm_mb(), "MB")
            run.layer["machine.calibration_s"] = (calib, "s")
            run.layer["machine.probe_s"] = (
                _med(run.reps + run.resumes + run.graphs, lambda r: r["probe_s"]), "s")
            run.layer["trace.spans"] = (len(run.tracer.spans), "count")
            run.layer["trace.bookkeeping_s"] = (run.tracer.bookkeeping_s, "s")
    finally:
        run.shutdown()
    metrics = run.layer if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "persons": args.persons,
        "cpus": NUM_CPUS, "sched_affinity": len(os.sched_getaffinity(0)),
        "preflight": pre, "calibration_s": calib, "inputs_s": excluded,
        "window_cpu": run.window_cpu,
        "probe_median_s": _med(run.reps + run.resumes + run.graphs, lambda r: r["probe_s"]),
        "reps": run.reps, "resumes": run.resumes,
        "graph_builds": run.graphs, "failures": run.tally.failures,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_layer": {k: v for k, (v, _) in run.layer.items()},
    }
    os.makedirs(os.path.join(run.work, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}_s{args.seed}_t{args.trace}_{stamp}_{os.getpid()}.json"
    with open(os.path.join(run.work, "results", name), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        untraced = _last_untraced(run.work, args)
        traced = record["end_to_end"]
        os.makedirs(os.path.join(run.work, "traces"), exist_ok=True)
        run.tracer.write(os.path.join(run.work, "traces", name), {
            "end_to_end_traced": traced, "end_to_end_untraced": untraced,
            "tracing_overhead": untraced and {
                k: traced[k] / untraced[k] - 1 for k in traced if untraced.get(k)},
        })
    print(json.dumps({"context": {k: record[k] for k in
                                  ("workload", "seed", "cpus", "preflight", "calibration_s")}}))
    print(json.dumps({
        "correct": run.tally.failed == 0 and run.tally.attempted > 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _last_untraced(work: str, args) -> dict | None:
    """The latest untraced record of the same workload and seed, so the
    traced run's end-to-end numbers sit beside it (tracing overhead)."""
    d = os.path.join(work, "results")
    prefix = f"{args.workload}_s{args.seed}_t0_"
    names = sorted(n for n in os.listdir(d) if n.startswith(prefix))
    if not names:
        return None
    with open(os.path.join(d, names[-1])) as f:
        return json.load(f)["end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
