"""CLI entry points (SURVEY §2 X4 — the ``crawl-fs`` / ``validate-fs``
analogs, reference ``fscrawler/crawler.py:53-124`` and
``fscrawler/validator.py:20-45``).

Usage (from the repo root so Ray workers resolve the package):

    python -m fs_crawler_ray.cli crawl --corpus DIR --out DIR \\
        [--seeds ID ...] [--hops N] [--resume] [--probabilistic] \\
        [--frontier-budget N] [--politeness-rate R] [--robots-every K]
    python -m fs_crawler_ray.cli resolve --corpus DIR --crawl DIR --out DIR
    python -m fs_crawler_ray.cli validate --crawl DIR --edges DIR
    python -m fs_crawler_ray.cli export --crawl DIR --edges DIR --out DIR [--hops N]
    python -m fs_crawler_ray.cli gen-corpus --out DIR --n 10000 [--seed 42]

Owns its Ray session (scripts only — the driver/test contract never
init here).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from fs_crawler_ray.engine import configure_data_context

    configure_data_context()


def cmd_gen_corpus(args) -> int:
    from fs_crawler_ray.corpus import CorpusSpec, generate_corpus

    info = generate_corpus(
        CorpusSpec(n_persons=args.n, seed=args.seed, n_seeds=args.n_seeds,
                   narrative_words=args.narrative_words),
        args.out,
    )
    print(json.dumps({"documents": info.documents_path, "n_docs": info.n_docs,
                      "seeds": info.seeds}))
    return 0


def cmd_crawl(args) -> int:
    from fs_crawler_ray.corpus import CorpusInfo
    from fs_crawler_ray.crawl import CrawlConfig, crawl
    from fs_crawler_ray.stages.fetch import PolitenessBudget
    from fs_crawler_ray.state.robots import RobotsPolicy

    _init_ray(args.num_cpus)
    info = CorpusInfo.load(args.corpus)
    seeds = args.seeds or info.seeds
    cfg = CrawlConfig(
        hops=args.hops,
        membership_mode="probabilistic" if args.probabilistic else "exact",
        frontier_budget=args.frontier_budget,
        politeness=PolitenessBudget(rate_per_host=args.politeness_rate)
        if args.politeness_rate > 0 else None,
        robots=RobotsPolicy(disallow_every=args.robots_every)
        if args.robots_every > 0 else None,
    )
    result = crawl(info, seeds, args.out, cfg, resume=args.resume)
    print(json.dumps({"hops": result.hops_run, "log": result.log}, default=str))
    return 0


def cmd_resolve(args) -> int:
    from fs_crawler_ray.corpus import CorpusInfo
    from fs_crawler_ray.crawl import CrawlResult
    from fs_crawler_ray.stages.resolve import (VERTEX_LOOKUP_COLUMNS, resolve_relationships,
                                               split_primary_aux)

    _init_ray(args.num_cpus)
    info = CorpusInfo.load(args.corpus)
    result = CrawlResult.load(args.crawl)
    final = resolve_relationships(
        result.edges(), result.vertices(columns=VERTEX_LOOKUP_COLUMNS), info.relationships_path
    ).materialize()
    import os

    primary, aux = split_primary_aux(final)
    primary.write_parquet(os.path.join(args.out, "edges.parquet"))
    aux.write_parquet(os.path.join(args.out, "aux.edges.parquet"))
    print(json.dumps({"edges": final.count()}))
    return 0


def cmd_validate(args) -> int:
    import ray.data

    from fs_crawler_ray.crawl import CrawlResult
    from fs_crawler_ray.stages.validate import validate

    _init_ray(args.num_cpus)
    result = CrawlResult.load(args.crawl)
    edges = ray.data.read_parquet(args.edges) if args.edges else result.edges()
    stats, _ = validate(result.vertices(), edges, result.frontier())
    from dataclasses import asdict

    print(json.dumps(asdict(stats)))
    return 0


def cmd_export(args) -> int:
    import ray.data

    from fs_crawler_ray.crawl import CrawlResult
    from fs_crawler_ray.stages.export import position_columns, write_adjacency_shards

    _init_ray(args.num_cpus)
    result = CrawlResult.load(args.crawl)
    edges = ray.data.read_parquet(args.edges) if args.edges else result.edges()
    out = write_adjacency_shards(result.vertices(columns=position_columns(args.hops)), edges,
                                 args.out, hops=args.hops)
    print(json.dumps({"adjacency": out}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="fs_crawler_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, default=10000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--n-seeds", type=int, default=2)
    g.add_argument("--narrative-words", type=int, default=0)
    g.set_defaults(fn=cmd_gen_corpus)

    c = sub.add_parser("crawl")
    c.add_argument("--corpus", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", nargs="*", default=None)
    c.add_argument("--hops", type=int, default=4)
    c.add_argument("--resume", action="store_true")
    c.add_argument("--probabilistic", action="store_true")
    c.add_argument("--frontier-budget", type=int, default=None)
    c.add_argument("--politeness-rate", type=float, default=0.0)
    c.add_argument("--robots-every", type=int, default=0)
    c.set_defaults(fn=cmd_crawl)

    r = sub.add_parser("resolve")
    r.add_argument("--corpus", required=True)
    r.add_argument("--crawl", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_resolve)

    v = sub.add_parser("validate")
    v.add_argument("--crawl", required=True)
    v.add_argument("--edges", default=None)
    v.set_defaults(fn=cmd_validate)

    e = sub.add_parser("export")
    e.add_argument("--crawl", required=True)
    e.add_argument("--edges", default=None)
    e.add_argument("--out", required=True)
    e.add_argument("--hops", type=int, default=None)
    e.set_defaults(fn=cmd_export)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
