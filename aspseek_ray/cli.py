"""Command-line entry points (the reference's `index` / `s.cgi` binary
surface, SURVEY.md §3; north-star: "resumable via ray job submit on fixed
multi-node clusters"):

    ray job submit -- python -m aspseek_ray crawl \
        --corpus /data/corpus --out /data/run1 [--resume] [--config cfg.json]
    python -m aspseek_ray search --sf-dir /data/sf 'spark AND (window OR scan)'
    python -m aspseek_ray crawl-search --store /data/run1/store \
        --pages /data/corpus/pages.parquet 'foo bar' --per-site 2
    python -m aspseek_ray index --pages /data/corpus/pages.parquet --out /data/idx
    python -m aspseek_ray searchd --store /data/run1/store \
        --pages /data/corpus/pages.parquet --port 7003 --stored-port 7004

`crawl --resume` restarts from the latest per-partition checkpoint
(LATEST.json manifest), mirroring re-running the reference's `index`
after a crash. Ray is initialised lazily and only if no cluster session
exists (a `ray job submit` driver already has one)."""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(address: str | None = None) -> None:
    """Attach to (or start) Ray exactly once per process.

    With ``--ray-address`` unset, plain ``ray.init()`` honors the
    ``RAY_ADDRESS`` env var — so a ``ray job submit`` driver attaches to
    its cluster session instead of silently nesting a single-node Ray —
    and falls back to a local session otherwise."""
    import ray

    if not ray.is_initialized():
        kw = {"address": address} if address else {}
        ray.init(include_dashboard=False, logging_level="ERROR", **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _cmd_crawl(args: argparse.Namespace) -> int:
    from aspseek_ray.config import CrawlConfig
    from aspseek_ray.pipelines.crawl import release_shards, run_crawl

    if args.config:
        cfg = CrawlConfig.from_json(args.config)
    else:
        kw = {}
        if args.max_rounds is not None:
            kw["max_rounds"] = args.max_rounds
        if args.max_docs is not None:
            kw["max_docs"] = args.max_docs          # reference `index -n N`
        if args.num_shards is not None:
            kw["num_shards"] = args.num_shards
        if args.follow_mode is not None:
            kw["follow_mode"] = args.follow_mode
        cfg = CrawlConfig(**kw)
    _ensure_ray(args.ray_address)
    try:
        res = run_crawl(args.corpus, args.out, cfg, resume=args.resume,
                        scratch_dir=args.scratch)
    finally:
        release_shards()
    print(json.dumps({"out_dir": res.out_dir, "rounds": res.rounds,
                      "total_fetched": res.total_fetched}))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from aspseek_ray.pipelines.qparser import search_query

    _ensure_ray(args.ray_address)
    t = search_query(args.sf_dir, args.query)
    for d in t["doc_id"].to_pylist()[: args.limit]:
        print(d)
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from aspseek_ray.pipelines.search import spell_suggest

    _ensure_ray(args.ray_address)
    t = spell_suggest(args.sf_dir, args.term)
    for w, d in zip(t["word"].to_pylist(), t["df"].to_pylist()):
        print(f"{w}\t{d}")
    return 0


def _cmd_similar(args: argparse.Namespace) -> int:
    from aspseek_ray.pipelines.search import similar_docs

    _ensure_ray(args.ray_address)
    t = similar_docs(args.sf_dir, args.doc_id, k=args.limit)
    for d, sc in zip(t["doc_id"].to_pylist(), t["score"].to_pylist()):
        print(f"{d}\t{sc}")
    return 0


def _cmd_crawl_search(args: argparse.Namespace) -> int:
    from aspseek_ray.pipelines.search import ranked_crawl_search

    _ensure_ray(args.ray_address)
    t = ranked_crawl_search(args.store, args.pages, query=args.query,
                            k=args.limit, per_site=args.per_site)
    for row in t.to_pylist():
        print(json.dumps(row))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from aspseek_ray.pipelines.index_products import (
        build_postings, merge_postings, update_postings_index_staged)

    if args.update and not args.index_dir:
        raise SystemExit("index --update requires --index-dir")
    if not args.update and not (args.out or args.index_dir):
        raise SystemExit("index requires --out or --index-dir")
    _ensure_ray(args.ray_address)
    if args.update:
        # incremental delta->main refresh (reference `index` real-time
        # update): stage one crawl round's store into the EXISTING
        # bucketed index at --index-dir, folding past --fold-threshold
        r = update_postings_index_staged(
            args.index_dir, args.pages, fold_threshold=args.fold_threshold)
        print(json.dumps({"index_dir": args.index_dir, **r}))
        return 0
    if args.index_dir:
        # initial bucketed (raw, mergeable) index build
        build_postings(args.pages, out_dir=args.index_dir)
        print(json.dumps({"index_dir": args.index_dir}))
        return 0
    merged = merge_postings(build_postings(args.pages))
    merged.write_parquet(args.out)
    print(json.dumps({"out": args.out}))
    return 0


def _cmd_searchd(args: argparse.Namespace) -> int:
    """Run the search daemon (SURVEY §3.2) — and optionally the stored
    daemon — until interrupted; prints the bound address(es) as JSON so a
    front-end (s.cgi, tests) can connect to an ephemeral port."""
    import threading

    from aspseek_ray.daemon import SearchdServer, StoredServer

    _ensure_ray(args.ray_address)
    srv = SearchdServer(args.store, args.pages,
                        max_results=args.max_results,
                        host=args.host, port=args.port)
    host, port = srv.start()
    out = {"searchd": {"host": host, "port": port}}
    stored = None
    if args.stored_port is not None:
        stored = StoredServer(args.store, host=args.host,
                              port=args.stored_port)
        shost, sport = stored.start()
        out["stored"] = {"host": shost, "port": sport}
    print(json.dumps(out), flush=True)
    try:
        threading.Event().wait()        # serve until SIGINT
    except KeyboardInterrupt:
        pass
    finally:
        srv.stop()
        if stored is not None:
            stored.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aspseek_ray")
    p.add_argument("--ray-address", default=None, metavar="ADDR",
                   help="Ray cluster address ('auto', 'local', or host:port); "
                        "default: ray.init() resolves RAY_ADDRESS, else local")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run the frontier crawl (index role)")
    c.add_argument("--corpus", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--config", help="CrawlConfig JSON path")
    c.add_argument("--resume", action="store_true",
                   help="restart from the latest checkpoint manifest")
    c.add_argument("--scratch", help="pre-bucketed pages dir (reused)")
    c.add_argument("--max-rounds", type=int)
    c.add_argument("--max-docs", type=int, help="reference `index -n N`")
    c.add_argument("--num-shards", type=int)
    c.add_argument("--follow-mode", choices=["world", "site", "path"])
    c.set_defaults(fn=_cmd_crawl)

    s = sub.add_parser("search", help="query the documents index (s.cgi role)")
    s.add_argument("--sf-dir", required=True)
    s.add_argument("query")
    s.add_argument("--limit", type=int, default=20)
    s.set_defaults(fn=_cmd_search)

    sg = sub.add_parser("suggest",
                        help="did-you-mean over the documents vocabulary")
    sg.add_argument("--sf-dir", required=True)
    sg.add_argument("term")
    sg.set_defaults(fn=_cmd_suggest)

    sm = sub.add_parser("similar", help="more-like-this by doc id")
    sm.add_argument("--sf-dir", required=True)
    sm.add_argument("doc_id", type=int)
    sm.add_argument("--limit", type=int, default=10)
    sm.set_defaults(fn=_cmd_similar)

    cs = sub.add_parser("crawl-search",
                        help="ranked search over a crawl's own products")
    cs.add_argument("--store", required=True)
    cs.add_argument("--pages", required=True)
    cs.add_argument("query")
    cs.add_argument("--limit", type=int, default=10)
    cs.add_argument("--per-site", type=int, default=None)
    cs.set_defaults(fn=_cmd_crawl_search)

    ix = sub.add_parser("index", help="build + merge postings from pages")
    ix.add_argument("--pages", required=True,
                    help="pages parquet (or one store round dir with --update)")
    ix.add_argument("--out", help="merged-postings parquet output")
    ix.add_argument("--index-dir",
                    help="bucketed raw index dir (build, or target of --update)")
    ix.add_argument("--update", action="store_true",
                    help="incrementally stage --pages into --index-dir "
                         "(S7 delta-file model)")
    ix.add_argument("--fold-threshold", type=float, default=0.0,
                    help="with --update: staged rows / main rows ratio "
                         "that triggers a fold (0 folds every update)")
    ix.set_defaults(fn=_cmd_index)

    sd = sub.add_parser("searchd",
                        help="serve queries over TCP (searchd role)")
    sd.add_argument("--store", required=True)
    sd.add_argument("--pages", required=True)
    sd.add_argument("--host", default="127.0.0.1")
    sd.add_argument("--port", type=int, default=0,
                    help="0 = pick a free port (printed on stdout)")
    sd.add_argument("--max-results", type=int, default=1000)
    sd.add_argument("--stored-port", type=int, default=None,
                    help="also serve the stored daemon on this port "
                         "(0 = free port)")
    sd.set_defaults(fn=_cmd_searchd)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
