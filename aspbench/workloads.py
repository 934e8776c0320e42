"""The two workloads. Each one does fixed work, times it from outside
by calling the program's public functions, and checks every output.

Layers are timed around calls into ``pipelines.crawl`` (Crawler.__init__
/ run_round / run), ``state.shard`` (CrawlShard.stats), ``sources.pages``
(bucket_pages), ``pipelines.index_products`` (build_postings /
update_postings_index_staged / fold_deltas / pagerank),
``pipelines.search`` (ranked_crawl_search / excerpts) and ``daemon``
(SearchdServer / SearchdClient)."""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from aspbench import session
from aspbench.prepare import crawl_config, crawl_names
from aspbench.spans import Tracer
from aspbench.spec import NUM_BUCKETS, SETUP_REPEATS, WORKLOADS
from aspbench.stats import LedgerRow, percentile, reconcile


@dataclass
class Run:
    workload: str
    inputs: Path          # cached corpus + references for (workload, seed)
    scratch: Path         # this run's outputs, emptied at start
    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def spec(self) -> dict:
        return WORKLOADS[self.workload]

    @property
    def corpus(self) -> str:
        return str(self.inputs / "corpus")

    @cached_property
    def text_of(self) -> dict[str, str]:
        """url -> the corpus ``text`` column."""
        t = pq.read_table(f"{self.corpus}/pages.parquet",
                          columns=["url", "text"])
        return dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))

    def record_peak_rss(self) -> None:
        """``driver_peak_rss_mb``: the driver's peak RSS so far. Taken
        when the program's work ends and before any check runs, so the
        checks' own memory does not count."""
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                self.e2e["driver_peak_rss_mb"] = int(line.split()[1]) / 1024

    def op(self, errors: list[str]) -> None:
        """Count one operation; it failed if any of its checks did."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors


# ----------------------------------------------------------------- set-up
def _warm_pool() -> float:
    """Start the worker pool with one small Dataset job."""
    import ray.data as rd

    t0 = time.perf_counter()
    rd.range(64, override_num_blocks=2 * session.NUM_CPUS).map_batches(
        lambda b: b).take_all()
    return time.perf_counter() - t0


def _reference_work() -> float:
    """Fixed plain-Python work; returns the CPU seconds its thread took."""
    t0 = time.thread_time()
    x = 0
    for v in range(1_500_000):
        x = (x * 31 + v) % 1_000_003
    return time.thread_time() - t0


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


def reference_cpu_s() -> float:
    """CPU seconds of fixed work made of the benchmark's own code: 16 Ray
    tasks of plain Python on Ray's CPUs, each timed by its own thread's
    CPU clock, so that no other activity on the machine counts in it. It
    does not depend on the program, so it moves only with the host: when
    the host's other guests share its cores, this work's CPU time rises
    as the program's does. The end-to-end costs divide the program's CPU
    time by this, measured just before and after."""
    import ray

    task = ray.remote(num_cpus=1)(_reference_work)
    return sum(ray.get([task.remote() for _ in range(16)]))


def setup(run: Run, init_s: float) -> tuple[str, float]:
    """Pool warm-up and the pages ingest, ``SETUP_REPEATS`` times into
    fresh dirs, in the run's one Ray session. Returns (bucket dir for the
    crawls, set-up seconds)."""
    from aspseek_ray.sources.pages import bucket_pages

    tr = run.tracer
    with tr.span("ray.warm"):
        warm_s = _warm_pool()
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tr.span("pages.bucket_pages"):
            bucket_pages(f"{run.corpus}/pages.parquet",
                         str(run.scratch / f"bucketed{i}"),
                         num_buckets=NUM_BUCKETS)
        times.append(time.perf_counter() - t0)
    run.layer.update({"ray.init_s": init_s, "ray.warm_s": warm_s,
                      "pages.bucket_s": statistics.median(times)})
    run.extra["setup_parts_s"] = {"ray.init": init_s, "ray.warm": warm_s,
                                  "pages.bucket_pages": times}
    return (str(run.scratch / "bucketed0"),
            init_s + warm_s + statistics.median(times))


# ------------------------------------------------------------------ crawl
@dataclass
class CrawlOutcome:
    out: Path             # the crawl's output dir
    ref: str              # its reference crawl under inputs/ref
    wall_s: float
    cpu_s: float          # session.busy_cpu_s over the same interval
    fetched: int
    rounds: list[dict]
    ledger: list[LedgerRow]
    shard_end: list[dict]
    skew: list[float]
    init_s: float
    finalize_s: float
    dups: list[int] = field(default_factory=list)


def _shard_stats(crawler) -> list[dict]:
    import ray

    return ray.get([s.stats.remote() for s in crawler.shards])


def _sum(stats: list[dict], key: str) -> int:
    return sum(int(s[key]) for s in stats)


def crawl(run: Run, out: Path, ref: str, bucket_dir: str,
          rounds: int | None = None) -> CrawlOutcome:
    """One crawl, from Crawler.__init__ through run() and shutdown(),
    with a CrawlShard.stats() ledger row per round. ``check_crawl``
    checks it later, once the run's timed work is done."""
    from aspseek_ray.pipelines.crawl import Crawler

    tr = run.tracer
    cfg = crawl_config(run.workload, rounds)
    shutil.rmtree(out, ignore_errors=True)
    ledger: list[LedgerRow] = []
    metrics: list[dict] = []
    skew: list[float] = []
    c0 = session.busy_cpu_s()
    t0 = time.perf_counter()
    with tr.span("crawl"):
        with tr.span("crawl.Crawler.__init__"):
            c = Crawler(run.corpus, str(out), cfg,
                        scratch_dir=bucket_dir)
        init_s = time.perf_counter() - t0
        try:
            with tr.span("shard.stats"):
                before = after = _shard_stats(c)
            while c.round < cfg.max_rounds:
                with tr.span("crawl.run_round"):
                    rs = time.perf_counter()
                    m = c.run_round()
                    if m is not None:
                        _phase_spans(tr, rs, m)
                if m is None:
                    break
                with tr.span("shard.stats"):
                    after = _shard_stats(c)
                ledger.append(LedgerRow(
                    round=m["round"],
                    offered=_sum(after, "offered") - _sum(before, "offered"),
                    rejected_seen=(_sum(after, "rejected_seen")
                                   - _sum(before, "rejected_seen")),
                    rejected_filtered=(_sum(after, "rejected_filtered")
                                       - _sum(before, "rejected_filtered")),
                    newly_discovered=m["newly_discovered"],
                    scheduled=m["scheduled"], trace_rows=-1))
                pend = [s["pending"] for s in after]
                mean = sum(pend) / len(pend)
                skew.append(max(pend) / mean if mean else 1.0)
                metrics.append(m)
                before = after
            tf = time.perf_counter()
            with tr.span("crawl.run"):
                res = c.run()
            finalize_s = time.perf_counter() - tf
        finally:
            with tr.span("crawl.shutdown"):
                c.shutdown()
    wall = time.perf_counter() - t0
    cpu = session.busy_cpu_s() - c0
    return CrawlOutcome(out, ref, wall, cpu, res.total_fetched, metrics,
                        ledger, after, skew, init_s, finalize_s)


def _phase_spans(tr: Tracer, start: float, m: dict) -> None:
    """Lay the phase seconds a round reports out as child spans of its
    run_round span, in the order the round runs them; what they leave
    uncovered is the round's unattributed self time."""
    t = start
    for name, key in (("crawl.counts", "counts_sec"),
                      ("crawl.emit", "emit_sec"),
                      ("crawl.pipeline", None),
                      ("crawl.barrier", "barrier_sec"),
                      ("crawl.checkpoint", "checkpoint_sec")):
        d = (m["pipeline_sec"] - m["barrier_sec"] if key is None
             else m.get(key, 0.0))
        tr.add(name, t, t + d)
        t += d


def _read_parquet_dir(path: Path, columns: list[str]) -> pa.Table:
    files = sorted(path.rglob("*.parquet"))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def check_crawl(run: Run, outcome: CrawlOutcome) -> list[str]:
    """The crawl's trace and seen set against ref_sim, its stored text
    against the corpus, and its shard ledger."""
    from aspseek_ray.pipelines.crawl import TRACE_COLS, read_trace

    out, ref = outcome.out, outcome.ref
    errs = []
    want = pq.read_table(run.inputs / "ref" / ref / "trace.parquet")
    got = read_trace(str(out))
    for col in TRACE_COLS:
        if got[col].to_pylist() != want[col].to_pylist():
            errs.append(f"trace column {col} differs from ref_sim "
                        f"({got.num_rows} vs {want.num_rows} rows)")
            break
    seen = set(_read_parquet_dir(out / "seen", ["url"])["url"].to_pylist())
    want_seen = set(pq.read_table(run.inputs / "ref" / ref / "seen.parquet")
                    ["url"].to_pylist())
    if seen != want_seen:
        errs.append(f"seen set differs from ref_sim ({len(seen)} vs "
                    f"{len(want_seen)} urls)")
    store = _read_parquet_dir(out / "store", ["url", "text"])
    text_of = run.text_of
    stored = store["url"].to_pylist()
    bad = sum(1 for u, t in zip(stored, store["text"].to_pylist())
              if text_of.get(u) != t)
    if bad:
        errs.append(f"{bad} stored texts differ from the corpus text column")
    ok_urls = [u for u, s in zip(want["url"].to_pylist(),
                                 want["status"].to_pylist()) if s == 200]
    if sorted(stored) != sorted(ok_urls):
        errs.append(f"store holds {len(stored)} urls, the trace fetched "
                    f"{len(ok_urls)} pages")
    per_round: dict[int, int] = {}
    for r in got["round"].to_pylist():
        per_round[r] = per_round.get(r, 0) + 1
    rows = [replace(row, trace_rows=per_round.get(row.round, 0))
            for row in outcome.ledger]
    dups, ledger_errs = reconcile(rows)
    outcome.ledger = rows
    outcome.dups = dups
    errs += ledger_errs
    if outcome.fetched != want.num_rows:
        errs.append(f"fetched {outcome.fetched} urls, ref_sim {want.num_rows}")
    return errs


def crawl_layers(run: Run, crawls: list[CrawlOutcome]) -> None:
    """Per-layer crawl figures, as means per crawl; counts must repeat
    exactly across the run's crawls of one configuration."""
    tr = run.tracer
    n = len(crawls)
    rounds = [m for c in crawls for m in c.rounds]
    round_ms = [s * 1000 for s in _span_durations(tr, "crawl.run_round")]
    run.layer.update({
        "crawl.init_s": sum(c.init_s for c in crawls) / n,
        "crawl.finalize_s": sum(c.finalize_s for c in crawls) / n,
        "crawl.rounds": len(rounds) / n,
        "crawl.round_mean_ms": sum(round_ms) / len(round_ms),
        "crawl.counts_s": sum(m["counts_sec"] for m in rounds) / n,
        "crawl.emit_s": sum(m["emit_sec"] for m in rounds) / n,
        "crawl.pipeline_s": sum(m["pipeline_sec"] for m in rounds) / n,
        "crawl.barrier_s": sum(m["barrier_sec"] for m in rounds) / n,
        "crawl.checkpoint_s": sum(m.get("checkpoint_sec", 0.0)
                                  for m in rounds) / n,
        "crawl.unattributed_s": tr.self_total("crawl.run_round") / n,
    })
    p50, p90 = percentile(round_ms, 50), percentile(round_ms, 90)
    run.extra["crawl.round_p50_ms"] = p50 if p50 is not None else \
        f"n/a ({len(round_ms)} rounds)"
    run.extra["crawl.round_p90_ms"] = p90 if p90 is not None else \
        f"n/a ({len(round_ms)} rounds)"

    counts = [(sum(r.offered for r in c.ledger),
               sum(r.rejected_seen for r in c.ledger),
               sum(r.rejected_filtered for r in c.ledger),
               sum(c.dups), sum(r.newly_discovered for r in c.ledger))
              for c in crawls]
    if len(set(counts)) != 1:
        run.op([f"shard counts differ between identical crawls: {counts}"])
    offered, rs, rf, dup, new = counts[-1]
    run.layer.update({
        "shard.offered": offered,
        "shard.rejected_seen": rs,
        "shard.rejected_filtered": rf,
        "shard.dup_in_round": dup,
        "shard.accept_ratio": new / offered if offered else 0.0,
        "shard.pending_skew": max(s for c in crawls for s in c.skew),
        "shard.cuckoo_load_max": max(s["cuckoo_load"]
                                     for s in crawls[-1].shard_end),
    })


def _span_durations(tr: Tracer, name: str) -> list[float]:
    return [s.end - s.start for s in tr.spans if s.name == name]


def run_crawl_workload(run: Run, init_s: float) -> None:
    spec = run.spec
    bucket_dir, setup_s = setup(run, init_s)
    run.e2e["setup_s"] = setup_s
    warm = "warm" if "warm" in crawl_names(run.workload) else "main"
    with run.tracer.paused():           # the untimed first crawl
        first = crawl(run, run.scratch / "crawl_warm", warm, bucket_dir,
                      rounds=spec["warm_rounds"])
        reference_cpu_s()
    ref_cpu = [reference_cpu_s()]       # before and after every crawl
    crawls = []
    for i in range(spec["timed_crawls"]):
        crawls.append(crawl(run, run.scratch / f"crawl{i}", "main",
                            bucket_dir))
        ref_cpu.append(reference_cpu_s())
    run.record_peak_rss()
    for c in [first] + crawls:
        run.op(check_crawl(run, c))
    costs = [c.cpu_s / _mean(ref_cpu[i:i + 2]) for i, c in enumerate(crawls)]
    run.e2e["work_cost"] = sum(costs)
    run.e2e["op_cost"] = statistics.median(costs)
    work_s = sum(c.wall_s for c in crawls)
    run.extra.update({
        "work_s": work_s,
        "op_ms": statistics.median(c.wall_s for c in crawls) * 1000,
        "ops_per_s": statistics.median(c.fetched / c.wall_s for c in crawls),
        "urls_per_s": sum(c.fetched for c in crawls) / work_s,
        "crawl_walls_s": [c.wall_s for c in crawls],
        "work_cpu_s": sum(c.cpu_s for c in crawls),
        "op_cpu_ms": statistics.median(c.cpu_s for c in crawls) * 1000,
        "crawl_cpu_s": [c.cpu_s for c in crawls],
        "reference_cpu_s": ref_cpu,
        "urls_per_crawl": crawls[0].fetched,
    })
    if run.tracer.enabled:
        crawl_layers(run, crawls)


# ----------------------------------------------------------------- search
def _refresh(run: Run, store: Path, index: Path) -> None:
    from aspseek_ray.pipelines.index_products import (
        build_postings, fold_deltas, update_postings_index_staged)

    tr = run.tracer
    rounds = sorted(store.glob("round=*"), key=lambda p: int(p.name[6:]))
    with tr.span("index.build_postings"):
        build_postings(str(rounds[0])).write_parquet(
            str(index), partition_cols=["word_bucket"])
    for r in rounds[1:]:
        with tr.span("index.update_postings_index_staged"):
            update_postings_index_staged(str(index), str(r),
                                         fold_threshold=float("inf"))
    with tr.span("index.fold_deltas"):
        fold_deltas(str(index))


def _check_index(store: Path, index: Path) -> list[str]:
    import ray

    from aspseek_ray.pipelines.index_products import build_postings_latest

    cols = ["word", "doc_seq", "positions"]
    keys = [("word", "ascending"), ("doc_seq", "ascending")]
    rounds = sorted(store.glob("round=*"), key=lambda p: int(p.name[6:]))
    ds = build_postings_latest([str(r) for r in rounds])
    parts = [t.select(cols) for t in ray.get(ds.materialize().to_arrow_refs())
             if t.num_rows]
    want = pa.concat_tables(parts).sort_by(keys).combine_chunks()
    got = (pads.dataset(str(index), format="parquet", partitioning="hive")
           .to_table(columns=cols).sort_by(keys).combine_chunks())
    if not got.equals(want):
        return [f"folded index ({got.num_rows} rows) differs from "
                f"build_postings_latest ({want.num_rows} rows)"]
    return []


def _direct(store: Path, pages: str, q: str, per_site: int,
            max_results: int) -> list[tuple]:
    from aspseek_ray.pipelines.search import ranked_crawl_search

    t = ranked_crawl_search(str(store), pages, k=max_results,
                            per_site=per_site or None, query=q,
                            excerpt_width=40)
    hosts = t["host"].to_pylist() if "host" in t.schema.names \
        else [""] * t.num_rows
    return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                    t["excerpt"].to_pylist(), hosts))


def _page_of(answer: dict) -> list[tuple]:
    return [(r["url"], r["score"], r["excerpt"], r["host"])
            for r in answer["results"]]


def _check_answer(answer: dict, ref: list[tuple], page: int,
                  size: int) -> list[str]:
    want = ref[page * size:(page + 1) * size]
    if answer["total"] != len(ref) or _page_of(answer) != want:
        return [f"searchd page {page} differs from ranked_crawl_search "
                f"(total {answer['total']} vs {len(ref)})"]
    return []


def run_search_workload(run: Run, init_s: float) -> None:
    from aspseek_ray.daemon import SearchdClient, SearchdServer

    spec = run.spec
    tr = run.tracer
    bucket_dir, setup_s = setup(run, init_s)
    out = run.scratch / "store_crawl"
    store_crawl = crawl(run, out, "main", bucket_dir)
    store = out / "store"
    pages = f"{run.corpus}/pages.parquet"
    t0 = time.perf_counter()
    server = SearchdServer(str(store), pages,
                           max_results=spec["max_results"])
    host, port = server.start()
    # the store crawl is checked with the rest, after the timed work
    run.e2e["setup_s"] = (setup_s + store_crawl.wall_s
                          + time.perf_counter() - t0)
    run.extra["urls_per_s"] = store_crawl.fetched / store_crawl.wall_s
    try:
        mix = json.loads((run.inputs / "queries.json").read_text())["mix"]
        timed = mix[:len(spec["cold_kinds"])]
        pairs = [(q, ps) for q, ps, _ in timed]
        kinds = [k for _, _, k in timed]
        if kinds != list(spec["cold_kinds"]):
            raise RuntimeError(f"query mix times {kinds}, the workload "
                               f"{list(spec['cold_kinds'])}")
        refs: dict[tuple, list[tuple]] = {}
        # the first query of the session runs untimed; it is also the
        # reference answer for the first pair
        with tr.span("search.ranked_crawl_search"):
            refs[pairs[0]] = _direct(store, pages, *pairs[0],
                                     spec["max_results"])

        reference_cpu_s()
        # before the refresh, between it and the query mix, and after
        ref_cpu = [reference_cpu_s()]
        index = run.scratch / "index"
        cw = session.busy_cpu_s()
        tw = time.perf_counter()
        with tr.span("refresh"):
            _refresh(run, store, index)
        refresh_s = time.perf_counter() - tw
        refresh_cpu_s = session.busy_cpu_s() - cw
        ref_cpu.append(reference_cpu_s())

        size = spec["page_size"]
        cold, cold_cpu, warm, answers = [], [], [], []
        cq = session.busy_cpu_s()
        tq = time.perf_counter()
        with SearchdClient(host, port) as client:
            for q, ps in pairs:
                c = session.busy_cpu_s()
                t = time.perf_counter()
                with tr.span("daemon.SearchdClient.search"):
                    a = client.search(q, page=0, page_size=size, per_site=ps)
                cold.append(time.perf_counter() - t)
                cold_cpu.append(session.busy_cpu_s() - c)
                answers.append(((q, ps), 0, a))
                n_pages = max(1, min(5, -(-a["total"] // size)))
                for i in range(spec["warm_per_pair"]):
                    page = (i + 1) % n_pages
                    t = time.perf_counter()
                    with tr.span("daemon.SearchdClient.search"):
                        a = client.search(q, page=page, page_size=size,
                                          per_site=ps)
                    warm.append(time.perf_counter() - t)
                    answers.append(((q, ps), page, a))
            query_s = time.perf_counter() - tq
            query_cpu_s = session.busy_cpu_s() - cq
            ref_cpu.append(reference_cpu_s())
            cache = client.stats()
        run.record_peak_rss()

        query_ref = _mean(ref_cpu[1:])
        run.e2e["work_cost"] = (refresh_cpu_s / _mean(ref_cpu[:2])
                                + query_cpu_s / query_ref)
        run.e2e["op_cost"] = statistics.median(cold_cpu) / query_ref
        run.extra.update({
            "work_cpu_s": refresh_cpu_s + query_cpu_s,
            "op_cpu_ms": statistics.median(cold_cpu) * 1000,
            "work_s": refresh_s + query_s,
            "op_ms": statistics.median(cold) * 1000,
            "ops_per_s": len(answers) / query_s,
            "refresh_s": refresh_s,
            "refresh_cpu_s": refresh_cpu_s,
            "query_cold_ms": statistics.median(cold) * 1000,
            "query_cold_n": len(cold),
            "query_warm_p50_ms": percentile([w * 1000 for w in warm], 50),
            "query_warm_p90_ms": percentile([w * 1000 for w in warm], 90),
            "query_warm_n": len(warm),
            "query_cold_ms_by_kind": {k: c * 1000 for k, c in zip(kinds, cold)},
            "query_cold_cpu_ms": [c * 1000 for c in cold_cpu],
            "query_cpu_s": query_cpu_s,
            "reference_cpu_s": ref_cpu,
            "store_docs": _read_parquet_dir(store, ["url"]).num_rows,
        })

        # checks, untimed: the store crawl, and every distinct answer
        # against a direct call
        run.op(check_crawl(run, store_crawl))
        for pair in pairs[1:]:
            with tr.span("search.ranked_crawl_search"):
                refs[pair] = _direct(store, pages, *pair, spec["max_results"])
        for pair, page, a in answers:
            run.op(_check_answer(a, refs[pair], page, size))
        run.op(_check_index(store, index)
               + ([] if (cache["misses"], cache["hits"])
                  == (len(pairs), len(warm))
                  else [f"searchd cache {cache}, expected {len(pairs)} "
                        f"misses and {len(warm)} hits"]))
        if tr.enabled:
            crawl_layers(run, [store_crawl])
            _search_layers(run, store, pages, index, pairs, refs, cold,
                           warm, cache, server)
    finally:
        server.stop()


def _search_layers(run, store, pages, index, pairs, refs, cold, warm,
                   cache, server) -> None:
    from aspseek_ray.pipelines.index_products import pagerank
    from aspseek_ray.pipelines.qparser import parse_query, positive_terms
    from aspseek_ray.pipelines.search import excerpts

    tr = run.tracer
    t = time.perf_counter()
    with tr.span("index.pagerank"):
        pagerank(pages)
    pagerank_s = time.perf_counter() - t
    q, _ = pairs[0]
    terms = tuple(sorted(positive_terms(parse_query(q))))
    urls = tuple(r[0] for r in refs[pairs[0]][:10])
    ex = []
    for _ in range(3):
        t = time.perf_counter()
        with tr.span("search.excerpts"):
            excerpts(str(store), terms, width=40, urls=urls)
        ex.append(time.perf_counter() - t)
    # the cache hit a warm request is served from, without the socket
    local = []
    for _ in range(50):
        t = time.perf_counter()
        server.cache(*pairs[0])
        local.append(time.perf_counter() - t)
    rows = pads.dataset(str(index), format="parquet",
                        partitioning="hive").count_rows()
    ranked = _span_durations(tr, "search.ranked_crawl_search")
    run.extra.update({
        "index.build_s": tr.total("index.build_postings"),
        "index.stage_s": tr.total("index.update_postings_index_staged"),
        "index.fold_s": tr.total("index.fold_deltas"),
        "index.pagerank_s": pagerank_s,
        "index.postings_rows": rows,
        "search.ranked_ms": statistics.median(ranked) * 1000,
        "search.excerpt_ms": statistics.median(ex) * 1000,
        "daemon.cache_hits": cache["hits"],
        "daemon.cache_misses": cache["misses"],
        "daemon.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
        "daemon.rpc_overhead_ms": (statistics.median(warm)
                                   - statistics.median(local)) * 1000,
    })


RUNNERS = {
    "crawl_polite": run_crawl_workload,
    "search_serve": run_search_workload,
}
