"""The flagship crawl pipeline (SURVEY.md §3.1 rebuild): a setup pass,
then a driver round loop where each frontier generation is one call per
shard actor and one Ray task per group of pages buckets, at most one
group per cluster CPU. Setup reads seeds.parquet and robots.parquet only in
worker tasks, one path at every size:

    sample hosts, one task per row group of seeds + robots
      -> lex-range cut points (host_bounds.json)          — S5/T3
      -> lease shards (reset pooled actors in place, spawn
         the shortfall); each loads its robots range from a
         task (Arrow ``lo <= host < hi`` pushdown)
      -> seed candidates, one task per seeds row group,
         split by shard; one offer_round call per shard

Each phase's seconds and the spawned/reused shard counts go to
``setup.json`` next to ``metrics.json``.

Each round:

    pop, tag, cut: one CrawlShard.pop_emit per shard     — O16/T1/T2/T3
      (one return value per task group, bucket % G)
      -> each task stamps dense fetch_seq =              — trace contract
         shard start + shard-local index; rows
         past a max_docs cap are dropped, and the
         driver pushes them back to their shard
      -> bucketed fetch join vs pre-bucketed pages       — O19 ("fetch" S3)
      -> parse html, extract + canonicalize outlinks,    — O6/O1
         returned as one candidate table per shard
      -> one CrawlShard.offer_round call per shard       — O20/O22 dedup
      -> trace + metrics + per-shard checkpoint          — S6/S9, §4.3

Durable state between rounds is ONLY the shard actors (checkpointed to
Parquet per round); the Ray object store is never relied on across runs.

Only the driver calls the shard actors. Ray runs one caller's calls to
an actor in order, so a round's offers run before the next pop,
push-back, snapshot, seen-set write or pooled reset, with no barrier.

Shard lifecycle: actor processes outlive a crawl. ``shutdown()`` returns
them to a pool of the current Ray session when all of them still
answer, and the next ``Crawler`` resets them in place
(``CrawlShard.reset`` re-runs the constructor), so re-crawls and resumes
in one session skip the actor start-up. A crawl that lost a shard has
its actors killed; a crawl in a fresh session spawns all S. The pool
keeps only the last returned crawl's S actors and kills older idle ones;
``release_shards()`` kills the idle pooled actors.

Scale notes (SURVEY §4): the per-round driver work is O(S·G) refs —
shards are LEX-RANGE partitioned by host (state/shard.py::shard_of_hosts),
so the global (host-lex, pop-order) trace order equals (shard_id,
shard-local order) and the dense fetch_seq is the shard's start (S
prefix-summed counts) plus its shard-local row index, stamped in the
tasks. Each shard returns its group-tagged pieces as return values of
the ``pop_emit`` call that pops them, and each group's task returns its
candidates as one table per shard; the driver passes both on by ref, to
the group's task and to the shard's ``offer_round`` call. A piece or
table under Ray's 100 KB inline limit travels inside the call replies
and the next call's arguments through the driver's core worker and is
never deserialized in Python; a larger one stays in the object store.
The driver reads no row: it gets back S counts, G counter dicts and S
offer-counter dicts. The pages table (the 100-TB side) is shuffled
exactly once at ingest (bucket_pages) and never moves again.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import DataContext

from aspseek_ray.config import CrawlConfig
from aspseek_ray.functions.hashing import fnv1a64_arrow
from aspseek_ray.functions.url import host_of, host_of_arrow
from aspseek_ray.sources.pages import BucketLookup, bucket_pages
from aspseek_ray.stages.discover import parse_discover
from aspseek_ray.state.shard import (CrawlShard, host_range_filter,
                                     host_shard_bounds, shard_of_hosts)

TRACE_COLS = ["fetch_seq", "round", "url", "host", "depth", "discovery_seq", "status"]
_BOUNDS_SAMPLE = 200_000  # max hosts sampled per table for shard-boundary weighting


def _row_groups(path: str) -> range:
    """Row-group indices of a parquet file (footer only, no data read)."""
    return range(pq.ParquetFile(path).metadata.num_row_groups)


@ray.remote
def _sample_hosts(path: str, rg: int, column: str,
                  follow: bool) -> tuple[list[str], list[tuple[str, str]]]:
    """One row group's share of the setup sample: a stride sample of its
    hosts, the stride taken from the table's row count in the footer so
    a table yields ~_BOUNDS_SAMPLE hosts at any size. ``column`` is
    ``url`` (seeds: hosts are parsed out) or ``host`` (robots). With
    ``follow`` the row group's distinct (host, dir prefix) seed pairs
    come back too."""
    pf = pq.ParquetFile(path)
    stride = max(1, pf.metadata.num_rows // _BOUNDS_SAMPLE)
    vals = pf.read_row_group(rg, columns=[column])[column].to_pylist()
    if column == "host":
        return vals[::stride], []
    pairs = ({(host_of(u), u[: u.rfind("/") + 1]) for u in vals}
             if follow else set())
    return [host_of(u) for u in vals[::stride]], sorted(pairs)


@ray.remote
def _robots_of_shard(path: str, lo: str | None, hi: str | None) -> pa.Table:
    """The robots rows of the shard owning hosts in [lo, hi)."""
    return pq.read_table(path, filters=host_range_filter(lo, hi))


def _seed_candidates(rows: pa.Table) -> pa.Table:
    """Seed rows (url, depth, discovery_seq) as shard offer candidates."""
    urls = rows["url"]
    hosts = host_of_arrow(urls)
    return pa.table({
        "url": urls,
        "url_hash": pa.array(fnv1a64_arrow(urls)),
        "host": hosts,
        "host_hash": pa.array(fnv1a64_arrow(hosts)),
        "depth": rows["depth"],
        "discovery_seq": rows["discovery_seq"],
    })


def _by_shard(cand: pa.Table, bounds, num_shards: int) -> list:
    """Candidates split by the shard owning their hosts: one table per
    shard, None for a shard with none."""
    out = [None] * num_shards
    if cand.num_rows:
        sh = shard_of_hosts(bounds, cand["host"].to_pylist())
        for s in np.unique(sh):
            out[s] = cand.filter(pa.array(sh == s))
    return out


@ray.remote
def _offer_seed_rows(path: str, rg: int, bounds, num_shards: int) -> tuple:
    """One row group of the seeds table as offer candidates: its row
    count, then one table per shard for the driver's ``offer_round``
    calls. Run with ``num_returns=num_shards + 1``: the leading count
    keeps each table a ref of its own even at one shard."""
    rows = pq.ParquetFile(path).read_row_group(
        rg, columns=["url", "depth", "discovery_seq"])
    return rows.num_rows, *_by_shard(_seed_candidates(rows), bounds,
                                     num_shards)


class _ShardPool:
    """Idle ``CrawlShard`` actors, keyed by the Ray session (driver node
    + job): after ``ray.shutdown()`` / ``ray.init()`` no handle of the
    old session is handed out. Starting an actor costs a process and its
    imports, several CPU-seconds against the few a small crawl needs.
    Crawlers spawn only what the pool lacks, and a returned crawl's S
    actors replace the idle ones, so the pool never holds more than the
    last returned crawl's S."""

    def __init__(self):
        self.session: tuple[str, str] | None = None
        self.idle: list = []

    @staticmethod
    def _session() -> tuple[str, str]:
        ctx = ray.get_runtime_context()
        return ctx.get_node_id(), ctx.get_job_id()

    def lease(self, n: int) -> list:
        """Up to ``n`` idle actors, the most recently returned first."""
        session = self._session()
        if session != self.session:
            self.session, self.idle = session, []
        k = max(0, len(self.idle) - n)
        out, self.idle = self.idle[k:], self.idle[:k]
        return out

    def give_back(self, shards: list) -> None:
        """Pool a finished crawl's actors and kill the idle ones left
        over from earlier crawls."""
        if self.session == self._session():
            for h in self.idle:
                ray.kill(h)
            self.idle = list(shards)


_POOL = _ShardPool()


def release_shards() -> None:
    """Kill the idle pooled shard actors, ending their worker processes
    before the Ray session does. The next crawl spawns fresh ones.
    Handles of an earlier session are dropped, not killed."""
    idle, _POOL.idle = _POOL.idle, []
    if ray.is_initialized() and _POOL.session == _POOL._session():
        for h in idle:
            ray.kill(h)


@dataclass
class CrawlResult:
    out_dir: str
    rounds: int
    total_fetched: int
    metrics: list[dict] = field(default_factory=list)
    setup: dict = field(default_factory=dict)

    def trace_table(self) -> pa.Table:
        return read_trace(self.out_dir)

    def seen_path(self) -> str:
        return str(Path(self.out_dir) / "seen")



def read_trace(out_dir: str) -> pa.Table:
    """Read trace/round=K/part-*.parquet (no hive parsing — the round
    column lives IN the files) sorted by fetch_seq."""
    import pyarrow.dataset as pads

    d = pads.dataset(str(Path(out_dir) / "trace"), format="parquet",
                     partitioning=None)
    return d.to_table().select(TRACE_COLS).sort_by("fetch_seq")


class FetchTraceDiscover:
    """One crawl round's work on ONE task group of pages buckets, run as
    one Ray task. The task stamps each scheduled row's dense fetch_seq
    (its shard's start + its shard-local index) and drops the rows a
    max_docs cap cut. Then, per bucket: fetch-join the bucket's rows
    against its pages bucket (O19), write the bucket's trace part
    atomically (S9), extract + store the parsed text of fetched pages (O6
    + S8 stored copies, zstd parquet) and parse + canonicalize outlinks
    (O1/O3/O22-partial). Returns the group's counters, then its
    candidates as one table per shard (None for a shard with none) for
    the driver's ``offer_round`` calls. Built once per crawl; the round's
    own arguments come with each call."""

    def __init__(self, bucket_dir: str, max_hops: int,
                 redirect_dir: str | None, host_bounds, num_shards: int):
        self.lookup = BucketLookup(bucket_dir, redirect_dir)
        self.max_hops = max_hops
        self.host_bounds = host_bounds
        self.num_shards = num_shards

    def __call__(self, rnd: int, trace_dir: str, store_dir: str | None,
                 starts: list[int], limits: list[int] | None,
                 *pieces: pa.Table) -> tuple:
        rows = pa.concat_tables(pieces)
        shard = np.asarray(rows["shard"])
        local = np.asarray(rows["local_seq"])
        if limits is not None:
            keep = local < np.asarray(limits)[shard]
            rows = rows.filter(pa.array(keep))
            shard, local = shard[keep], local[keep]
        rows = rows.append_column(
            "fetch_seq", pa.array(np.asarray(starts, np.int64)[shard] + local))
        bucket = np.asarray(rows["bucket"])
        n_200 = n_404 = 0
        cands = []
        for b in np.unique(bucket):
            status, cand = self._bucket(
                int(b), rows.filter(pa.array(bucket == b)), rnd,
                Path(trace_dir), Path(store_dir) if store_dir else None)
            n_200 += int(np.count_nonzero(status == 200))
            n_404 += int(np.count_nonzero(status == 404))
            cands.append(cand)
        if not cands:             # the max_docs cap cut every row
            return ({"n_candidates": 0, "n_200": 0, "n_404": 0},
                    *[None] * self.num_shards)
        cand = pa.concat_tables(cands)
        return ({"n_candidates": cand.num_rows, "n_200": n_200,
                 "n_404": n_404},
                *_by_shard(cand, self.host_bounds, self.num_shards))

    def _bucket(self, bucket: int, rows: pa.Table, rnd: int, trace_dir: Path,
                store_dir: Path | None) -> tuple[np.ndarray, pa.Table]:
        """One bucket's fetch, trace part, store part and discovery.
        Returns the rows' statuses and the bucket's candidates."""
        fetched = self.lookup(rows)
        status = np.asarray(fetched["status"])
        trace = fetched.select(
            ["fetch_seq", "url", "host", "depth", "discovery_seq", "status"])
        trace = trace.append_column(
            "round", pa.array(np.full(trace.num_rows, rnd, np.int32)))
        tmp = trace_dir / f".part-{bucket}.parquet.tmp"
        pq.write_table(trace.select(TRACE_COLS), tmp)
        tmp.rename(trace_dir / f"part-{bucket}.parquet")

        parsed = None
        if store_dir is not None:
            # Fused single HTML pass (VERDICT r2 #4): decode + noise-strip
            # each 200 body ONCE, producing the stored text AND the links
            # that parse_discover would otherwise re-extract.
            from aspseek_ray.functions.html import extract_text_links_robots

            ok_idx = np.flatnonzero(status == 200)
            htmls = fetched["html"].to_pylist()
            texts: list[str] = []
            parsed = {}
            for i in ok_idx:
                text, base, hrefs, robots = extract_text_links_robots(
                    htmls[i])
                texts.append(text)
                # meta-robots nofollow (O6): the page is fetched and
                # stored, but its outlinks never enter discovery
                parsed[int(i)] = (base,
                                  [] if "nofollow" in robots else hrefs)
            ok = fetched.take(pa.array(ok_idx, pa.int64()))
            store = pa.table({
                "url_hash": ok["url_hash"],
                "url": ok["url"],
                "text": pa.array(texts, pa.string()),
            })
            tmp = store_dir / f".part-{bucket}.parquet.tmp"
            pq.write_table(store, tmp, compression="zstd")
            tmp.rename(store_dir / f"part-{bucket}.parquet")

        return status, parse_discover(fetched, self.max_hops, parsed=parsed)


@ray.remote
def _fetch_trace_discover(stage: FetchTraceDiscover, *args) -> tuple:
    return stage(*args)


class Crawler:
    """Owns one crawl's shard actors and the round loop. Construct for a
    fresh crawl, or with ``resume=True`` to restore the latest checkpoint.

    Shard lifecycle: the S ``CrawlShard`` actors are leased per crawl
    from a pool of idle actors of the current Ray session and reset in
    place (only the shortfall is spawned). ``shutdown()`` gives them back
    when all of them still answer; with a shard lost, it kills them."""

    def __init__(self, corpus_dir: str, out_dir: str, cfg: CrawlConfig | None = None,
                 *, resume: bool = False, scratch_dir: str | None = None):
        t0 = time.monotonic()
        self.cfg = cfg or CrawlConfig()
        self.corpus_dir = corpus_dir
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "trace").mkdir(exist_ok=True)
        (self.out / "checkpoints").mkdir(exist_ok=True)
        seeds_path = f"{corpus_dir}/seeds.parquet"
        robots_path = f"{corpus_dir}/robots.parquet"
        follow = self.cfg.follow_mode != "world"
        # set-up phase seconds and shard counts (setup.json)
        self.setup: dict = {}

        # Sample pass, one task per row group of seeds and robots: lex-range
        # cut points weighted by URL MASS (a bounded host sample of seeds)
        # so zipf host sizes balance; robots hosts (weight 1) cover
        # unseeded hosts. The bounds are persisted to host_bounds.json at
        # first init and reloaded verbatim on resume, so resume-exactness
        # never depends on the sample. Submitted first, gathered after the
        # bucketing below, so the tasks overlap driver work.
        bounds_file = self.out / "checkpoints" / "host_bounds.json"
        reuse_bounds = resume and bounds_file.exists()
        samples = []
        if follow or not reuse_bounds:
            samples = [_sample_hosts.remote(seeds_path, rg, "url", follow)
                       for rg in _row_groups(seeds_path)]
            if not reuse_bounds:
                samples += [_sample_hosts.remote(robots_path, rg, "host", False)
                            for rg in _row_groups(robots_path)]

        t = time.monotonic()
        scratch = Path(scratch_dir or (self.out / "pages_bucketed"))
        self.bucket_dir = bucket_pages(f"{corpus_dir}/pages.parquet", str(scratch),
                                       num_buckets=self.cfg.num_page_buckets)

        # redirect alias table (O11/O25) — bucketed by the SAME url-hash
        # layout as pages (one-time Dataset shuffle, reused via manifest);
        # no whole-table dict ever touches the driver.
        rpath = Path(corpus_dir) / "redirects.parquet"
        self.redirect_dir = None
        if rpath.exists():
            self.redirect_dir = bucket_pages(
                str(rpath), str(self.out / "redirects_bucketed"),
                num_buckets=self.cfg.num_page_buckets,
                columns=["src_url", "dst_url"], url_col="src_url",
                driver_max_rows=1_000_000)
        t = self._phase("bucket_sec", t)

        samples = ray.get(samples)
        if reuse_bounds:
            self.host_bounds = tuple(json.loads(bounds_file.read_text()))
        else:
            self.host_bounds = host_shard_bounds(
                [h for hosts, _ in samples for h in hosts], self.cfg.num_shards)
            bounds_file.write_text(json.dumps(list(self.host_bounds)))

        # follow-mode (O3) seed slices, partitioned like everything else:
        # the driver holds O(distinct seed sites) pairs, never O(seeds)
        S = self.cfg.num_shards
        follow_hosts: list[set[str]] = [set() for _ in range(S)]
        follow_prefixes: list[set[str]] = [set() for _ in range(S)]
        pairs = [hp for _, ps in samples for hp in ps]
        if pairs:
            sh = shard_of_hosts(self.host_bounds, [h for h, _ in pairs])
            for (h, p), s in zip(pairs, sh):
                follow_hosts[s].add(h)
                follow_prefixes[s].add(p)
        t = self._phase("sample_sec", t)

        # each shard's robots rows come from a worker task; Ray resolves
        # the ref before the actor's __init__ (or reset) runs
        cuts = [None, *self.host_bounds, None]
        spill_dir = str(self.out / "spill")
        shard_args = [
            ((s, self.cfg,
              _robots_of_shard.remote(robots_path, cuts[s], cuts[s + 1])),
             {"follow_hosts": sorted(follow_hosts[s]),
              "follow_prefixes": sorted(follow_prefixes[s]),
              "spill_dir": spill_dir})
            for s in range(S)]
        ShardActor = ray.remote(CrawlShard)
        pooled = _POOL.lease(S)
        resets = [a.reset.remote(*args, **kw)
                  for a, (args, kw) in zip(pooled, shard_args)]
        self.shards = pooled + [ShardActor.remote(*args, **kw)
                                for args, kw in shard_args[len(pooled):]]
        # Every reset is awaited, so an actor that died idle in the pool
        # is replaced before this crawl calls it. The driver makes every
        # shard call, so each runs after the reset.
        reused = len(pooled)
        for s, ref in enumerate(resets):
            try:
                ray.get(ref)
            except ray.exceptions.RayActorError:
                args, kw = shard_args[s]
                self.shards[s] = ShardActor.remote(*args, **kw)
                reused -= 1
        self.setup["shards_spawned"] = S - reused
        self.setup["shards_reused"] = reused
        t = self._phase("shards_sec", t)

        # The round plan: one task per group of pages buckets (bucket % G),
        # with G sized to the cluster's CPUs, read once per crawl. At a
        # few pages per bucket the task is the cost, not the bucket. The
        # tasks' crawl-constant stage is put once.
        self.num_groups = max(1, min(self.cfg.num_page_buckets,
                                     int(ray.cluster_resources().get("CPU", 1))))
        self._stage = ray.put(FetchTraceDiscover(
            self.bucket_dir, self.cfg.max_hops, self.redirect_dir,
            self.host_bounds, S))

        self.round = 0
        self.fetch_base = 0
        self.metrics: list[dict] = []
        self._pending_ckpt: dict | None = None

        if resume:
            self._restore_latest()
            self._phase("restore_sec", t)
        else:
            self._offer_seeds()
            self._phase("seed_sec", t)
        self.setup["wall_sec"] = round(time.monotonic() - t0, 4)

    # ------------------------------------------------------------------ setup
    def _phase(self, key: str, start: float) -> float:
        """Record the seconds since ``start`` as set-up phase ``key``;
        returns now, the next phase's start."""
        now = time.monotonic()
        self.setup[key] = round(now - start, 4)
        return now

    def _offer_seeds(self) -> None:
        """Seed the shard frontiers: one task per seeds row group splits
        its rows by shard, then one ``offer_round`` call per shard stages
        them, as in a round. The driver reads no seed row."""
        seeds_path = f"{self.corpus_dir}/seeds.parquet"
        task = _offer_seed_rows.options(num_returns=len(self.shards) + 1)
        ray.get(self._offer_round([
            task.remote(seeds_path, rg, self.host_bounds, len(self.shards))[1:]
            for rg in _row_groups(seeds_path)]))

    def _offer_round(self, cands: list) -> list:
        """Submit one ``offer_round`` call per shard, passing it the
        candidate table refs every task returned for it
        (``cands[task][shard]``); returns the calls' refs. Each call runs
        as soon as its tables exist."""
        return [s.offer_round.remote(*(c[i] for c in cands))
                for i, s in enumerate(self.shards)]

    def _restore_latest(self) -> None:
        manifest = self.out / "checkpoints" / "LATEST.json"
        if not manifest.exists():
            raise FileNotFoundError(f"no checkpoint manifest under {manifest}")
        m = json.loads(manifest.read_text())
        ckpt = str(self.out / "checkpoints" / f"round={m['round']}")
        ray.get([s.restore.remote(ckpt) for s in self.shards])
        self.round = m["round"] + 1
        self.fetch_base = m["fetch_base"]
        self.metrics = m.get("metrics", [])

    # ------------------------------------------------------------------ round
    def _limits(self, counts: list[int]) -> list[int] | None:
        """Each shard's row limit under the max_docs cap (O32): the first
        ``max_docs - fetch_base`` rows of the round in global fetch order.
        None when the cap does not cut this round."""
        if not self.cfg.max_docs:
            return None
        remaining = self.cfg.max_docs - self.fetch_base
        if remaining >= sum(counts):
            return None
        limits, run = [], 0
        for c in counts:
            limits.append(max(0, min(c, remaining - run)))
            run += c
        return limits

    def run_round(self) -> dict | None:
        """One round: one ``pop_emit`` call per shard, then one task per
        non-empty task group, then one ``offer_round`` call per shard.
        Returns the round's metrics, or None when nothing was scheduled.
        The phase seconds in the metrics:

        - ``counts_sec``: the wait on the S ``pop_emit`` counts (pop, tag,
          cut one piece per group);
        - ``emit_sec``: the wait on the ``push_back`` calls that return
          the rows a binding max_docs cap cut; 0.0 when it does not bind;
        - ``pipeline_sec``: the round tasks plus the offer calls, and
          ``barrier_sec`` the wait on the S offer calls (submitted with
          the tasks) once the tasks' counters are in.

        ``tasks`` is the number of round tasks the round submitted;
        ``shard_offers`` holds each shard's ``offer_round`` counters, and
        ``newly_discovered`` is the sum of their ``staged``."""
        B, G = self.cfg.num_page_buckets, self.num_groups
        t0 = time.monotonic()
        popped = [s.pop_emit.options(num_returns=G + 1).remote(B, G)
                  for s in self.shards]
        heads = ray.get([p[0] for p in popped])
        t_counts = time.monotonic() - t0
        counts = [c for c, _ in heads]
        limits = self._limits(counts)
        t_emit = 0.0
        if limits is not None:
            t1 = time.monotonic()
            ray.get([s.push_back.remote(lim) for s, c, lim
                     in zip(self.shards, counts, limits) if lim < c])
            t_emit = time.monotonic() - t1
        n_sched = sum(counts if limits is None else limits)
        t_pop = time.monotonic() - t0
        if n_sched == 0:
            return None
        rnd = self.round

        # a round dir left by a crashed run holds a partial round
        trace_round_dir = self.out / "trace" / f"round={rnd}"
        shutil.rmtree(trace_round_dir, ignore_errors=True)
        trace_round_dir.mkdir(parents=True)

        store_round_dir = None
        if self.cfg.write_store:
            srd = self.out / "store" / f"round={rnd}"
            shutil.rmtree(srd, ignore_errors=True)
            srd.mkdir(parents=True)
            store_round_dir = str(srd)
            # store bucket modulus — lets the excerpt path prune a k-url
            # slice to its hash buckets instead of sweeping the store
            meta = self.out / "store" / "_meta.json"
            if not meta.exists():
                meta.write_text(json.dumps(
                    {"num_buckets": self.cfg.num_page_buckets,
                     "key": "abs(fnv1a64(url)) % num_buckets"}))

        # Round body: one task per non-empty group, so the fetch join
        # never shuffles. Each task gets its group's pieces as refs (in
        # shard order), stamps fetch_seq from the shards' starts, fetches,
        # writes one trace and one store part per bucket and discovers; it
        # returns three counters and one candidate table per shard, which
        # the driver hands by ref to the shards' offer calls. Tasks are
        # spread like Ray Data's own map tasks.
        starts = np.cumsum([self.fetch_base, *counts[:-1]]).tolist()
        groups: dict[int, list] = {}
        for (_, gs), refs in zip(heads, popped):
            for g in gs:
                groups.setdefault(g, []).append(refs[1 + g])
        t1 = time.monotonic()
        task = _fetch_trace_discover.options(
            num_returns=len(self.shards) + 1,
            scheduling_strategy=DataContext.get_current().scheduling_strategy)
        args = (rnd, str(trace_round_dir), store_round_dir, starts, limits)
        outs = [task.remote(self._stage, *args, *refs)
                for refs in groups.values()]
        offer_refs = self._offer_round([o[1:] for o in outs])
        results = ray.get([o[0] for o in outs])
        t_tasks = time.monotonic() - t1
        offers = ray.get(offer_refs)
        t_pipe = time.monotonic() - t1
        m = {
            "round": rnd,
            "scheduled": n_sched,
            "tasks": len(groups),
            "fetched_200": sum(r["n_200"] for r in results),
            "fetched_404": sum(r["n_404"] for r in results),
            "candidates": sum(r["n_candidates"] for r in results),
            "newly_discovered": sum(o["staged"] for o in offers),
            "fetch_base": self.fetch_base,
            "wall_sec": round(time.monotonic() - t0, 4),
            "pop_sec": round(t_pop, 4),
            "counts_sec": round(t_counts, 4),
            "emit_sec": round(t_emit, 4),
            "pipeline_sec": round(t_pipe, 4),
            "barrier_sec": round(t_pipe - t_tasks, 4),
            "shard_offers": offers,
        }
        self.fetch_base += n_sched
        self.metrics.append(m)

        if self.cfg.checkpoint_every and (rnd + 1) % self.cfg.checkpoint_every == 0:
            t3 = time.monotonic()
            self.checkpoint_async(rnd)
            m["checkpoint_sec"] = round(time.monotonic() - t3, 4)
        self.round = rnd + 1
        return m

    # ------------------------------------------------------------ checkpoint
    def checkpoint(self, rnd: int) -> None:
        """Per-partition (shard) snapshot + lineage manifest (north_rule:
        'checkpointed per-partition (frontier snapshot + cuckoo-filter state
        + lineage metrics)'). Atomic: shard files then LATEST.json rename."""
        self.checkpoint_async(rnd)
        self._drain_checkpoint()

    def checkpoint_async(self, rnd: int) -> None:
        """Launch the per-shard snapshot WITHOUT waiting (the VERDICT-r2
        'async checkpoints' item): snapshot tasks overlap the next round's
        compute. Exactness: the driver enqueues snapshot.remote on each
        shard actor after round ``rnd``'s offer calls and BEFORE round
        ``rnd+1``'s pop and offer calls — per-caller actor ordering means
        every shard snapshots its exact end-of-round-``rnd`` state. The
        LATEST.json manifest is only written at
        drain time (next checkpoint / run end), preserving crash
        atomicity: an undrained snapshot is simply ignored by resume."""
        self._drain_checkpoint()              # at most one in flight
        ckpt = self.out / "checkpoints" / f"round={rnd}"
        self._pending_ckpt = {
            "round": rnd,
            "fetch_base": self.fetch_base,
            "metrics": list(self.metrics),
            "refs": [s.snapshot.remote(str(ckpt)) for s in self.shards],
        }

    def _drain_checkpoint(self) -> None:
        p = self._pending_ckpt
        if p is None:
            return
        self._pending_ckpt = None
        manifest = {
            "round": p["round"],
            "fetch_base": p["fetch_base"],
            "shards": ray.get(p["refs"]),
            "metrics": p["metrics"],
            "corpus_dir": str(self.corpus_dir),
        }
        tmp = self.out / "checkpoints" / ".LATEST.json.tmp"
        tmp.write_text(json.dumps(manifest))
        tmp.rename(self.out / "checkpoints" / "LATEST.json")

    # -------------------------------------------------------------------- run
    def run(self) -> CrawlResult:
        while self.round < self.cfg.max_rounds:
            m = self.run_round()
            if m is None:
                break
        self._drain_checkpoint()
        # final artifacts: seen set (written in parallel by the shards —
        # the driver never holds O(corpus) rows) + metrics
        seen_dir = self.out / "seen"
        seen_dir.mkdir(exist_ok=True)
        ray.get([s.write_seen.remote(str(seen_dir)) for s in self.shards])
        (self.out / "metrics.json").write_text(json.dumps(self.metrics, indent=2))
        (self.out / "setup.json").write_text(json.dumps(self.setup, indent=2))
        return CrawlResult(str(self.out), self.round, self.fetch_base,
                           self.metrics, self.setup)

    def seen_table(self) -> pa.Table:
        tables = ray.get([s.seen_table.remote() for s in self.shards])
        return pa.concat_tables(tables).sort_by("url")

    def shutdown(self) -> None:
        # a pending async checkpoint must land before its actors die —
        # killing a shard with its snapshot in flight would orphan the
        # refs and silently drop the manifest. If a shard is already lost
        # its snapshot may never land: LATEST.json then keeps naming the
        # previous complete checkpoint, which resume reads.
        # The shards go back to the pool only when all of them answer;
        # otherwise they are killed. A later crawl's reset runs after
        # every call this crawl made (per-caller actor ordering).
        idle = True
        try:
            self._drain_checkpoint()
            ray.get([s.stats.remote() for s in self.shards])
        except ray.exceptions.RayActorError:
            idle = False
        if idle:
            _POOL.give_back(self.shards)
        else:
            for s in self.shards:
                ray.kill(s)
        self.shards = []


def run_crawl(corpus_dir: str, out_dir: str, cfg: CrawlConfig | None = None,
              *, resume: bool = False, scratch_dir: str | None = None) -> CrawlResult:
    c = Crawler(corpus_dir, out_dir, cfg, resume=resume, scratch_dir=scratch_dir)
    try:
        return c.run()
    finally:
        c.shutdown()
