"""Trace-conformance + resume tests (SURVEY.md §5.2/§5.6): the Ray pipeline
must reproduce the normative simulator's crawl trace and URL-seen set
EXACTLY, and a run resumed from a mid-crawl checkpoint must converge to the
identical final state."""

import json
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from aspseek_ray.config import CrawlConfig
from aspseek_ray.pipelines import crawl
from aspseek_ray.pipelines.crawl import Crawler, read_trace, run_crawl
from fixtures.gen import generate_corpus
from ref_sim import load_corpus, simulate

CFG = CrawlConfig(max_rounds=10, num_shards=4, num_page_buckets=8)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("conf_corpus")
    generate_corpus(str(d), n_pages=500, n_hosts=16, seed=42)
    return str(d)


@pytest.fixture(scope="module")
def golden(corpus):
    pages, seeds, robots, redirects = load_corpus(corpus)
    return simulate(pages, seeds, robots, CFG, redirects)


def _actor_ids(shards) -> set[str]:
    return {s._actor_id.hex() for s in shards}


def _assert_golden(res, golden) -> None:
    assert res.trace_table().to_pylist() == golden.trace
    seen = set(pq.read_table(res.seen_path())["url"].to_pylist())
    assert seen == golden.seen


def test_trace_and_seen_conformance(ray_session, corpus, golden, tmp_path):
    # the corpus must actually exercise every status path
    statuses = {r["status"] for r in golden.trace}
    assert statuses == {200, 301, 404}, statuses
    res = run_crawl(corpus, str(tmp_path / "out"), CFG)
    trace = res.trace_table().to_pylist()
    assert len(trace) == len(golden.trace)
    for got, want in zip(trace, golden.trace):
        assert got == want
    seen = set(pq.read_table(res.seen_path())["url"].to_pylist())
    assert seen == golden.seen


def test_distributed_seed_path_conformance(ray_session, corpus, golden,
                                           tmp_path):
    """Setup reads seeds.parquet and robots.parquet one row group per
    worker task: with both tables rewritten in 7-row row groups (several
    sample and seed-offer tasks, robots rows split across row groups),
    the crawl reproduces the golden trace."""
    import shutil

    src = tmp_path / "corpus"
    shutil.copytree(corpus, src)
    for name in ("seeds.parquet", "robots.parquet"):
        path = src / name
        pq.write_table(pq.read_table(path), path, row_group_size=7)
        assert pq.ParquetFile(path).metadata.num_row_groups > 1
    res = run_crawl(str(src), str(tmp_path / "out"), CFG)
    trace = res.trace_table().to_pylist()
    assert len(trace) == len(golden.trace)
    for got, want in zip(trace, golden.trace):
        assert got == want


def test_setup_reads_no_seed_or_robots_row_on_driver(ray_session, corpus,
                                                     golden, tmp_path,
                                                     monkeypatch):
    """With every driver-side row read of seeds.parquet and robots.parquet
    guarded (pq.read_table, ParquetFile row reads, pyarrow.dataset — the
    factory both the dataset and read_table paths go through), a crawl
    still reproduces the golden trace: setup reads both tables in worker
    tasks. Workers are separate processes, which the guard does not
    reach; footer reads stay allowed."""
    import pyarrow.dataset as pads

    def check(source):
        for src in source if isinstance(source, (list, tuple)) else [source]:
            assert not str(src).endswith(("seeds.parquet", "robots.parquet")), \
                f"driver read rows of {src}"

    read_table, dataset = pq.read_table, pads.dataset
    pf_init = pq.ParquetFile.__init__

    def guarded_read_table(source, *a, **kw):
        check(source)
        return read_table(source, *a, **kw)

    def guarded_dataset(source, *a, **kw):
        check(source)
        return dataset(source, *a, **kw)

    def recording_init(self, source, *a, **kw):
        pf_init(self, source, *a, **kw)
        self.guard_source = source

    def guarded(read):
        def rows(self, *a, **kw):
            check(self.guard_source)
            return read(self, *a, **kw)
        return rows

    monkeypatch.setattr(pq, "read_table", guarded_read_table)
    monkeypatch.setattr(pads, "dataset", guarded_dataset)
    monkeypatch.setattr(pq.ParquetFile, "__init__", recording_init)
    for name in ("read_row_group", "read_row_groups", "read", "iter_batches"):
        monkeypatch.setattr(pq.ParquetFile, name,
                            guarded(getattr(pq.ParquetFile, name)))
    res = run_crawl(corpus, str(tmp_path / "out"), CFG)
    assert res.trace_table().to_pylist() == golden.trace


def test_text_invariant_against_corpus(ray_session, sf_small_dir):
    """Byte-identical extracted text per url (input_hint invariant) as a
    distributed map over the pages table."""
    import pyarrow as pa
    import ray.data as rd

    from aspseek_ray.functions.html import extract_text

    def check(batch: pa.Table) -> pa.Table:
        n_ok = sum(extract_text(h) == t
                   for h, t in zip(batch["html"].to_pylist(), batch["text"].to_pylist()))
        return pa.table({"n": pa.array([batch.num_rows], pa.int64()),
                         "n_ok": pa.array([n_ok], pa.int64())})

    ds = rd.read_parquet(f"{sf_small_dir}/pages.parquet", columns=["html", "text"])
    out = ds.map_batches(check, batch_format="pyarrow").take_all()
    assert sum(r["n"] for r in out) == 2000
    assert sum(r["n_ok"] for r in out) == 2000


@pytest.mark.parametrize("shards", ["killed", "pooled"])
def test_resume_from_checkpoint(ray_session, corpus, golden, tmp_path,
                               kill_shards, shards):
    """Run 4 rounds, tear the crawler down after the round-3 checkpoint,
    resume from LATEST and finish: final trace + seen must be identical to
    the golden uninterrupted run. ``killed``: a crash, every shard actor
    is gone and the resume runs on other actors. ``pooled``: a clean
    shutdown, the resume resets the same actors in place."""
    out = str(tmp_path / "out")
    c1 = Crawler(corpus, out, CFG)
    for _ in range(4):
        c1.run_round()
    ids1 = _actor_ids(c1.shards)
    if shards == "killed":
        c1._drain_checkpoint()   # the round-3 checkpoint lands, then
        kill_shards(c1.shards)   # the crash takes every shard
    c1.shutdown()  # checkpoints + trace files remain

    c2 = Crawler(corpus, out, CFG, resume=True)
    assert c2.round == 4
    if shards == "killed":
        assert not ids1 & _actor_ids(c2.shards)
    else:
        assert _actor_ids(c2.shards) == ids1
        assert c2.setup["shards_spawned"] == 0
    res = c2.run()
    c2.shutdown()
    _assert_golden(res, golden)


def test_back_to_back_crawls_reuse_shards(ray_session, corpus, golden,
                                          tmp_path, kill_shards):
    """Crawls one after another in one Ray session run on the same shard
    actors, reset in place, and each reproduces the golden trace and seen
    set. A pooled actor that died while idle is replaced by a new one."""
    S = CFG.num_shards
    results, ids = [], []
    for i in range(2):
        c = Crawler(corpus, str(tmp_path / f"out{i}"), CFG)
        ids.append(_actor_ids(c.shards))
        try:
            results.append(c.run())
        finally:
            c.shutdown()
    assert ids[1] == ids[0]
    assert results[1].setup["shards_spawned"] == 0
    assert results[1].setup["shards_reused"] == S
    assert set(results[1].setup) >= {"bucket_sec", "sample_sec", "shards_sec",
                                     "seed_sec", "wall_sec"}
    setup_json = json.loads(
        (tmp_path / "out1" / "setup.json").read_text())
    assert setup_json == results[1].setup
    for res in results:
        _assert_golden(res, golden)

    # an idle pooled actor dies: the next crawl spawns one replacement
    dead = next(h for h in crawl._POOL.idle if h._actor_id.hex() in ids[1])
    kill_shards([dead])
    c = Crawler(corpus, str(tmp_path / "out2"), CFG)
    try:
        assert c.setup["shards_spawned"] == 1
        assert c.setup["shards_reused"] == S - 1
        assert _actor_ids(c.shards) & ids[1] == ids[1] - _actor_ids([dead])
        res = c.run()
    finally:
        c.shutdown()
    _assert_golden(res, golden)


def test_new_session_spawns_every_shard(ray_session, corpus, tmp_path,
                                        monkeypatch):
    """The pool never hands out an actor of another Ray session: under a
    new session key a crawler spawns all S shards."""
    c = Crawler(corpus, str(tmp_path / "warm"), CFG)
    c.shutdown()
    assert crawl._POOL.idle
    monkeypatch.setattr(crawl._ShardPool, "_session",
                        staticmethod(lambda: ("another-node", "another-job")))
    c = Crawler(corpus, str(tmp_path / "out"), CFG)
    try:
        assert c.setup["shards_spawned"] == CFG.num_shards
        assert c.setup["shards_reused"] == 0
    finally:
        c.shutdown()


def _cap_at(corpus: str, golden, where) -> int:
    """A max_docs value from the golden trace: an int as is, or a cap
    that lands one row into the first non-empty shard's slice of a round
    (``inside_shard``), or exactly at the end of that slice, with more
    shards' rows after it (``shard_boundary``). The shard of a row comes
    from the cut points a crawl of this corpus derives."""
    if isinstance(where, int):
        return where
    from aspseek_ray.functions.url import host_of
    from aspseek_ray.state.shard import host_shard_bounds, shard_of_hosts

    hosts = [host_of(u) for u in
             pq.read_table(f"{corpus}/seeds.parquet")["url"].to_pylist()]
    hosts += pq.read_table(f"{corpus}/robots.parquet")["host"].to_pylist()
    bounds = host_shard_bounds(hosts, CFG.num_shards)
    for rnd in range(1, golden.trace[-1]["round"] + 1):
        rows = [r for r in golden.trace if r["round"] == rnd]
        shard = shard_of_hosts(bounds, [r["host"] for r in rows]).tolist()
        first = shard.count(shard[0])
        if first >= 2 and first < len(rows):
            return rows[0]["fetch_seq"] + (1 if where == "inside_shard"
                                           else first)
    raise AssertionError("no round with two shards' rows")


@pytest.mark.parametrize("where", ["inside_shard", "shard_boundary", 17])
def test_max_docs_cap(ray_session, corpus, golden, tmp_path, where):
    """The max_docs cap cuts a round inside a shard's slice, at a shard
    boundary, or at 17; the round tasks drop the rows past it,
    and the crawl still matches ref_sim's trace and seen set."""
    max_docs = _cap_at(corpus, golden, where)
    cfg = CrawlConfig(max_rounds=10, num_shards=4, num_page_buckets=8,
                      max_docs=max_docs)
    pages, seeds, robots, redirects = load_corpus(corpus)
    want = simulate(pages, seeds, robots, cfg, redirects)
    res = run_crawl(corpus, str(tmp_path / "out"), cfg)
    assert res.total_fetched == max_docs
    _assert_golden(res, want)
    # the rows the cap cut went back to their shards' frontiers: the cap
    # round's checkpoint holds every url the uncapped round fetched past
    # the cap
    rnd = want.trace[-1]["round"]
    cut = {r["url"] for r in golden.trace
           if r["round"] == rnd and r["fetch_seq"] >= max_docs}
    ckpt = tmp_path / "out" / "checkpoints" / f"round={rnd}"
    front = {u for f in ckpt.glob("shard=*/frontier.parquet")
             for u in pq.read_table(f, columns=["url"])["url"].to_pylist()}
    assert cut and cut <= front


def test_round_layout(ray_session, corpus, golden, tmp_path):
    """Each round runs one task per non-empty task group (bucket % G, G =
    min(buckets, session CPUs)), so never more tasks than CPUs or than
    non-empty buckets, and still writes exactly one trace part and one
    store part per non-empty bucket; the crawl matches ref_sim."""
    from aspseek_ray.functions.hashing import fnv1a64

    B = CFG.num_page_buckets
    cpus = int(ray.cluster_resources()["CPU"])
    G = min(B, cpus)
    out = tmp_path / "out"
    res = run_crawl(corpus, str(out), CFG)
    trace = res.trace_table()
    for m in res.metrics:
        rnd = m["round"]
        urls = trace.filter(pc.equal(trace["round"], rnd))["url"].to_pylist()
        buckets = {abs(fnv1a64(u)) % B for u in urls}
        assert m["tasks"] == len({b % G for b in buckets}), m
        assert m["tasks"] <= min(cpus, len(buckets)), m
        parts = {f"part-{b}.parquet" for b in buckets}
        for d in ("trace", "store"):
            got = {f.name for f in (out / d / f"round={rnd}").iterdir()}
            assert got == parts, (d, rnd)
    assert max(m["tasks"] for m in res.metrics) > 1
    _assert_golden(res, golden)


def _assert_dies(handle) -> None:
    """The shard actor behind ``handle`` fails a call within 30 s."""
    deadline = time.monotonic() + 30
    with pytest.raises(ray.exceptions.RayActorError):
        while time.monotonic() < deadline:
            ray.get(handle.stats.remote())
            time.sleep(0.05)


def test_release_shards(ray_session, corpus, tmp_path):
    """``release_shards`` kills the idle pooled shard actors: the pool is
    empty afterwards and a released handle fails its next call."""
    crawl.release_shards()
    c = Crawler(corpus, str(tmp_path / "out"), CFG)
    c.shutdown()
    released = list(crawl._POOL.idle)
    assert len(released) == CFG.num_shards
    crawl.release_shards()
    assert crawl._POOL.idle == []
    _assert_dies(released[0])


def test_pool_keeps_the_last_crawls_shards(ray_session, corpus, tmp_path):
    """Crawls with S = 4, then 2, then 3 in one session, with no
    ``release_shards`` between them: after each crawl the pool holds
    exactly that crawl's S actors, and every idle actor the pool trimmed
    fails its next call."""
    trimmed = []
    for i, S in enumerate((4, 2, 3)):
        before = list(crawl._POOL.idle)
        c = Crawler(corpus, str(tmp_path / f"out{i}"),
                    CrawlConfig(max_rounds=2, num_shards=S,
                                num_page_buckets=8))
        ids = _actor_ids(c.shards)
        try:
            c.run()
        finally:
            c.shutdown()
        assert len(crawl._POOL.idle) == S
        assert _actor_ids(crawl._POOL.idle) == ids
        trimmed += [h for h in before if h._actor_id.hex() not in ids]
    assert len(trimmed) == 2
    for h in trimmed:
        _assert_dies(h)


def test_round_counters_reconcile(ray_session, corpus, tmp_path):
    """Every round's metrics agree with what the round wrote and did:
    ``scheduled`` and the status counts with its trace rows,
    ``candidates`` with the rows the shards report offered to them."""
    out = str(tmp_path / "out")
    c = Crawler(corpus, out, CFG)

    def offered() -> int:
        return sum(st["offered"]
                   for st in ray.get([s.stats.remote() for s in c.shards]))

    statuses = set()
    try:
        before = offered()
        while c.round < CFG.max_rounds:
            m = c.run_round()
            if m is None:
                break
            trace = read_trace(out)
            trace = trace.filter(pc.equal(trace["round"], m["round"]))
            status = trace["status"].to_pylist()
            statuses |= set(status)
            assert m["scheduled"] == trace.num_rows, m
            assert m["fetched_200"] == status.count(200), m
            assert m["fetched_404"] == status.count(404), m
            after = offered()
            assert m["candidates"] == after - before, m
            before = after
    finally:
        c.shutdown()
    assert c.round > 2 and statuses == {200, 301, 404}, (c.round, statuses)


def test_shard_offer_counters(ray_session, corpus, golden, tmp_path):
    """Every round's ``shard_offers`` in metrics.json, one counter dict
    per shard from its one offer call, account for each offer: offered =
    rejected_seen + rejected_filtered + staged + dup_in_round on every
    shard, and the shard sums equal the round's ``candidates`` and
    ``newly_discovered``."""
    out = tmp_path / "out"
    res = run_crawl(corpus, str(out), CFG)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics == res.metrics
    keys = {"offered", "rejected_seen", "rejected_filtered", "staged",
            "dup_in_round"}
    for m in metrics:
        offers = m["shard_offers"]
        assert len(offers) == CFG.num_shards, m
        for o in offers:
            assert set(o) == keys, m
            assert o["offered"] == (o["rejected_seen"] + o["rejected_filtered"]
                                    + o["staged"] + o["dup_in_round"]), m
        assert sum(o["offered"] for o in offers) == m["candidates"], m
        assert sum(o["staged"] for o in offers) == m["newly_discovered"], m
    for k in keys:    # the corpus exercises every outcome
        assert any(o[k] for m in metrics for o in m["shard_offers"]), k
    _assert_golden(res, golden)


@pytest.mark.parametrize("when", ["between_rounds", "mid_round"])
def test_shard_loss_fails_fast_and_resumes(ray_session, corpus, golden,
                                           tmp_path, kill_shards, when):
    """A shard actor lost between rounds, or in round 3 after the round's
    tasks have returned candidates for it and before its offer call runs,
    makes that round raise a Ray actor error at once; shutdown after the
    loss returns cleanly and kills the crawl's shards rather than pool
    them, and a resume from LATEST.json, on other actors, reproduces the
    golden trace and seen set."""
    out = str(tmp_path / "out")
    c1 = Crawler(corpus, out, CFG)
    for _ in range(3):
        c1.run_round()
    ids1 = _actor_ids(c1.shards)
    offered = []
    if when == "between_rounds":
        ray.kill(c1.shards[1])
    else:
        offer_round = c1._offer_round

        def kill_then_offer(cands):
            # the round's tasks have returned shard 1's candidate tables
            tables = ray.get([c[1] for c in cands])
            offered.append(sum(t.num_rows for t in tables if t is not None))
            kill_shards([c1.shards[1]])
            return offer_round(cands)

        c1._offer_round = kill_then_offer
    t0 = time.monotonic()
    with pytest.raises(ray.exceptions.RayActorError):
        c1.run_round()
    assert time.monotonic() - t0 < 30
    if when == "mid_round":
        assert c1.round == 3 and offered[0] > 0, offered
    t0 = time.monotonic()
    c1.shutdown()
    assert time.monotonic() - t0 < 30
    assert not ids1 & _actor_ids(crawl._POOL.idle)

    c2 = Crawler(corpus, out, CFG, resume=True)
    assert 1 <= c2.round <= 3
    assert not ids1 & _actor_ids(c2.shards)
    res = c2.run()
    c2.shutdown()
    _assert_golden(res, golden)
