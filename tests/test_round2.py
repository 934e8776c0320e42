"""Round-2 regression tests: salted LSH groupings preserve outputs,
prefix-filtered Jaccard equals brute force, pagerank physical plans agree,
postings-backed search equals a straight text scan, lex-range shard
routing, bulk cuckoo inserts."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------- LSH salting
def test_minhash_salt_invariant(ray_session):
    from aspseek_ray.pipelines.dedup import minhash_lsh_pairs

    def norm(t):
        return sorted(zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist(),
                          t["est_jaccard"].to_pylist()))

    assert norm(minhash_lsh_pairs(SF, salt=1)) == \
        norm(minhash_lsh_pairs(SF, salt=64))


def test_simhash_salt_invariant(ray_session):
    from aspseek_ray.pipelines.dedup import simhash_near_pairs

    def norm(t):
        return sorted(zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist(),
                          t["hamming"].to_pylist()))

    assert norm(simhash_near_pairs(SF, salt=1)) == \
        norm(simhash_near_pairs(SF, salt=64))


# ------------------------------------------------- prefix-filtered jaccard
def test_jaccard_prefix_filter_equals_bruteforce(ray_session):
    import pyarrow.parquet as pq

    from aspseek_ray.functions.text import tokenize
    from aspseek_ray.pipelines.dedup import jaccard_pairs

    got = jaccard_pairs(SF, threshold=0.5)
    got_set = {(a, b): j for a, b, j in zip(got["doc_a"].to_pylist(),
                                            got["doc_b"].to_pylist(),
                                            got["jaccard"].to_pylist())}
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sets = {d: set(tokenize(t)) for d, t in zip(docs["doc_id"].to_pylist(),
                                                docs["text"].to_pylist())}
    ids = sorted(sets)
    want = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            sa, sb = sets[a], sets[b]
            if not sa or not sb:
                continue
            inter = len(sa & sb)
            jac = inter / (len(sa) + len(sb) - inter)
            if jac >= 0.5:
                want[(a, b)] = round(jac, 4)
    assert got_set == want


# ------------------------------------------------------------ pagerank plans
def test_pagerank_paths_agree(ray_session, sf_small_dir):
    from aspseek_ray.pipelines.index_products import pagerank

    small = pagerank(f"{sf_small_dir}/pages.parquet", iterations=3)
    joined = pagerank(f"{sf_small_dir}/pages.parquet", iterations=3,
                      broadcast_max_nodes=0)  # force the keyed-join plan
    a = dict(zip(small["url"].to_pylist(), small["rank"].to_pylist()))
    b = dict(zip(joined["url"].to_pylist(), joined["rank"].to_pylist()))
    assert a.keys() == b.keys()
    for u in a:
        assert a[u] == pytest.approx(b[u], abs=2e-6)


# ------------------------------------------------- postings-backed search
def _scan_tokens(sf_dir):
    import pyarrow.parquet as pq

    from aspseek_ray.functions.text import tokenize

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return {d: tokenize(t) for d, t in zip(docs["doc_id"].to_pylist(),
                                           docs["text"].to_pylist())}


def test_search_matches_text_scan(ray_session):
    from aspseek_ray.pipelines import search

    toks = _scan_tokens(SF)
    want_and = sorted(d for d, ts in toks.items()
                      if {"spark", "window", "scan"} <= set(ts))
    assert sorted(search.boolean_and_search(SF)["doc_id"].to_pylist()) == want_and

    want_or = sorted(d for d, ts in toks.items()
                     if {"spark", "window", "scan"} & set(ts))
    assert sorted(search.boolean_or_search(SF)["doc_id"].to_pylist()) == want_or

    want_not = sorted(d for d, ts in toks.items()
                      if "spark" in ts and "window" not in ts)
    assert sorted(search.boolean_not_search(SF)["doc_id"].to_pylist()) == want_not

    want_phrase = sorted(
        d for d, ts in toks.items()
        if any(x == "scan" and y == "slow" for x, y in zip(ts, ts[1:])))
    assert sorted(search.phrase_search(SF)["doc_id"].to_pylist()) == want_phrase


def test_tfidf_matches_text_scan(ray_session):
    import math

    from aspseek_ray.pipelines import search

    toks = _scan_tokens(SF)
    n = len(toks)
    terms = ("spark", "window", "scan")
    df = {t: sum(1 for ts in toks.values() if t in ts) for t in terms}
    scores = {}
    for d, ts in toks.items():
        s = sum(ts.count(t) * math.log(n / df[t]) for t in terms
                if df[t] and t in ts)
        if s > 0:
            scores[d] = s
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = search.tfidf_search(SF)
    assert got["doc_id"].to_pylist() == [d for d, _ in want]
    for g, (_, w) in zip(got["score"].to_pylist(), want):
        assert g == pytest.approx(round(w, 4), abs=1e-4)


# ----------------------------------------------------- lex-range sharding
def test_shard_of_hosts_routing():
    from aspseek_ray.state.shard import (host_range_filter,
                                         host_shard_bounds, shard_of_hosts)

    hosts = [f"h{i:03d}.example" for i in range(100)]
    # weight h000 heavily: cuts must dedicate shards to its mass
    weighted = ["h000.example"] * 500 + hosts
    bounds = host_shard_bounds(weighted, 4)
    assert len(bounds) == 3
    sh = shard_of_hosts(bounds, hosts)
    assert sh.min() >= 0 and sh.max() <= 3
    # monotone: lexicographic order never decreases the shard id
    assert all(a <= b for a, b in zip(sh, sh[1:]))
    # unseen hosts route deterministically
    again = shard_of_hosts(bounds, ["zzz.example", "aaa.example"])
    assert list(again) == list(shard_of_hosts(bounds,
                                              ["zzz.example", "aaa.example"]))

    # the Arrow range filter that loads each shard's robots rows routes
    # exactly like shard_of_hosts: non-ASCII and astral-plane hosts, and
    # a heavy host that repeats a cut point (its neighbours' ranges empty)
    mixed = hosts + ["é.example", "éa.example", "zé.example", "ü.example",
                     "\U0001f600.example", "\uffff.example", "Z.example"]
    heavy = ["h050.example"] * 900 + mixed
    assert len(set(host_shard_bounds(heavy, 5))) < 4
    for weighted, S in ((mixed, 7), (heavy, 5)):
        bounds = host_shard_bounds(weighted, S)
        sh = shard_of_hosts(bounds, mixed)
        cuts = [None, *bounds, None]
        t = pa.table({"host": pa.array(mixed, pa.string())})
        for s in range(S):
            got = t.filter(host_range_filter(cuts[s], cuts[s + 1]))
            assert sorted(got["host"].to_pylist()) == sorted(
                h for h, x in zip(mixed, sh) if x == s), (S, s)


def test_follow_mode_conformance(ray_session, tmp_path_factory):
    """O3 follow modes (reference `Server [mode] URL`): site- and
    path-restricted crawls must reproduce the simulator exactly AND be
    strictly narrower than the world crawl."""
    import pyarrow.parquet as pq

    from aspseek_ray.config import CrawlConfig
    from aspseek_ray.pipelines.crawl import run_crawl
    from fixtures.gen import generate_corpus
    from ref_sim import load_corpus, simulate

    d = str(tmp_path_factory.mktemp("follow_corpus"))
    generate_corpus(d, n_pages=400, n_hosts=16, seed=11)
    pages, seeds, robots, redirects = load_corpus(d)
    sizes = {}
    for mode in ("world", "site", "path"):
        cfg = CrawlConfig(max_rounds=8, num_shards=3, num_page_buckets=4,
                          follow_mode=mode)
        want = simulate(pages, seeds, robots, cfg, redirects)
        out = str(tmp_path_factory.mktemp(f"follow_{mode}"))
        res = run_crawl(d, out, cfg)
        assert res.trace_table().to_pylist() == want.trace, mode
        seen = set(pq.read_table(res.seen_path())["url"].to_pylist())
        assert seen == want.seen, mode
        sizes[mode] = len(want.trace)
    assert sizes["site"] < sizes["world"]      # restriction actually bites
    assert sizes["path"] <= sizes["site"]


def test_porter_stemmer_vectors():
    from aspseek_ray.functions.morphology import porter_stem

    vectors = {
        "caresses": "caress", "cats": "cat", "agreed": "agre",
        "motoring": "motor", "conflated": "conflat", "sing": "sing",
        "relational": "relat", "argument": "argument",
        "happiness": "happi", "adjustable": "adjust", "feed": "feed",
        "running": "run", "plastered": "plaster",
    }
    for w, s in vectors.items():
        assert porter_stem(w) == s, (w, porter_stem(w), s)
    assert porter_stem("Windows") == porter_stem("windows")


def test_stemmed_search_matches_scan(ray_session):
    from aspseek_ray.functions.morphology import stem
    from aspseek_ray.pipelines import search

    toks = _scan_tokens(SF)
    terms = ("scanned", "windows")
    want = sorted(
        d for d, ts in toks.items()
        if all(any(stem(t) == stem(q) for t in ts) for q in terms))
    got = sorted(search.stemmed_search(SF, terms)["doc_id"].to_pylist())
    assert got == want and len(want) > 0


def test_query_cache_lru():
    from aspseek_ray.pipelines.search import QueryCache

    calls = []
    qc = QueryCache(lambda x: calls.append(x) or x * 2, maxsize=2)
    assert qc(1) == 2 and qc(1) == 2
    assert (qc.hits, qc.misses) == (1, 1)
    qc(2); qc(3)                           # evicts key 1 (LRU)
    qc(1)
    assert calls == [1, 2, 3, 1]


@pytest.fixture(scope="module")
def spill_case(tmp_path_factory):
    """A corpus, a crawl config with a pathologically tiny heap cap, and
    the simulator's result for them."""
    from aspseek_ray.config import CrawlConfig
    from fixtures.gen import generate_corpus
    from ref_sim import load_corpus, simulate

    d = str(tmp_path_factory.mktemp("spill_corpus"))
    generate_corpus(d, n_pages=400, n_hosts=8, seed=13)
    pages, seeds, robots, redirects = load_corpus(d)
    cfg = CrawlConfig(max_rounds=10, num_shards=2, num_page_buckets=4,
                      host_heap_cap=4)
    return d, cfg, simulate(pages, seeds, robots, cfg, redirects)


def test_heap_spill_conformance(ray_session, spill_case, tmp_path):
    """Backlog spill (host_heap_cap): with a pathologically tiny cap the
    crawl must spill nearly every frontier entry through parquet runs and
    STILL reproduce the simulator's trace and seen set exactly (the
    resume from a mid-crawl checkpoint: test_heap_spill_resume)."""
    import pyarrow.parquet as pq

    from aspseek_ray.pipelines.crawl import run_crawl

    d, cfg, want = spill_case
    res = run_crawl(d, str(tmp_path / "out"), cfg)
    assert res.trace_table().to_pylist() == want.trace
    seen = set(pq.read_table(res.seen_path())["url"].to_pylist())
    assert seen == want.seen
    assert res.rounds > 2


@pytest.mark.parametrize("shards", ["killed", "pooled"])
def test_heap_spill_resume(ray_session, spill_case, tmp_path, kill_shards,
                           shards):
    """The spilling crawl stopped after 3 rounds and resumed from its
    checkpoint ends in the simulator's trace and seen set, on other
    actors after a crash (``killed``) and on the same actors reset in
    place after a clean shutdown (``pooled``)."""
    import pyarrow.parquet as pq

    from aspseek_ray.pipelines.crawl import Crawler

    d, cfg, want = spill_case
    out = str(tmp_path / "out")
    c1 = Crawler(d, out, cfg)
    for _ in range(3):
        c1.run_round()
    ids1 = {s._actor_id.hex() for s in c1.shards}
    if shards == "killed":
        c1._drain_checkpoint()
        kill_shards(c1.shards)
    c1.shutdown()
    c2 = Crawler(d, out, cfg, resume=True)
    ids2 = {s._actor_id.hex() for s in c2.shards}
    assert c2.round == 3
    assert ids2 == ids1 if shards == "pooled" else not ids1 & ids2
    res = c2.run()
    c2.shutdown()
    assert res.trace_table().to_pylist() == want.trace
    seen = set(pq.read_table(res.seen_path())["url"].to_pylist())
    assert seen == want.seen


def test_heap_spill_bounds_memory():
    """Plain-class check: the in-heap size per host never exceeds the cap
    while total pending is preserved."""
    from aspseek_ray.config import CrawlConfig
    from aspseek_ray.functions.hashing import fnv1a64
    from aspseek_ray.state.shard import CrawlShard

    cfg = CrawlConfig(per_host_per_round=3, host_heap_cap=8, max_hops=99)
    s = CrawlShard(0, cfg, spill_dir="/tmp/spill_unit")
    rows = [(f"http://h.example/p{i}", "h.example", 1, 1000 - i)
            for i in range(200)]
    t = pa.table({
        "url": pa.array([r[0] for r in rows]),
        "url_hash": pa.array([fnv1a64(r[0]) for r in rows], pa.int64()),
        "host": pa.array([r[1] for r in rows]),
        "depth": pa.array([r[2] for r in rows], pa.int32()),
        "discovery_seq": pa.array([r[3] for r in rows], pa.int64()),
    })
    s.offer(t)
    popped = []
    for _ in range(100):
        out = s.pop_round()
        if out.num_rows == 0:
            break
        assert all(len(h) <= 8 for h in s.heaps.values())
        popped.extend(out["discovery_seq"].to_pylist())
    # every url pops exactly once, in exact (depth, seq) order
    assert popped == sorted(1000 - i for i in range(200))


def test_heap_spill_random_interleave():
    """Randomized waves of offers interleaved with pops, tiny cap: the
    global pop order must equal the reference model (per round: best
    ``budget`` not-yet-popped entries by (depth, seq)) — exercises
    spill_min routing, overflow runs, and reloads under churn."""
    from aspseek_ray.config import CrawlConfig
    from aspseek_ray.functions.hashing import fnv1a64
    from aspseek_ray.state.shard import CrawlShard

    rng = np.random.Generator(np.random.PCG64(21))
    cfg = CrawlConfig(per_host_per_round=5, host_heap_cap=6, max_hops=99)
    s = CrawlShard(0, cfg, spill_dir="/tmp/spill_rand")
    ref: list[tuple[int, int, str]] = []   # (depth, seq, url) not yet popped
    got, want = [], []
    next_id = 0
    for _ in range(30):
        n = int(rng.integers(1, 40))
        rows = []
        for _i in range(n):
            u = f"http://h.example/p{next_id}"
            d = int(rng.integers(0, 4))
            q = int(rng.integers(0, 10**6))
            rows.append((u, d, q))
            ref.append((d, q, u))
            next_id += 1
        t = pa.table({
            "url": pa.array([r[0] for r in rows]),
            "url_hash": pa.array([fnv1a64(r[0]) for r in rows], pa.int64()),
            "host": pa.array(["h.example"] * n),
            "depth": pa.array([r[1] for r in rows], pa.int32()),
            "discovery_seq": pa.array([r[2] for r in rows], pa.int64()),
        })
        s.offer(t)
        out = s.pop_round()
        got.extend(zip(out["depth"].to_pylist(),
                       out["discovery_seq"].to_pylist(),
                       out["url"].to_pylist()))
        ref.sort()
        want.extend(ref[:cfg.per_host_per_round])
        ref = ref[cfg.per_host_per_round:]
        assert all(len(h) <= cfg.host_heap_cap for h in s.heaps.values())
    while True:
        out = s.pop_round()
        if out.num_rows == 0:
            break
        got.extend(zip(out["depth"].to_pylist(),
                       out["discovery_seq"].to_pylist(),
                       out["url"].to_pylist()))
        ref.sort()
        want.extend(ref[:cfg.per_host_per_round])
        ref = ref[cfg.per_host_per_round:]
    assert got == want


def test_multimodal_resize_and_frames(ray_session):
    from aspseek_ray.pipelines.multimodal import (
        resize_images,
        sample_frames,
        synth_media_dataset,
    )

    ds = synth_media_dataset(60)
    r = resize_images(ds).to_pandas()
    assert len(r) == 20                                   # image rows only
    assert (r[["out_w", "out_h"]].max(axis=1) <= 256).all()
    assert (r[["out_w", "out_h"]].min(axis=1) >= 1).all()
    f = sample_frames(ds).to_pandas()
    assert set(f.columns) == {"media_id", "frame_idx", "ts_ms",
                              "frame_features"}
    assert f["media_id"].nunique() == 20                  # video rows only
    per = f.groupby("media_id")["frame_idx"]
    assert per.apply(lambda s: list(s) == list(range(len(s)))).all()
    assert (per.size() <= 16).all()


def test_ivf_topk_recall(ray_session):
    """IVF ANN: valid shape, deterministic, and with full probing
    (n_probe == n_clusters) it must equal exact brute force."""
    from aspseek_ray.pipelines.similarity import brute_topk, ivf_topk

    full = ivf_topk(SF, n_probe=8, n_clusters=8)
    exact = brute_topk(SF)
    f = {(q, v) for q, v in zip(full["query_id"].to_pylist(),
                                full["vec_id"].to_pylist())}
    e = {(q, v) for q, v in zip(exact["query_id"].to_pylist(),
                                exact["vec_id"].to_pylist())}
    assert f == e
    # partial probing: a subset of queries' neighbors, still k rows per query
    part = ivf_topk(SF, n_probe=2, n_clusters=8).to_pandas()
    assert (part.groupby("query_id").size() <= 5).all()
    recall = len(set(zip(part["query_id"], part["vec_id"])) & e) / len(e)
    assert recall >= 0.5


def test_cuckoo_bulk_insert_matches_scalar():
    from aspseek_ray.state.cuckoo import CuckooFilter

    rng = np.random.Generator(np.random.PCG64(9))
    hashes = rng.integers(-2**62, 2**62, size=5000, dtype=np.int64)
    bulk = CuckooFilter(1 << 14, seed=1)
    bulk.insert_many(hashes)
    assert bulk.contains_many(hashes).all()          # no false negatives
    other = rng.integers(-2**62, 2**62, size=5000, dtype=np.int64)
    fp_rate = bulk.contains_many(other).mean()
    assert fp_rate < 0.05
