"""Round-3 additions: site-grouped results in the crawl search lifecycle
(O31 over crawl products), embedding near-dup size switch, offer
vectorization invariants."""

import math

import pyarrow as pa
import pyarrow.parquet as pq


def _write_pages(path, urls, targets, anchor="x"):
    htmls = [f'<p><a href="{t}">{anchor}</a></p>'.encode() for t in targets]
    pq.write_table(pa.table({"url": urls,
                             "html": pa.array(htmls, pa.binary())}), path)


def _mini_crawl_products(tmp_path):
    """Tiny store + pages pair: 4 urls on 3 hosts in a link cycle (uniform
    pagerank by symmetry -> popularity factor is a constant 2.0)."""
    urls = ["http://a.example/", "http://a.example/p.html",
            "http://b.example/", "http://c.example/"]
    texts = ["foo foo foo", "foo foo", "foo bar", "bar"]
    store = tmp_path / "store"
    store.mkdir()
    pq.write_table(pa.table({"url": urls, "text": texts}),
                   store / "part-0.parquet")
    pages = tmp_path / "pages.parquet"
    _write_pages(pages, urls, urls[1:] + urls[:1])
    return str(store), str(pages)


def test_site_grouped_search_hand_oracle(ray_session, tmp_path):
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages = _mini_crawl_products(tmp_path)
    idf = math.log(4 / 3)          # N=4 docs, df(foo)=3
    s = {u: tf * idf * 2.0 for u, tf in
         [("http://a.example/", 3), ("http://a.example/p.html", 2),
          ("http://b.example/", 1)]}

    out = ranked_crawl_search(store, pages, ("foo",), per_site=1)
    assert out.schema.names == ["host", "url", "score", "excerpt"]
    assert out["host"].to_pylist() == ["a.example", "b.example"]
    assert out["url"].to_pylist() == ["http://a.example/", "http://b.example/"]
    got = out["score"].to_pylist()
    assert got[0] == round(s["http://a.example/"], 4)
    assert got[1] == round(s["http://b.example/"], 4)
    assert all("foo" in e for e in out["excerpt"].to_pylist())

    out2 = ranked_crawl_search(store, pages, ("foo",), per_site=2)
    assert out2["url"].to_pylist() == [
        "http://a.example/", "http://a.example/p.html", "http://b.example/"]

    # k cuts in host-major order
    out3 = ranked_crawl_search(store, pages, ("foo",), k=2, per_site=2)
    assert out3["url"].to_pylist() == ["http://a.example/",
                                       "http://a.example/p.html"]

    # per_site=None keeps the ungrouped contract (no host column)
    out4 = ranked_crawl_search(store, pages, ("foo",))
    assert out4.schema.names == ["url", "score", "excerpt"]
    assert out4["url"].to_pylist() == [
        "http://a.example/", "http://a.example/p.html", "http://b.example/"]


def test_parsed_query_crawl_lifecycle(ray_session, tmp_path):
    """qparser -> boolean admissibility -> rank -> excerpt over the crawl
    store (the full s.cgi lifecycle): negation excludes, AND restricts,
    phrases need contiguity, and scoring uses only positive terms."""
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages = _mini_crawl_products(tmp_path)

    # plain term via query string == terms tuple
    out = ranked_crawl_search(store, pages, query="foo")
    assert out["url"].to_pylist() == [
        "http://a.example/", "http://a.example/p.html", "http://b.example/"]

    # NOT excludes the doc containing bar
    out = ranked_crawl_search(store, pages, query="foo NOT bar")
    assert out["url"].to_pylist() == [
        "http://a.example/", "http://a.example/p.html"]

    # AND restricts to the co-occurrence doc
    out = ranked_crawl_search(store, pages, query="foo bar")
    assert out["url"].to_pylist() == ["http://b.example/"]

    # phrase requires contiguity: only the multi-foo docs
    out = ranked_crawl_search(store, pages, query='"foo foo"')
    assert out["url"].to_pylist() == [
        "http://a.example/", "http://a.example/p.html"]

    # OR admits all docs; bar's rarity (df=2 vs 3) reorders nothing here
    out = ranked_crawl_search(store, pages, query="foo OR bar")
    assert set(out["url"].to_pylist()) == {
        "http://a.example/", "http://a.example/p.html",
        "http://b.example/", "http://c.example/"}

    # site grouping composes with the parsed query
    out = ranked_crawl_search(store, pages, query="foo", per_site=1)
    assert out.schema.names == ["host", "url", "score", "excerpt"]
    assert out["url"].to_pylist() == ["http://a.example/",
                                      "http://b.example/"]


def test_ranked_search_plans_agree(ray_session, tmp_path):
    """The distributed ranked-search plan (driver_max_docs=0 forces it)
    must equal the driver plan exactly — including qparser admissibility,
    per-site capping, tiebreaks and excerpts — on a multi-block store."""
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages = _multi_block_products(tmp_path)
    cases = [dict(terms=("foo",)), dict(terms=("foo", "bar"), k=7),
             dict(terms=("foo",), per_site=2),
             dict(query="foo OR bar", per_site=1, k=5),
             dict(query="foo NOT slow"),
             dict(query='"foo bar" OR qux', per_site=3)]
    for kwargs in cases:
        a = ranked_crawl_search(store, pages, **kwargs)
        b = ranked_crawl_search(store, pages, driver_max_docs=0, **kwargs)
        assert a.equals(b), (kwargs, a.to_pydict(), b.to_pydict())


def test_ranked_search_plans_agree_on_a_small_store(ray_session, tmp_path):
    """Both plans of ranked_crawl_search and anchor_boosted_search agree
    on the 4-url store too, where most hash partitions of a shuffle get
    no rows (the distributed plan used to fail in its rank join)."""
    from aspseek_ray.pipelines.search import (anchor_boosted_search,
                                              ranked_crawl_search)

    store, pages = _mini_crawl_products(tmp_path)
    cases = [dict(query="foo"), dict(query="foo", per_site=1),
             dict(terms=("foo",)), dict(terms=("foo", "bar"), per_site=2),
             dict(query='"foo foo" OR bar', per_site=1)]
    for kwargs in cases:
        a = ranked_crawl_search(store, pages, **kwargs)
        b = ranked_crawl_search(store, pages, driver_max_docs=0, **kwargs)
        assert a.num_rows > 0
        assert a.equals(b), (kwargs, a.to_pydict(), b.to_pydict())
    for kwargs in (dict(query="zzz"), dict(terms=("zzz",), per_site=1)):
        a = ranked_crawl_search(store, pages, **kwargs)
        b = ranked_crawl_search(store, pages, driver_max_docs=0, **kwargs)
        assert a.num_rows == 0 and a.equals(b), (kwargs, a.schema, b.schema)
    for terms in (("foo",), ("bar", "foo"), ("x",)):
        a = anchor_boosted_search(store, pages, terms)
        b = anchor_boosted_search(store, pages, terms, driver_max_docs=0)
        assert a.num_rows > 0
        assert a.equals(b), (terms, a.to_pydict(), b.to_pydict())


def test_ranked_search_expands_wildcards(ray_session, tmp_path):
    """A bare wildcard expands against the store index vocabulary (foo,
    bar, baz, qux, slow) and ranks exactly like its hand expansion,
    through both plans."""
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages = _multi_block_products(tmp_path)
    cases = [("fo*", "foo"), ("*oo", "foo"),
             ("foo -ba*", "foo -(bar OR baz)"),
             ("ba* -*ow", "(bar OR baz) -slow")]
    for q, manual in cases:
        want = ranked_crawl_search(store, pages, query=manual, per_site=2)
        assert want.num_rows > 0
        for dmax in (100_000, 0):
            got = ranked_crawl_search(store, pages, query=q, per_site=2,
                                      driver_max_docs=dmax)
            assert got.equals(want), (q, dmax, got.to_pydict())


def test_ranked_search_over_zero_row_parts(ray_session, tmp_path):
    """A store whose parts hold zero rows has nothing to rank: both
    ranked_crawl_search and anchor_boosted_search return empty tables."""
    from aspseek_ray.pipelines.search import (anchor_boosted_search,
                                              ranked_crawl_search)

    _, pages = _mini_crawl_products(tmp_path)
    store = tmp_path / "empty_store"
    (store / "round=0").mkdir(parents=True)
    for b in range(2):
        pq.write_table(pa.table({"url": pa.array([], pa.string()),
                                 "text": pa.array([], pa.string())}),
                       store / "round=0" / f"part-{b}.parquet")
    for dmax in (100_000, 0):
        out = ranked_crawl_search(str(store), pages, ("foo",),
                                  driver_max_docs=dmax)
        assert out.num_rows == 0
        assert out.schema.names == ["url", "score", "excerpt"]
        out = ranked_crawl_search(str(store), pages, query="fo*",
                                  driver_max_docs=dmax)
        assert out.num_rows == 0
        out = anchor_boosted_search(str(store), pages, ("foo",),
                                    driver_max_docs=dmax)
        assert out.num_rows == 0
        assert out.schema.names == ["url", "score"]


def test_store_index_built_once_per_store(ray_session, tmp_path,
                                          monkeypatch):
    """The store index is built by the first query that needs it and
    read by every later query of both plans and of anchor_boosted_search;
    rewriting a store file in place builds it again; a round added later
    is staged on its own (stage_delta reads that round's files only) and
    the answer equals a freshly built index's. The manifest
    records each refresh's plan and reason. The staged refresh the query
    runs starts no Ray Data read or write."""
    import shutil

    import ray.data

    from aspseek_ray.pipelines import index_products as ip
    from aspseek_ray.pipelines import search

    store, pages = _multi_block_products(tmp_path)
    real = ip.build_postings
    calls = []

    def counted(pages_path, *args, **kwargs):
        calls.append(pages_path)
        return real(pages_path, *args, **kwargs)

    monkeypatch.setattr(ip, "build_postings", counted)
    for dmax in (100_000, 0):
        for kwargs in (dict(query="foo bar"), dict(query='"foo bar"'),
                       dict(query="foo", per_site=2)):
            assert search.ranked_crawl_search(
                store, pages, driver_max_docs=dmax, **kwargs).num_rows
        assert search.anchor_boosted_search(store, pages, ("foo",),
                                            driver_max_docs=dmax).num_rows
    assert len(calls) == 1
    man = ip.store_index_manifest(store)
    assert (man["generation"], man["plan"], man["reason"], man["staged"]) \
        == (0, "build", "no index", [])

    part = f"{store}/part-0.parquet"
    t = pq.read_table(part)
    texts = ["zebra"] * t.num_rows
    pq.write_table(t.set_column(1, "text", pa.array(texts)), part)
    out = search.ranked_crawl_search(store, pages, query="zebra", k=100)
    assert len(calls) == 2
    assert set(out["url"].to_pylist()) == set(t["url"].to_pylist())
    man = ip.store_index_manifest(store)
    assert (man["generation"], man["plan"], man["reason"]) \
        == (1, "build", "changed unit")

    rnd = f"{store}/round=1"
    new_urls = [f"http://h9.example/n{i}.html" for i in range(5)]
    (tmp_path / "store" / "round=1").mkdir()
    pq.write_table(pa.table({"url": new_urls,
                             "text": [f"zebra yak {'foo ' * i}"
                                      for i in range(5)]}),
                   f"{rnd}/part-0.parquet")
    real_stage, staged = ip.stage_delta, []

    def stage_counted(index_dir, store_path, *args, **kwargs):
        staged.append(store_path)
        return real_stage(index_dir, store_path, *args, **kwargs)

    def boom(*args, **kwargs):
        raise AssertionError("Ray Data job started")

    real_refresh = ip.refresh_store_index

    def refresh_without_ray_data(store_dir):
        with monkeypatch.context() as m:
            m.setattr(ray.data, "read_parquet", boom)
            m.setattr(ray.data.Dataset, "write_parquet", boom)
            return real_refresh(store_dir)

    monkeypatch.setattr(ip, "stage_delta", stage_counted)
    with monkeypatch.context() as m:
        m.setattr(ip, "refresh_store_index", refresh_without_ray_data)
        got = search.ranked_crawl_search(store, pages, query="zebra", k=100)
    assert len(calls) == 2 and staged == [rnd]
    man = ip.store_index_manifest(store)
    assert (man["generation"], man["plan"], man["reason"], man["staged"]) \
        == (2, "stage", "new units", ["round=1"])
    assert man["n_docs"] == 69
    assert man["fold_files"]["docs_read"] == 1
    assert man["fold_files"]["written"] >= 1
    fresh = tmp_path / "fresh" / "store"
    shutil.copytree(store, fresh)
    want = search.ranked_crawl_search(str(fresh), pages, query="zebra", k=100)
    assert len(calls) == 3 and calls[2] == str(fresh)
    assert got.equals(want) and got.num_rows == 21


def _multi_block_products(tmp_path):
    """64 urls on 8 hosts in one link cycle, the store in 4 files (so 4
    blocks through the distributed plan), random texts over 5 words."""
    import random

    rng = random.Random(5)
    words = ["foo", "bar", "baz", "qux", "slow"]
    store = tmp_path / "store"
    store.mkdir()
    urls, texts = [], []
    for h in range(8):
        for p in range(8):
            u = f"http://h{h}.example/p{p}.html"
            urls.append(u)
            texts.append(" ".join(rng.choice(words)
                                  for _ in range(rng.randint(3, 12))))
    # 4 separate files -> multiple blocks through the distributed path
    for i in range(4):
        sl = slice(i * 16, (i + 1) * 16)
        pq.write_table(pa.table({"url": urls[sl], "text": texts[sl]}),
                       store / f"part-{i}.parquet")
    pages = tmp_path / "pages.parquet"
    _write_pages(pages, urls, urls[1:] + urls[:1])
    return str(store), str(pages)


def test_embedding_near_dup_size_switch(ray_session):
    """The bucketed (IVF) plan of embedding_near_dup_pairs: with one
    cluster it must EQUAL the exact broadcast plan (same pairs, same
    cosines); with several clusters it must emit only exact pairs
    (no false positives, each exactly once)."""
    from aspseek_ray.pipelines import dedup

    sf = "/root/testdata/sf0.001"
    exact = dedup.embedding_near_dup_pairs(sf, threshold=0.4)
    e = {(a, b): c for a, b, c in zip(exact["vec_a"].to_pylist(),
                                      exact["vec_b"].to_pylist(),
                                      exact["cosine"].to_pylist())}
    assert e, "fixture has no near-dup pairs at 0.4 — test is vacuous"

    one = dedup.embedding_near_dup_pairs(sf, threshold=0.4,
                                         broadcast_max_rows=0,
                                         n_clusters=1, n_assign=1)
    g = {(a, b): c for a, b, c in zip(one["vec_a"].to_pylist(),
                                     one["vec_b"].to_pylist(),
                                     one["cosine"].to_pylist())}
    assert g == e

    multi = dedup.embedding_near_dup_pairs(sf, threshold=0.4,
                                           broadcast_max_rows=0,
                                           n_clusters=8, n_assign=2)
    pairs = list(zip(multi["vec_a"].to_pylist(), multi["vec_b"].to_pylist()))
    assert len(pairs) == len(set(pairs))          # exactly-once emission
    assert set(pairs) <= set(e)                   # no false pairs
    for (a, b), c in zip(pairs, multi["cosine"].to_pylist()):
        assert c == e[(a, b)]


def test_ranks_computed_once_per_pages_table(ray_session, tmp_path,
                                             monkeypatch):
    """PageRank depends on the pages table alone: distinct ranked queries
    through both plans compute it once, the cached table equals
    pagerank() bitwise, and a pages file with other links gets new
    ranks."""
    from aspseek_ray.pipelines import index_products as ip
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages = _multi_block_products(tmp_path)
    real = ip.pagerank
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ip, "pagerank", counted)
    for q in ("foo", "bar NOT slow"):
        a = ranked_crawl_search(store, pages, query=q)
        b = ranked_crawl_search(store, pages, query=q, driver_max_docs=0)
        assert a.equals(b), (q, a.to_pydict(), b.to_pydict())
    assert len(calls) == 1
    monkeypatch.undo()

    cached = ip.ensure_ranks(pages)
    assert pq.read_table(cached).equals(ip.pagerank(pages))

    # every page links to the first: ranks are no longer uniform
    urls = pq.read_table(pages, columns=["url"])["url"].to_pylist()
    _write_pages(pages, urls, [urls[0]] * len(urls))
    fresh = ip.ensure_ranks(pages)
    assert fresh != cached
    got = pq.read_table(fresh)
    assert got.equals(ip.pagerank(pages))
    assert not got.equals(pq.read_table(cached))


def test_caches_see_a_file_rewritten_inside_a_pages_dir(ray_session,
                                                        tmp_path):
    """A pages table given as a directory: rewriting a file in place
    leaves the directory's own stat unchanged, yet the anchor index and
    the ranks must be rebuilt from the new file."""
    import pyarrow.dataset as pads

    from aspseek_ray.pipelines import index_products as ip

    urls = ["http://a.example/", "http://b.example/", "http://c.example/"]
    cycle, star = urls[1:] + urls[:1], [urls[0]] * len(urls)
    pages = tmp_path / "pages"
    pages.mkdir()
    part = pages / "part-0.parquet"
    _write_pages(part, urls, cycle, anchor="alpha")
    dir_mtime = pages.stat().st_mtime_ns

    anchors = ip.ensure_anchor_index(str(pages))
    _write_pages(part, urls, star, anchor="omega")
    assert pages.stat().st_mtime_ns == dir_mtime
    fresh = ip.ensure_anchor_index(str(pages))
    assert fresh != anchors
    words = pads.dataset(fresh, format="parquet",
                         partitioning="hive").to_table(columns=["word"])
    assert set(words["word"].to_pylist()) == {"omega"}

    ranks = ip.ensure_ranks(str(pages))
    _write_pages(part, urls, cycle, anchor="alpha")
    assert pages.stat().st_mtime_ns == dir_mtime
    fresh = ip.ensure_ranks(str(pages))
    assert fresh != ranks
    assert pq.read_table(fresh).equals(ip.pagerank(str(pages)))


def test_cached_build_sweeps_entries_of_deleted_sources(tmp_path):
    """A cache build records its source and removes the sibling entries
    whose recorded source is gone; a hit removes nothing, and entries
    without a record (or another builder's work in progress) stay."""
    from pathlib import Path

    from aspseek_ray.runtime import cached_build

    root = tmp_path / "cache"
    srcs = []
    for name in "abc":
        f = tmp_path / f"{name}.parquet"
        pq.write_table(pa.table({"x": [1]}), f)
        srcs.append(str(f))

    def build(tmp):
        (tmp / "data").write_text("x")

    a, b = (cached_build(root, s, "t1", build) for s in srcs[:2])
    assert (Path(a) / "_source.txt").read_text() == srcs[0]
    (root / "unrecorded").mkdir()
    (root / "x.tmp1.2").mkdir()
    Path(srcs[0]).unlink()
    assert cached_build(root, srcs[1], "t1", build) == b   # a hit
    assert Path(a).exists()
    c = cached_build(root, srcs[2], "t1", build)           # a miss
    assert {p.name for p in root.iterdir()} == {
        Path(b).name, Path(c).name, "unrecorded", "x.tmp1.2"}


def test_store_index_lives_beside_the_store(ray_session, tmp_path):
    """The store index is kept in the sibling dir ``store.index``, so a
    query leaves the store's own file listing as it was."""
    from pathlib import Path

    from aspseek_ray.pipelines import index_products as ip
    from aspseek_ray.pipelines import search

    store, pages = _mini_crawl_products(tmp_path)
    before = sorted(Path(store).rglob("*"))
    assert search.ranked_crawl_search(store, pages, query="foo").num_rows
    assert sorted(Path(store).rglob("*")) == before
    man = ip.store_index_manifest(store)
    idx = tmp_path / "store.index"
    assert ip.refresh_store_index(store) == str(idx / man["dir"])
    assert (idx / "manifest.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pages.parquet", "store", "store.index"]


def test_query_keeps_its_generation_across_refreshes(ray_session, tmp_path,
                                                    monkeypatch):
    """A query that took generation g of the store index reads it to the
    end while two refreshes publish g+1 and g+2; a third refresh removes
    g."""
    import threading
    from pathlib import Path

    from aspseek_ray.pipelines import index_products as ip
    from aspseek_ray.pipelines import search

    store, pages = _mini_crawl_products(tmp_path)
    want = search.ranked_crawl_search(store, pages, query="foo")
    gen0 = ip.refresh_store_index(store)
    real = search._term_postings
    entered, release = threading.Event(), threading.Event()

    def blocked(pdir, *args, **kwargs):
        if not entered.is_set():
            entered.set()
            assert release.wait(120)
        return real(pdir, *args, **kwargs)

    monkeypatch.setattr(search, "_term_postings", blocked)
    out = {}
    q = threading.Thread(target=lambda: out.update(
        t=search.ranked_crawl_search(store, pages, query="foo")))
    q.start()
    assert entered.wait(120)
    for r in (1, 2, 3):
        d = tmp_path / "store" / f"round={r}"
        d.mkdir()
        pq.write_table(pa.table({"url": [f"http://d.example/{r}"],
                                 "text": [f"foo round{r}"]}),
                       d / "part-0.parquet")
        ip.refresh_store_index(store)
        if r == 2:
            release.set()
            q.join(120)
            assert out["t"].equals(want)
    assert ip.store_index_manifest(store)["generation"] == 3
    assert not Path(gen0).exists()
    assert sorted(p.name for p in (tmp_path / "store.index").glob("gen-*")) \
        == ["gen-000001", "gen-000002", "gen-000003"]
