"""searchd / stored daemon surface + s.cgi renderer (SURVEY §3.2/§3.3,
round 5): the wire protocol answers must equal the in-process query
pipelines bitwise, paging slices the cached result set (qcache hit, no
re-run), the stored daemon round-trips zlib bodies and serves the same
excerpt the pipeline slices, and the template renderer substitutes the
reference's result variables (escaped) including the notfound / error
sections."""

from __future__ import annotations

import math

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def crawl_products(ray_session, tmp_path_factory):
    """Tiny store + pages pair (the test_round3 fixture shape): 4 urls on
    3 hosts in a link cycle (uniform pagerank -> popularity factor 2.0)."""
    tmp_path = tmp_path_factory.mktemp("daemon")
    urls = ["http://a.example/", "http://a.example/p.html",
            "http://b.example/", "http://c.example/"]
    texts = ["foo foo foo", "foo foo", "foo bar", "bar"]
    nxt = urls[1:] + urls[:1]
    htmls = [f'<p><a href="{n}">x</a></p>'.encode() for n in nxt]
    store = tmp_path / "store"
    store.mkdir()
    pq.write_table(pa.table({"url": urls, "text": texts}),
                   store / "part-0.parquet")
    pages = tmp_path / "pages.parquet"
    pq.write_table(pa.table({"url": urls,
                             "html": pa.array(htmls, pa.binary())}), pages)
    return str(store), str(pages), urls, texts


@pytest.fixture(scope="module")
def searchd(crawl_products):
    from aspseek_ray.daemon import SearchdServer

    store, pages, _, _ = crawl_products
    srv = SearchdServer(store, pages, max_results=100)
    host, port = srv.start()
    yield srv, host, port
    srv.stop()


@pytest.fixture(scope="module")
def stored(crawl_products):
    from aspseek_ray.daemon import StoredServer

    store, _, _, _ = crawl_products
    srv = StoredServer(store)
    host, port = srv.start()
    yield srv, host, port
    srv.stop()


def _client(host, port):
    from aspseek_ray.daemon import SearchdClient

    return SearchdClient(host, port)


def test_search_over_socket_matches_pipeline(crawl_products, searchd):
    from aspseek_ray.daemon import SearchdClient
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages, _, _ = crawl_products
    _, host, port = searchd
    want = ranked_crawl_search(store, pages, k=100, query="foo")
    with SearchdClient(host, port) as c:
        got = c.search("foo", page=0, page_size=10)
    assert got["total"] == want.num_rows
    assert [r["url"] for r in got["results"]] == want["url"].to_pylist()
    assert [r["score"] for r in got["results"]] == pytest.approx(
        want["score"].to_pylist())
    assert [r["excerpt"] for r in got["results"]] == \
        want["excerpt"].to_pylist()
    assert all(r["host"] == "" for r in got["results"])   # ungrouped


def test_wildcard_over_socket_matches_pipeline(crawl_products, searchd):
    """Bare wildcards expand against the store index vocabulary (foo,
    bar): the socket answer equals the pipeline's answer to the hand
    expansion."""
    from aspseek_ray.daemon import SearchdClient
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages, _, _ = crawl_products
    _, host, port = searchd
    for q, manual in [("fo*", "foo"), ("*oo", "foo"),
                      ("foo -ba*", "foo -bar")]:
        want = ranked_crawl_search(store, pages, k=100, query=manual)
        assert want.num_rows > 0
        with SearchdClient(host, port) as c:
            got = c.search(q, page=0, page_size=10)
        assert got["total"] == want.num_rows
        assert [r["url"] for r in got["results"]] == want["url"].to_pylist()
        assert [r["score"] for r in got["results"]] == pytest.approx(
            want["score"].to_pylist())
        assert [r["excerpt"] for r in got["results"]] == \
            want["excerpt"].to_pylist()


def test_paging_slices_cached_set(searchd):
    from aspseek_ray.daemon import SearchdClient

    srv, host, port = searchd
    with SearchdClient(host, port) as c:
        full = c.search("foo", page=0, page_size=10)
        misses_before = c.stats()["misses"]
        p0 = c.search("foo", page=0, page_size=2)
        p1 = c.search("foo", page=1, page_size=2)
        stats = c.stats()
    # paging never re-ran the pipeline: all slices hit the query cache
    assert stats["misses"] == misses_before
    assert stats["hits"] >= 2
    assert p0["first"] == 1 and p0["last"] == 2
    assert p1["first"] == 3 and p1["last"] == full["total"] == 3
    assert ([r["url"] for r in p0["results"]]
            + [r["url"] for r in p1["results"]]
            == [r["url"] for r in full["results"]])
    # out-of-range page: empty slice, first/last pinned to 0
    with SearchdClient(host, port) as c:
        p9 = c.search("foo", page=9, page_size=2)
    assert p9["results"] == [] and p9["first"] == 0 and p9["last"] == 0
    assert p9["total"] == full["total"]


def test_site_grouping_over_socket(crawl_products, searchd):
    from aspseek_ray.daemon import SearchdClient
    from aspseek_ray.pipelines.search import ranked_crawl_search

    store, pages, _, _ = crawl_products
    _, host, port = searchd
    want = ranked_crawl_search(store, pages, k=100, query="foo", per_site=1)
    with SearchdClient(host, port) as c:
        got = c.search("foo", page=0, page_size=10, per_site=1)
    assert [r["host"] for r in got["results"]] == want["host"].to_pylist()
    assert [r["url"] for r in got["results"]] == want["url"].to_pylist()


def test_query_error_status(searchd):
    from aspseek_ray.daemon import DaemonError, SearchdClient, ST_QUERY_ERROR

    _, host, port = searchd
    with SearchdClient(host, port) as c:
        with pytest.raises(DaemonError) as ei:
            c.search("", page=0, page_size=10)
        assert ei.value.status == ST_QUERY_ERROR
        # the connection survives an error reply
        ok = c.search("foo", page=0, page_size=10)
    assert ok["total"] == 3


def test_bad_request_status(searchd):
    import socket
    import struct

    from aspseek_ray.daemon import (CMD_SEARCH, HELLO, ST_BAD_REQUEST,
                                    _recv_frame, _send_frame)

    _, host, port = searchd
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(HELLO)
        assert sock.recv(len(HELLO)) == HELLO
        # page_size=0 is rejected
        payload = (struct.pack("!I", 3) + b"foo"
                   + struct.pack("!III", 0, 0, 0))
        _send_frame(sock, CMD_SEARCH, payload)
        st, _ = _recv_frame(sock)
        assert st == ST_BAD_REQUEST
        # unknown command is rejected without killing the connection
        _send_frame(sock, 99, b"")
        st, _ = _recv_frame(sock)
        assert st == ST_BAD_REQUEST


def test_stored_get_roundtrips_zlib(crawl_products, stored):
    from aspseek_ray.daemon import DaemonError, ST_NOT_FOUND, StoredClient

    _, _, urls, texts = crawl_products
    _, host, port = stored
    with StoredClient(host, port) as c:
        for u, t in zip(urls, texts):
            assert c.get(u) == t
        with pytest.raises(DaemonError) as ei:
            c.get("http://nowhere.example/")
        assert ei.value.status == ST_NOT_FOUND


def test_stored_excerpt_matches_pipeline(crawl_products, stored):
    from aspseek_ray.daemon import StoredClient
    from aspseek_ray.pipelines.search import excerpts

    store, _, urls, _ = crawl_products
    _, host, port = stored
    want = excerpts(store, ("bar",), width=5, urls=(urls[2],))
    with StoredClient(host, port) as c:
        got = c.excerpt(urls[2], ("bar",), width=5)
    assert got == want["excerpt"][0].as_py()


def test_scgi_renders_results_and_paging(searchd):
    from aspseek_ray.daemon import SearchdClient
    from aspseek_ray.scgi import render_page

    _, host, port = searchd
    with SearchdClient(host, port) as c:
        page = render_page("q=foo&ps=2&np=0", c)
    assert "Results 1-2 of 3" in page
    assert "http://a.example/" in page
    assert "next=1" in page            # more results -> next page advances
    with SearchdClient(host, port) as c:
        last = render_page("q=foo&ps=2&np=1", c)
    assert "Results 3-3 of 3" in last
    assert "next=1" in last            # last page -> next pinned to current


def test_scgi_notfound_error_and_escaping(searchd):
    from aspseek_ray.daemon import SearchdClient
    from aspseek_ray.scgi import render_page

    _, host, port = searchd
    with SearchdClient(host, port) as c:
        none = render_page("q=zzzmissing", c)
    assert "No results for <b>zzzmissing</b>." in none
    with SearchdClient(host, port) as c:
        err = render_page("q=", c)
    assert "Query error:" in err
    # query text is HTML-escaped in every section
    with SearchdClient(host, port) as c:
        esc = render_page("q=%3Cscript%3E", c)
    assert "<script>" not in esc and "&lt;script&gt;" in esc


def test_scgi_custom_template_sections():
    from aspseek_ray.scgi import _sections, _subst

    secs = _sections("<!--top-->A $(q)<!--/top--><!--res-->$(url);"
                     "<!--/res-->")
    assert set(secs) == {"top", "res"}
    assert _subst(secs["top"], {"q": "a&b"}) == "A a&amp;b"
    # unknown variables render empty, not literal
    assert _subst("$(nope)!", {}) == "!"


def test_concurrent_clients(searchd):
    """Mixed concurrent load: identical queries dedupe to one pipeline
    run (in-flight registry), distinct queries run in parallel, and no
    thread trips Ray's fsspec lazy-import race (_pin_fsspec_http_stub)."""
    import threading

    from aspseek_ray.daemon import SearchdClient

    srv, host, port = searchd
    before = srv.cache.misses
    out: dict[int, int] = {}

    def worker(i, q):
        with SearchdClient(host, port) as c:
            out[i] = c.search(q, page=0, page_size=10)["total"]

    qs = ["foo OR bar", "foo OR bar", "foo OR bar", "bar"]
    threads = [threading.Thread(target=worker, args=(i, q))
               for i, q in enumerate(qs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [out[i] for i in range(4)] == [4, 4, 4, 2]
    # 2 distinct fresh queries -> exactly 2 pipeline runs
    assert srv.cache.misses == before + 2


def test_querycache_thread_safe_dedupes_inflight():
    """Concurrent IDENTICAL keys run the wrapped fn once (late arrivals
    wait and count as hits); DISTINCT keys run in parallel; errors don't
    wedge waiters."""
    import threading
    import time

    from aspseek_ray.pipelines.search import QueryCache

    calls: list[tuple] = []
    gate = threading.Event()

    def slow(q, g):
        calls.append((q, g))
        gate.wait(5)
        if q == "boom":
            raise ValueError("boom")
        return f"{q}/{g}"

    qc = QueryCache(slow, maxsize=8)
    results: dict[int, object] = {}

    def worker(i, q):
        try:
            results[i] = qc(q, 0)
        except ValueError as e:
            results[i] = e

    threads = [threading.Thread(target=worker, args=(i, q))
               for i, q in enumerate(["a", "a", "a", "b"])]
    for t in threads:
        t.start()
    time.sleep(0.3)                  # everyone reaches the gate / waits
    # distinct keys run concurrently; identical ones deduped to one run
    assert sorted(calls) == [("a", 0), ("b", 0)]
    gate.set()
    for t in threads:
        t.join()
    assert results[0] == results[1] == results[2] == "a/0"
    assert results[3] == "b/0"
    assert qc.misses == 2 and qc.hits == 2

    # an erroring run releases its waiters (they retry, then raise too)
    errs: dict[int, object] = {}

    def eworker(i):
        try:
            errs[i] = qc("boom", 0)
        except ValueError as e:
            errs[i] = e

    et = [threading.Thread(target=eworker, args=(i,)) for i in range(2)]
    for t in et:
        t.start()
    for t in et:
        t.join(10)
    assert all(isinstance(v, ValueError) for v in errs.values())


def test_scgi_param_junk_falls_back():
    from aspseek_ray.scgi import parse_params

    p = parse_params("q=x&np=abc&ps=-5&gr=")
    assert p == {"q": "x", "np": 0, "ps": 1, "gr": 0}
    assert parse_params("")["ps"] == 10
