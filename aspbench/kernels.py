"""Ray-free kernel rates over a fixed sample of a workload's own inputs.

Each rate is the median over repeated passes, so one slow pass (a noisy
neighbour, a GC pause) does not move it. ``host_rate`` is the drift
control measured before and after every run: it times the program's
parse kernel alone, so a slow host window can be told apart from slow
code."""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow as pa


def _median_rate(fn, work: float, passes: int = 5,
                 min_pass_s: float = 0.05) -> float:
    """Median of ``work / seconds`` over ``passes`` passes; a pass repeats
    ``fn`` until it has run for at least ``min_pass_s``."""
    rates = []
    for _ in range(passes):
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_pass_s:
                break
        rates.append(work * n / dt)
    return statistics.median(rates)


def host_rate(htmls: list[bytes]) -> float:
    """MB/s of ``extract_text_and_links`` over ``htmls``."""
    from aspseek_ray.functions.html import extract_text_and_links

    mb = sum(len(h) for h in htmls) / 1e6

    def one():
        for h in htmls:
            extract_text_and_links(h)

    return _median_rate(one, mb, passes=5, min_pass_s=0.1)


def layer_rates(urls: list[str], htmls: list[bytes], texts: list[str],
                queries: list[str], bucket_dir: str,
                num_buckets: int, max_hops: int) -> dict[str, float]:
    """Rates of the kernels the crawl and search paths are built from."""
    from aspseek_ray.functions.hashing import fnv1a64_arrow
    from aspseek_ray.functions.html import (extract_links,
                                            extract_text_links_robots)
    from aspseek_ray.functions.text import tokenize
    from aspseek_ray.functions.url import canonicalize
    from aspseek_ray.pipelines.qparser import parse_query
    from aspseek_ray.sources.pages import BucketLookup
    from aspseek_ray.stages.discover import parse_discover
    from aspseek_ray.state.cuckoo import CuckooFilter

    out: dict[str, float] = {}
    html_mb = sum(len(h) for h in htmls) / 1e6
    out["html.extract_mb_per_s"] = _median_rate(
        lambda: [extract_text_links_robots(h) for h in htmls], html_mb)

    pairs = []
    for u, h in zip(urls, htmls):
        base, hrefs = extract_links(h)
        pairs += [(x, base or u) for x in hrefs]
    out["url.canonicalize_per_s"] = _median_rate(
        lambda: [canonicalize(x, b) for x, b in pairs], len(pairs))

    url_arr = pa.array(urls, pa.string())
    out["hashing.fnv_rows_per_s"] = _median_rate(
        lambda: fnv1a64_arrow(url_arr), len(urls))

    n = len(urls)
    fetched = pa.table({
        "url": url_arr,
        "depth": pa.array(np.zeros(n, np.int32)),
        "fetch_seq": pa.array(np.arange(n, dtype=np.int64)),
        "status": pa.array(np.full(n, 200, np.int32)),
        "html": pa.array(htmls, pa.binary()),
    })
    out["discover.rows_per_s"] = _median_rate(
        lambda: parse_discover(fetched, max_hops), n)

    text_mb = sum(len(t.encode()) for t in texts) / 1e6
    out["text.tokenize_mb_per_s"] = _median_rate(
        lambda: [tokenize(t) for t in texts], text_mb)

    # seconds per parse, as microseconds
    out["qparser.parse_us"] = 1e6 / _median_rate(
        lambda: [parse_query(q) for q in queries], len(queries))

    hashes = fnv1a64_arrow(url_arr).astype(np.int64)

    def insert():
        CuckooFilter(4 * n).insert_many(hashes)

    out["cuckoo.insert_per_s"] = _median_rate(insert, n)
    full = CuckooFilter(4 * n)
    full.insert_many(hashes)
    probe = np.concatenate([hashes, hashes[::-1] ^ 0x5bd1e995])
    out["cuckoo.contains_per_s"] = _median_rate(
        lambda: full.contains_many(probe), len(probe))

    bucket = np.abs(hashes) % num_buckets
    b0 = int(np.bincount(bucket).argmax())
    rows = np.flatnonzero(bucket == b0)
    sched = pa.table({
        "url": pa.array([urls[i] for i in rows], pa.string()),
        "bucket": pa.array(np.full(len(rows), b0, np.int32)),
    })
    lookup = BucketLookup(bucket_dir)
    out["pages.lookup_rows_per_s"] = _median_rate(
        lambda: lookup(sched), len(rows))
    return out
