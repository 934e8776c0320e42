"""CrawlShard unit tests — driven as a plain class, without a Ray
session: arrival-order independence, politeness budgets, robots,
snapshot/restore, the round calls ``pop_emit`` (its pieces are plain
return values) and ``offer_round`` (its counters), and ``reset``."""

import pyarrow as pa

from aspseek_ray.config import CrawlConfig
from aspseek_ray.state.shard import CrawlShard


def _cand(rows):
    from aspseek_ray.functions.hashing import fnv1a64

    return pa.table({
        "url": pa.array([r[0] for r in rows]),
        "url_hash": pa.array([fnv1a64(r[0]) for r in rows], pa.int64()),
        "host": pa.array([r[1] for r in rows]),
        "depth": pa.array([r[2] for r in rows], pa.int32()),
        "discovery_seq": pa.array([r[3] for r in rows], pa.int64()),
    })


def test_staging_min_seq_order_independent():
    a = CrawlShard(0, CrawlConfig())
    b = CrawlShard(0, CrawlConfig())
    o1 = _cand([("http://h.example/x", "h.example", 1, 100)])
    o2 = _cand([("http://h.example/x", "h.example", 2, 50)])
    a.offer(o1); a.offer(o2)
    b.offer(o2); b.offer(o1)
    ta, tb = a.pop_round(), b.pop_round()
    assert ta.equals(tb)
    assert ta["discovery_seq"].to_pylist() == [50]
    assert ta["depth"].to_pylist() == [2]  # min-seq offer's depth wins


def test_seen_rejects_across_rounds_but_not_within():
    s = CrawlShard(0, CrawlConfig())
    s.offer(_cand([("http://h.example/x", "h.example", 0, 10)]))
    s.pop_round()
    # re-offer after fetch -> rejected by seen
    n = s.offer(_cand([("http://h.example/x", "h.example", 1, 999)]))
    assert n == 0
    assert s.pop_round().num_rows == 0


def test_budget_and_heap_order():
    s = CrawlShard(0, CrawlConfig(per_host_per_round=2))
    rows = [(f"http://h.example/p{i}", "h.example", d, q)
            for i, (d, q) in enumerate([(2, 5), (1, 9), (1, 3), (3, 1)])]
    s.offer(_cand(rows))
    t = s.pop_round()
    # (depth, seq) order: (1,3) then (1,9); budget 2
    assert t["url"].to_pylist() == ["http://h.example/p2", "http://h.example/p1"]
    assert t["pop_idx"].to_pylist() == [0, 1]
    t2 = s.pop_round()
    assert t2["url"].to_pylist() == ["http://h.example/p0", "http://h.example/p3"]


def test_crawl_delay_budget():
    robots = pa.table({
        "host": ["slow.example"],
        "rules": pa.array([[]], pa.list_(pa.string())),
        "crawl_delay_ms": pa.array([1000], pa.int64()),
    })
    s = CrawlShard(0, CrawlConfig(per_host_per_round=4, round_time_budget_ms=2000),
                   robots_rows=robots)
    rows = [(f"http://slow.example/p{i}", "slow.example", 0, i) for i in range(6)]
    s.offer(_cand(rows))
    assert s.pop_round().num_rows == 2  # 2000ms / 1000ms delay


def test_robots_and_depth_rejection():
    robots = pa.table({
        "host": ["h.example"],
        "rules": pa.array([["/private/"]], pa.list_(pa.string())),
        "crawl_delay_ms": pa.array([0], pa.int64()),
    })
    s = CrawlShard(0, CrawlConfig(max_hops=2), robots_rows=robots)
    n = s.offer(_cand([
        ("http://h.example/private/x", "h.example", 0, 1),   # robots
        ("http://h.example/deep", "h.example", 3, 2),        # depth
        ("http://h.example/ok", "h.example", 1, 3),
    ]))
    assert n == 1
    assert s.pop_round()["url"].to_pylist() == ["http://h.example/ok"]


def test_snapshot_restore_roundtrip(tmp_path):
    s = CrawlShard(3, CrawlConfig())
    s.offer(_cand([("http://a.example/1", "a.example", 0, 1),
                   ("http://b.example/2", "b.example", 0, 2)]))
    s.pop_round()  # fetch both; seen = {1,2}
    s.offer(_cand([("http://a.example/3", "a.example", 1, 30)]))  # staged
    s.snapshot(str(tmp_path))

    r = CrawlShard(3, CrawlConfig())
    r.restore(str(tmp_path))
    assert r.seen == s.seen
    # staged offer was flushed into the snapshot -> pops identically
    assert r.pop_round()["url"].to_pylist() == ["http://a.example/3"]
    # and seen-set blocks re-offers after restore
    assert r.offer(_cand([("http://a.example/1", "a.example", 0, 99)])) == 0


def test_offer_round_counters():
    """``offer_round`` stages several tables in one call and returns its
    counters: every offered url is rejected as seen, rejected by a
    filter, newly staged, or a duplicate of a url staged this round."""
    s = CrawlShard(0, CrawlConfig(max_hops=2))
    s.offer(_cand([("http://h.example/old", "h.example", 0, 1)]))
    s.pop_round()
    c = s.offer_round(
        _cand([("http://h.example/a", "h.example", 1, 20),
               ("http://h.example/old", "h.example", 1, 21),      # seen
               ("http://h.example/deep", "h.example", 3, 22)]),   # depth
        None,
        _cand([("http://h.example/a", "h.example", 1, 10),        # dup
               ("http://h.example/b", "h.example", 1, 11)]))
    assert c == {"offered": 5, "rejected_seen": 1, "rejected_filtered": 1,
                 "dup_in_round": 1, "staged": 2}
    assert s.stats()["dup_in_round"] == 1
    assert s.pop_round()["discovery_seq"].to_pylist() == [10, 11]


def _emitted_urls(out, num_buckets: int, num_groups: int,
                  shard_id: int) -> list[str]:
    """The urls of a ``pop_emit`` result in shard-local index order,
    after checking its shape (``(count, groups)`` then one ``pa.Table``
    piece per group, None for an empty group) and each row's tags: its
    bucket, its piece's group and its shard id, and that the local index
    is dense from 0 to n-1."""
    from aspseek_ray.functions.hashing import fnv1a64

    (n, groups), *pieces = out
    assert len(pieces) == num_groups
    assert groups == [g for g, p in enumerate(pieces) if p is not None]
    rows = []
    for g in groups:
        piece = pieces[g]
        assert isinstance(piece, pa.Table)
        urls = piece["url"].to_pylist()
        for u, b in zip(urls, piece["bucket"].to_pylist()):
            assert b == abs(fnv1a64(u)) % num_buckets and b % num_groups == g
        assert set(piece["shard"].to_pylist()) == {shard_id}
        rows += zip(piece["local_seq"].to_pylist(), urls)
    rows.sort()
    assert [i for i, _ in rows] == list(range(len(rows))) == list(range(n))
    return [u for _, u in rows]


def test_pop_emit_tags_groups_and_pushes_back():
    """``pop_emit`` pops the round once, tags every row with a dense
    shard-local index, its pages bucket and the shard id, and returns
    the count and the non-empty groups, then one piece per task group
    (bucket % G) as a ``pa.Table``, or None for an empty group. Pushing
    back the whole held slice makes the next pop return the same urls in
    the same order."""
    B, G = 8, 3
    s = CrawlShard(2, CrawlConfig(per_host_per_round=3))
    s.offer(_cand([(f"http://h{h}.example/p{i}", f"h{h}.example", 0, 10 * h + i)
                   for h in range(6) for i in range(5)]))
    out = s.pop_emit(B, G)
    urls = _emitted_urls(out, B, G, 2)
    assert out[0][0] == len(urls) == 18
    # the local index is the pop order: hosts in lex order, 3 pops each
    assert urls[:3] == [f"http://h0.example/p{i}" for i in range(3)]

    s.push_back(0)                # a max_docs cap that cuts the whole round
    out2 = s.pop_emit(B, G)
    assert out2[0][0] == 18 and _emitted_urls(out2, B, G, 2) == urls

    # one url: one bucket, so every other group's piece is None
    one = CrawlShard(0, CrawlConfig())
    one.offer(_cand([("http://h.example/x", "h.example", 0, 1)]))
    out3 = one.pop_emit(B, G)
    assert _emitted_urls(out3, B, G, 0) == ["http://h.example/x"]
    assert sum(p is None for p in out3[1:]) == G - 1


def test_reset_leaves_no_state_of_the_previous_crawl(tmp_path):
    """A shard driven through offers, pops, a heap spill and a max_docs
    push-back, then reset with another shard id, config and robots rows,
    is indistinguishable from a freshly constructed shard."""
    used = CrawlShard(0, CrawlConfig(per_host_per_round=2, host_heap_cap=4),
                      spill_dir=str(tmp_path / "old"))
    used.offer(_cand([(f"http://a.example/p{i}", "a.example", 1, i)
                      for i in range(20)]))
    used.pop_round()
    assert used.spill_runs                    # the tiny cap spilled
    used.offer(_cand([("http://b.example/x", "b.example", 0, 99)]))
    assert used.pop_emit(4, 2)[0][0] > 0
    used.push_back(0)                         # max_docs cap: all pushed back
    assert used.seen and used.pending() and used.n_offered

    robots = pa.table({
        "host": ["a.example", "slow.example"],
        "rules": pa.array([["/p1"], []], pa.list_(pa.string())),
        "crawl_delay_ms": pa.array([0, 1000], pa.int64()),
    })
    cfg = CrawlConfig(per_host_per_round=3, max_hops=2, host_heap_cap=8)
    used.reset(5, cfg, robots, spill_dir=str(tmp_path / "reset"))
    fresh = CrawlShard(5, cfg, robots, spill_dir=str(tmp_path / "fresh"))

    assert set(vars(used)) == set(vars(fresh))
    assert used.stats() == fresh.stats()
    assert used.pending() == fresh.pending() == 0
    assert used.seen_table().equals(fresh.seen_table())
    offers = _cand([(f"http://a.example/p{i}", "a.example", i % 4, i)
                    for i in range(20)]
                   + [(f"http://slow.example/s{i}", "slow.example", 0, 50 + i)
                      for i in range(4)]
                   + [("http://b.example/x", "b.example", 1, 99)])
    for s in (used, fresh):
        s.offer(offers)
    assert used.pop_round().equals(fresh.pop_round())
    assert used.stats() == fresh.stats()
    assert used.pending() == fresh.pending()
    assert used.seen_table().equals(fresh.seen_table())
