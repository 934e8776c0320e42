"""Meta-robots policy (O6): extraction rules, and proof the nofollow
policy actually changes the crawl — the corpus emits directive pages and
the normative simulator's trace differs from a nofollow-blind run (the
engine == simulator equality is covered by test_crawl_conformance)."""

from __future__ import annotations

import pyarrow.parquet as pq


def test_extract_meta_robots_rules():
    from aspseek_ray.functions.html import extract_meta_robots as emr

    assert emr(b'<meta name="robots" content="nofollow">') == {"nofollow"}
    assert emr(b'<meta name=robots content="noindex, nofollow">') == {
        "noindex", "nofollow"}
    assert emr(b'<meta name="robots" content="NONE">') == {
        "noindex", "nofollow"}
    assert emr(b'<meta name="robots" content="all">') == frozenset()
    assert emr(b'<meta name="keywords" content="nofollow">') == frozenset()
    # the name must be exactly robots: robotsx carries no directives,
    # while an unquoted robots is still honoured
    assert emr(b'<meta name=robotsx content="noindex">') == frozenset()
    assert emr(b'<meta name="robotsx" content="noindex">') == frozenset()
    assert emr(b'<meta name=robots content=noindex>') == {"noindex"}
    assert emr(b'<script>"<meta name=robots content=nofollow>"</script>'
               ) == frozenset()
    # multiple tags union
    assert emr(b'<meta name="robots" content="noindex">'
               b'<meta name="robots" content="nofollow">') == {
        "noindex", "nofollow"}


def test_nofollow_changes_the_normative_trace(tmp_path, monkeypatch):
    from fixtures.gen import generate_corpus

    import tests.ref_sim as ref_sim
    from aspseek_ray.functions.html import extract_meta_robots

    d = tmp_path / "c"
    generate_corpus(str(d), n_pages=500, n_hosts=16, seed=42)
    pages = pq.read_table(d / "pages.parquet", columns=["url", "html"])
    htmls = dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))
    nofollow = {u for u, h in htmls.items()
                if "nofollow" in extract_meta_robots(h)}
    assert nofollow, "corpus must emit nofollow pages"

    from aspseek_ray.config import CrawlConfig

    pages_d, seeds, robots, redirects = ref_sim.load_corpus(str(d))
    cfg = CrawlConfig(per_host_per_round=10, max_rounds=50)
    honored = ref_sim.simulate(pages_d, seeds, robots, cfg, redirects)
    monkeypatch.setattr(ref_sim, "extract_meta_robots",
                        lambda html: frozenset())
    blind = ref_sim.simulate(pages_d, seeds, robots, cfg, redirects)
    # the honored crawl's seen set is a strict subset of the blind one
    assert honored.seen < blind.seen, "nofollow must suppress discovery"
