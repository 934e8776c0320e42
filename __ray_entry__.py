"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship crawl (frontier + politeness scheduler) on a
deterministic synthetic Common-Crawl-style corpus sized for sf0.001 and
returns the crawl trace. ``queries()`` exposes one callable per implemented
operator family (SURVEY.md §2); ``oracle_sql()`` gives the DuckDB-checkable
subset with column names matching exactly.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in aspseek_ray) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import re
from collections.abc import Callable
from pathlib import Path
from typing import Any

# --------------------------------------------------------------------------
# synthetic crawl corpus per scale factor (north_rule: synthesize the
# input-shaped table deterministically; cached under /tmp per sf)
# --------------------------------------------------------------------------
_CORPUS_SIZES = {"0.001": (500, 16), "0.01": (2000, 40), "0.1": (20000, 400)}
_CORPUS_VERSION = "v6"  # bump when fixtures/gen.py output changes
# (v5: links.parquet gains the intended anchor-text column, page bytes
# identical to v4; v6: ~5% of pages carry meta-robots directives --
# every page's bytes shift, engine and normative simulator honor
# nofollow identically)


def corpus_for(sf_dir: str) -> str:
    m = re.search(r"sf([0-9.]+)", str(sf_dir))
    sf = m.group(1).rstrip(".") if m else "0.01"
    n_pages, n_hosts = _CORPUS_SIZES.get(sf, (2000, 40))
    out = Path(f"/tmp/aspseek_ray_corpus/{_CORPUS_VERSION}_sf{sf}")
    if not (out / "pages.parquet").exists():
        from fixtures.gen import generate_corpus

        generate_corpus(str(out), n_pages=n_pages, n_hosts=n_hosts, seed=42)
    return str(out)


_ORACLE_SF = "0.01"  # the driver's correctness gate runs at this scale
_CRAWL_CFG = dict(max_rounds=16, num_shards=4, num_page_buckets=8)

# Demo ispell dictionary for the oracle-backed morphology query: the
# query word "scanned" never occurs in the documents corpus (only base
# forms do), so a correct dictionary REDUCTION (scanned -> scan) is the
# only way the engine can find the scan docs — and the oracle's
# hand-written form list must equal the engine's affix EXPANSION of the
# root, or the sets diverge.
_ISPELL_AFF = """
suffixes
flag *S:
    [^SXZHY]    >   S
    [SXZH]      >   ES
    [^AEIOUY] Y >   -Y,IES
flag *D:
    E           >   D
    N           >   NED
    [^EN]       >   ED
flag *G:
    E           >   -E,ING
    N           >   NING
    [^EN]       >   ING
"""
_ISPELL_DIC = "scan/SDG\nwindow/S\nquery/S\nslow/SD\n"


def _sim_trace_parquet() -> str:
    """Oracle input for the flagship crawl queries: the trace of the
    NORMATIVE single-threaded simulator (tests/ref_sim.py — the
    executable spec; plain heaps-and-dicts, no scheduling code shared
    with the Ray engine) on the sf0.01 corpus under the same CrawlConfig
    as ``_run_crawl``. Cached per corpus version; the oracle SQL reads
    this parquet with read_parquet()."""
    import importlib.util
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = corpus_for(f"sf{_ORACLE_SF}")
    out = Path(f"/tmp/aspseek_ray_oracle/{_CORPUS_VERSION}_sf{_ORACLE_SF}"
               "/trace.parquet")
    if not out.exists():
        from aspseek_ray.config import CrawlConfig

        sim = sys.modules.get("aspseek_ref_sim")
        if sim is None:
            spec = importlib.util.spec_from_file_location(
                "aspseek_ref_sim",
                str(Path(__file__).parent / "tests" / "ref_sim.py"))
            sim = importlib.util.module_from_spec(spec)
            # register BEFORE exec: @dataclass resolves cls.__module__
            # through sys.modules at class-creation time
            sys.modules["aspseek_ref_sim"] = sim
            spec.loader.exec_module(sim)
        pages, seeds, robots, redirects = sim.load_corpus(corpus)
        res = sim.simulate(pages, seeds, robots, CrawlConfig(**_CRAWL_CFG),
                           redirects)
        schema = pa.schema([
            ("fetch_seq", pa.int64()), ("round", pa.int32()),
            ("url", pa.string()), ("host", pa.string()),
            ("depth", pa.int32()), ("discovery_seq", pa.int64()),
            ("status", pa.int32())])
        t = pa.Table.from_pylist(res.trace, schema=schema)
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = out.with_suffix(".parquet.tmp")
        pq.write_table(t, tmp)
        tmp.rename(out)
    return str(out)


def _media_parquet() -> str:
    """Oracle input for the multimodal pixel-stats query: the synthetic
    media table (real BMP/WAV/Y4M payload bytes, deterministic seed)
    materialized once under /tmp; the oracle SQL decodes the BMP bytes
    itself via hex extraction."""
    import pyarrow.parquet as pq

    out = Path(f"/tmp/aspseek_ray_oracle/{_CORPUS_VERSION}/media.parquet")
    if not out.exists():
        from aspseek_ray.pipelines.multimodal import synth_media_table

        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = out.with_suffix(".parquet.tmp")
        pq.write_table(synth_media_table(256), tmp)
        tmp.rename(out)
    return str(out)


def _twin_media_parquet(kind: str) -> str:
    """Oracle input for the compressed-codec stats queries (kind = 'png'
    | 'qoi' | 'adpcm' | 'g711'): compressed payloads (engine side) plus
    an uncompressed twin of the same pixels or samples (oracle side: BMP
    for images, PCM16 WAV for audio) — the SQL decodes the twin bytes,
    the engine decodes the compressed format, and agreement checks the
    codec against an independent decoder."""
    import pyarrow.parquet as pq

    out = Path(f"/tmp/aspseek_ray_oracle/{_CORPUS_VERSION}/media_{kind}.parquet")
    if not out.exists():
        from aspseek_ray.pipelines import multimodal

        builder = {"png": multimodal.synth_png_media_table,
                   "qoi": multimodal.synth_qoi_media_table,
                   "g711": multimodal.synth_g711_media_table,
                   "adpcm": multimodal.synth_adpcm_media_table}[kind]
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = out.with_suffix(".parquet.tmp")
        pq.write_table(builder(96), tmp)
        tmp.rename(out)
    return str(out)


def _run_crawl(sf_dir: str, out_name: str):
    import shutil

    from aspseek_ray.config import CrawlConfig
    from aspseek_ray.pipelines.crawl import run_crawl

    corpus = corpus_for(sf_dir)
    out = f"/tmp/aspseek_ray_runs/{out_name}"
    shutil.rmtree(out, ignore_errors=True)
    return run_crawl(corpus, out, CrawlConfig(**_CRAWL_CFG))


def entry() -> Any:
    """Flagship: crawl the sf0.001-scale synthetic web corpus; returns the
    crawl trace (fetch_seq, round, url, host, depth, discovery_seq,
    status) as a pandas DataFrame."""
    res = _run_crawl("/root/testdata/sf0.001", "entry")
    return res.trace_table().to_pandas()


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    from aspseek_ray.pipelines import (
        dedup,
        index_products,
        qparser,
        relational,
        search,
        similarity,
        textstats,
    )

    def crawl_trace(sf_dir: str):
        return _run_crawl(sf_dir, "q_crawl").trace_table()

    def crawl_pagerank(sf_dir: str):
        return index_products.pagerank(f"{corpus_for(sf_dir)}/pages.parquet")

    def crawl_anchor_postings(sf_dir: str):
        # engine parses anchors out of the raw html; the oracle reads the
        # generator's INDEPENDENT intended (src, dst, anchor) ground truth
        return index_products.anchor_postings(
            f"{corpus_for(sf_dir)}/pages.parquet")

    def crawl_clone_groups(sf_dir: str):
        # content_hash is the engine's grouping key (O10 checksum); the
        # oracle groups by the html bytes themselves, so expose the
        # hash-free columns (identical groups absent 64-bit collisions).
        t = index_products.clone_groups(f"{corpus_for(sf_dir)}/pages.parquet")
        return t.select(["canonical_url", "n_clones"])

    def crawl_postings_df(sf_dir: str):
        import pyarrow as pa
        import ray

        p = index_products.build_postings(f"{corpus_for(sf_dir)}/pages.parquet")
        merged = index_products.merge_postings(p)
        return merged.select_columns(["word", "df"]).to_pandas()

    def crawl_postings_noindex(sf_dir: str):
        # meta-robots noindex honored at index build (O6 policy): pages
        # carrying the directive contribute no words
        p = index_products.build_postings(
            f"{corpus_for(sf_dir)}/pages.parquet", honor_noindex=True)
        merged = index_products.merge_postings(p)
        return merged.select_columns(["word", "df"]).to_pandas()

    def crawl_postings_multilang(sf_dir: str):
        # per-language stopword files at index time (O12): each doc's
        # stoplist follows its lang column
        p = index_products.build_postings(
            f"{corpus_for(sf_dir)}/pages.parquet", per_lang_stopwords=True)
        merged = index_products.merge_postings(p)
        return merged.select_columns(["word", "df"]).to_pandas()

    def crawl_postings_staged(sf_dir: str):
        """crawl_postings_df computed through the round-5 delta-staging
        path (S7 delta-file model): the corpus pages split into 3
        deterministic chunks — chunk 0 is the initial build, chunks 1-2
        are STAGED (chunk 2 re-stages some chunk-0 urls: latest-wins
        with identical text), and the query reads main + staged segments
        WITHOUT a fold (read_postings_with_deltas). Same oracle SQL as
        crawl_postings_df: the chunks partition the corpus."""
        import os
        import shutil

        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from aspseek_ray.pipelines.index_products import (
            read_postings_with_deltas, stage_delta)

        work = "/tmp/aspseek_ray_runs/q_staged_idx"
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t = pq.read_table(f"{corpus_for(sf_dir)}/pages.parquet",
                          columns=["url", "text"])
        idx = np.arange(t.num_rows)
        chunks = [t.take(pa.array(idx[idx % 3 == r])) for r in range(3)]
        chunks[2] = pa.concat_tables(
            [chunks[2], chunks[0].slice(0, min(50, chunks[0].num_rows))])
        paths = []
        for i, c in enumerate(chunks):
            p = f"{work}/chunk{i}.parquet"
            pq.write_table(c, p)
            paths.append(p)
        idxd = f"{work}/idx"
        index_products.build_postings(paths[0], out_dir=idxd)
        stage_delta(idxd, paths[1])
        stage_delta(idxd, paths[2])
        merged = index_products.merge_postings(
            read_postings_with_deltas(idxd))
        return merged.select_columns(["word", "df"]).to_pandas()

    def crawl_status_stats(sf_dir: str):
        res = _run_crawl(sf_dir, "q_stats")
        return index_products.crawl_status_stats(res.trace_table())

    def crawl_host_stats(sf_dir: str):
        res = _run_crawl(sf_dir, "q_hstats")
        return index_products.host_stats(res.trace_table())

    def crawl_recrawl_diff(sf_dir: str):
        from aspseek_ray.pipelines import revisit

        res = _run_crawl(sf_dir, "q_recrawl")
        return revisit.recrawl_diff(f"{res.out_dir}/store",
                                    f"{corpus_for(sf_dir)}/pages.parquet")

    def crawl_excerpts(sf_dir: str):
        res = _run_crawl(sf_dir, "q_excerpts")
        from fixtures.gen import _vocab

        return search.excerpts(f"{res.out_dir}/store", tuple(_vocab()[:3]))

    def crawl_ranked_search(sf_dir: str):
        # oracle-backed on (url, score) — the FULL pagerank blend, checked
        # against the unrolled-iteration SQL over links.parquet; the
        # excerpt column is oracle-proven separately by crawl_excerpts
        res = _run_crawl(sf_dir, "q_ranked")
        from fixtures.gen import _vocab

        t = search.ranked_crawl_search(
            f"{res.out_dir}/store", f"{corpus_for(sf_dir)}/pages.parquet",
            tuple(_vocab()[:3]))
        return t.select(["url", "score"])

    def crawl_site_search(sf_dir: str):
        res = _run_crawl(sf_dir, "q_sitesearch")
        from fixtures.gen import _vocab

        t = search.ranked_crawl_search(
            f"{res.out_dir}/store", f"{corpus_for(sf_dir)}/pages.parquet",
            tuple(_vocab()[:3]), per_site=2)
        return t.select(["host", "url", "score"])

    def crawl_ranked_tfidf(sf_dir: str):
        # the searchd scoring lifecycle with the popularity blend off
        # (damping_rank=0 -> pure tf-idf over the crawl store), which
        # makes it SQL-expressible and oracle-backed; crawl_ranked_search
        # keeps the full pagerank blend (rows-only: iterative float)
        res = _run_crawl(sf_dir, "q_rankedtfidf")
        from fixtures.gen import _vocab

        t = search.ranked_crawl_search(
            f"{res.out_dir}/store", f"{corpus_for(sf_dir)}/pages.parquet",
            tuple(_vocab()[:3]), damping_rank=0.0)
        return t.select(["url", "score"])

    def crawl_anchor_search(sf_dir: str):
        # link-word boosted ranking: body tf-idf over the crawl store +
        # alpha x anchor hits from the word-bucketed anchor index; the
        # oracle composes the crawl_ranked_tfidf SQL with the generator's
        # intended (src,dst,anchor) ground truth
        res = _run_crawl(sf_dir, "q_anchorsearch")
        from fixtures.gen import _vocab

        return search.anchor_boosted_search(
            f"{res.out_dir}/store", f"{corpus_for(sf_dir)}/pages.parquet",
            tuple(_vocab()[:3]))

    def crawl_anchor_search_scaleplan(sf_dir: str):
        # forced-distributed twin (driver_max_docs=0), same oracle
        res = _run_crawl(sf_dir, "q_anchorsearch")
        from fixtures.gen import _vocab

        return search.anchor_boosted_search(
            f"{res.out_dir}/store", f"{corpus_for(sf_dir)}/pages.parquet",
            tuple(_vocab()[:3]), driver_max_docs=0)

    def crawl_search_scaleplan(sf_dir: str):
        # the DISTRIBUTED ranked-search plan forced on (driver_max_docs=0)
        # — same semantics as crawl_site_search; ORACLE-backed against the
        # same SQL, so the scale plan itself is checked bitwise end-to-end
        res = _run_crawl(sf_dir, "q_scaleplan")
        from fixtures.gen import _vocab

        t = search.ranked_crawl_search(
            f"{res.out_dir}/store", f"{corpus_for(sf_dir)}/pages.parquet",
            tuple(_vocab()[:3]), per_site=2, driver_max_docs=0)
        return t.select(["host", "url", "score"])

    def crawl_parsed_search(sf_dir: str):
        # the full s.cgi lifecycle: qparser front door -> boolean
        # admissibility -> tf-idf x pagerank -> per-site grouping;
        # oracle-backed (admissibility mirrored as SQL over token sets)
        res = _run_crawl(sf_dir, "q_parsedsearch")
        from fixtures.gen import _vocab

        v = _vocab()
        t = search.ranked_crawl_search(
            f"{res.out_dir}/store", f"{corpus_for(sf_dir)}/pages.parquet",
            query=f"{v[0]} AND ({v[1]} OR {v[2]}) NOT {v[3]}", per_site=2)
        return t.select(["host", "url", "score"])

    def orders_price_quantiles(sf_dir: str):
        # oracle-backed: EXACT distributed order statistics (histogram
        # refinement, no global sort) vs SQL rank-by-OFFSET
        from aspseek_ray.pipelines.quantiles import exact_quantiles

        return exact_quantiles(sf_dir)

    def sample_documents(sf_dir: str):
        # oracle-backed: deterministic hash-split sampling — membership
        # is a pure function of doc_id, mirrored bitwise in SQL
        from aspseek_ray.pipelines.sampling import deterministic_sample

        return deterministic_sample(sf_dir)

    def stratified_sample_docs(sf_dir: str):
        # oracle-backed: per-stratum deterministic sampling (downsample
        # 'en' to 20%, keep other languages whole); membership is a pure
        # function of (doc_id, lang), mirrored bitwise in SQL
        from aspseek_ray.pipelines.sampling import stratified_sample

        return stratified_sample(sf_dir)

    def _hll_distinct_users(sf_dir: str):
        # approximate by design (rows-only): HyperLogLog distinct-count;
        # accuracy vs COUNT(DISTINCT) is asserted in tests/test_sketches
        from aspseek_ray.pipelines.sketches import hll_distinct

        return hll_distinct(sf_dir, "events", "user_id")

    def repetition_scores(sf_dir: str):
        # oracle-backed: Gopher-style repetition quality metrics over
        # the pinned SQL-reproducible tokenizer
        from aspseek_ray.pipelines.textstats import repetition_scores as rep

        return rep(sf_dir)

    def contamination_flags(sf_dir: str):
        # oracle-backed: benchmark-contamination broadcast semi-join;
        # shingle hashes are FNV-1a64 mirrored bitwise in SQL
        from aspseek_ray.pipelines.textstats import (
            contamination_flags as cont,
        )

        return cont(sf_dir)

    def normalize_text(sf_dir: str):
        # oracle-backed: URL/email redaction (Arrow RE2 kernels) +
        # consecutive-duplicate-token collapse, mirrored exactly in SQL
        from aspseek_ray.pipelines.textstats import normalize_text as nz

        return nz(sf_dir)

    def _cms_heavy_users(sf_dir: str):
        # oracle-backed bitwise: count-min sketch heavy hitters — the
        # sketch is deterministic given the splitmix64 hash family, so
        # the SQL oracle rebuilds the same grid and probes it
        from aspseek_ray.pipelines.sketches import cms_heavy_hitters

        return cms_heavy_hitters(sf_dir, "events", "user_id")

    def multimodal_features(sf_dir: str):
        from aspseek_ray.pipelines.multimodal import (
            extract_media_features,
            synth_media_dataset,
        )

        return extract_media_features(synth_media_dataset(256)).to_pandas()

    def multimodal_pixel_stats(sf_dir: str):
        # oracle-backed: exact per-channel means from int64 byte sums;
        # the SQL oracle re-decodes the BMP payload bytes itself, so a
        # codec bug on either side breaks the match
        import ray.data as rd

        from aspseek_ray.pipelines.multimodal import media_pixel_stats

        ds = rd.read_parquet(_media_parquet(),
                             columns=["media_id", "media_type", "payload"])
        return media_pixel_stats(ds).to_pandas()

    def multimodal_audio_stats(sf_dir: str):
        # oracle-backed: exact channel-0 PCM16 stats; the SQL oracle
        # re-parses the WAV bytes (header fields + LE sample words)
        import ray.data as rd

        from aspseek_ray.pipelines.multimodal import media_audio_stats

        ds = rd.read_parquet(_media_parquet(),
                             columns=["media_id", "media_type", "payload"])
        return media_audio_stats(ds).to_pandas()

    def multimodal_frame_luma(sf_dir: str):
        # oracle-backed: exact per-frame luma means; the SQL oracle
        # re-parses the Y4M stream (ASCII header + FRAME markers + Y plane)
        import ray.data as rd

        from aspseek_ray.pipelines.multimodal import media_frame_luma

        ds = rd.read_parquet(_media_parquet(),
                             columns=["media_id", "media_type", "payload"])
        return media_frame_luma(ds).to_pandas()

    def multimodal_png_pixel_stats(sf_dir: str):
        # oracle-backed INDEPENDENT-CODEC check: the engine decodes real
        # PNG payloads (stdlib-zlib DEFLATE + all five scanline filters,
        # gray/RGB/RGBA); the SQL oracle re-decodes a BMP twin of the
        # same pixels byte-by-byte. Exact int64 byte sums must agree.
        import ray.data as rd

        from aspseek_ray.pipelines.multimodal import media_pixel_stats

        ds = rd.read_parquet(_twin_media_parquet("png"),
                             columns=["media_id", "media_type", "payload"])
        return media_pixel_stats(ds).to_pandas()

    def multimodal_qoi_pixel_stats(sf_dir: str):
        # oracle-backed INDEPENDENT-CODEC check, QOI edition: the engine
        # runs the real QOI decoder (all six ops — RUN/INDEX/DIFF/LUMA/
        # RGB/RGBA over the 64-slot rolling index; lossless by spec);
        # the SQL oracle re-decodes a BMP twin of the same pixels
        # byte-by-byte. Exact int64 byte sums must agree.
        import ray.data as rd

        from aspseek_ray.pipelines.multimodal import media_pixel_stats

        ds = rd.read_parquet(_twin_media_parquet("qoi"),
                             columns=["media_id", "media_type", "payload"])
        return media_pixel_stats(ds).to_pandas()

    def multimodal_adpcm_audio_stats(sf_dir: str):
        # oracle-backed INDEPENDENT-CODEC check, compressed-audio
        # edition: the engine decodes real IMA-ADPCM WAVs (4-bit coder,
        # per-block state headers, block-vectorized reconstruction); the
        # SQL oracle re-parses a PCM16 twin of the encoder's in-loop
        # reconstruction — by the codec's defining invariant, the decode
        # must match it BITWISE, so exact integer stats must agree.
        import ray.data as rd

        from aspseek_ray.pipelines.multimodal import media_audio_stats

        ds = rd.read_parquet(_twin_media_parquet("adpcm"),
                             columns=["media_id", "media_type", "payload"])
        return media_audio_stats(ds).to_pandas()

    def multimodal_g711_audio_stats(sf_dir: str):
        # oracle-backed INDEPENDENT-CODEC check, telephony edition: the
        # engine decodes real G.711 WAVs (mu-law 0x0007 / A-law 0x0006,
        # normative table expansion); the SQL oracle re-parses a PCM16
        # twin of the codes' expansion — the signal every conforming
        # decoder must reproduce bitwise. Exact integer stats must agree.
        import ray.data as rd

        from aspseek_ray.pipelines.multimodal import media_audio_stats

        ds = rd.read_parquet(_twin_media_parquet("g711"),
                             columns=["media_id", "media_type", "payload"])
        return media_audio_stats(ds).to_pandas()

    def multimodal_frames(sf_dir: str):
        from aspseek_ray.pipelines.multimodal import (
            sample_frames,
            synth_media_dataset,
        )

        return sample_frames(synth_media_dataset(256)).to_pandas()

    return {
        # relational / crawl-operator families (oracle-backed)
        "lineitem_agg": relational.lineitem_agg,
        "segment_revenue": relational.segment_revenue,
        "customer_nation_join": relational.customer_nation_join,
        "topk_orders": relational.topk_orders,
        "shipping_priority": relational.shipping_priority,
        "customers_without_big_orders": relational.customers_without_orders,
        "top2_customers_per_nation": relational.top2_customers_per_nation,
        "events_hourly": relational.events_hourly,
        "events_hopping": relational.events_hopping,
        "events_sessions": relational.events_sessions,
        "events_asof_join": relational.events_asof_join,
        "orders_price_band_join": relational.orders_price_band_join,
        "supplier_region_stats": relational.supplier_region_stats,
        "docs_with_all_terms": relational.docs_with_all_terms,
        # webtext / training-data ops (oracle-backed)
        "token_stats": textstats.token_stats,
        "bpe_token_counts": textstats.bpe_token_counts,
        "word_df": textstats.word_document_frequency,
        "exact_dedup": dedup.exact_dedup,
        "jaccard_pairs": dedup.jaccard_pairs,
        # n-gram (shingle) Jaccard variant over the same exact PPJoin plan
        "jaccard_ngram_pairs": lambda sf_dir: dedup.jaccard_pairs(
            sf_dir, threshold=0.5, ngram=3),
        "embedding_near_dup": lambda sf_dir: dedup.embedding_near_dup_pairs(sf_dir, threshold=0.4),
        # the scale plan of the same op, forced on (rows-only: approximate
        # recall by design; never builds a whole-table matrix or O(n^2))
        "embedding_near_dup_large": lambda sf_dir: dedup.embedding_near_dup_pairs(
            sf_dir, threshold=0.4, broadcast_max_rows=0, n_clusters=16,
            n_assign=3),
        # SemDeDup (Abbas et al. 2023): k-means clusters + within-cluster
        # keep-the-atypical pruning (rows-only: k-means is iterative;
        # tests/test_semdedup.py pins the pairwise<=eps invariant and a
        # single-cluster numpy-reference agreement)
        "semdedup_keep": lambda sf_dir: dedup.semdedup_keep(
            sf_dir, eps=0.4, n_clusters=8),
        "ann_topk": similarity.brute_topk,
        "phrase_search": search.phrase_search,
        "boolean_and_search": search.boolean_and_search,
        "boolean_or_search": search.boolean_or_search,
        "boolean_not_search": search.boolean_not_search,
        "tfidf_search": search.tfidf_search,
        "bm25_search": search.bm25_search,
        # NEAR/3 proximity over the positional index (unordered); the
        # oracle mirrors it as a bounded-gap regex over lower(text)
        "near_search": lambda sf_dir: search.near_search(
            sf_dir, "scan", "slow", k=3),
        "near_search_distributed": lambda sf_dir: search.near_search(
            sf_dir, "scan", "slow", k=3, driver_max_posting_rows=0),
        # did-you-mean: SymSpell delete-neighborhood lookup over the
        # vocabulary sidecar, verified exactly (levenshtein <= 1)
        "spell_suggest": lambda sf_dir: search.spell_suggest(
            sf_dir, "sow"),
        # "more like this": cosine over full tf-idf vectors, seed doc 7;
        # candidates from the seed terms' pruned posting partitions,
        # norms from the doc_bucket-partitioned sidecar
        "similar_docs": lambda sf_dir: search.similar_docs(sf_dir, 7),
        # wildcard query sca*: vocab expansion (pushed-down starts_with
        # over the sidecar's exact-word rows) -> boolean OR
        "prefix_search": lambda sf_dir: search.prefix_search(sf_dir, "sca"),
        # wildcard through the full qparser grammar: Prefix node expanded
        # against the vocabulary, then the unchanged boolean machinery
        "parsed_wildcard_search": lambda sf_dir: qparser.search_query(
            sf_dir, "sca* slow"),
        # leading-star (suffix) wildcard: any word ending in 'ow' AND scan
        "parsed_suffix_search": lambda sf_dir: qparser.search_query(
            sf_dir, "*ow scan"),
        # same BM25 oracle, forced onto the distributed plan (df groupby +
        # per-batch partial top-k; doclen rides the posting rows)
        "bm25_search_distributed": lambda sf_dir:
            search.bm25_search(sf_dir, driver_max_posting_rows=0),
        "parsed_search": lambda sf_dir: qparser.search_query(
            sf_dir, 'spark AND (window OR scan) NOT "scan slow"'),
        # round-5 forced-distributed physical plans, gated by the SAME
        # oracles as their driver-plan twins (the crawl_search_scaleplan
        # trick applied to the boolean/parsed family):
        # driver_max_posting_rows=0 makes every posting fetch take the
        # distributed bitmask path regardless of size.
        "boolean_search_distributed": lambda sf_dir:
            search.boolean_and_search(sf_dir, driver_max_posting_rows=0),
        "parsed_search_distributed": lambda sf_dir: qparser.search_query(
            sf_dir, 'spark AND (window OR scan) NOT "scan slow"',
            driver_max_posting_rows=0),
        # round-5 long-document Jaccard plan (doc_id-only candidates +
        # blob-table join), forced on — same oracle as jaccard_pairs
        "jaccard_pairs_longdoc_plan": lambda sf_dir: dedup.jaccard_pairs(
            sf_dir, plan="blob-join"),
        "ispell_search": lambda sf_dir: search.ispell_search(
            sf_dir, "scanned", _ISPELL_AFF, _ISPELL_DIC),
        "quality_scores": textstats.quality_scores,
        # KenLM-proxy quality gate: mean token log-prob under the corpus
        # unigram model (two distributed passes, broadcast counts)
        "unigram_logprob_scores": textstats.unigram_logprob_scores,
        "language_id": textstats.language_id,
        # crawl family — oracle-backed against the normative simulator's
        # trace (scheduling) or the corpus parquet (content):
        "crawl_trace": crawl_trace,
        # oracle-backed: unrolled-iteration SQL over the generator's
        # independent intended-link graph (links.parquet)
        "crawl_pagerank": crawl_pagerank,
        "crawl_anchor_postings": crawl_anchor_postings,
        "crawl_clone_groups": crawl_clone_groups,
        "crawl_postings_df": crawl_postings_df,
        "crawl_postings_staged": crawl_postings_staged,
        "crawl_postings_noindex": crawl_postings_noindex,
        "crawl_postings_multilang": crawl_postings_multilang,
        "crawl_status_stats": crawl_status_stats,
        "crawl_host_stats": crawl_host_stats,
        "crawl_recrawl_diff": crawl_recrawl_diff,
        "crawl_excerpts": crawl_excerpts,
        "crawl_ranked_tfidf": crawl_ranked_tfidf,
        "crawl_anchor_search": crawl_anchor_search,
        "crawl_anchor_search_scaleplan": crawl_anchor_search_scaleplan,
        # oracle-backed since r4: full pagerank-blend ranked search (flat,
        # site-grouped, forced-distributed, and qparser-admissible), each
        # against the composed tf-idf x unrolled-pagerank SQL
        "crawl_ranked_search": crawl_ranked_search,
        "crawl_site_search": crawl_site_search,
        "crawl_search_scaleplan": crawl_search_scaleplan,
        "crawl_parsed_search": crawl_parsed_search,
        # oracle-backed (bitwise SQL mirrors of the deterministic hash
        # families / rank arithmetic, despite being sketch-shaped)
        "hll_distinct_users": _hll_distinct_users,
        "cms_heavy_users": _cms_heavy_users,
        "repetition_scores": repetition_scores,
        "contamination_flags": contamination_flags,
        "normalize_text": normalize_text,
        "orders_price_quantiles": orders_price_quantiles,
        "sample_documents": sample_documents,
        "stratified_sample_docs": stratified_sample_docs,
        "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
        # oracle-backed: recursive-CTE min-label closure over the exact
        # jaccard pairs
        "near_dup_groups": dedup.near_dup_groups,
        # oracle-backed: Lee-et-al-style duplicated-span fractions —
        # distinct 5-token grams hashed (FNV mirror), gram shared by >= 2
        # docs counts as a duplicate span
        "duplicate_spans": dedup.duplicate_spans,
        "simhash_near_pairs": dedup.simhash_near_pairs,
        "lsh_topk": similarity.lsh_topk,
        # MMR diversified retrieval (rows-only: iterative greedy;
        # test_mmr pins a dense-reference agreement + the lambda=1
        # degeneracy to plain top-k)
        "mmr_topk": lambda sf_dir: similarity.mmr_topk(sf_dir, 0),
        "ivf_topk": similarity.ivf_topk,
        "stemmed_search": search.stemmed_search,
        # rows-only (iterative argmax loop — not SQL-expressible): BPE
        # vocabulary training; pytest proves the merges equal an
        # independent reference implementation and the forced-distributed
        # plan equals the local plan merge-for-merge (test_bpe.py)
        "bpe_train_merges": lambda sf_dir: __import__(
            "aspseek_ray.pipelines.bpe", fromlist=["bpe_train"]
        ).bpe_train(sf_dir, n_merges=48),
        "fingerprints": textstats.fingerprints,
        "multimodal_features": multimodal_features,
        "multimodal_pixel_stats": multimodal_pixel_stats,
        "multimodal_png_pixel_stats": multimodal_png_pixel_stats,
        "multimodal_qoi_pixel_stats": multimodal_qoi_pixel_stats,
        "multimodal_audio_stats": multimodal_audio_stats,
        "multimodal_adpcm_audio_stats": multimodal_adpcm_audio_stats,
        "multimodal_g711_audio_stats": multimodal_g711_audio_stats,
        "multimodal_frame_luma": multimodal_frame_luma,
        "multimodal_frames": multimodal_frames,
    }


# --------------------------------------------------------------------------
# DuckDB oracles (ANSI SQL on the pre-registered parquet views)
# --------------------------------------------------------------------------

_TOKS = "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')"

_STOP_EN_SQL = ("['" + "','".join(
    "the and of a to in is it you that he was for on are as with his they i "
    "at be this have from or one had by word but not what all were we when "
    "your can said there use an each which she do how their if".split())
    + "']")
_STOP_DE_SQL = ("['" + "','".join(
    "der die das und ist in zu den von mit nicht ein eine als auch es an "
    "werden aus er hat dass sie nach wird bei um am sind noch wie einem "
    "über einen so zum".split()) + "']")
_STOP_FR_SQL = ("['" + "','".join(
    "le la les de des du et est un une dans que qui pour sur avec ne se pas "
    "plus par au il elle nous vous ils sont être cette aux ou où donc".split())
    + "']")

# ---- 64-bit hash mirrors for the dedup/sketch oracles ---------------------
# The engine's fixed hashes (FNV-1a64 over UTF-8 bytes; the splitmix64
# finalizer) re-expressed in ANSI SQL so minhash / simhash / fingerprint /
# HLL results can be checked BITWISE by DuckDB. All arithmetic runs in
# HUGEINT mod 2^64; a 64x64-bit wraparound product can overflow HUGEINT, so
# _mul64c splits the variable operand into 32-bit halves (the FNV prime is
# 41 bits, so plain `* prime % 2^64` stays in range). Corpus text is ASCII
# (asserted by fixtures), so ascii(substr(s,i,1)) IS the UTF-8 byte.
_M64 = "18446744073709551616::HUGEINT"


def _mul64c(x: str, c: int) -> str:
    """SQL for (x * c) mod 2^64 with x in [0, 2^64) and constant c."""
    clo = c % 2**32
    return (f"((({x}) % 4294967296) * {c}::HUGEINT + "
            f"(((({x}) // 4294967296) * {clo}) % 4294967296) * 4294967296)"
            f" % {_M64}")


def _fnv_sql(expr: str) -> str:
    """SQL for fnv1a64(expr) of an ASCII string expression, HUGEINT."""
    return f"""list_reduce(
           list_prepend(14695981039346656037::HUGEINT,
             list_transform(range(1, length({expr})+1),
                            i -> ascii(substr({expr},i,1))::HUGEINT)),
           (h, b) -> (xor(h, b) * 1099511628211) % {_M64})"""


def _mix_ctes(src: str, carry: str = "") -> str:
    """Chained CTEs m1_/m2_/mixed_ applying the splitmix64 FINALIZER
    (state/cuckoo._mix / sketches._splitmix64 after its golden-ratio add)
    to column x of CTE ``src``; ``carry`` columns ride along. The final
    CTE ``mixed_`` exposes the mixed value as column v."""
    s1 = "xor(x, x // 1073741824)"    # x ^ (x >> 30)
    s2 = "xor(x, x // 134217728)"     # x ^ (x >> 27)
    return f"""m1_ AS (SELECT {carry}{_mul64c(s1, 0xBF58476D1CE4E5B9)} AS x
               FROM {src}),
        m2_ AS (SELECT {carry}{_mul64c(s2, 0x94D049BB133111EB)} AS x FROM m1_),
        mixed_ AS (SELECT {carry}xor(x, x // 2147483648) AS v FROM m2_)"""


def _byte_sql(pos: str) -> str:
    """SQL for the 0-based byte ``pos`` of a blob hex-dumped into column
    hx (lower-case): two strpos lookups into the hex alphabet."""
    return (f"((strpos('0123456789abcdef', substr(hx, 2*({pos})+1, 1)) - 1)"
            f" * 16 + "
            f"strpos('0123456789abcdef', substr(hx, 2*({pos})+2, 1)) - 1)")


def _wav_audio_sql(path: str, col: str) -> str:
    """Exact channel-0 PCM16 stats re-parsed from raw WAV bytes in SQL:
    header fields at the encoder's canonical RIFF layout (fmt at 12,
    data at 36), samples as LE 16-bit words with two's-complement sign,
    zero crossings via a lag window — the independent-codec side of the
    audio-stats oracles. ``col`` is 'payload' for the plain PCM table
    and 'payload_pcm' for the ADPCM and G.711 twin tables (the signal
    every conforming decoder of those codecs must reproduce)."""
    return f"""
        WITH wavs AS (
          SELECT media_id, lower(hex({col})) AS hx
          FROM read_parquet('{path}')
          WHERE media_type = 'audio'),
        hdr AS (
          SELECT media_id, hx,
                 {_byte_sql("22")} + 256 * {_byte_sql("23")} AS ch,
                 {_byte_sql("24")} + 256 * {_byte_sql("25")}
                   + 65536 * {_byte_sql("26")}
                   + 16777216 * {_byte_sql("27")} AS rate,
                 ({_byte_sql("40")} + 256 * {_byte_sql("41")}
                   + 65536 * {_byte_sql("42")}
                   + 16777216 * {_byte_sql("43")}) AS data_size
          FROM wavs),
        samp AS (
          SELECT media_id, rate, data_size // (2 * ch) AS n, i,
                 CASE WHEN {_byte_sql("44 + i*2*ch + 1")} >= 128
                      THEN {_byte_sql("44 + i*2*ch")}
                           + 256 * {_byte_sql("44 + i*2*ch + 1")}
                           - 65536
                      ELSE {_byte_sql("44 + i*2*ch")}
                           + 256 * {_byte_sql("44 + i*2*ch + 1")}
                 END AS v
          FROM hdr, unnest(range(0, data_size // (2 * ch))) AS t(i)),
        flips AS (
          SELECT media_id, rate, n, v,
                 CASE WHEN i > 0 AND (v < 0) !=
                      (lag(v) OVER (PARTITION BY media_id
                                    ORDER BY i) < 0)
                      THEN 1 ELSE 0 END AS flip
          FROM samp)
        SELECT media_id, n AS n_samples, rate::BIGINT AS rate,
               max(abs(v))::BIGINT AS peak_abs,
               sum(v)::DOUBLE / n AS mean_sample,
               sum(flip)::BIGINT AS zero_cross
        FROM flips GROUP BY media_id, n, rate
    """


def _bmp_pixel_sql(path: str, col: str) -> str:
    """Exact per-channel pixel means re-decoded from raw BMP bytes in
    SQL (hex extraction, BITMAPINFOHEADER offsets, 4-byte row stride,
    BGR order) — the independent-codec side of every pixel-stats oracle:
    ``col`` is 'payload' for the plain BMP table and 'payload_bmp' for
    the PNG and QOI twin tables."""
    return f"""
            WITH imgs AS (
              SELECT media_id, lower(hex({col})) AS hx
              FROM read_parquet('{path}')
              WHERE media_type = 'image'),
            hdr AS (
              SELECT media_id, hx,
                     {_byte_sql("10")} + 256 * {_byte_sql("11")}
                       + 65536 * {_byte_sql("12")}
                       + 16777216 * {_byte_sql("13")} AS off,
                     {_byte_sql("18")} + 256 * {_byte_sql("19")} AS w,
                     {_byte_sql("22")} + 256 * {_byte_sql("23")} AS h
              FROM imgs),
            strided AS (
              SELECT media_id, hx, off, w, h,
                     ((w * 3 + 3) // 4) * 4 AS stride
              FROM hdr),
            px AS (
              SELECT media_id, w, h, (pos % stride) % 3 AS ch,
                     {_byte_sql("off + pos")} AS v
              FROM strided, unnest(range(0, stride * h)) AS t(pos)
              WHERE (pos % stride) < w * 3)
            SELECT media_id, w::BIGINT AS width, h::BIGINT AS height,
                   (sum(v) FILTER (ch = 2))::DOUBLE / (w * h) AS mean_r,
                   (sum(v) FILTER (ch = 1))::DOUBLE / (w * h) AS mean_g,
                   (sum(v) FILTER (ch = 0))::DOUBLE / (w * h) AS mean_b
            FROM px GROUP BY media_id, w, h
        """


def _minhash_seed_values() -> str:
    """The engine's 64 minhash xor-seeds (dedup._minhash_params — a fixed
    PCG stream, i.e. constants of the hash family) as a SQL VALUES list."""
    from aspseek_ray.pipelines.dedup import _minhash_params

    return ",".join(f"({k}, {int(s)}::HUGEINT)"
                    for k, s in enumerate(_minhash_params(64)))


def _pagerank_ctes(links: str, pages: str, iters: int = 10,
                   damping: float = 0.85) -> tuple[str, str]:
    """The engine's 10 fixed PageRank iterations unrolled as chained CTEs
    over the corpus's INTENDED link graph (fixtures links.parquet — built
    by the generator's independent stdlib resolver, NOT by the engine's
    extract_links/canonicalize). Semantics mirrored exactly: edges
    filtered to pages-urls on both endpoints, out-degree over the
    filtered edges, uniform dangling redistribution. Returns (cte_text,
    final_cte_name) for composition into larger queries (the ranked-
    search oracles blend ROUND(rank, 6) into their scores)."""
    sql = f"""nodes AS (SELECT url FROM read_parquet('{pages}')),
        nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM nodes),
        e AS MATERIALIZED (SELECT l.src_url AS src, l.dst_url AS dst
              FROM read_parquet('{links}') l
              JOIN nodes s ON l.src_url = s.url
              JOIN nodes t ON l.dst_url = t.url),
        deg AS MATERIALIZED (SELECT n.url, CAST(COUNT(e.src) AS DOUBLE) AS deg
                FROM nodes n LEFT JOIN e ON n.url = e.src GROUP BY n.url),
        r0 AS MATERIALIZED (SELECT n.url, 1.0 / nn.n AS rank
               FROM nodes n CROSS JOIN nn)"""
    prev = "r0"
    for k in range(1, iters + 1):
        sql += f""",
        d{k} AS MATERIALIZED (SELECT COALESCE(SUM(r.rank), 0) AS s
                 FROM {prev} r JOIN deg g ON r.url = g.url WHERE g.deg = 0),
        i{k} AS MATERIALIZED (SELECT e.dst AS url, SUM(r.rank / g.deg) AS m
                 FROM e JOIN {prev} r ON e.src = r.url
                        JOIN deg g ON e.src = g.url
                 GROUP BY e.dst),
        r{k} AS MATERIALIZED (SELECT n.url,
                        (1 - {damping}) / nn.n
                        + {damping} * (COALESCE(i.m, 0) + dk.s / nn.n) AS rank
                 FROM nodes n CROSS JOIN nn CROSS JOIN d{k} dk
                 LEFT JOIN i{k} i ON n.url = i.url)"""
        prev = f"r{k}"
    return sql, prev


def _pagerank_oracle_sql(links: str, pages: str) -> str:
    ctes, final = _pagerank_ctes(links, pages)
    return f"""
        WITH {ctes}
        SELECT url, ROUND(rank, 6) AS rank FROM {final}"""


def _ranked_oracle_sql(sim_trace: str, pages: str, links: str,
                       terms: "list[str]", *, k: int = 10,
                       damping_rank: float = 1.0,
                       per_site: int | None = None,
                       admissible: str | None = None) -> str:
    """The full searchd ranked-search lifecycle as one SQL query: stored
    docs (simulator trace ∩ pages) -> tokenized tf/df over the (optionally
    boolean-admissible) docs -> w = sum tf*ln(N/df) -> popularity blend
    w * (1 + damping * n_nodes * ROUND(pagerank, 6)) -> top-k with the
    engine's exact tie order, optionally site-grouped (hosts by best
    score, row_number cap per host). ``admissible``: SQL predicate over
    ``tokset`` mirroring qparser matches(); None = any-term admission."""
    pr_ctes, pr_final = _pagerank_ctes(links, pages)
    terms_sql = "[" + ",".join(f"'{t}'" for t in sorted(set(terms))) + "]"
    if admissible is None:
        admissible = f"len(list_filter(tokset, x -> list_contains({terms_sql}, x))) > 0"
    sql = f"""
        WITH {pr_ctes},
        pr AS MATERIALIZED (SELECT url, ROUND(rank, 6) AS rank
                            FROM {pr_final}),
        stored AS MATERIALIZED (
            SELECT t.url, p.text
            FROM read_parquet('{sim_trace}') t
            JOIN read_parquet('{pages}') p USING (url)
            WHERE t.status = 200),
        docs AS MATERIALIZED (
            SELECT url, {_TOKS} AS toks, list_distinct({_TOKS}) AS tokset
            FROM stored),
        adm AS MATERIALIZED (SELECT url, toks FROM docs WHERE {admissible}),
        tf AS (SELECT a.url, t.term,
                      len(list_filter(a.toks, x -> x = t.term)) AS c
               FROM adm a CROSS JOIN (SELECT unnest({terms_sql}) AS term) t
               WHERE list_contains(a.toks, t.term)),
        df AS (SELECT term, COUNT(DISTINCT url) AS d FROM tf GROUP BY term),
        nd AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM stored),
        w AS (SELECT tf.url, SUM(tf.c * ln(nd.n / df.d)) AS w
              FROM tf JOIN df USING (term) CROSS JOIN nd GROUP BY tf.url),
        sc AS (SELECT w.url,
                      w.w * (1 + {damping_rank} * nn.n
                             * COALESCE(pr.rank, 0)) AS score
               FROM w CROSS JOIN nn LEFT JOIN pr ON w.url = pr.url)"""
    if per_site is None:
        return sql + f"""
        SELECT url, ROUND(score, 4) AS score FROM sc
        ORDER BY sc.score DESC, url LIMIT {k}"""
    return sql + f""",
        best AS (SELECT url, score,
                        regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host
                 FROM sc),
        capped AS (SELECT *, row_number() OVER (
                       PARTITION BY host ORDER BY score DESC, url) AS rn
                   FROM best),
        hb AS (SELECT host, MAX(score) AS hbest FROM best GROUP BY host)
        SELECT c.host, c.url, ROUND(c.score, 4) AS score
        FROM capped c JOIN hb ON c.host = hb.host
        WHERE c.rn <= {per_site}
        ORDER BY hb.hbest DESC, c.host ASC, c.score DESC, c.url ASC
        LIMIT {k}"""


def oracle_sql() -> dict[str, str]:
    # Crawl-family oracles: the scheduling-dependent queries read the
    # trace of the independent single-threaded normative simulator
    # (tests/ref_sim.py, the executable spec); the content-derived ones
    # read the corpus parquet directly. Both inputs are deterministic and
    # pinned to the gate's sf0.01 corpus.
    sim_trace = _sim_trace_parquet()
    corpus = corpus_for(f"sf{_ORACLE_SF}")
    pages = f"{corpus}/pages.parquet"
    from aspseek_ray.pipelines.textstats import EMAIL_RE as _EMAIL_RE
    from aspseek_ray.pipelines.textstats import URL_RE as _URL_RE
    links = f"{corpus}/links.parquet"
    from fixtures.gen import _vocab

    _EXCERPT_TERMS_SQL = ("[" + ",".join(f"'{t}'" for t in _vocab()[:3])
                          + "]")
    sql = {
        "crawl_trace": f"""
            SELECT fetch_seq, "round", url, host, depth, discovery_seq, status
            FROM read_parquet('{sim_trace}')
        """,
        "crawl_status_stats": f"""
            SELECT status, COUNT(*) AS n
            FROM read_parquet('{sim_trace}') GROUP BY status
        """,
        "crawl_host_stats": f"""
            SELECT host, COUNT(*) AS n_fetched,
                   COUNT(*) FILTER (WHERE status = 200) AS n_ok
            FROM read_parquet('{sim_trace}') GROUP BY host
        """,
        "crawl_recrawl_diff": f"""
            SELECT url, 'unchanged' AS "change"
            FROM read_parquet('{sim_trace}') WHERE status = 200
        """,
        # anchor-word index: engine parses raw html; oracle reads the
        # generator's independent intended (src,dst,anchor) graph. Same
        # dedup semantics (first doc-order occurrence per (src,dst)).
        "crawl_anchor_postings": f"""
            WITH a AS (SELECT src_url, dst_url AS url,
                              unnest(list_distinct(list_filter(
                                  regexp_split_to_array(lower(anchor),
                                                        '[^a-z0-9]+'),
                                  x -> x <> ''))) AS word
                       FROM read_parquet('{links}'))
            SELECT word, url, COUNT(*) AS n_refs FROM a
            GROUP BY word, url
        """,
        # noindex honored: same df count, pages whose html carries the
        # directive excluded (the fixture emits the tag with this exact
        # quoting and never inside comments/scripts, so a plain regexp
        # over the raw bytes is an exact oracle-side mirror)
        "crawl_postings_noindex": f"""
            WITH live AS (SELECT url, text FROM read_parquet('{pages}')
                          WHERE NOT regexp_matches(decode(html),
                              '<meta name="robots" content="[^"]*noindex')),
            tok AS (SELECT url, unnest(list_distinct({_TOKS})) AS word
                    FROM live)
            SELECT word, COUNT(*) AS df FROM tok
            WHERE NOT list_contains({_STOP_EN_SQL}, word)
            GROUP BY word
        """,
        "crawl_postings_df": f"""
            WITH tok AS (SELECT url, unnest(list_distinct({_TOKS})) AS word
                         FROM read_parquet('{pages}'))
            SELECT word, COUNT(*) AS df FROM tok
            WHERE NOT list_contains({_STOP_EN_SQL}, word)
            GROUP BY word
        """,
        "crawl_postings_multilang": f"""
            WITH tok AS (SELECT url, unnest(list_distinct({_TOKS})) AS word,
                                CASE WHEN lang = 'de' THEN {_STOP_DE_SQL}
                                     WHEN lang = 'fr' THEN {_STOP_FR_SQL}
                                     ELSE {_STOP_EN_SQL} END AS stops
                         FROM read_parquet('{pages}'))
            SELECT word, COUNT(*) AS df FROM tok
            WHERE NOT list_contains(stops, word)
            GROUP BY word
        """,
        "crawl_clone_groups": f"""
            SELECT MIN(url) AS canonical_url, COUNT(*) AS n_clones
            FROM read_parquet('{pages}')
            GROUP BY html HAVING COUNT(*) >= 2
        """,
        "crawl_pagerank": _pagerank_oracle_sql(links, pages),
        "crawl_ranked_search": _ranked_oracle_sql(
            sim_trace, pages, links, list(_vocab()[:3])),
        "crawl_site_search": _ranked_oracle_sql(
            sim_trace, pages, links, list(_vocab()[:3]), per_site=2),
        "crawl_search_scaleplan": _ranked_oracle_sql(
            sim_trace, pages, links, list(_vocab()[:3]), per_site=2),
        "crawl_parsed_search": _ranked_oracle_sql(
            sim_trace, pages, links, sorted(set(_vocab()[:3])), per_site=2,
            admissible=(
                f"list_contains(tokset, '{_vocab()[0]}') AND "
                f"(list_contains(tokset, '{_vocab()[1]}') OR "
                f"list_contains(tokset, '{_vocab()[2]}')) AND "
                f"NOT list_contains(tokset, '{_vocab()[3]}')")),
        "near_dup_groups": f"""
            WITH RECURSIVE
            tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                    FROM documents),
            sizes AS (SELECT doc_id, COUNT(*) AS n FROM tok GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                             COUNT(*) AS i
                      FROM tok a JOIN tok b
                        ON a.word = b.word AND a.doc_id < b.doc_id
                      GROUP BY a.doc_id, b.doc_id),
            pairs AS (SELECT doc_a, doc_b FROM inter
                      JOIN sizes sa ON doc_a = sa.doc_id
                      JOIN sizes sb ON doc_b = sb.doc_id
                      WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.5),
            e AS (SELECT doc_a AS u, doc_b AS v FROM pairs
                  UNION SELECT doc_b, doc_a FROM pairs),
            reach AS (SELECT DISTINCT u, u AS v FROM e
                      UNION
                      SELECT r.u, e2.v FROM reach r JOIN e e2 ON r.v = e2.u)
            SELECT u AS doc_id, MIN(v) AS group_id FROM reach GROUP BY u
        """,
        # duplicated-span fractions: distinct 5-token grams per doc,
        # hashed exactly as the engine does — per-token FNV-1a64 combined
        # polynomially with FNV-prime powers mod 2^64 (split 64x64
        # multiplies via _mul64c); a gram present in >= 2 distinct docs
        # is a duplicate span; dup_ratio is one exact int/int double
        # division on both sides
        "duplicate_spans": f"""
            WITH base AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            th AS (SELECT doc_id,
                     list_transform(toks, w -> {_fnv_sql("w")}) AS hv
                   FROM base WHERE len(toks) >= 5),
            g AS (SELECT doc_id,
                     list_distinct(list_transform(range(1, len(hv) - 3),
                       i -> ({_mul64c("hv[i]", 11527715348014283921)}
                           + {_mul64c("hv[i+1]", 624165263380053675)}
                           + {_mul64c("hv[i+2]", 956575116354345)}
                           + {_mul64c("hv[i+3]", 1099511628211)}
                           + hv[i+4]) % 18446744073709551616::HUGEINT
                     )) AS grams
                  FROM th),
            e AS (SELECT doc_id, unnest(grams) AS h FROM g),
            nd AS (SELECT h, COUNT(*) AS n_docs FROM e GROUP BY h)
            SELECT e.doc_id,
                   COUNT(*) AS n_grams,
                   COALESCE(COUNT(*) FILTER (nd.n_docs >= 2), 0)
                     AS n_dup_grams,
                   (COUNT(*) FILTER (nd.n_docs >= 2))::DOUBLE / COUNT(*)
                     AS dup_ratio
            FROM e JOIN nd USING (h)
            GROUP BY e.doc_id
        """,
        # excerpt slicer: first word-boundary match located via a
        # non-greedy captured prefix (length(pre) == python m.start();
        # RE2 has no lookbehind, but the boundary char is INSIDE the
        # capture, so the arithmetic is identical), then the same
        # +-40-char slice of the stored text
        "crawl_excerpts": f"""
            WITH stored AS (
              SELECT t.url, p.text
              FROM read_parquet('{sim_trace}') t
              JOIN read_parquet('{pages}') p USING (url)
              WHERE t.status = 200),
            terms AS (SELECT unnest({_EXCERPT_TERMS_SQL}) AS term),
            m AS (
              SELECT url, term, text,
                 regexp_matches(lower(text),
                     '(^|[^a-z0-9])' || term || '($|[^a-z0-9])') AS hit,
                 regexp_extract(lower(text),
                     '(?s)^(.*?(?:^|[^a-z0-9]))' || term
                     || '(?:[^a-z0-9]|$)', 1) AS pre
              FROM stored CROSS JOIN terms)
            SELECT url, term,
                   substr(text, greatest(1, length(pre) - 40 + 1),
                          least(length(text), length(pre) + length(term) + 40)
                          - greatest(0, length(pre) - 40)) AS excerpt
            FROM m WHERE hit
        """,
        # link-word boosted ranking: crawl_ranked_tfidf's body scoring
        # FULL OUTER JOINed with anchor hits from the intended
        # (src,dst,anchor) graph, targets restricted to stored urls;
        # alpha = 0.5 pinned on both sides
        "crawl_anchor_search": f"""
            WITH stored AS (
              SELECT t.url, p.text
              FROM read_parquet('{sim_trace}') t
              JOIN read_parquet('{pages}') p USING (url)
              WHERE t.status = 200),
            tok AS (SELECT url, unnest({_TOKS}) AS word FROM stored),
            tf AS (SELECT url, word, COUNT(*) AS c FROM tok
                   WHERE word IN (SELECT unnest({_EXCERPT_TERMS_SQL}))
                   GROUP BY url, word),
            df AS (SELECT word, COUNT(DISTINCT url) AS d FROM tok
                   WHERE word IN (SELECT unnest({_EXCERPT_TERMS_SQL}))
                   GROUP BY word),
            n AS (SELECT COUNT(*) AS n FROM stored),
            body AS (SELECT tf.url,
                            SUM(tf.c * ln(CAST(n.n AS DOUBLE) / df.d)) AS w
                     FROM tf JOIN df ON tf.word = df.word CROSS JOIN n
                     GROUP BY tf.url),
            a AS (SELECT dst_url AS url,
                         unnest(list_distinct(list_filter(
                             regexp_split_to_array(lower(anchor),
                                                   '[^a-z0-9]+'),
                             x -> x <> ''))) AS word
                  FROM read_parquet('{links}')),
            ahits AS (SELECT a.url, COUNT(*) AS hits FROM a
                      JOIN (SELECT DISTINCT url FROM stored) s2
                        ON a.url = s2.url
                      WHERE a.word IN (SELECT unnest({_EXCERPT_TERMS_SQL}))
                      GROUP BY a.url),
            s AS (SELECT COALESCE(b.url, ah.url) AS url,
                         COALESCE(b.w, 0.0) + 0.5 * COALESCE(ah.hits, 0)
                             AS score
                  FROM body b FULL OUTER JOIN ahits ah ON b.url = ah.url)
            SELECT url, ROUND(score, 4) AS score FROM s
            ORDER BY s.score DESC, url LIMIT 10
        """,
        "crawl_ranked_tfidf": f"""
            WITH stored AS (
              SELECT t.url, p.text
              FROM read_parquet('{sim_trace}') t
              JOIN read_parquet('{pages}') p USING (url)
              WHERE t.status = 200),
            tok AS (SELECT url, unnest({_TOKS}) AS word FROM stored),
            tf AS (SELECT url, word, COUNT(*) AS c FROM tok
                   WHERE word IN (SELECT unnest({_EXCERPT_TERMS_SQL}))
                   GROUP BY url, word),
            df AS (SELECT word, COUNT(DISTINCT url) AS d FROM tok
                   WHERE word IN (SELECT unnest({_EXCERPT_TERMS_SQL}))
                   GROUP BY word),
            n AS (SELECT COUNT(*) AS n FROM stored),
            s AS (SELECT tf.url,
                         SUM(tf.c * ln(CAST(n.n AS DOUBLE) / df.d)) AS score
                  FROM tf JOIN df ON tf.word = df.word CROSS JOIN n
                  GROUP BY tf.url)
            SELECT url, ROUND(s.score, 4) AS score FROM s
            ORDER BY s.score DESC, url LIMIT 10
        """,
        "lineitem_agg": f"""
            SELECT l_returnflag, l_linestatus,
                   SUM(l_quantity) AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   COUNT(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "segment_revenue": """
            SELECT c_mktsegment,
                   ROUND(SUM(o_totalprice), 2) AS total_price,
                   COUNT(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "customer_nation_join": """
            SELECT n_name, COUNT(*) AS n_customers,
                   ROUND(SUM(c_acctbal), 2) AS total_acctbal
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "topk_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "shipping_priority": """
            SELECT l_orderkey, o_orderdate,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM customer JOIN orders ON c_custkey = o_custkey
                          JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue DESC, l_orderkey LIMIT 10
        """,
        "customers_without_big_orders": """
            SELECT c_custkey, c_name, c_acctbal FROM customer
            WHERE c_custkey NOT IN
                  (SELECT o_custkey FROM orders WHERE o_totalprice > 300000.0)
        """,
        "top2_customers_per_nation": """
            SELECT c_nationkey, c_custkey, c_acctbal FROM (
                SELECT c_nationkey, c_custkey, c_acctbal,
                       row_number() OVER (PARTITION BY c_nationkey
                                          ORDER BY c_acctbal DESC, c_custkey) AS rn
                FROM customer) WHERE rn <= 2
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   COUNT(*) AS n_events, ROUND(SUM(value), 2) AS total_value
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        "events_hopping": """
            WITH x AS (SELECT event_type, value,
                              time_bucket(INTERVAL 30 MINUTE, ts) AS w1
                       FROM events),
            u AS (SELECT event_type, value,
                         unnest([w1, w1 - INTERVAL 30 MINUTE]) AS wstart
                  FROM x)
            SELECT event_type, wstart, COUNT(*) AS n_events,
                   ROUND(SUM(value), 2) AS total_value
            FROM u GROUP BY event_type, wstart
        """,
        "supplier_region_stats": """
            SELECT r_name, COUNT(*) AS n_suppliers,
                   ROUND(SUM(s_acctbal), 2) AS total_acctbal
            FROM supplier JOIN nation ON s_nationkey = n_nationkey
                          JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "events_sessions": """
            WITH x AS (
                SELECT user_id, event_id, ts, value,
                       CASE WHEN LAG(ts) OVER w IS NULL
                                 OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            y AS (
                SELECT user_id, ts, value,
                       SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                        ROWS UNBOUNDED PRECEDING) AS sid
                FROM x
            )
            SELECT user_id, MIN(ts) AS session_start,
                   COUNT(*) AS n_events, ROUND(SUM(value), 2) AS total_value
            FROM y GROUP BY user_id, sid
        """,
        "docs_with_all_terms": """
            SELECT doc_id FROM documents
            WHERE text LIKE '%spark%' AND text LIKE '%order%'
        """,
        "orders_price_band_join": """
            WITH bands(band_id, lo, hi) AS (VALUES
                (CAST(0 AS BIGINT), 0.0, 50000.0),
                (1, 50000.0, 150000.0),
                (2, 150000.0, 300000.0),
                (3, 300000.0, 450000.0),
                (4, 450000.0, 1e308))
            SELECT o.o_orderkey, b.band_id, b.lo AS band_lo
            FROM orders o
            JOIN bands b ON o.o_totalprice >= b.lo AND o.o_totalprice < b.hi
        """,
        "events_asof_join": """
            WITH p AS (SELECT event_id AS purchase_id, user_id,
                              ts AS purchase_ts
                       FROM events WHERE event_type = 'purchase'),
            v AS (SELECT event_id AS view_id, user_id, ts AS view_ts
                  FROM events WHERE event_type = 'view'),
            j AS (SELECT p.purchase_id, p.user_id, p.purchase_ts,
                         v.view_id, v.view_ts,
                         row_number() OVER (
                             PARTITION BY p.purchase_id
                             ORDER BY v.view_ts DESC, v.view_id DESC) AS rn
                  FROM p JOIN v ON p.user_id = v.user_id
                                AND v.view_ts <= p.purchase_ts)
            SELECT purchase_id, user_id, purchase_ts, view_id, view_ts
            FROM j WHERE rn = 1
        """,
        "token_stats": f"""
            WITH tok AS (SELECT doc_id, length(text) AS n_chars, {_TOKS} AS toks
                         FROM documents)
            SELECT doc_id, n_chars, len(toks) AS n_tokens,
                   CAST(COALESCE(list_sum(list_transform(toks, x -> length(x))), 0)
                        AS BIGINT) AS n_token_chars
            FROM tok
        """,
        # both patterns are RE2 on both sides (Arrow count_substring_regex
        # vs DuckDB regexp_extract_all) — same engine, same leftmost-first
        # alternation, so counts are exact
        "bpe_token_counts": """
            SELECT doc_id,
                   len(regexp_extract_all(text, '\\S+'))::BIGINT
                       AS n_ws_tokens,
                   len(regexp_extract_all(text,
                       ' ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\\s]+|\\s+'))::BIGINT
                       AS n_bpe_tokens
            FROM documents
        """,
        "word_df": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT word, COUNT(*) AS df FROM tok GROUP BY word
            HAVING COUNT(*) >= 2
        """,
        # normalization: URL then email redaction on lowercased text
        # (RE2 on both sides — the engine runs the same pattern strings
        # through Arrow's RE2 kernels), then the pinned token stream
        # with consecutive duplicates collapsed (1-based list lambda)
        "normalize_text": f"""
            WITH low AS (SELECT doc_id, lower(text) AS t0 FROM documents),
            r1 AS (SELECT doc_id,
                       len(regexp_extract_all(t0, '{_URL_RE}')) AS n_url,
                       regexp_replace(t0, '{_URL_RE}', ' ', 'g') AS t1
                   FROM low),
            r2 AS (SELECT doc_id,
                       n_url + len(regexp_extract_all(t1, '{_EMAIL_RE}'))
                           AS n_redacted,
                       regexp_replace(t1, '{_EMAIL_RE}', ' ', 'g') AS text
                   FROM r1),
            tok AS (SELECT doc_id, n_redacted, {_TOKS} AS toks FROM r2),
            kept AS (SELECT doc_id, n_redacted, len(toks) AS nt,
                       list_filter(toks,
                           (x, i) -> i = 1 OR toks[i-1] <> x) AS k
                     FROM tok)
            SELECT doc_id, array_to_string(k, ' ') AS clean_text,
                   n_redacted::BIGINT AS n_redacted,
                   (nt - len(k))::BIGINT AS n_collapsed
            FROM kept
        """,
        # Gopher-style repetition metrics over the pinned tokenizer;
        # DuckDB ROUND is half-away-from-zero, matching _round4
        "repetition_scores": f"""
            WITH base AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            sized AS (SELECT doc_id, toks, len(toks) AS n FROM base),
            wc AS (SELECT doc_id, w, count(*) AS c
                   FROM (SELECT doc_id, unnest(toks) AS w FROM sized)
                   GROUP BY doc_id, w),
            agg AS (SELECT doc_id, count(*) AS n_distinct, max(c) AS topc
                    FROM wc GROUP BY doc_id),
            big AS (SELECT doc_id,
                      len(list_transform(range(1, len(toks)),
                          i -> toks[i] || ' ' || toks[i+1])) AS nb,
                      len(list_distinct(list_transform(range(1, len(toks)),
                          i -> toks[i] || ' ' || toks[i+1]))) AS ndb
                    FROM sized)
            SELECT s.doc_id, s.n AS n_tokens,
                   COALESCE(a.n_distinct, 0) AS n_distinct,
                   CASE WHEN s.n = 0 THEN 0.0
                        ELSE round(a.topc / s.n::DOUBLE, 4)
                   END AS top_word_frac,
                   CASE WHEN b.nb = 0 THEN 0.0
                        ELSE round((b.nb - b.ndb) / b.nb::DOUBLE, 4)
                   END AS dup_bigram_frac
            FROM sized s
            LEFT JOIN agg a USING (doc_id)
            LEFT JOIN big b USING (doc_id)
        """,
        # contamination: distinct 3-token shingles hashed with the
        # mirrored FNV-1a64; benchmark = doc_id % 97 == 0, flags over
        # the remaining corpus
        "contamination_flags": f"""
            WITH base AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            g AS (SELECT doc_id,
                     list_distinct(list_transform(range(1, len(toks) - 1),
                         i -> toks[i] || ' ' || toks[i+1] || ' '
                              || toks[i+2])) AS grams
                  FROM base),
            e AS (SELECT doc_id, {_fnv_sql("gm")} AS h
                  FROM (SELECT doc_id, unnest(grams) AS gm FROM g)),
            needles AS (SELECT DISTINCT h FROM e WHERE doc_id % 97 = 0),
            corpus AS (SELECT doc_id, h FROM e WHERE doc_id % 97 <> 0),
            hits AS (SELECT c.doc_id, count(*) AS n_hits
                     FROM corpus c JOIN needles n ON c.h = n.h
                     GROUP BY c.doc_id),
            counts AS (SELECT doc_id, count(*) AS n_grams
                       FROM corpus GROUP BY doc_id)
            SELECT b.doc_id,
                   COALESCE(cnt.n_grams, 0) AS n_grams,
                   COALESCE(ht.n_hits, 0) AS n_hits,
                   COALESCE(ht.n_hits, 0) > 0 AS contaminated
            FROM base b
            LEFT JOIN counts cnt USING (doc_id)
            LEFT JOIN hits ht USING (doc_id)
            WHERE b.doc_id % 97 <> 0
        """,
        "exact_dedup": """
            SELECT MIN(doc_id) AS canonical_id, COUNT(*) AS n_docs
            FROM documents GROUP BY text
        """,
        "jaccard_pairs": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents),
            sizes AS (SELECT doc_id, COUNT(*) AS n FROM tok GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
                      FROM tok a JOIN tok b ON a.word = b.word AND a.doc_id < b.doc_id
                      GROUP BY a.doc_id, b.doc_id)
            SELECT doc_a, doc_b,
                   ROUND(CAST(i AS DOUBLE) / (sa.n + sb.n - i), 4) AS jaccard
            FROM inter
            JOIN sizes sa ON doc_a = sa.doc_id
            JOIN sizes sb ON doc_b = sb.doc_id
            WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.5
        """,
        "jaccard_ngram_pairs": f"""
            WITH tok AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            ng AS (SELECT doc_id,
                          list_distinct(list_transform(
                              range(1, len(toks) - 1),
                              i -> toks[i] || ' ' || toks[i+1] || ' '
                                   || toks[i+2])) AS grams
                   FROM tok WHERE len(toks) >= 3),
            e AS (SELECT doc_id, unnest(grams) AS g FROM ng),
            sizes AS (SELECT doc_id, COUNT(*) AS n FROM e GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                             COUNT(*) AS i
                      FROM e a JOIN e b
                        ON a.g = b.g AND a.doc_id < b.doc_id
                      GROUP BY a.doc_id, b.doc_id)
            SELECT doc_a, doc_b,
                   ROUND(CAST(i AS DOUBLE) / (sa.n + sb.n - i), 4) AS jaccard
            FROM inter
            JOIN sizes sa ON doc_a = sa.doc_id
            JOIN sizes sb ON doc_b = sb.doc_id
            WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.5
        """,
        # EXACT quantiles: rank = ceil(q*n) clamped, value by row_number —
        # the same (double) rank arithmetic as pipelines/quantiles.py
        "orders_price_quantiles": """
            WITH vals AS (SELECT o_totalprice FROM orders
                          WHERE o_totalprice IS NOT NULL
                            AND isfinite(o_totalprice)),
            n AS (SELECT count(*)::DOUBLE AS c FROM vals),
            qs(q) AS (VALUES (0.25), (0.5), (0.9), (0.99)),
            ranked AS (SELECT o_totalprice AS v,
                              row_number() OVER (ORDER BY o_totalprice) AS r
                       FROM vals)
            SELECT q, v AS value
            FROM qs CROSS JOIN n
            JOIN ranked
              ON ranked.r = greatest(1, least(c::BIGINT,
                                              ceil(q * c)::BIGINT))
        """,
        # deterministic sample: splitmix64(doc_id) % 100 < 10, the exact
        # mixer mirrored by _mix_ctes
        "sample_documents": f"""
            WITH keyed_ AS (SELECT doc_id,
                                ((doc_id::HUGEINT + {_M64}) % {_M64}) AS x
                            FROM documents),
            {_mix_ctes("keyed_", carry="doc_id, ")}
            SELECT doc_id FROM mixed_ WHERE (v % 100) < 10
        """,
        # stratified variant: the per-row cut depends on the stratum
        # column (en downsampled to 20%, other languages kept whole);
        # same mixer, same key axis, so strata subsets nest
        "stratified_sample_docs": f"""
            WITH keyed_ AS (SELECT doc_id, lang,
                                ((doc_id::HUGEINT + {_M64}) % {_M64}) AS x
                            FROM documents),
            {_mix_ctes("keyed_", carry="doc_id, lang, ")}
            SELECT doc_id, lang FROM mixed_
            WHERE (v % 100) < (CASE WHEN lang = 'en' THEN 20 ELSE 100 END)
        """,
        # ---- hash-mirror oracles (bitwise via _fnv_sql/_mix_ctes) --------
        # fingerprint64: per-token FNV-1a64 folded into a polynomial
        # rolling hash over the token stream (functions/text.py:102)
        "fingerprints": f"""
            WITH toks AS (SELECT doc_id, {_TOKS} AS tokens FROM documents),
            th AS (SELECT doc_id,
                     list_transform(tokens, t ->
                       list_reduce(
                         list_prepend(11400714819323198485::HUGEINT,
                           list_transform(range(1, length(t)+1),
                                          i -> ascii(substr(t,i,1))::HUGEINT)),
                         (h, b) -> (xor(h, b) * 1099511628211) % {_M64})
                     ) AS token_hashes
                   FROM toks),
            fp AS (SELECT doc_id,
                     list_reduce(
                       list_prepend(14695981039346656037::HUGEINT,
                                    token_hashes),
                       (h, t) -> xor((h * 1099511628211) % {_M64}, t)) AS v
                   FROM th)
            SELECT doc_id,
                   CAST(CASE WHEN v >= 9223372036854775808::HUGEINT
                             THEN v - {_M64} ELSE v END AS BIGINT) AS fp64
            FROM fp
        """,
        # SimHash (Charikar 2002): tf-weighted bit votes over FNV token
        # hashes; the engine's 4-block pigeonhole LSH is LOSSLESS for
        # hamming <= 3 (a pair differing in <= 3 bits agrees on >= 1 of 4
        # 16-bit blocks), so the oracle is the plain quadratic truth:
        # every pair with bit_count(xor) <= 3.
        "simhash_near_pairs": f"""
            WITH toks AS (SELECT doc_id, {_TOKS} AS tokens FROM documents),
            tok_counts AS (SELECT doc_id, tok, count(*)::HUGEINT AS cnt
                           FROM toks, unnest(tokens) AS u(tok)
                           GROUP BY doc_id, tok),
            hashed AS (SELECT doc_id, cnt, {_fnv_sql("tok")} AS h
                       FROM tok_counts),
            votes AS (SELECT doc_id, k,
                             sum(cnt * (2 * ((h // (1::HUGEINT << k)) % 2)
                                        - 1)) AS v
                      FROM hashed, unnest(range(0, 64)) AS b(k)
                      GROUP BY doc_id, k),
            sims AS (SELECT doc_id,
                            coalesce(sum(CASE WHEN v > 0
                                              THEN (1::HUGEINT << k)
                                              ELSE 0 END),
                                     0::HUGEINT) AS simhash
                     FROM votes GROUP BY doc_id),
            all_docs AS (SELECT d.doc_id,
                                coalesce(s.simhash, 0::HUGEINT) AS simhash
                         FROM documents d LEFT JOIN sims s USING (doc_id))
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
            FROM all_docs a JOIN all_docs b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
        """,
        # MinHash+LSH: sig[k] = min over distinct 3-token shingles of
        # splitmix64(fnv(shingle) ^ seed_k) with the engine's 64 PCG-drawn
        # seeds embedded as literals (they are parameters of the hash
        # family, not data); candidates = pairs agreeing on >= 1 of 16
        # 4-row bands; est = signature agreement. round_even matches
        # np.round (banker's) on the k/64 grid.
        "minhash_lsh_pairs": f"""
            WITH toks AS (SELECT doc_id, {_TOKS} AS tokens FROM documents),
            shingles AS (SELECT doc_id,
                CASE WHEN len(tokens) = 0 THEN ['']
                     WHEN len(tokens) < 3
                       THEN [array_to_string(tokens, ' ')]
                     ELSE list_distinct(list_transform(
                         range(1, len(tokens)-1),
                         j -> tokens[j] || ' ' || tokens[j+1] || ' '
                              || tokens[j+2]))
                END AS sh
              FROM toks),
            sh_hash AS (SELECT doc_id, {_fnv_sql("s")} AS h
                        FROM shingles, unnest(sh) AS u(s)),
            seeds(k, seed) AS (VALUES {_minhash_seed_values()}),
            seeded_ AS (SELECT doc_id, k, xor(h, seed) AS x
                        FROM sh_hash CROSS JOIN seeds),
            {_mix_ctes("seeded_", carry="doc_id, k, ")},
            sig AS (SELECT doc_id, list(minv ORDER BY k) AS s
                    FROM (SELECT doc_id, k, min(v) AS minv FROM mixed_
                          GROUP BY doc_id, k)
                    GROUP BY doc_id),
            band_rows AS (SELECT doc_id, bi,
                                 list_slice(s, 4*bi+1, 4*bi+4) AS band
                          FROM sig, unnest(range(0, 16)) AS b(bi)),
            cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
                     FROM band_rows a JOIN band_rows b
                       ON a.bi = b.bi AND a.band = b.band
                          AND a.doc_id < b.doc_id),
            est AS (SELECT c.doc_a, c.doc_b,
                       round_even(list_sum(list_transform(range(1, 65),
                           k -> CASE WHEN sa.s[k] = sb.s[k]
                                     THEN 1 ELSE 0 END)) / 64.0,
                           4) AS est_jaccard
                    FROM cand c
                    JOIN sig sa ON sa.doc_id = c.doc_a
                    JOIN sig sb ON sb.doc_id = c.doc_b)
            SELECT * FROM est WHERE est_jaccard >= 0.5
        """,
        # HyperLogLog (Flajolet 2007) with p=12: register index = low 12
        # bits of splitmix64(user_id), rank = 1 + trailing zeros of the
        # remaining bits (bit_count(x # (x-1)) counts the low set-bit run);
        # standard linear-counting / bias branch mirrored from
        # sketches.hll_estimate. Deterministic given the hash, hence
        # oracle-exact despite being an approximate sketch.
        "hll_distinct_users": f"""
            WITH vals AS (SELECT DISTINCT
                              ((user_id::HUGEINT + {_M64}) % {_M64}) AS v0
                          FROM events),
            golden_ AS (SELECT ((v0 + 11400714819323198485::HUGEINT)
                                % {_M64}) AS x FROM vals),
            {_mix_ctes("golden_")},
            ranks AS (SELECT (v % 4096)::BIGINT AS reg,
                             CASE WHEN (v // 4096) = 0 THEN 53
                                  ELSE bit_count(xor(v // 4096,
                                                     v // 4096 - 1))::BIGINT
                             END AS rank
                      FROM mixed_),
            regs AS (SELECT reg, max(rank) AS r FROM ranks GROUP BY reg),
            stats AS (SELECT (4096 - count(*))::DOUBLE AS zeros,
                             sum(power(2.0, -r)) + (4096 - count(*)) AS s
                      FROM regs),
            est AS (SELECT CASE
                WHEN (0.7213 / (1 + 1.079 / 4096)) * 4096.0 * 4096.0 / s
                         <= 2.5 * 4096 AND zeros > 0
                THEN 4096.0 * ln(4096.0 / zeros)
                ELSE (0.7213 / (1 + 1.079 / 4096)) * 4096.0 * 4096.0 / s
              END AS estimate FROM stats)
            SELECT estimate, 12::BIGINT AS p FROM est
        """,
        # Count-min sketch (Cormode-Muthukrishnan 2005) with depth=4,
        # width=2048: every event row hashes into one cell per seed
        # (h_j = splitmix64(key + seed_j + golden) % width), the grid
        # cell counts are plain GROUP BY counts, and each distinct key's
        # estimate is the min over its 4 cells. Deterministic given the
        # hash family, hence oracle-exact despite being a sketch.
        "cms_heavy_users": f"""
            WITH ev AS (SELECT ((user_id::HUGEINT % {_M64}) + {_M64})
                                   % {_M64} AS key
                        FROM events),
            seeds(j, seed) AS (VALUES
                (0, 11562461410679940143::HUGEINT),
                (1, 16646288086500911323::HUGEINT),
                (2, 10285213230658275043::HUGEINT),
                (3, 6384245875588680899::HUGEINT)),
            seeded_ AS (SELECT key, j,
                               ((key + seed
                                 + 11400714819323198485::HUGEINT) % {_M64})
                                 AS x
                        FROM ev CROSS JOIN seeds),
            {_mix_ctes("seeded_", carry="key, j, ")},
            hp AS (SELECT key, j, (v % 2048)::BIGINT AS col FROM mixed_),
            cells AS (SELECT j, col, count(*)::BIGINT AS cnt
                      FROM hp GROUP BY j, col),
            probe AS (SELECT DISTINCT key, j, col FROM hp),
            est AS (SELECT key, min(cnt) AS est_count
                    FROM probe JOIN cells USING (j, col) GROUP BY key)
            SELECT CAST(key AS BIGINT) AS value, est_count
            FROM est WHERE est_count >= 75
            ORDER BY est_count DESC, value
        """,
        # BMP re-decoded from the payload BYTES in SQL (hex dump ->
        # header fields -> per-channel byte sums over the bottom-up
        # BGR rows, padding stripped): an independent check of the
        # functions/media.py codec, exact because both sides divide
        # int64 byte sums. Rows are BGR, so channel k%3==2 is red.
        # PNG engine path vs BMP-twin SQL decode: same pixel bytes through
        # two independent codecs (engine: zlib inflate + unfilter; oracle:
        # plain BMP hex extraction) must produce identical integer sums.
        "multimodal_png_pixel_stats":
            _bmp_pixel_sql(_twin_media_parquet("png"), "payload_bmp"),
        # same contract, QOI edition: engine runs the real QOI decoder
        # (lossless by spec); oracle decodes the BMP twin
        "multimodal_qoi_pixel_stats":
            _bmp_pixel_sql(_twin_media_parquet("qoi"), "payload_bmp"),
        "multimodal_pixel_stats":
            _bmp_pixel_sql(_media_parquet(), "payload"),
        # PCM16 WAV re-parsed from the payload bytes in SQL
        # (channel 0, like the engine stage)
        "multimodal_audio_stats":
            _wav_audio_sql(_media_parquet(), "payload"),
        # compressed-audio edition: the engine decodes the real IMA
        # ADPCM payload (fmt 0x11, block-vectorized state machine);
        # the oracle re-parses a PCM16 twin of the in-loop
        # reconstruction — the signal a conforming decoder MUST
        # reproduce bitwise
        "multimodal_adpcm_audio_stats":
            _wav_audio_sql(_twin_media_parquet("adpcm"),
                           "payload_pcm"),
        # telephony edition: the engine expands real G.711 codes
        # (mu-law/A-law normative tables); the oracle re-parses a PCM16
        # twin of the same expansion — bitwise by the spec's own tables
        "multimodal_g711_audio_stats":
            _wav_audio_sql(_twin_media_parquet("g711"),
                           "payload_pcm"),
        # Y4M stream re-parsed in SQL: the ASCII header line is
        # recovered byte-aligned (first 0x0a byte, then unhex->decode),
        # W/H/F extracted by regex, then per-frame Y-plane byte sums
        # over the FRAME-marker-strided layout.
        "multimodal_frame_luma": f"""
            WITH vids AS (
              SELECT media_id, lower(hex(payload)) AS hx,
                     octet_length(payload) AS L
              FROM read_parquet('{_media_parquet()}')
              WHERE media_type = 'video'),
            nl AS (
              SELECT media_id, hx, L, min(pos) AS hdr_end
              FROM vids, unnest(range(0, 64)) AS t(pos)
              WHERE {_byte_sql("pos")} = 10
              GROUP BY media_id, hx, L),
            hdr AS (
              SELECT media_id, hx, L, hdr_end,
                     decode(unhex(substr(hx, 1, 2 * hdr_end))) AS head
              FROM nl),
            dims AS (
              SELECT media_id, hx, L, hdr_end,
                     regexp_extract(head, ' W([0-9]+)', 1)::BIGINT AS w,
                     regexp_extract(head, ' H([0-9]+)', 1)::BIGINT AS h,
                     regexp_extract(head, ' F([0-9]+):', 1)::BIGINT AS fps
              FROM hdr),
            geom AS (
              SELECT media_id, hx, w, h, fps, hdr_end + 1 AS body,
                     6 + 3 * w * h AS fsz,
                     (L - hdr_end - 1) // (6 + 3 * w * h) AS n_frames
              FROM dims),
            ysum AS (
              SELECT media_id, w, h, fps, f AS frame_idx,
                     sum({_byte_sql("body + f*fsz + 6 + j")}) AS s
              FROM geom,
                   unnest(range(0, n_frames)) AS tf(f),
                   unnest(range(0, w * h)) AS tj(j)
              GROUP BY media_id, w, h, fps, f)
            SELECT media_id, frame_idx, w AS width, h AS height, fps,
                   s::DOUBLE / (w * h) AS mean_y
            FROM ysum
        """,
        "embedding_near_dup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                                CAST(b.embedding AS DOUBLE[])), 4) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.4
        """,
        "phrase_search": f"""
            SELECT doc_id FROM documents
            WHERE regexp_matches(lower(text),
                  '(^|[^a-z0-9])scan[^a-z0-9]+slow($|[^a-z0-9])')
        """,
        # more-like-this: cosine between FULL tf-idf vectors (w =
        # tf*ln(N/df)), seed doc 7, zero-dot candidates dropped
        "similar_docs": f"""
            WITH tok AS (SELECT doc_id, unnest({_TOKS}) AS word FROM documents),
            tf AS (SELECT doc_id, word, COUNT(*) AS c FROM tok
                   GROUP BY doc_id, word),
            df AS (SELECT word, COUNT(DISTINCT doc_id) AS d FROM tok
                   GROUP BY word),
            n AS (SELECT COUNT(*) AS n FROM documents),
            w AS (SELECT tf.doc_id, tf.word,
                         tf.c * ln(CAST(n.n AS DOUBLE) / df.d) AS w
                  FROM tf JOIN df ON tf.word = df.word CROSS JOIN n),
            nm AS (SELECT doc_id, sqrt(SUM(w * w)) AS nm FROM w
                   GROUP BY doc_id),
            q AS (SELECT word, w FROM w WHERE doc_id = 7),
            dot AS (SELECT w.doc_id, SUM(w.w * q.w) AS dot
                    FROM w JOIN q ON w.word = q.word
                    WHERE w.doc_id <> 7 GROUP BY w.doc_id),
            s AS (SELECT dot.doc_id,
                         dot.dot / ((SELECT nm FROM nm WHERE doc_id = 7)
                                    * nm.nm) AS score
                  FROM dot JOIN nm ON dot.doc_id = nm.doc_id
                  WHERE dot.dot > 0)
            SELECT doc_id, ROUND(score, 4) AS score FROM s
            ORDER BY s.score DESC, doc_id LIMIT 10
        """,
        # qparser suffix wildcard: (any word LIKE %ow) AND scan
        "parsed_suffix_search": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT DISTINCT doc_id FROM tok
            WHERE word LIKE '%ow'
              AND doc_id IN (SELECT doc_id FROM tok WHERE word = 'scan')
        """,
        # qparser wildcard: (any word LIKE sca%) AND slow
        "parsed_wildcard_search": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT DISTINCT doc_id FROM tok
            WHERE word LIKE 'sca%'
              AND doc_id IN (SELECT doc_id FROM tok WHERE word = 'slow')
        """,
        # wildcard sca*: any vocabulary word starting with the prefix
        "prefix_search": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT DISTINCT doc_id FROM tok WHERE word LIKE 'sca%'
        """,
        # did-you-mean: vocabulary words within Levenshtein distance 1,
        # df = number of documents containing the word
        "spell_suggest": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents),
            d AS (SELECT word, COUNT(*) AS df FROM tok GROUP BY word)
            SELECT word, df FROM d
            WHERE levenshtein(word, 'sow') <= 1
            ORDER BY df DESC, word
        """,
        # unordered NEAR/3: scan..slow or slow..scan with 0-2 intervening
        # tokens (position delta 1..3 under the [^a-z0-9]+ tokenizer)
        "near_search": """
            SELECT doc_id FROM documents
            WHERE regexp_matches(lower(text),
                  '(^|[^a-z0-9])scan([^a-z0-9]+[a-z0-9]+){0,2}[^a-z0-9]+slow($|[^a-z0-9])')
               OR regexp_matches(lower(text),
                  '(^|[^a-z0-9])slow([^a-z0-9]+[a-z0-9]+){0,2}[^a-z0-9]+scan($|[^a-z0-9])')
        """,
        "parsed_search": """
            SELECT doc_id FROM documents
            WHERE regexp_matches(lower(text), '(^|[^a-z0-9])spark($|[^a-z0-9])')
              AND (regexp_matches(lower(text), '(^|[^a-z0-9])window($|[^a-z0-9])')
                   OR regexp_matches(lower(text), '(^|[^a-z0-9])scan($|[^a-z0-9])'))
              AND NOT regexp_matches(lower(text),
                  '(^|[^a-z0-9])scan[^a-z0-9]+slow($|[^a-z0-9])')
        """,
        "boolean_and_search": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT doc_id FROM tok WHERE word IN ('spark', 'window', 'scan')
            GROUP BY doc_id HAVING COUNT(DISTINCT word) = 3
        """,
        "boolean_or_search": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT DISTINCT doc_id FROM tok
            WHERE word IN ('spark', 'window', 'scan')
        """,
        "ispell_search": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT DISTINCT doc_id FROM tok
            WHERE word IN ('scan', 'scans', 'scanned', 'scanning')
        """,
        "boolean_not_search": f"""
            WITH tok AS (SELECT doc_id, unnest(list_distinct({_TOKS})) AS word
                         FROM documents)
            SELECT DISTINCT doc_id FROM tok WHERE word = 'spark'
              AND doc_id NOT IN (SELECT doc_id FROM tok WHERE word = 'window')
        """,
        "tfidf_search": f"""
            WITH tok AS (SELECT doc_id, unnest({_TOKS}) AS word FROM documents),
            tf AS (SELECT doc_id, word, COUNT(*) AS c FROM tok
                   WHERE word IN ('spark', 'window', 'scan') GROUP BY doc_id, word),
            df AS (SELECT word, COUNT(DISTINCT doc_id) AS d FROM tok
                   WHERE word IN ('spark', 'window', 'scan') GROUP BY word),
            n AS (SELECT COUNT(*) AS n FROM documents),
            s AS (SELECT tf.doc_id,
                         SUM(tf.c * ln(CAST(n.n AS DOUBLE) / df.d)) AS score
                  FROM tf JOIN df ON tf.word = df.word CROSS JOIN n
                  GROUP BY tf.doc_id)
            SELECT doc_id, ROUND(score, 4) AS score FROM s
            ORDER BY s.score DESC, doc_id LIMIT 10
        """,
        # Okapi BM25 (k1=1.2, b=0.75; Lucene's ln(1+(N-df+.5)/(df+.5))
        # idf). dl counts ALL tokens of the doc; avgdl = total tokens / N
        # over every document — exactly the engine manifest's
        # total_tokens / n_docs.
        "bm25_search": f"""
            WITH tok AS (SELECT doc_id, unnest({_TOKS}) AS word FROM documents),
            tf AS (SELECT doc_id, word, COUNT(*) AS c FROM tok
                   WHERE word IN ('spark', 'window', 'scan') GROUP BY doc_id, word),
            df AS (SELECT word, COUNT(DISTINCT doc_id) AS d FROM tok
                   WHERE word IN ('spark', 'window', 'scan') GROUP BY word),
            dl AS (SELECT doc_id, COUNT(*) AS dl FROM tok GROUP BY doc_id),
            n AS (SELECT COUNT(*) AS n FROM documents),
            a AS (SELECT (SELECT COUNT(*) FROM tok)::DOUBLE / n.n AS avgdl
                  FROM n),
            s AS (SELECT tf.doc_id,
                         SUM(ln(1.0 + (n.n - df.d + 0.5) / (df.d + 0.5))
                             * tf.c * (1.2 + 1.0)
                             / (tf.c + 1.2 * (1.0 - 0.75
                                              + 0.75 * dl.dl / a.avgdl)))
                             AS score
                  FROM tf JOIN df ON tf.word = df.word
                          JOIN dl ON tf.doc_id = dl.doc_id
                  CROSS JOIN n CROSS JOIN a
                  GROUP BY tf.doc_id)
            SELECT doc_id, ROUND(score, 4) AS score FROM s
            ORDER BY s.score DESC, doc_id LIMIT 10
        """,
        "quality_scores": f"""
            WITH tok AS (
                SELECT doc_id, length(text) AS n_chars, {_TOKS} AS toks,
                       length(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g'))
                           AS n_alnum
                FROM documents)
            SELECT doc_id, n_chars, len(toks) AS n_tokens,
                   ROUND(CASE WHEN len(toks) > 0 THEN
                         CAST(list_sum(list_transform(toks, x -> length(x)))
                              AS DOUBLE) / len(toks) ELSE 0.0 END, 4)
                       AS mean_token_len,
                   ROUND(CASE WHEN len(toks) > 0 THEN
                         CAST(len(list_filter(toks,
                              x -> list_contains({_STOP_EN_SQL}, x)))
                              AS DOUBLE) / len(toks) ELSE 0.0 END, 4)
                       AS stop_ratio,
                   ROUND(CASE WHEN len(toks) > 0 AND n_chars > 0 THEN
                         CAST(n_alnum AS DOUBLE) / n_chars ELSE 0.0 END, 4)
                       AS alnum_ratio
            FROM tok
        """,
        # mean token log-prob under the corpus unigram MLE model
        "unigram_logprob_scores": f"""
            WITH tok AS (SELECT doc_id, unnest({_TOKS}) AS word FROM documents),
            uni AS (SELECT word, COUNT(*) AS n FROM tok GROUP BY word),
            tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS t FROM tok),
            per AS (SELECT tok.doc_id, SUM(ln(uni.n / tot.t)) AS s,
                           COUNT(*) AS c
                    FROM tok JOIN uni ON tok.word = uni.word CROSS JOIN tot
                    GROUP BY tok.doc_id),
            alln AS (SELECT doc_id, len({_TOKS}) AS n_tokens FROM documents)
            SELECT a.doc_id, a.n_tokens,
                   ROUND(COALESCE(p.s / p.c, 0.0), 4) AS logprob
            FROM alln a LEFT JOIN per p ON a.doc_id = p.doc_id
        """,
        "language_id": f"""
            WITH tok AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            hits AS (
                SELECT doc_id, len(toks) AS n,
                       len(list_filter(toks,
                           x -> list_contains({_STOP_EN_SQL}, x))) AS h_en,
                       len(list_filter(toks,
                           x -> list_contains({_STOP_DE_SQL}, x))) AS h_de,
                       len(list_filter(toks,
                           x -> list_contains({_STOP_FR_SQL}, x))) AS h_fr
                FROM tok)
            SELECT doc_id,
                   CASE WHEN h_en >= h_de AND h_en >= h_fr AND h_en > 0 THEN 'en'
                        WHEN h_de >= h_fr AND h_de > 0 THEN 'de'
                        WHEN h_fr > 0 THEN 'fr'
                        ELSE 'und' END AS lang_pred,
                   ROUND(CASE WHEN n > 0 THEN
                         CAST(GREATEST(h_en, h_de, h_fr) AS DOUBLE) / n
                         ELSE 0.0 END, 4) AS confidence
            FROM hits
        """,
        "ann_topk": """
            WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id < 8),
            s AS (SELECT q.query_id, e.vec_id,
                         list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS score
                  FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.query_id),
            r AS (SELECT query_id, vec_id, score,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY score DESC, vec_id) AS rank
                  FROM s)
            SELECT query_id, vec_id, ROUND(score, 4) AS score, rank
            FROM r WHERE rank <= 5
        """,
    }
    # round-5 forced-plan twins: same SQL, different physical plan on the
    # engine side (the plan switch is what the entry exercises)
    sql["boolean_search_distributed"] = sql["boolean_and_search"]
    sql["bm25_search_distributed"] = sql["bm25_search"]
    sql["near_search_distributed"] = sql["near_search"]
    sql["crawl_anchor_search_scaleplan"] = sql["crawl_anchor_search"]
    sql["parsed_search_distributed"] = sql["parsed_search"]
    sql["jaccard_pairs_longdoc_plan"] = sql["jaccard_pairs"]
    sql["crawl_postings_staged"] = sql["crawl_postings_df"]
    return sql
