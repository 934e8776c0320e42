"""Fixed parameters of the two workloads. Every run of a workload does
the same amount of work; only ``--seed`` changes the inputs."""

from __future__ import annotations

NUM_SHARDS = 2          # <= session.NUM_CPUS
NUM_BUCKETS = 8
SETUP_REPEATS = 3       # bucket_pages ingests per run; setup_s takes the median
KERNEL_SAMPLE = 120     # pages in the fixed kernel sample

WORKLOADS = {
    # Many small rounds: per-round pipeline overhead and Crawler.__init__
    # dominate; HTML parsing is a small share.
    "crawl_polite": {
        "corpus": {"n_pages": 3000, "n_hosts": 30, "n_seeds": 8,
                   "block_scale": 1},
        "seed_every_page": False,
        "crawl": {"per_host_per_round": 4, "max_rounds": 12,
                  "checkpoint_every": 4},
        "warm_rounds": 2,        # the untimed first crawl
        "timed_crawls": 5,
    },
    # A crawled store served by searchd: one refresh (the write path),
    # then a seeded cold + warm query mix (the read path).
    "search_serve": {
        "corpus": {"n_pages": 800, "n_hosts": 16, "n_seeds": 16,
                   "block_scale": 1},
        "seed_every_page": True,
        "crawl": {"per_host_per_round": 8, "max_rounds": 4,
                  "checkpoint_every": 1},
        # the kinds of the distinct (query, per_site) pairs a run times,
        # the same on every seed: the cost of a cold query depends on
        # its kind (up to 25% between kinds), its terms do not
        "cold_kinds": ("and", "per_site", "phrase"),
        # repeats and page turns per pair; 3 x 40 warm requests leave the
        # 10 samples beyond p90 that a tail figure needs
        "warm_per_pair": 40,
        "page_size": 10,
        "max_results": 1000,
    },
}

QUERY_KINDS = ("single", "and", "or", "not", "phrase", "prefix_not",
               "per_site")

# metric name -> unit, as listed in BENCHMARK.json; "ref" is the CPU time
# of one workloads.reference_cpu_s job measured beside the work
E2E = {
    "setup_s": "s",
    "work_cost": "ref",
    "op_cost": "ref",
    "driver_peak_rss_mb": "MB",
}
LAYERS = {
    "ray.init_s": "s",
    "ray.warm_s": "s",
    "pages.bucket_s": "s",
    "host.kernel_mb_per_s_before": "MB/s",
    "host.kernel_mb_per_s_after": "MB/s",
    "crawl.init_s": "s",
    "crawl.rounds": "count",
    "crawl.round_mean_ms": "ms",
    "crawl.counts_s": "s",
    "crawl.emit_s": "s",
    "crawl.pipeline_s": "s",
    "crawl.barrier_s": "s",
    "crawl.checkpoint_s": "s",
    "crawl.unattributed_s": "s",
    "crawl.finalize_s": "s",
    "shard.offered": "count",
    "shard.rejected_seen": "count",
    "shard.rejected_filtered": "count",
    "shard.dup_in_round": "count",
    "shard.accept_ratio": "ratio",
    "shard.pending_skew": "ratio",
    "shard.cuckoo_load_max": "ratio",
    "pages.lookup_rows_per_s": "1/s",
    "html.extract_mb_per_s": "MB/s",
    "url.canonicalize_per_s": "1/s",
    "hashing.fnv_rows_per_s": "1/s",
    "discover.rows_per_s": "1/s",
    "text.tokenize_mb_per_s": "MB/s",
    "qparser.parse_us": "us",
    "cuckoo.insert_per_s": "1/s",
    "cuckoo.contains_per_s": "1/s",
}
