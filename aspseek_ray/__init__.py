"""aspseek_ray — a brand-new Ray-Data-native rebuild (NOT a port) of the
data-processing capabilities of ASPseek's indexing robot
(reference: janforman/aspseek, ASPseek 1.2.x; see SURVEY.md).

Layout:
  functions/  pure, vectorized scalar functions (url canon, html->text, hashing)
  state/      stateful distributed state (cuckoo filter, frontier/seen shard actors)
  sources/    corpus readers / pre-bucketing (pages, robots, seeds)
  stages/     Dataset stage builders (fetch join, parse, discover)
  pipelines/  end-to-end pipelines (crawl driver loop, index products, dedup,
              similarity, text stats, BMP/PNG/QOI/WAV/Y4M multimodal stages)

Nothing in this package calls ray.init()/ray.shutdown(); sessions are owned
by bench.py / tests / the driver.
"""

__version__ = "0.1.0"
