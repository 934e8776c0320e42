"""Generate one (workload, seed)'s inputs and reference results.

Run as a child process of the benchmark, before its Ray session starts:

    python3 -m aspbench.prepare <workload> <seed> <out_dir>

Writes, atomically (a temp dir renamed into place):

* ``corpus/`` — fixtures.gen tables (pages, seeds, robots, redirects);
* ``ref/<crawl>/trace.parquet`` and ``seen.parquet`` — the normative
  simulator's (tests/ref_sim.py) trace and seen set for each crawl
  configuration the run uses;
* ``queries.json`` — the seeded query mix, with terms drawn from the
  vocabulary of the pages the crawl stores, each checked to match at
  least one stored page so that no query takes the empty-result exit.
"""

from __future__ import annotations

import collections
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = Path(__file__).resolve().parents[1]


def crawl_config(workload: str, rounds: int | None = None):
    from aspbench.spec import NUM_BUCKETS, NUM_SHARDS, WORKLOADS
    from aspseek_ray.config import CrawlConfig

    c = dict(WORKLOADS[workload]["crawl"])
    if rounds is not None:
        c["max_rounds"] = rounds
    return CrawlConfig(num_shards=NUM_SHARDS, num_page_buckets=NUM_BUCKETS,
                       **c)


def crawl_names(workload: str) -> dict[str, int | None]:
    """Crawl configurations a run uses: name -> max_rounds override."""
    from aspbench.spec import WORKLOADS

    w = WORKLOADS[workload]
    names: dict[str, int | None] = {"main": None}
    warm = w.get("warm_rounds")        # the untimed first crawl, if any
    if warm and warm != w["crawl"]["max_rounds"]:
        names["warm"] = warm
    return names


def _ref_sim():
    sys.path.insert(0, str(ROOT / "tests"))
    import ref_sim

    return ref_sim


def _seed_every_page(corpus: Path) -> None:
    urls = pq.read_table(corpus / "pages.parquet", columns=["url"])["url"]
    n = len(urls)
    pq.write_table(pa.table({
        "url": urls,
        "depth": pa.array(np.zeros(n, np.int32)),
        "discovery_seq": pa.array(np.arange(n, dtype=np.int64)),
    }), corpus / "seeds.parquet")


def _query_mix(texts: list[str], rng: np.random.Generator) -> list[list]:
    """One (query, per_site) pair per kind: the timed kinds first, in
    their fixed order, so that every seed times the same kinds of query,
    then the others in a seeded order. Terms come from the stored pages'
    own vocabulary, from the middle half by document frequency, so
    results are neither tiny nor the whole store."""
    from aspbench.spec import QUERY_KINDS, WORKLOADS
    from aspseek_ray.functions.text import STOPWORDS_EN, tokenize
    from aspseek_ray.pipelines.qparser import matches, parse_query

    docs = [tokenize(t) for t in texts]
    sets = [set(d) for d in docs]
    df = collections.Counter(w for s in sets for w in s)
    n = len(docs)
    words = sorted((c, w) for w, c in df.items()
                   if w not in STOPWORDS_EN and not w.isdigit() and len(w) >= 4)
    mid = sorted(w for _, w in words[len(words) // 4: 3 * len(words) // 4])
    if len(mid) < 8:
        raise RuntimeError(f"store vocabulary too small ({len(mid)} terms)")

    def word() -> str:
        return mid[int(rng.integers(len(mid)))]

    def phrase() -> str:
        while True:
            d = docs[int(rng.integers(n))]
            if len(d) >= 2:
                i = int(rng.integers(len(d) - 1))
                if d[i] not in STOPWORDS_EN and d[i + 1] not in STOPWORDS_EN:
                    return f'"{d[i]} {d[i + 1]}"'

    makers = {
        "single": lambda: (word(), 0),
        "and": lambda: (f"{word()} {word()}", 0),
        "or": lambda: (f"{word()} OR {word()}", 0),
        "not": lambda: (f"{word()} -{word()}", 0),
        "phrase": lambda: (phrase(), 0),
        # a bare wildcard is not accepted by ranked search (its positive
        # terms must be plain words); under a negation it is
        "prefix_not": lambda: (f"{word()} -{word()[:3]}*", 0),
        "per_site": lambda: (word(), 2),
    }
    out = []
    timed = list(WORKLOADS["search_serve"]["cold_kinds"])
    for kind in timed + [k for k in rng.permutation(QUERY_KINDS)
                         if k not in timed]:
        for _ in range(100):
            q, per_site = makers[str(kind)]()
            ast = parse_query(q)
            if any(matches(ast, d, s) for d, s in zip(docs, sets)):
                out.append([q, per_site, str(kind)])
                break
        else:
            raise RuntimeError(f"no matching {kind} query in 100 draws")
    return out


def prepare(workload: str, seed: int, out_dir: Path) -> None:
    from aspbench.spec import KERNEL_SAMPLE, WORKLOADS
    from fixtures.gen import generate_corpus

    w = WORKLOADS[workload]
    tmp = out_dir.with_name(out_dir.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    corpus = tmp / "corpus"
    generate_corpus(str(corpus), seed=seed, **w["corpus"])
    (corpus / "links.parquet").unlink()          # not an input of any path
    if w["seed_every_page"]:
        _seed_every_page(corpus)

    sim = _ref_sim()
    pages, seeds, robots, redirects = sim.load_corpus(str(corpus))
    stored: list[str] = []
    for name, rounds in crawl_names(workload).items():
        res = sim.simulate(pages, seeds, robots,
                           crawl_config(workload, rounds), redirects)
        d = tmp / "ref" / name
        d.mkdir(parents=True)
        trace = pa.Table.from_pylist(res.trace) if res.trace else None
        if trace is None:
            raise RuntimeError(f"{workload}/{name}: the reference crawl is empty")
        pq.write_table(trace, d / "trace.parquet")
        pq.write_table(pa.table({"url": pa.array(sorted(res.seen), pa.string())}),
                       d / "seen.parquet")
        if name == "main":
            stored = [r["url"] for r in res.trace if r["status"] == 200]

    text_of = dict(zip(*[pq.read_table(corpus / "pages.parquet",
                                       columns=["url", "text"])[c].to_pylist()
                         for c in ("url", "text")]))
    rng = np.random.Generator(np.random.PCG64(seed))
    mix = _query_mix([text_of[u] for u in stored], rng)
    urls = sorted(text_of)
    sample = urls[::max(1, len(urls) // KERNEL_SAMPLE)][:KERNEL_SAMPLE]
    (tmp / "queries.json").write_text(json.dumps(
        {"mix": mix, "kernel_sample": sample}, indent=1))
    shutil.rmtree(out_dir, ignore_errors=True)
    tmp.rename(out_dir)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
