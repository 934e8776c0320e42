"""Index products of the crawl (SURVEY.md §2.5, reference: ASPseek's
inverted-index / citation / rank machinery rebuilt as Dataset jobs):

* ``build_postings`` — tokenize + stopword-filter pages into postings
  (word, word_bucket, doc_seq, positions), Parquet-partitioned by
  word_bucket (S7/T5: the delta files + buddy pages become bucketed
  parquet; Ray streaming replaces the RAM word-cache).
* ``merge_postings`` — delta→main compaction (O21): per word, concat +
  position-sort the per-doc lists (groupby within bucket partitions).
* ``stage_delta`` / ``fold_deltas`` / ``update_postings_index_staged`` —
  the real-time delta→main refresh (S7/O21): a round is staged as
  bucketed postings plus a remove-set taken from its url column, and a
  fold handles each word bucket on its own: it filters that bucket's
  main files and appends the staged rows as one new file per bucket.
* ``refresh_store_index`` — the one index of a crawl store, kept beside
  it: built once, then refreshed by staging and folding each new round;
  ranked search and searchd read it.
* ``clone_groups`` — content-checksum clone detection (O10/O23).
* ``pagerank`` — iterative popularity rank over the link graph (O28,
  reference src/ranks.cpp `index -R`): per-iteration broadcast of the rank
  vector + per-batch contribution partials + one small groupby per
  iteration. ``ensure_ranks`` computes it once per pages table and caches
  the (url, rank) rows on disk for ranked search to read.
* ``crawl_status_stats`` / ``host_stats`` — `index -S` counters (O29).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from aspseek_ray.functions.hashing import content_hash64, fnv1a64, fnv1a64_arrow
from aspseek_ray.functions.html import extract_links
from aspseek_ray.functions.text import STOPWORDS_EN, tokenize
from aspseek_ray.functions.url import canonicalize, host_of
from aspseek_ray.runtime import cached_build, file_ids, join_partitions

NUM_WORD_BUCKETS = 64

POSTINGS_SCHEMA = pa.schema([("word", pa.string()),
                             ("word_bucket", pa.int32()),
                             ("doc_seq", pa.int64()),
                             ("positions", pa.list_(pa.int32()))])


def build_postings(pages_path: str, out_dir: str | None = None,
                   drop_stopwords: bool = True,
                   per_lang_stopwords: bool = False,
                   honor_noindex: bool = False) -> rd.Dataset:
    """pages -> postings (word, word_bucket, doc_seq, positions). doc_seq
    is the DOC ID: fnv1a64(url) — a content-independent, globally
    consistent 64-bit id assignable with no coordination (NOT crawl/warc
    row order); posting lists are sorted by this id, which is all the
    merge/intersection operators need. Streams straight to partitioned
    parquet when out_dir is given.

    ``per_lang_stopwords``: the reference's per-language stopword files
    (O12) — each doc's stoplist follows its ``lang`` column
    (text.stopwords_for; unknown langs fall back to English).

    ``honor_noindex``: drop pages whose html carries a meta-robots
    noindex directive before tokenizing (O6 policy: the page is crawled
    and stored, but its words never enter the index).

    Raises ValueError when ``pages_path`` is a directory holding no
    parquet file."""
    if Path(pages_path).is_dir() and not any(Path(pages_path).rglob("*.parquet")):
        raise ValueError(f"no parquet file under {pages_path}")
    cols = ["url", "text"] + (["lang"] if per_lang_stopwords else [])
    if honor_noindex:
        from aspseek_ray.functions.html import extract_meta_robots

        ds = rd.read_parquet(pages_path, columns=cols + ["html"])

        def drop_noindex(b: pa.Table) -> pa.Table:
            keep = [i for i, h in enumerate(b["html"].to_pylist())
                    if "noindex" not in extract_meta_robots(h)]
            return b.take(pa.array(keep, pa.int64())).drop_columns(["html"])

        ds = ds.map_batches(drop_noindex, batch_format="pyarrow")
    else:
        ds = rd.read_parquet(pages_path, columns=cols)
    return _postings_from_pages(ds, out_dir, drop_stopwords,
                                per_lang_stopwords)


def build_postings_latest(round_dirs: "list[str]", out_dir: str | None = None,
                          drop_stopwords: bool = True,
                          per_lang_stopwords: bool = False) -> rd.Dataset:
    """Full rebuild over a MULTI-ROUND store (round dirs in crawl order):
    a url refetched in a later round contributes only its latest text —
    one groupby(url_hash) picks the max-round row per url, then the
    normal build_postings explode runs over the deduped pages. This is
    the rebuild-per-round cost model that delta staging exists to beat;
    also the compaction story for long append-only runs."""
    cols = ["url_hash", "url", "text"] + (["lang"] if per_lang_stopwords
                                          else [])
    parts = []
    for i, d in enumerate(round_dirs):
        ds_i = rd.read_parquet(d, columns=cols)

        def tag(b: pa.Table, rnd=i) -> pa.Table:
            return b.append_column(
                "rnd", pa.array(np.full(b.num_rows, rnd, np.int32)))

        parts.append(ds_i.map_batches(tag, batch_format="pyarrow"))
    pages = parts[0]
    for p in parts[1:]:
        pages = pages.union(p)

    def latest(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values("rnd").tail(1)
                 .drop(columns=["rnd"]).reset_index(drop=True))

    deduped = pages.groupby("url_hash").map_groups(latest,
                                                   batch_format="pandas")

    def drop_hash(b: pa.Table) -> pa.Table:
        return b.drop_columns(["url_hash"])

    tmp_ds = deduped.map_batches(drop_hash, batch_format="pyarrow")
    # reuse build_postings' explode by round-tripping through its reader
    # contract: it reads (url, text[, lang]) — feed it the deduped Dataset
    return _postings_from_pages(tmp_ds, out_dir, drop_stopwords,
                                per_lang_stopwords)


def _explode(doc_seqs, texts: list, stops: "list | None",
             doclen: bool = False) -> pa.Table:
    """The one postings explode kernel: (word, word_bucket, doc_seq,
    positions) rows, one per distinct word of each text, positions
    counted over every token. ``stops`` holds each doc's stoplist (None
    keeps every word); ``doclen`` adds each doc's token count to its
    rows."""
    words, docs, positions, doclens = [], [], [], []
    for i, text in enumerate(texts):
        toks = tokenize(text or "")
        pos_of: dict[str, list[int]] = {}
        for p, w in enumerate(toks):
            if stops is not None and w in stops[i]:
                continue
            pos_of.setdefault(w, []).append(p)
        for w, ps in pos_of.items():
            words.append(w)
            docs.append(int(doc_seqs[i]))
            positions.append(ps)
            doclens.append(len(toks))
    warr = pa.array(words, pa.string())
    bucket = np.abs(fnv1a64_arrow(warr)) % NUM_WORD_BUCKETS
    cols = {"word": warr,
            "word_bucket": pa.array(bucket.astype(np.int32)),
            "doc_seq": pa.array(docs, pa.int64()),
            "positions": pa.array(positions, pa.list_(pa.int32()))}
    if doclen:
        cols["doclen"] = pa.array(doclens, pa.int64())
    return pa.table(cols)


def _postings_from_pages(ds: rd.Dataset, out_dir: str | None,
                         drop_stopwords: bool,
                         per_lang_stopwords: bool) -> rd.Dataset:
    """build_postings' explode over an in-flight pages Dataset."""

    def explode(batch: pa.Table) -> pa.Table:
        from aspseek_ray.functions.text import stopwords_for

        stops = None
        if drop_stopwords:
            stops = ([stopwords_for(lang) for lang in batch["lang"].to_pylist()]
                     if per_lang_stopwords else [STOPWORDS_EN] * batch.num_rows)
        return _explode(fnv1a64_arrow(batch["url"]),
                        batch["text"].to_pylist(), stops)

    postings = ds.map_batches(explode, batch_format="pyarrow")
    if out_dir:
        postings.write_parquet(out_dir, partition_cols=["word_bucket"])
        return rd.read_parquet(out_dir)
    return postings


def merge_postings(postings: rd.Dataset) -> rd.Dataset:
    """Delta→main merge (O21): one row per word with doc-sorted postings.
    Grouped by word_bucket — one map_groups call per BUCKET (64 calls,
    not one per vocabulary word); the per-word merge inside is a single
    sort + numpy boundary split, no per-word pandas calls."""

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["word", "doc_seq"], kind="mergesort")
        w = g["word"].to_numpy()
        if len(w) == 0:
            return pd.DataFrame({"word": pd.Series([], dtype=object),
                                 "df": pd.Series([], dtype=np.int64),
                                 "doc_seqs": pd.Series([], dtype=object),
                                 "positions": pd.Series([], dtype=object)})
        bounds = np.nonzero(w[1:] != w[:-1])[0] + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(w)]])
        seqs = np.split(g["doc_seq"].to_numpy(), bounds)
        poss = np.split(g["positions"].to_numpy(), bounds)
        return pd.DataFrame({
            "word": w[starts],
            "df": (ends - starts).astype(np.int64),
            "doc_seqs": [s.tolist() for s in seqs],
            "positions": [p.tolist() for p in poss],
        })

    return postings.groupby("word_bucket").map_groups(
        merge_bucket, batch_format="pandas")


def _read_bucketed_postings(index_dir: str) -> rd.Dataset:
    """Read a word_bucket-partitioned postings index back with the
    partition column normalized to int32 (hive read-back yields string)."""
    ds = rd.read_parquet(index_dir)

    def norm(b: pa.Table) -> pa.Table:
        wb = b["word_bucket"]
        if not pa.types.is_integer(wb.type):
            b = b.set_column(b.schema.get_field_index("word_bucket"),
                             "word_bucket", wb.cast(pa.string()).cast(pa.int32()))
        return b.select(["word", "word_bucket", "doc_seq", "positions"])

    return ds.map_batches(norm, batch_format="pyarrow")


def _recover_index(index_dir: str) -> None:
    """Crash recovery prologue of the fold: clear the tmp files a fold
    that died left in ``.update_tmp``. An index written by the older
    bucket-swap refresh may also hold .old_bucket=K stashes (and possibly
    a missing word_bucket=K dir — that swap was stash -> rename-new ->
    rm-stash): restore any stash whose bucket dir is gone and drop the
    rest, BEFORE reading the index."""
    for stash in Path(index_dir).glob(".old_bucket=*"):
        part = Path(index_dir) / stash.name.lstrip(".").replace("old_", "word_")
        if not part.exists():
            stash.rename(part)
        else:
            shutil.rmtree(stash)
    shutil.rmtree(Path(index_dir) / ".update_tmp", ignore_errors=True)


# ------------------------------------------------------- delta staging (S7)
# The reference's real delta-file model (SURVEY S7, src/deltas.cpp role):
# small crawl rounds accumulate as STAGED delta segments next to the main
# index and are folded into it only when the staged volume justifies a
# fold; queries read main + staged segments with latest-wins masking.
# Staging and folding both follow the word-bucket partitioning: folding
# bucket k touches only bucket k's files, so a refresh costs O(delta)
# plus a doc_seq-column read of the index.

# rows one staging write task gathers before it writes: a round below
# this writes ONE file per word bucket, not one per input block
STAGE_ROWS_TARGET = 1_000_000


def _staged_round_dirs(index_dir: str) -> "list[Path]":
    d = Path(index_dir) / ".deltas"
    return sorted(d.glob("round-*")) if d.exists() else []


def _staged_postings(round_dir) -> rd.Dataset:
    """One staged round's postings; a round with no stored pages stages
    no ``postings`` dir, and reads as an empty postings Dataset."""
    if not (round_dir / "postings").exists():
        return rd.from_arrow(POSTINGS_SCHEMA.empty_table())
    return _read_bucketed_postings(str(round_dir / "postings"))


def _parquet_rows(files) -> int:
    """Total row count from parquet footers only (no data read)."""
    return sum(pq.ParquetFile(str(f)).metadata.num_rows for f in files)


def stage_delta(index_dir: str, store_path: str,
                purge_doc_seqs: "list[int] | tuple[int, ...]" = (),
                per_lang_stopwords: bool = False,
                drop_stopwords: bool = True) -> int:
    """Stage one round's delta postings WITHOUT touching the main index:
    build the round's (word, word_bucket, doc_seq, positions) postings
    into ``index_dir/.deltas/round-NNNNNN/postings`` (same bucketed
    layout as main; one file per bucket for a round below
    STAGE_ROWS_TARGET rows) plus its remove-set ``_docs.parquet``:
    fnv1a64 of every url the round stored, plus the purged doc_seqs. The
    round dir appears atomically (tmp + rename); a crash mid-stage leaves
    only an ignored tmp dir. O(round), no main index reads. A round with
    no stored pages writes no postings dir, only its purges.
    ``drop_stopwords`` is build_postings'. Returns the staged round
    number."""
    ddir = Path(index_dir) / ".deltas"
    ddir.mkdir(exist_ok=True)
    for stale in ddir.glob(".tmp-round-*"):
        shutil.rmtree(stale, ignore_errors=True)
    existing = _staged_round_dirs(index_dir)
    n = int(existing[-1].name.split("-")[1]) + 1 if existing else 0
    tmp = ddir / f".tmp-round-{n:06d}"
    build_postings(store_path, drop_stopwords=drop_stopwords,
                   per_lang_stopwords=per_lang_stopwords
                   ).write_parquet(str(tmp / "postings"),
                                   partition_cols=["word_bucket"],
                                   min_rows_per_file=STAGE_ROWS_TARGET)
    tmp.mkdir(exist_ok=True)
    # every url the round stored, so a page whose new text yields no
    # index token (no posting row) still loses its old postings
    urls = pq.read_table(store_path, columns=["url"])["url"]
    arr = np.unique(np.concatenate(
        [fnv1a64_arrow(urls),
         np.asarray(list(purge_doc_seqs), dtype=np.int64)]))
    pq.write_table(pa.table({"doc_seq": pa.array(arr, pa.int64())}),
                   tmp / "_docs.parquet")
    tmp.rename(ddir / f"round-{n:06d}")
    return n


def _mask_docs(ds: rd.Dataset, docs: np.ndarray) -> rd.Dataset:
    """Drop posting rows whose doc_seq is in ``docs`` (broadcast once
    via ray.put, vectorized np.isin per batch)."""
    if docs.size == 0:
        return ds
    ref = ray.put(docs)

    def keep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        sel = ~np.isin(b["doc_seq"].to_numpy(), ray.get(ref))
        return b.filter(pa.array(sel))

    return ds.map_batches(keep, batch_format="pyarrow")


def read_postings_with_deltas(index_dir: str) -> rd.Dataset:
    """Query-side view of main + staged delta segments with latest-wins
    semantics: main rows of any staged doc are masked, and each staged
    round is masked by the rounds after it — bitwise the same postings a
    fold (or full rebuild) would produce. Remove-sets are bounded by
    (politeness round budget x staged rounds, capped by the fold
    threshold), so the masks broadcast via ray.put; the index itself
    streams."""
    rounds = _staged_round_dirs(index_dir)
    if not rounds:
        return _read_bucketed_postings(index_dir)
    docs_per_round = [
        pq.read_table(str(r / "_docs.parquet"))["doc_seq"].to_numpy()
        for r in rounds]
    out = _mask_docs(_read_bucketed_postings(index_dir),
                     np.unique(np.concatenate(docs_per_round)))
    for i, r in enumerate(rounds):
        ds_i = _staged_postings(r)
        later = docs_per_round[i + 1:]
        if later:
            ds_i = _mask_docs(ds_i, np.unique(np.concatenate(later)))
        out = out.union(ds_i)
    return out


def _fold_bucket(index_dir: str, rounds: "list[str]", k: int) -> bool:
    """Fold every staged round into main word bucket ``k``; returns
    whether the bucket changed. Main files holding a removed doc (any
    staged round's url or purge) are rewritten filtered, or unlinked once
    empty; the rest are read for their doc_seq column only. The rounds'
    bucket-k rows, each masked by the rounds after it, are appended as
    ONE new file. Every write goes through a tmp file + os.replace."""
    docs = [pq.read_table(os.path.join(r, "_docs.parquet"))["doc_seq"]
            .to_numpy() for r in rounds]
    remove = np.concatenate(docs)
    main = Path(index_dir) / f"word_bucket={k}"
    tmp = Path(index_dir) / ".update_tmp" / f"{k}-{uuid.uuid4().hex}.parquet"
    tmp.parent.mkdir(exist_ok=True)
    changed = False
    for f in sorted(main.glob("*.parquet")):
        hit = np.isin(pq.read_table(f, columns=["doc_seq"])["doc_seq"]
                      .to_numpy(), remove)
        if not hit.any():
            continue
        changed = True
        if hit.all():
            f.unlink()
            continue
        pq.write_table(pq.read_table(f).filter(pa.array(~hit)), tmp)
        os.replace(tmp, f)

    parts = []
    for i, r in enumerate(rounds):
        files = sorted((Path(r) / "postings" / f"word_bucket={k}")
                       .glob("*.parquet"))
        if not files:
            continue
        t = pa.concat_tables(
            [pq.read_table(f, columns=["word", "doc_seq", "positions"])
             for f in files])
        if i + 1 < len(rounds):
            later = np.concatenate(docs[i + 1:])
            t = t.filter(pa.array(~np.isin(t["doc_seq"].to_numpy(), later)))
        parts.append(t)
    if sum(t.num_rows for t in parts):
        main.mkdir(exist_ok=True)
        pq.write_table(pa.concat_tables(parts), tmp)
        os.replace(tmp, main / f"delta-{uuid.uuid4().hex}.parquet")
        changed = True
    return changed


def fold_deltas(index_dir: str) -> list[int]:
    """Fold ALL staged delta segments into the main index: one Ray Data
    job over the word-bucket ids, one ``_fold_bucket`` call per bucket.
    Per doc only its LATEST staged round's rows survive, and main loses
    the old rows of every staged doc (incl. purges). Only main files
    holding a removed doc are rewritten; each changed bucket gains at
    most one file per fold — a periodic ``build_postings`` rebuild (or
    more NUM_WORD_BUCKETS) is the compaction story for long runs.

    Crash safety: ``.deltas`` is cleared only after every bucket is
    done. A re-run after a crash finds the delta files it already
    appended full of staged docs, filters them away with the rest, and
    appends the same rows again — the fold is idempotent. Returns the
    sorted ids of the buckets that changed."""
    rounds = _staged_round_dirs(index_dir)
    if not rounds:
        return []
    _recover_index(index_dir)
    dirs = list(Path(index_dir).glob("word_bucket=*"))
    for r in rounds:
        dirs.extend((r / "postings").glob("word_bucket=*"))
    buckets = sorted({int(d.name.split("=")[1]) for d in dirs})
    touched: list[int] = []
    if buckets:
        round_dirs = [str(r) for r in rounds]

        def fold(batch: pa.Table) -> pa.Table:
            ks = batch["bucket"].to_pylist()
            changed = [_fold_bucket(index_dir, round_dirs, k) for k in ks]
            return pa.table({"bucket": pa.array(ks, pa.int32()),
                             "changed": pa.array(changed, pa.bool_())})

        # one block per CPU: a Ray task costs more than folding a small
        # bucket, so each task folds its run of buckets one call apiece
        n_cpu = int(ray.cluster_resources().get("CPU", 1))
        out = (rd.from_items([{"bucket": k} for k in buckets],
                             override_num_blocks=min(len(buckets), n_cpu))
                 .map_batches(fold, batch_format="pyarrow", batch_size=1)
                 .take_all())
        touched = sorted(int(r["bucket"]) for r in out if r["changed"])
    for r in rounds:
        shutil.rmtree(r, ignore_errors=True)
    return touched


def update_postings_index_staged(
        index_dir: str, store_path: str,
        purge_doc_seqs: "list[int] | tuple[int, ...]" = (),
        fold_threshold: float = 0.1,
        per_lang_stopwords: bool = False) -> dict:
    """Incremental delta→main index refresh (S7/O21, the reference's
    real-time update, src/deltas.cpp role) of an EXISTING
    ``build_postings(out_dir=...)`` index: every page in ``store_path``
    (one crawl round: at most one fetch per url) plus ``purge_doc_seqs``
    loses its old postings and the round's rows are added. It stages
    this round's delta (O(round), no index reads), then folds the
    accumulated segments into main only when staged rows >=
    ``fold_threshold`` x main rows (both counted from parquet footers —
    no scan). fold_threshold=0 folds every round;
    fold_threshold=inf never folds (queries go through
    read_postings_with_deltas). Returns {staged_round, folded, touched,
    staged_rows, main_rows}."""
    rnd = stage_delta(index_dir, store_path, purge_doc_seqs,
                      per_lang_stopwords)
    staged_files = [f for r in _staged_round_dirs(index_dir)
                    for f in sorted((r / "postings").rglob("*.parquet"))]
    main_files = sorted(Path(index_dir).glob("word_bucket=*/*.parquet"))
    staged_rows = _parquet_rows(staged_files)
    main_rows = _parquet_rows(main_files)
    folded = staged_rows >= fold_threshold * max(main_rows, 1)
    touched = fold_deltas(index_dir) if folded else []
    return {"staged_round": rnd, "folded": folded,
            "touched": touched, "staged_rows": staged_rows,
            "main_rows": main_rows}


# ----------------------------------------------- the crawl store index
# Kept in the sibling dir <store>.index, never inside the store (every
# store reader takes all parquet under it): one gen-NNNNNN dir per
# generation, and manifest.json, a copy of the current one's manifest.
# A query reading an older generation keeps it until 3 newer ones exist.
_KEEP_GENERATIONS = 3
_REFRESH_LOCK = threading.Lock()


def store_index_manifest(store_dir: str) -> "dict | None":
    """The crawl store index's current manifest, None before the first
    refresh: ``generation``, ``dir``, the indexed ``units`` (``round=K``
    dirs, ``.`` for flat files) with their file_ids, ``n_docs``, and the
    refresh's ``plan`` (build | stage), ``reason`` and ``staged`` units."""
    p = Path(store_dir).resolve()
    try:
        return json.loads((p.parent / f"{p.name}.index" / "manifest.json")
                          .read_text())
    except FileNotFoundError:
        return None


def refresh_store_index(store_dir: str) -> str:
    """Bring the crawl store's index up to date; returns the current
    generation's dir: postings (doc_seq = fnv1a64(url)) with every word
    kept, ``docs/`` (doc_seq, url) rows and a manifest. The first
    refresh, or one that finds an indexed unit changed or gone, builds
    the whole store; new ``round=K`` units alone are staged and folded
    into a hard-linked copy of the current generation (O(delta): the
    fold's tmp + os.replace writes leave the old files as they were).
    An unchanged store costs a stat walk. Rounds are assumed to hold
    disjoint urls, as a crawl's url-seen set makes them."""
    store = Path(store_dir).resolve()
    root = store.parent / f"{store.name}.index"
    with _REFRESH_LOCK:
        man = store_index_manifest(store_dir)
        units: dict = {}
        for f in file_ids(store):
            head, _, rest = f[0].partition("/")
            units.setdefault(head if rest else ".", []).append(f)
        old = man["units"] if man else {}
        # round=9 before round=10
        new = sorted(set(units) - set(old), key=lambda u: (len(u), u))
        if man is None:
            plan, reason = "build", "no index"
        elif "." in new or any(units.get(u) != f for u, f in old.items()):
            plan, reason = "build", "changed unit"
        elif new:
            plan, reason = "stage", "new units"
        else:
            return str(root / man["dir"])
        g = man["generation"] + 1 if man else 0
        gen, tmp = root / f"gen-{g:06d}", root / f".gen-{g:06d}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        if plan == "stage":
            for d in (root / man["dir"]).iterdir():
                if d.name == "docs" or d.name.startswith("word_bucket="):
                    shutil.copytree(d, tmp / d.name, copy_function=os.link)
            for u in new:
                stage_delta(str(tmp), str(store / u), drop_stopwords=False)
            fold_deltas(str(tmp))
        else:
            new = []
            build_postings(str(store), drop_stopwords=False).write_parquet(
                str(tmp), partition_cols=["word_bucket"])
        (rd.read_parquet([str(store / u) for u in new] or str(store),
                         columns=["url"])
           .map_batches(lambda b: pa.table({
               "doc_seq": pa.array(fnv1a64_arrow(b["url"]), pa.int64()),
               "url": b["url"]}), batch_format="pyarrow")
           .write_parquet(str(tmp / "docs")))
        man = {"generation": g, "dir": gen.name, "units": units,
               "n_docs": _parquet_rows((tmp / "docs").glob("*.parquet")),
               "plan": plan, "reason": reason, "staged": new}
        (tmp / "manifest.json").write_text(json.dumps(man))
        shutil.rmtree(gen, ignore_errors=True)   # left unpublished by a crash
        tmp.rename(gen)
        (root / ".manifest.json").write_text(json.dumps(man))
        os.replace(root / ".manifest.json", root / "manifest.json")
        for d in root.glob("gen-*"):
            if int(d.name[4:]) <= g - _KEEP_GENERATIONS:
                shutil.rmtree(d, ignore_errors=True)
        return str(gen)


def clone_groups(pages_path: str) -> pa.Table:
    """Content-clone detection (O10/O23): group by body checksum; output
    one row per clone group with >= 2 members:
    (content_hash, canonical_url, n_clones)."""
    ds = rd.read_parquet(pages_path, columns=["url", "html"])

    def hash_stage(batch: pa.Table) -> pa.Table:
        return pa.table({"url": batch["url"],
                         "content_hash": pa.array(content_hash64(batch["html"]))})

    def group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("url")
        return pd.DataFrame({"content_hash": [g["content_hash"].iloc[0]],
                             "canonical_url": [g["url"].iloc[0]],
                             "n_clones": np.array([len(g)], np.int64)})

    out = (ds.map_batches(hash_stage, batch_format="pyarrow")
             .groupby("content_hash").map_groups(group, batch_format="pandas"))
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    return t.filter(pc.greater_equal(t["n_clones"], 2))


def extract_link_edges(pages_path: str) -> rd.Dataset:
    """(src, dst) canonical-url link edges from the corpus html (O26
    citation collection)."""
    ds = rd.read_parquet(pages_path, columns=["url", "html"])

    def edges(batch: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for url, html in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            base, hrefs = extract_links(html)
            eff = base or url
            seen = set()
            for h in hrefs:
                c = canonicalize(h, eff)
                if c is None or c == url or c in seen:
                    continue
                seen.add(c)
                srcs.append(url)
                dsts.append(c)
        return pa.table({"src": pa.array(srcs, pa.string()),
                         "dst": pa.array(dsts, pa.string())})

    return ds.map_batches(edges, batch_format="pyarrow")


# node count up to which pagerank broadcasts the rank vector
PAGERANK_BROADCAST_MAX_NODES = 5_000_000


def pagerank(pages_path: str, iterations: int = 10, damping: float = 0.85,
             ndigits: int = 6,
             broadcast_max_nodes: int = PAGERANK_BROADCAST_MAX_NODES) -> pa.Table:
    """Iterative PageRank over the corpus link graph (O28; reference
    src/ranks.cpp). Two physical plans behind one semantic (identical
    ranks, validated by test_pagerank_paths_agree):

    * <= broadcast_max_nodes: the rank vector is broadcast per iteration
      (ray.put) and contributions are per-batch numpy bincount partials —
      the edge set never reshuffles. Right for graphs whose rank vector
      fits comfortably in every worker (a float per node).
    * beyond: fully keyed path — no driver node list, no O(n) broadcast:
      per iteration edges ⋈ ranks (hash join on src) -> per-batch partial
      (dst, mass) -> groupby(dst) sum -> join back to the node table.
      Everything is a Dataset keyed on url; only the scalar dangling mass
      reaches the driver.

    Dangling mass is redistributed uniformly. Output (url, rank) rounded
    to ``ndigits``."""
    n = rd.read_parquet(pages_path, columns=["url"]).count()
    if n <= broadcast_max_nodes:
        return _pagerank_broadcast(pages_path, n, iterations, damping, ndigits)
    return _pagerank_joined(pages_path, n, iterations, damping, ndigits)


def _pagerank_broadcast(pages_path: str, n: int, iterations: int,
                        damping: float, ndigits: int) -> pa.Table:
    edges = extract_link_edges(pages_path).materialize()

    # node universe: all urls in pages (rank is defined over crawled docs)
    # — sorted list + url->id map built ON A WORKER (the _normalized_matrix
    # pattern): both live in the object store; the driver holds only refs
    # plus the O(n) float vectors the broadcast plan iterates on.
    @ray.remote(num_returns=2)
    def _node_index(path: str):
        ns = sorted(pq.read_table(path, columns=["url"])["url"].to_pylist())
        return pa.array(ns, pa.string()), {u: i for i, u in enumerate(ns)}

    nodes_ref, idx_ref = _node_index.remote(pages_path)

    def to_ids(batch: pa.Table) -> pa.Table:
        idx = ray.get(idx_ref)
        src = [idx.get(u, -1) for u in batch["src"].to_pylist()]
        dst = [idx.get(u, -1) for u in batch["dst"].to_pylist()]
        t = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64())})
        return t.filter(pc.and_(pc.greater_equal(t["src"], 0),
                                pc.greater_equal(t["dst"], 0)))

    id_edges = edges.map_batches(to_ids, batch_format="pyarrow").materialize()

    # out-degree per node: distributed count, O(n) result
    deg = np.zeros(n, dtype=np.int64)
    degp = (id_edges.groupby("src").aggregate(Count(alias_name="c"))).to_pandas()
    if len(degp):
        deg[degp["src"].to_numpy()] = degp["c"].to_numpy()

    ranks = np.full(n, 1.0 / n)
    deg_safe = np.maximum(deg, 1)
    for _ in range(iterations):
        state_ref = ray.put(ranks / deg_safe)

        def contrib(batch: pa.Table) -> pa.Table:
            w = ray.get(state_ref)
            dst = batch["dst"].to_numpy()
            src = batch["src"].to_numpy()
            acc = np.bincount(dst, weights=w[src], minlength=0)
            nz = np.nonzero(acc)[0]
            return pa.table({"node": pa.array(nz.astype(np.int64)),
                             "mass": pa.array(acc[nz])})

        parts = id_edges.map_batches(contrib, batch_format="pyarrow")
        agg = parts.groupby("node").aggregate(Sum("mass", alias_name="mass")).to_pandas()
        incoming = np.zeros(n)
        incoming[agg["node"].to_numpy()] = agg["mass"].to_numpy()
        dangling = ranks[deg == 0].sum()
        ranks = (1 - damping) / n + damping * (incoming + dangling / n)

    return pa.table({"url": ray.get(nodes_ref),
                     "rank": pa.array(np.round(ranks, ndigits))})


def _pagerank_joined(pages_path: str, n: int, iterations: int,
                     damping: float, ndigits: int,
                     num_partitions: int | None = None) -> pa.Table:
    """Keyed-join PageRank — no driver node list, no O(n) broadcast."""
    out = _pagerank_joined_ds(pages_path, n, iterations, damping, ndigits,
                              num_partitions)
    t = pa.concat_tables(ray.get(out.materialize().to_arrow_refs()))
    return t.sort_by("url")


def _pagerank_joined_ds(pages_path: str, n: int, iterations: int,
                        damping: float, ndigits: int,
                        num_partitions: int | None = None) -> rd.Dataset:
    """Keyed-join PageRank body returning the (url, rank) Dataset — the
    collected variant above is a thin wrapper; ensure_ranks writes the
    Dataset straight to parquet."""
    if num_partitions is None:
        num_partitions = join_partitions(16)
    nodes = rd.read_parquet(pages_path, columns=["url"])

    # edges restricted to crawled nodes on both endpoints (semi joins)
    raw = extract_link_edges(pages_path)
    src_nodes = nodes.map_batches(
        lambda b: pa.table({"src": b["url"]}), batch_format="pyarrow")
    dst_nodes = nodes.map_batches(
        lambda b: pa.table({"dst": b["url"]}), batch_format="pyarrow")
    edges = (raw.join(src_nodes, join_type="left_semi",
                      num_partitions=num_partitions, on=("src",))
                .join(dst_nodes, join_type="left_semi",
                      num_partitions=num_partitions, on=("dst",))
                .materialize())

    deg = edges.groupby("src").aggregate(Count(alias_name="out_deg"))
    base = (nodes.map_batches(lambda b: pa.table({"src": b["url"]}),
                              batch_format="pyarrow")
                 .join(deg, join_type="left_outer",
                       num_partitions=num_partitions, on=("src",))
                 .map_batches(lambda b: pa.table({
                     "url": b["src"],
                     "out_deg": pc.fill_null(b["out_deg"].cast(pa.int64()), 0)}),
                     batch_format="pyarrow")
                 .materialize())  # (url, out_deg) — the per-iteration spine

    rank0 = 1.0 / n
    ranks = base.map_batches(
        lambda b: b.append_column(
            "rank", pa.array(np.full(b.num_rows, rank0))),
        batch_format="pyarrow").materialize()

    for _ in range(iterations):
        dangling = (ranks.map_batches(
            lambda b: pa.table({"d": pa.array([float(
                pc.sum(pc.if_else(pc.equal(b["out_deg"], 0), b["rank"],
                                  pa.scalar(0.0))).as_py() or 0.0)])}),
            batch_format="pyarrow").sum("d"))

        weights = ranks.map_batches(
            lambda b: pa.table({
                "src": b["url"],
                "w": pc.divide(b["rank"],
                               pc.max_element_wise(
                                   b["out_deg"].cast(pa.float64()), 1.0))}),
            batch_format="pyarrow")
        mass = (edges.join(weights, join_type="inner",
                           num_partitions=num_partitions, on=("src",))
                     .map_batches(lambda b: pa.table({"url": b["dst"],
                                                      "mass": b["w"]}),
                                  batch_format="pyarrow")
                     .groupby("url").aggregate(Sum("mass", alias_name="mass")))
        add = (1 - damping) / n + damping * dangling / n

        def apply_rank(b: pa.Table, add=add) -> pa.Table:
            m = pc.fill_null(b["mass"].cast(pa.float64()), 0.0)
            rank = pc.add(pc.multiply(m, pa.scalar(damping)), pa.scalar(add))
            return pa.table({"url": b["url_r"] if "url_r" in b.schema.names
                             else b["url"],
                             "out_deg": b["out_deg"], "rank": rank})

        ranks = (base.map_batches(lambda b: pa.table({"url": b["url"],
                                                      "out_deg": b["out_deg"]}),
                                  batch_format="pyarrow")
                     .join(mass, join_type="left_outer",
                           num_partitions=num_partitions, on=("url",))
                     .map_batches(apply_rank, batch_format="pyarrow")
                     .materialize())

    return ranks.map_batches(
        lambda b: pa.table({"url": b["url"],
                            "rank": pc.round(b["rank"], ndigits=ndigits)}),
        batch_format="pyarrow")


def crawl_status_stats(trace: pa.Table) -> pa.Table:
    """`index -S` status counters (O29) over a crawl trace table."""
    ds = rd.from_arrow(trace.select(["status"]))
    out = ds.groupby("status").aggregate(Count(alias_name="n")).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def host_stats(trace: pa.Table) -> pa.Table:
    """Per-host fetch counters (O29): (host, n_fetched, n_ok)."""
    ds = rd.from_arrow(trace.select(["host", "status"]))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("host", as_index=False).agg(
            n_fetched=("status", "size"),
            n_ok=("status", lambda s: int((s == 200).sum())))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("host")
             .aggregate(Sum("n_fetched", alias_name="n_fetched"),
                        Sum("n_ok", alias_name="n_ok"))).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def _anchor_rows_ds(pages_path: str) -> rd.Dataset:
    """Lazy (word, url) anchor-occurrence rows — the shared extraction
    stage of anchor_postings (collected Table) and ensure_anchor_index
    (partitioned on-disk index)."""
    from aspseek_ray.functions.html import extract_anchors
    from aspseek_ray.functions.text import tokenize
    from aspseek_ray.functions.url import canonicalize

    ds = rd.read_parquet(pages_path, columns=["url", "html"])

    def rows(batch: pa.Table) -> pa.Table:
        words, urls = [], []
        for url, html in zip(batch["url"].to_pylist(),
                             batch["html"].to_pylist()):
            base, pairs = extract_anchors(html)
            eff = base or url
            seen: set[str] = set()
            for href, atext in pairs:
                c = canonicalize(href, eff)
                if c is None or c == url or c in seen:
                    continue
                seen.add(c)
                for w in set(tokenize(atext)):
                    words.append(w)
                    urls.append(c)
        return pa.table({"word": pa.array(words, pa.string()),
                         "url": pa.array(urls, pa.string())})

    return ds.map_batches(rows, batch_format="pyarrow")


def anchor_postings(pages_path: str) -> pa.Table:
    """Anchor-text ("link word") index — the reference indexes the words of
    each link's visible text against the TARGET url (SURVEY O26 citation
    collection, src/hrefs.cpp): rows (word, url, n_refs) where n_refs
    counts source pages whose deduped link to ``url`` carries ``word`` in
    its anchor. Anchor edges follow extract_link_edges semantics exactly
    (canonicalize against <base>-or-self, skip self-links, first
    DOCUMENT-ORDER occurrence wins per (src, dst)); tokens are the standard
    tokenizer's. One map_batches over html + one (word, url) groupby —
    anchor text is tiny relative to pages, so the shuffle moves words, not
    documents."""
    agg = (_anchor_rows_ds(pages_path)
             .groupby(["word", "url"]).aggregate(Count(alias_name="n_refs")))
    out = agg.to_pandas().sort_values(["word", "url"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def ensure_anchor_index(pages_path: str) -> str:
    """Build (once, disk-cached by source identity) the word_bucket-
    partitioned ANCHOR index for a pages table: the anchor_postings rows
    (word, word_bucket, url, n_refs) written as parquet partitioned by
    word_bucket — so an anchor-boosted query reads only its terms'
    partitions, exactly like the body postings index. Same atomic
    rename-into-place protocol as the search-side index builds."""
    def build(tmp: Path) -> None:
        # fully distributed: anchor rows -> one (word, url) groupby ->
        # bucket stamp -> partitioned write; the aggregated index never
        # touches the driver (anchor_postings' collected-Table form is the
        # oracle surface, not the build path)
        agg = _anchor_rows_ds(pages_path).groupby(["word", "url"]).aggregate(
            Count(alias_name="n_refs"))

        def stamp(batch: pa.Table) -> pa.Table:
            bucket = (np.abs(fnv1a64_arrow(batch["word"].combine_chunks()))
                      % NUM_WORD_BUCKETS)
            return batch.append_column("word_bucket",
                                       pa.array(bucket.astype(np.int32)))

        (agg.map_batches(stamp, batch_format="pyarrow")
            .write_parquet(str(tmp), partition_cols=["word_bucket"]))

    return cached_build("/tmp/aspseek_ray_anchor_idx", pages_path,
                        "anchor1", build)


# the PageRank parameters of the cached rank table: pagerank's defaults
# (iterations, damping, ndigits), part of the cache key
_RANK_PARAMS = (10, 0.85, 6)


def ensure_ranks(pages_path: str) -> str:
    """Build (once, disk-cached by source identity) the PageRank table of
    a pages table: (url, rank) parquet rows plus a ``_manifest.json``
    recording ``n_nodes`` (the pages row count). Ranks depend on the
    pages alone, so — like the reference, which computes them at index
    time (src/ranks.cpp, `index -R`) and lets searchd read them — ranked
    search reads this table instead of iterating over the link graph on
    every query. Built lazily by the first query that needs it; the
    keyed plan's Dataset is written straight to parquet, so nothing
    O(nodes) is collected on the driver. Same atomic rename-into-place
    protocol as ensure_anchor_index."""
    def build(tmp: Path) -> None:
        n = rd.read_parquet(pages_path, columns=["url"]).count()
        if n <= PAGERANK_BROADCAST_MAX_NODES:
            ranks = rd.from_arrow(pagerank(pages_path, *_RANK_PARAMS))
        else:
            ranks = _pagerank_joined_ds(pages_path, n, *_RANK_PARAMS)
        ranks.write_parquet(str(tmp))
        (tmp / "_manifest.json").write_text(json.dumps({"n_nodes": n}))

    tag = "ranks1:" + ":".join(map(str, _RANK_PARAMS))
    return cached_build("/tmp/aspseek_ray_ranks", pages_path, tag, build)
