"""Search-side query core (SURVEY.md §3.2 searchd: src/qparser.cpp /
src/search.cpp / src/results.cpp — boolean & phrase matching over postings,
tf·idf-flavored ranking, top-k), with exact DuckDB oracles.

Every query READS AN INDEX, never the raw text. Two indexes share one
format (index_products._explode rows (word, word_bucket, doc_seq,
positions), parquet-partitioned by word_bucket) and one set of readers
(_term_postings, _term_postings_ds, _ast_plan, _vocab_scan), each taking
an index dir:

  * the documents index (_ensure_doc_postings, doc_seq = doc_id, plus
    doclen) behind the sf_dir queries, built once per documents table
    and cached on disk keyed by the source file's identity;
  * the crawl store index (index_products.refresh_store_index, doc_seq
    = fnv1a64(url), plus a doc_seq -> url table) behind
    ranked_crawl_search, anchor_boosted_search and the searchd daemon,
    kept beside the store: built by the first query, then refreshed by
    staging and folding only the rounds added since (the delta/main
    merge of SURVEY O21).

A query touches only its terms' bucket partitions (word-pruned row
filter inside), so its cost follows its posting lists, not the corpus.
Both indexes keep every word (the query layer decides).

A read whose rows all end up on the driver is one in-process
pyarrow.dataset scan (_term_postings, _vocab_scan, _doc_table and
excerpts for given urls), so a driver-plan query over built index
products starts no Ray Data job. Ray Data reads the plans whose rows do
not all reach the driver (_term_postings_ds) and builds the products.

Pinned semantics (tokenizer = functions/text.py::tokenize):
  * boolean AND: doc contains every term; OR: any term; NOT: include term
    present and exclude term absent (qparser.cpp boolean grammar, O27);
  * phrase "w1 w2": exists position p with token[p]==w1, token[p+1]==w2
    (reference phrase-position check, O27);
  * wildcards w* / *w: expanded against the index vocabulary first;
  * ranked: score(d) = sum_t tf(t,d) * ln(N / df(t)) over the query terms,
    tf = |positions|, top-k by (score desc, doc_id) — the df-weighted
    scoring role of src/search.cpp (O24/O30).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from aspseek_ray.functions.hashing import fnv1a64, fnv1a64_arrow
from aspseek_ray.pipelines.index_products import NUM_WORD_BUCKETS
from aspseek_ray.runtime import build_once, cached_build

DEFAULT_PHRASE = ("scan", "slow")
DEFAULT_TERMS = ("spark", "window", "scan")


# ------------------------------------------------------------- index build
def _ensure_doc_postings(sf_dir: str) -> str:
    """Build (once, disk-cached by source identity) the word_bucket-
    partitioned postings index for the documents table: rows
    (word, word_bucket, doc_seq=doc_id, positions, doclen). No stopword
    dropping — the query layer decides. Returns the index dir; its
    manifest holds n_docs and total_tokens."""
    doc_path = f"{sf_dir}/documents.parquet"
    # :v2 — format bump: posting rows now carry the doc's token count
    # (doclen, the Lucene-norms denormalization BM25 needs) and the
    # manifest records total_tokens for avgdl.
    return cached_build("/tmp/aspseek_ray_postings", doc_path, "v2",
                        lambda build: _build_doc_postings(doc_path, build))


def _build_doc_postings(doc_path: str, build: Path) -> None:
    from aspseek_ray.pipelines.index_products import _explode

    ds = rd.read_parquet(doc_path, columns=["doc_id", "text"])
    n_docs = ds.count()
    # doclen: the denormalized per-doc token count (Lucene keeps the same
    # per-doc norm beside every posting) lets BM25's length normalization
    # run embarrassingly parallel over posting rows instead of joining a
    # corpus-sized doclen table.
    (ds.map_batches(lambda b: _explode(b["doc_id"].to_numpy(),
                                       b["text"].to_pylist(), None,
                                       doclen=True),
                    batch_format="pyarrow")
       .write_parquet(str(build), partition_cols=["word_bucket"]))
    # total corpus tokens (for BM25 avgdl): every token occurrence sits in
    # exactly one positions list, so a column-pruned scan of the freshly
    # written index sums them without re-tokenizing or shuffling.
    built = sorted(str(f) for f in build.glob("word_bucket=*/*.parquet"))
    total_tokens = 0
    if built:
        total_tokens = int(
            rd.read_parquet(built, columns=["positions"])
              .map_batches(lambda b: pa.table({"n": pa.array(
                  [pc.sum(pc.list_value_length(b["positions"])).as_py() or 0],
                  pa.int64())}), batch_format="pyarrow")
              .sum("n") or 0)
    (build / "manifest.json").write_text(
        json.dumps({"n_docs": n_docs, "total_tokens": total_tokens}))


def _doc_table(idx: str, seqs=None, rdir: str | None = None) -> pa.Table:
    """(doc_seq, url[, rank]) rows of a store index's docs sorted by
    doc_seq: only the docs in ``seqs`` when given; ``rank`` from the
    ensure_ranks table ``rdir`` (0.0 for a url it lacks)."""
    files = sorted(str(f) for f in (Path(idx) / "docs").glob("*.parquet"))
    t = pa.table({"doc_seq": pa.array([], pa.int64()),
                  "url": pa.array([], pa.string())})
    if files:
        flt = (None if seqs is None else
               pc.field("doc_seq").isin(pa.array(list(seqs), pa.int64())))
        t = pads.dataset(files, format="parquet").to_table(
            columns=["doc_seq", "url"], filter=flt)
    if rdir is not None:
        ranks = pads.dataset(rdir, format="parquet").to_table(
            columns=["url", "rank"],
            filter=pc.field("url").isin(t["url"].combine_chunks()))
        t = t.join(ranks, "url", join_type="left outer")
        t = t.set_column(t.schema.get_field_index("rank"), "rank",
                         pc.fill_null(t["rank"].cast(pa.float64()), 0.0))
    return t.sort_by("doc_seq")


# one worker builds the url (and rank) lookup of a distributed plan; its
# batches probe it by doc_seq instead of a shuffle join
_doc_table_task = ray.remote(_doc_table)


def _ensure_stem_forms(pdir: str) -> str:
    """Materialize (once, beside the index) the stem -> surface-forms
    sidecar the stemmed_search docstring promises: rows (stem,
    stem_bucket, word) over the DISTINCT vocabulary, parquet-partitioned
    by stem_bucket — so a stemmed query reads only its stems' partitions
    instead of sweeping the whole vocabulary. Built lazily from an
    existing postings dir (covers caches created before this sidecar
    existed); atomic rename-into-place like the postings build."""
    return str(build_once(Path(pdir) / "stem_forms",
                          lambda build: _build_stem_forms(pdir, build)))


def _build_stem_forms(pdir: str, build: Path) -> None:
    from ray.data.aggregate import Count

    from aspseek_ray.functions.morphology import stem

    files = sorted(str(f) for f in Path(pdir).glob("word_bucket=*/*.parquet"))
    vocab = (rd.read_parquet(files, columns=["word"])
               .groupby("word").aggregate(Count(alias_name="_c")))

    def to_forms(batch: pa.Table) -> pa.Table:
        words = batch["word"].to_pylist()
        sarr = pa.array([stem(w) for w in words], pa.string())
        bucket = np.abs(fnv1a64_arrow(sarr)) % NUM_WORD_BUCKETS
        return pa.table({"stem": sarr,
                         "stem_bucket": pa.array(bucket.astype(np.int32)),
                         "word": batch["word"]})

    (vocab.map_batches(to_forms, batch_format="pyarrow")
          .write_parquet(str(build), partition_cols=["stem_bucket"]))


# Posting-row budget above which the set algebra leaves the driver: below
# it the query assembles on the driver (the searchd model — right for any
# human-facing query over rare-to-moderate terms); above it (a Zipf-head
# term at corpus scale — the index keeps stopwords by design) membership is
# computed as distributed Dataset algebra and the driver only receives the
# final result rows.
DRIVER_MAX_POSTING_ROWS = 2_000_000


def _index_manifest(pdir: str) -> dict:
    return json.loads((Path(pdir) / "manifest.json").read_text())


def _term_files(pdir: str, terms: tuple[str, ...]) -> list[str]:
    """The parquet files of the terms' word_bucket partitions of the
    index ``pdir`` (the searchd cache.cpp role: a query touches only its
    terms' buckets, so its cost follows its posting lists)."""
    paths = []
    for b in sorted({int(np.abs(fnv1a64(w)) % NUM_WORD_BUCKETS)
                     for w in terms}):
        d = Path(pdir) / f"word_bucket={b}"
        if d.exists():
            paths.extend(sorted(str(f) for f in d.glob("*.parquet")))
    return paths


def _term_postings_ds(pdir: str, terms: tuple[str, ...],
                      columns: tuple[str, ...] = ("word", "doc_seq",
                                                  "positions"),
                      ) -> "rd.Dataset | None":
    """Lazy pruned posting fetch from the index ``pdir`` for the
    distributed plans: a Dataset over ONLY the terms' word_bucket
    partitions with a word-pruned row filter. None when no bucket
    exists."""
    paths = _term_files(pdir, terms)
    if not paths:
        return None
    return rd.read_parquet(paths, columns=list(columns),
                           filter=pc.field("word").isin(list(terms)))


_EMPTY_POSTINGS = {"word": pa.array([], pa.string()),
                   "doc_seq": pa.array([], pa.int64()),
                   "positions": pa.array([], pa.list_(pa.int32()))}


def _collect(ds: "rd.Dataset | None") -> pa.Table:
    """Driver-side posting fetch (small-query path): one Arrow table of
    a pruned posting Dataset's rows."""
    if ds is None:
        return pa.table(_EMPTY_POSTINGS)
    parts = [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table(_EMPTY_POSTINGS)
    return pa.concat_tables(parts).combine_chunks()


def _term_postings(pdir: str, terms: tuple[str, ...],
                   columns: tuple[str, ...] = ("word", "doc_seq",
                                               "positions")) -> pa.Table:
    """The terms' posting rows of the index ``pdir``, read on the driver
    by one in-process scan of their bucket files (every row ends up on
    the driver, so a Ray Data job would only add its start-up)."""
    paths = _term_files(pdir, terms)
    if not paths:
        return pa.table({c: _EMPTY_POSTINGS.get(c, pa.array([], pa.null()))
                         for c in columns})
    return pads.dataset(paths, format="parquet").to_table(
        columns=list(columns), filter=pc.field("word").isin(list(terms)))


# ---------------------------------------------- distributed set algebra
def _phrase_nodes(node) -> list:
    """Every distinct Phrase node in an AST, in first-appearance order."""
    from aspseek_ray.pipelines.qparser import And, Not, Or, Phrase

    out: list = []

    def walk(n):
        if isinstance(n, Phrase):
            if n not in out:
                out.append(n)
        elif isinstance(n, Not):
            walk(n.child)
        elif isinstance(n, (And, Or)):
            for c in n.children:
                walk(c)

    walk(node)
    return out


def _sym_truth(node, have: frozenset, sym_of) -> bool:
    """Evaluate an AST given the set of present symbols (term words +
    phrase sentinel symbols) of one document — the per-doc dual of
    qparser._eval's global set algebra (equivalent because the validated
    grammar guarantees every match contains >=1 positive leaf, so every
    matching doc has at least one posting row and is seen)."""
    from aspseek_ray.pipelines.qparser import And, Not, Or, Phrase, Term

    if isinstance(node, Term):
        return node.word in have
    if isinstance(node, Phrase):
        return sym_of[node] in have
    if isinstance(node, Not):
        return not _sym_truth(node.child, have, sym_of)
    if isinstance(node, And):
        return all(_sym_truth(c, have, sym_of) for c in node.children)
    return any(_sym_truth(c, have, sym_of) for c in node.children)


def _eval_ast_distributed(ds: "rd.Dataset", ast) -> "rd.Dataset":
    """Distributed boolean/phrase evaluation over a pruned posting
    Dataset: per-doc symbol presence is folded into a 63-bit mask —
    each (word, doc) posting row is globally unique by construction of
    the index build, and each phrase sentinel is emitted once per
    matching doc, so Sum(bit) == bitwise OR — with per-batch partial
    combination before the one groupby(doc_seq) shuffle; the AST truth
    table is then applied vectorized over the handful of distinct masks.
    The driver never touches a posting row. Returns a (doc_id) Dataset
    (unsorted; callers sort/collect as their API requires)."""
    from ray.data.aggregate import Sum

    from aspseek_ray.pipelines.qparser import leaf_terms

    words = sorted(leaf_terms(ast))
    phrases = _phrase_nodes(ast)
    sym_of = {p: f"\x00p{i}" for i, p in enumerate(phrases)}
    syms = words + [sym_of[p] for p in phrases]
    if len(syms) > 63:
        raise ValueError("query has more than 63 distinct terms/phrases")
    bit_of = {s: np.int64(1) << np.int64(i) for i, s in enumerate(syms)}

    def term_rows(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_seq", "word"]).rename_columns(
            ["doc_seq", "sym"])

    rows = ds.map_batches(term_rows, batch_format="pyarrow")

    if phrases:
        pw = sorted({w for p in phrases for w in p.words})
        plist = [(sym_of[p], tuple(p.words)) for p in phrases]

        def keep_phrase_words(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.field("word").isin(pw))

        def check(g: pd.DataFrame) -> pa.Table:
            pos_of = {w: np.asarray(ps, np.int64)
                      for w, ps in zip(g["word"], g["positions"])}
            hit = []
            for sym, ws in plist:
                if not all(w in pos_of for w in ws):
                    continue
                if len(ws) == 1:
                    hit.append(sym)
                    continue
                starts = pos_of[ws[0]]
                for i, w in enumerate(ws[1:], start=1):
                    starts = starts[np.isin(starts + i, pos_of[w])]
                    if starts.size == 0:
                        break
                else:
                    hit.append(sym)
            d = int(g["doc_seq"].iloc[0])
            return pa.table({
                "doc_seq": pa.array(np.full(len(hit), d, dtype=np.int64)),
                "sym": pa.array(hit, pa.string())})

        phrase_rows = (ds.map_batches(keep_phrase_words,
                                      batch_format="pyarrow")
                         .groupby("doc_seq")
                         .map_groups(check, batch_format="pandas"))
        rows = rows.union(phrase_rows)

    def mask_partial(df: pd.DataFrame) -> pa.Table:
        bits = df["sym"].map(bit_of).astype(np.int64)
        part = (pd.DataFrame({"doc_seq": df["doc_seq"], "m": bits})
                .groupby("doc_seq", as_index=False)["m"].sum())
        return pa.table({
            "doc_seq": pa.array(part["doc_seq"].to_numpy(), pa.int64()),
            "m": pa.array(part["m"].to_numpy(), pa.int64())})

    masks = (rows.map_batches(mask_partial, batch_format="pandas")
                 .groupby("doc_seq").aggregate(Sum("m", alias_name="m")))

    def apply_truth(batch: pa.Table) -> pa.Table:
        m = batch["m"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(m, return_inverse=True)
        ok = np.zeros(len(uniq), dtype=bool)
        for i, mv in enumerate(uniq):
            have = frozenset(s for s, b in bit_of.items() if int(mv) & int(b))
            ok[i] = _sym_truth(ast, have, sym_of)
        keep = ok[inv]
        return pa.table({"doc_id": batch["doc_seq"].filter(pa.array(keep))})

    return masks.map_batches(apply_truth, batch_format="pyarrow")


def _eval_driver(post: pa.Table, ast) -> np.ndarray:
    """Sorted doc ids matching ``ast`` over a term-postings table: numpy
    set algebra and the phrase position check (qparser._eval)."""
    from aspseek_ray.pipelines.qparser import _eval

    pos_of: dict[tuple[str, int], np.ndarray] = {}
    docs_of: dict[str, list[int]] = {}
    for w, d, ps in zip(post["word"].to_pylist(), post["doc_seq"].to_pylist(),
                        post["positions"].to_pylist()):
        pos_of[(w, d)] = np.asarray(ps, np.int64)
        docs_of.setdefault(w, []).append(d)
    sets = {w: np.sort(np.asarray(dl, np.int64)) for w, dl in docs_of.items()}
    return np.sort(_eval(ast, pos_of, sets))


def _ast_plan(pdir: str, ast,
              driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
              ) -> pa.Table:
    """Unified two-plan boolean/phrase query over the index ``pdir``:
    one pruned posting fetch for all leaf terms, then EITHER driver-side
    numpy set algebra (_eval_driver — posting rows fit the driver
    budget) OR the distributed bitmask plan above it. Plans are
    semantically identical (proven equal in tests/test_search_scale.py).
    Returns (doc_id) sorted ascending."""
    from aspseek_ray.pipelines.qparser import leaf_terms

    ds = _term_postings_ds(pdir, tuple(sorted(leaf_terms(ast))))
    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    if ds is None:
        return empty
    ds = ds.materialize()
    if ds.count() > driver_max_posting_rows:
        out = _eval_ast_distributed(ds, ast).sort("doc_id")
        parts = [t for t in ray.get(out.materialize().to_arrow_refs()) if t.num_rows]
        return (pa.concat_tables(parts).combine_chunks()
                if parts else empty)
    return pa.table({"doc_id": pa.array(_eval_driver(_collect(ds), ast),
                                        pa.int64())})


# ------------------------------------------------------------------ queries
def phrase_search(sf_dir: str,
                  phrase: tuple[str, ...] = DEFAULT_PHRASE,
                  driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                  ) -> pa.Table:
    """doc_ids whose token stream contains the n-word phrase contiguously —
    postings-positions check: intersect the terms' doc-sorted lists, then
    require a position p with word_i at p+i for every i (reference phrase
    operator, qparser.cpp n-word phrases). Two physical plans behind the
    posting-row size switch (_ast_plan)."""
    from aspseek_ray.pipelines.qparser import Phrase

    words = tuple(phrase)
    assert len(words) >= 2
    return _ast_plan(_ensure_doc_postings(sf_dir), Phrase(words),
                     driver_max_posting_rows)


def boolean_and_search(sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS,
                       driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                       ) -> pa.Table:
    """doc_ids containing EVERY query term — posting-list AND intersection
    (O27); driver numpy set algebra below the posting-row switch,
    distributed bitmask plan above it."""
    from aspseek_ray.pipelines.qparser import And, Term

    uniq = tuple(dict.fromkeys(terms))
    ast = Term(uniq[0]) if len(uniq) == 1 else And(tuple(Term(t) for t in uniq))
    return _ast_plan(_ensure_doc_postings(sf_dir), ast,
                     driver_max_posting_rows)


def boolean_or_search(sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS,
                      driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                      ) -> pa.Table:
    """doc_ids containing ANY query term — posting-list OR union (O27,
    qparser.cpp boolean grammar); dual physical plans as
    boolean_and_search."""
    from aspseek_ray.pipelines.qparser import Or, Term

    uniq = tuple(dict.fromkeys(terms))
    ast = Term(uniq[0]) if len(uniq) == 1 else Or(tuple(Term(t) for t in uniq))
    return _ast_plan(_ensure_doc_postings(sf_dir), ast,
                     driver_max_posting_rows)


def boolean_not_search(sf_dir: str, include: str = "spark",
                       exclude: str = "window",
                       driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                       ) -> pa.Table:
    """doc_ids containing ``include`` but NOT ``exclude`` — posting-list
    difference (O27 NOT operator); dual physical plans as
    boolean_and_search."""
    from aspseek_ray.pipelines.qparser import And, Not, Term

    ast = And((Term(include), Not(Term(exclude))))
    return _ast_plan(_ensure_doc_postings(sf_dir), ast,
                     driver_max_posting_rows)


def stemmed_search(sf_dir: str,
                   terms: tuple[str, ...] = ("scanned", "windows")) -> pa.Table:
    """Morphology-expanded boolean AND (O13 + O27; reference: ispell form
    expansion at query time, src/spell.cpp role): a doc matches if, for
    EVERY query term, it contains some token with the same Porter stem.
    The stem -> surface-forms table is materialized ONCE beside the index
    (_ensure_stem_forms, stem_bucket-partitioned); a query reads only its
    stems' partitions — no per-query vocabulary sweep — then the normal
    pruned posting fetch runs on the matched forms."""
    from aspseek_ray.functions.morphology import stem

    pdir = _ensure_doc_postings(sf_dir)
    want = {stem(t) for t in terms}
    sdir = _ensure_stem_forms(pdir)
    buckets = sorted({int(np.abs(fnv1a64(s)) % NUM_WORD_BUCKETS)
                      for s in want})
    paths = []
    for b in buckets:
        d = Path(sdir) / f"stem_bucket={b}"
        if d.exists():
            paths.extend(sorted(str(f) for f in d.glob("*.parquet")))
    if paths:
        vt = rd.read_parquet(paths, columns=["stem", "word"],
                             filter=pc.field("stem").isin(list(want)))
        parts = [t for t in ray.get(vt.materialize().to_arrow_refs()) if t.num_rows]
    else:
        parts = []
    forms = pa.concat_tables(parts or
                             [pa.table({"stem": pa.array([], pa.string()),
                                        "word": pa.array([], pa.string())})])
    stem_of = dict(zip(forms["word"].to_pylist(), forms["stem"].to_pylist()))
    if set(stem_of.values()) != want:       # some stem has no surface form
        return pa.table({"doc_id": pa.array([], pa.int64())})
    from aspseek_ray.pipelines.qparser import And, Or, Term

    forms_of: dict[str, list[str]] = {}
    for w in sorted(stem_of):
        forms_of.setdefault(stem_of[w], []).append(w)
    groups = tuple(
        Term(fs[0]) if len(fs) == 1 else Or(tuple(Term(f) for f in fs))
        for s, fs in sorted(forms_of.items()))
    ast = groups[0] if len(groups) == 1 else And(groups)
    return _ast_plan(pdir, ast)


def ispell_search(sf_dir: str, word: str, affix_text: str,
                  dict_text: str) -> pa.Table:
    """Dictionary-morphology search (O13 query-side expansion with a REAL
    ispell affix dictionary; reference: src/spell.cpp LoadIspell +
    src/affix.cpp): reduce ``word`` to its dictionary root, expand the
    root to every surface form its flags generate, and return docs
    containing ANY form — a boolean OR over the postings index. Unknown
    words search as themselves. The affix/dict expansion is
    dictionary-sized state: at crawl scale, build the reducer once and
    ray.put it (the robots/redirects dim-table pattern)."""
    from aspseek_ray.functions.ispell import (
        IspellReducer, expand_root, parse_affix_file, parse_dict_file)

    rules = parse_affix_file(affix_text)
    # Merge flags per root: duplicate dictionary roots with different flag
    # sets ('scan/S' + 'scan/DG') are legal ispell and must expand the
    # UNION of their forms, matching IspellReducer.from_strings.
    flags_of: dict[str, str] = {}
    for r, f in parse_dict_file(dict_text):
        flags_of[r] = flags_of.get(r, "") + f
    red = IspellReducer.from_strings(affix_text, dict_text)
    root = red(word)
    forms = expand_root(root, flags_of.get(root, ""), rules)
    return boolean_or_search(sf_dir, tuple(sorted(forms)))


def _scored_rows(post: pa.Table, terms: tuple[str, ...],
                 adm: "np.ndarray | None") -> pa.Table:
    """(doc_seq, term, tf = |positions|) rows of a term-postings table:
    the scored ``terms`` only, in the docs of ``adm`` (every doc when
    None) — the scoring input of both plans."""
    keep = pc.is_in(post["word"], value_set=pa.array(terms, pa.string()))
    if adm is not None:
        keep = pc.and_(keep, pa.array(np.isin(post["doc_seq"].to_numpy(), adm)))
    post = post.filter(keep)
    return pa.table({"doc_seq": post["doc_seq"], "term": post["word"],
                     "tf": pc.list_value_length(post["positions"])
                             .cast(pa.int64())})


def _body_weights(idx: str, leaf: tuple[str, ...], terms: tuple[str, ...],
                  ast, n_docs: int) -> pd.Series:
    """Driver plan: w(doc) = sum_t tf*ln(N/df) over the scored ``terms``
    in the docs matching ``ast`` (every doc holding a term when None),
    df counted over those docs; a Series indexed by doc_seq."""
    post = _term_postings(idx, leaf)
    adm = _eval_driver(post, ast) if ast is not None else None
    rows = _scored_rows(post, terms, adm).to_pandas()
    idf = {t: math.log(n_docs / d)
           for t, d in rows.groupby("term").size().items()}
    rows["w"] = rows["tf"] * rows["term"].map(idf).astype(np.float64)
    return rows.groupby("doc_seq")["w"].sum()


def _body_weights_ds(idx: str, leaf: tuple[str, ...], terms: tuple[str, ...],
                     ast, n_docs: int) -> "rd.Dataset | None":
    """Distributed plan of _body_weights: (doc_seq, w) rows, or None when
    no doc holds a term. The docs matching ``ast`` come from
    _eval_ast_distributed and reach the batches as a sorted doc-id array
    reduced on a worker, so no join runs."""
    from ray.data.aggregate import Count, Sum

    from aspseek_ray.runtime import unique_keys_ref

    ds = _term_postings_ds(idx, leaf)
    if ds is None:
        return None
    adm = (None if ast is None
           else unique_keys_ref(_eval_ast_distributed(ds, ast), "doc_id"))
    tf = ds.map_batches(
        lambda b: _scored_rows(b, terms, None if adm is None else ray.get(adm)),
        batch_format="pyarrow").materialize()
    dfp = tf.groupby("term").aggregate(Count(alias_name="df")).to_pandas()
    if not len(dfp):
        return None
    idf = {t: math.log(n_docs / d) for t, d in zip(dfp["term"], dfp["df"])}

    def weigh(b: pa.Table) -> pa.Table:
        w = b["tf"].to_numpy().astype(np.float64) * np.array(
            [idf[t] for t in b["term"].to_pylist()])
        return pa.table({"doc_seq": b["doc_seq"], "w": pa.array(w)})

    return (tf.map_batches(weigh, batch_format="pyarrow")
              .groupby("doc_seq").aggregate(Sum("w", alias_name="w")))


def _topk(scored: "rd.Dataset | None", k: int, score: str = "score",
          key: str = "url") -> pd.DataFrame:
    """Top-k rows of a distributed plan by (``score`` desc, ``key``):
    per-batch partial top-k, merged on the driver. A key given twice
    keeps its best row."""
    def partial(b: pa.Table) -> pa.Table:
        return b.sort_by([(score, "descending"), (key, "ascending")]).slice(0, k)

    parts = [] if scored is None else [t for t in ray.get(scored.map_batches(
        partial, batch_format="pyarrow").materialize().to_arrow_refs())
        if t.num_rows]
    cand = (pa.concat_tables(parts).to_pandas() if parts else
            pd.DataFrame({key: pd.Series([], dtype=object),
                          score: pd.Series([], dtype=np.float64)}))
    return (cand.sort_values([score, key], ascending=[False, True])
                .drop_duplicates(key).head(k))


def _ranked_empty(per_site: int | None) -> pa.Table:
    cols = {"url": pa.array([], pa.string()),
            "score": pa.array([], pa.float64()),
            "excerpt": pa.array([], pa.string())}
    if per_site is not None:
        cols = {"host": pa.array([], pa.string()), **cols}
    return pa.table(cols)


def _ranked_result(store_dir: str, terms: tuple[str, ...], out: pd.DataFrame,
                   excerpt_width: int, per_site: int | None) -> pa.Table:
    """The result rows of ranked_crawl_search: rounded scores and a
    stored-copy excerpt sliced for the result urls alone."""
    if not len(out):
        return _ranked_empty(per_site)
    ex = excerpts(store_dir, terms, width=excerpt_width,
                  urls=tuple(out["url"]))   # slice k results, not the store
    ex_of: dict[str, str] = {}
    for u, e in zip(ex["url"].to_pylist(), ex["excerpt"].to_pylist()):
        ex_of.setdefault(u, e)            # first (term-alphabetical) excerpt
    cols = {
        "url": pa.array(out["url"].tolist(), pa.string()),
        "score": pa.array(np.round(out["score"].to_numpy(), 4)),
        "excerpt": pa.array([ex_of.get(u, "") for u in out["url"]],
                            pa.string()),
    }
    if per_site is not None:
        cols = {"host": pa.array(out["host"].tolist(), pa.string()), **cols}
    return pa.table(cols)


def _ranked_crawl_distributed(idx: str, store_dir: str, rdir: str,
                              n_nodes: int, leaf: tuple[str, ...],
                              terms: tuple[str, ...], ast, n_docs: int,
                              k: int, damping_rank: float,
                              excerpt_width: int,
                              per_site: int | None) -> pa.Table:
    """The scale plan of ranked_crawl_search: admissibility, scoring
    aggregation, the rank lookup, per-host capping and top-k selection
    all run as Ray groupby/map_batches; the driver receives only
    per-batch partial top-k candidates (O(k x blocks) rows) and slices
    excerpts for the final result urls alone. Urls and ranks come from
    one worker-built _doc_table that each batch probes by doc_seq, so no
    shuffle join runs. Semantics identical to the driver plan
    (test_round3 proves both plans equal on the same store)."""
    from aspseek_ray.functions.url import host_of

    scores = _body_weights_ds(idx, leaf, terms, ast, n_docs)
    if scores is None:
        return _ranked_empty(per_site)
    docs = _doc_table_task.remote(idx, None, rdir)

    def blend(b: pa.Table) -> pa.Table:
        t = ray.get(docs)
        pos = np.searchsorted(t["doc_seq"].to_numpy(), b["doc_seq"].to_numpy())
        r = t["rank"].to_numpy()[pos]
        score = b["w"].to_numpy() * (1.0 + damping_rank * n_nodes * r)
        return pa.table({"url": t["url"].take(pos), "score": pa.array(score)})

    scored = scores.map_batches(blend, batch_format="pyarrow")
    if per_site is None:
        return _ranked_result(store_dir, terms, _topk(scored, k),
                              excerpt_width, per_site)

    def add_host(b: pa.Table) -> pa.Table:
        return b.append_column("host", pa.array(
            [host_of(u) for u in b["url"].to_pylist()], pa.string()))

    def cap_group(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["score", "url"],
                          ascending=[False, True]).head(per_site)
        g["best"] = g["score"].max()
        return g

    capped = (scored.map_batches(add_host, batch_format="pyarrow")
                    .groupby("host")
                    .map_groups(cap_group, batch_format="pandas"))

    def partial_host_topk(b: pa.Table) -> pa.Table:
        # rows whose host ranks among this batch's top-k hosts by
        # (best desc, host asc) — a global winner always survives
        # its own batch's cut (map_groups keeps whole host groups)
        df = b.to_pandas()
        hosts = (df[["host", "best"]].drop_duplicates()
                 .sort_values(["best", "host"], ascending=[False, True])
                 .head(k)["host"])
        return pa.Table.from_pandas(df[df["host"].isin(set(hosts))],
                                    preserve_index=False)

    parts = [t for t in ray.get(capped.map_batches(
        partial_host_topk, batch_format="pyarrow").materialize().to_arrow_refs())
        if t.num_rows]
    if not parts:
        return _ranked_empty(per_site)
    cand = pa.concat_tables(parts).to_pandas()
    best = cand.groupby("host")["score"].max()
    order = sorted(best.index, key=lambda h: (-best[h], h))
    pos = {h: i for i, h in enumerate(order)}
    cand["h_pos"] = cand["host"].map(pos)
    out = cand.sort_values(["h_pos", "score", "url"],
                           ascending=[True, False, True]).head(k)
    return _ranked_result(store_dir, terms, out, excerpt_width, per_site)


def ranked_crawl_search(store_dir: str, pages_path: str,
                        terms: tuple[str, ...] = (), k: int = 10,
                        damping_rank: float = 1.0,
                        excerpt_width: int = 40,
                        per_site: int | None = None,
                        query: str | None = None,
                        driver_max_docs: int = 100_000,
                        index_dir: str | None = None) -> pa.Table:
    """End-to-end searchd lifecycle over the CRAWL's own products
    (SURVEY §3.2: postings fetch -> boolean merge -> score = term weight x
    popularity rank -> excerpts from stored copies). It reads the store
    index (index_products.refresh_store_index: the store's postings,
    keyed by fnv1a64(url), kept beside the store; this call first brings
    it up to date), never the stored text: only the query terms' bucket
    partitions are fetched. Docs containing ANY query term are scored by
    sum_t tf*ln(N/df) (tf = |positions|, N = stored pages, df over the
    admissible docs) times (1 + damping_rank * n * pagerank), and a
    stored-copy excerpt for the best term is attached. The pagerank
    factor is the reference's popularity blend (src/results.cpp role —
    exact formula unpublished, pinned here); the ranks come from
    ensure_ranks, computed once per pages table. Output
    (url, score, excerpt) top-k by (score desc, url).

    ``per_site``: the results-page site grouping (s.cgi "group by site",
    O31 over crawl products): at most ``per_site`` results per host, hosts
    ordered by their best result (score desc, host asc), docs within a
    host by (score desc, url); the first k rows in host-major order, with
    a leading ``host`` column.

    ``query``: a qparser query string (the full s.cgi lifecycle: qparser
    -> wildcard expansion against the store index vocabulary -> boolean
    admissibility over postings -> rank -> excerpts). Docs must satisfy
    the parsed boolean/phrase expression; scoring and excerpts use its
    POSITIVE terms (negations only exclude). Overrides ``terms``.

    ``index_dir``: a store index generation dir, as refresh_store_index
    returns it, to read as it is (searchd refreshes first, so it knows
    the generation its answer came from); None refreshes the index.

    Two physical plans behind a size switch (the pagerank pattern,
    validated equal by test_round3): at or below ``driver_max_docs``
    stored pages the result set is assembled on the driver (the searchd
    model — fine for any human-facing query) from in-process scans of
    the terms' postings, the vocabulary sidecar, the docs table and the
    result urls' store files, so once the index, ranks and sidecar exist
    the query starts no Ray Data job; above it, admissibility, scoring,
    the rank lookup, per-host capping and top-k all run distributed (Ray
    groupby + per-batch partial top-k) and the driver touches only O(k)
    rows. Both plans slice excerpts for the result urls alone."""
    from aspseek_ray.pipelines.index_products import (
        ensure_ranks, refresh_store_index)
    from aspseek_ray.pipelines.qparser import (
        expand_prefixes, leaf_terms, parse_query, positive_terms)

    ast = parse_query(query) if query is not None else None
    idx = index_dir or refresh_store_index(store_dir)
    n_docs = _index_manifest(idx)["n_docs"]
    if n_docs == 0:
        return _ranked_empty(per_site)
    if ast is not None:
        ast = expand_prefixes(ast, lambda p: _prefix_words(idx, p),
                              lambda p: _suffix_words(idx, p))
        terms = tuple(sorted(positive_terms(ast)))
    terms = tuple(sorted(set(terms)))
    leaf = tuple(sorted(leaf_terms(ast))) if ast is not None else terms
    rdir = ensure_ranks(pages_path)
    n_nodes = json.loads(
        (Path(rdir) / "_manifest.json").read_text())["n_nodes"] or 1
    if n_docs > driver_max_docs:
        return _ranked_crawl_distributed(
            idx, store_dir, rdir, n_nodes, leaf, terms, ast, n_docs, k,
            damping_rank, excerpt_width, per_site)

    w = _body_weights(idx, leaf, terms, ast, n_docs)
    scores = _doc_table(idx, w.index, rdir).to_pandas()
    scores["score"] = scores["doc_seq"].map(w) * (
        1.0 + damping_rank * n_nodes * scores["rank"])

    if per_site is not None:
        from aspseek_ray.functions.url import host_of

        scores["host"] = scores["url"].map(host_of)
        scores = scores.sort_values(["score", "url"], ascending=[False, True])
        scores = scores.groupby("host", sort=False).head(per_site)
        best = scores.groupby("host")["score"].max()
        order = sorted(best.index, key=lambda h: (-best[h], h))
        pos = {h: i for i, h in enumerate(order)}
        scores["h_pos"] = scores["host"].map(pos)
        scores = scores.sort_values(["h_pos", "score", "url"],
                                    ascending=[True, False, True]).head(k)
    else:
        scores = scores.sort_values(["score", "url"],
                                    ascending=[False, True]).head(k)
    return _ranked_result(store_dir, terms, scores, excerpt_width, per_site)


class QueryCache:
    """LRU query-result cache (SURVEY T6; reference: src/qcache.cpp — the
    searchd query cache). Wraps any query callable; keys on the positional
    args. Eviction is least-recently-used at ``maxsize`` entries.

    With ``version`` (a callable returning the data version now), ``fn``
    returns ``(version it read, value)``: the entry is stored under the
    version the run actually read and served only while ``version()``
    returns it; a stale entry counts as a miss. Without ``version``,
    ``fn`` returns the value and entries never go stale.

    Safe to share between threads (searchd serves each connection on its
    own thread): bookkeeping goes under a lock, and a per-key in-flight
    registry dedupes concurrent IDENTICAL queries (the late arrivals wait
    for the first run and count as hits) while DISTINCT queries execute
    their pipelines in parallel — the reference's per-connection-thread
    model, where only the cache itself is a shared structure. The wall
    time of the last 1024 runs is kept for ``miss_ms``."""

    def __init__(self, fn, maxsize: int = 128, version=None):
        self.fn = fn
        self.maxsize = maxsize
        self.version = version
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._inflight: dict[tuple, threading.Event] = {}
        self._miss_ms: deque = deque(maxlen=1024)

    def __call__(self, *args):
        key = args
        while True:
            ver = self.version() if self.version is not None else None
            with self._lock:
                if key in self._cache and self._cache[key][0] == ver:
                    self._cache.move_to_end(key)
                    self.hits += 1
                    return self._cache[key][1]
                ev = self._inflight.get(key)
                if ev is None:
                    self._inflight[key] = ev = threading.Event()
                    break                  # this thread owns the run
            ev.wait()                      # identical query in flight
        try:
            t = time.perf_counter()
            val = self.fn(*args)
            ms = (time.perf_counter() - t) * 1000
            if self.version is not None:
                ver, val = val
            with self._lock:
                self.misses += 1
                self._miss_ms.append(ms)
                self._cache[key] = (ver, val)
                self._cache.move_to_end(key)
                if len(self._cache) > self.maxsize:
                    self._cache.popitem(last=False)
            return val
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            ev.set()

    def miss_ms(self, q: float) -> float:
        """The ``q``-th percentile of the recent misses' run times in ms
        (the cold-query latency), 0.0 before the first miss."""
        with self._lock:
            ms = list(self._miss_ms)
        return float(np.percentile(ms, q)) if ms else 0.0


def _store_paths_for(store_dir: str,
                     urls: tuple[str, ...] | None) -> list[str]:
    """Bucket-pruned store file list: a crawl store is url-hash-bucketed
    exactly like the pages table (part-{abs(fnv1a64(url)) % B}.parquet
    inside each round=K/ dir; B recorded in store/_meta.json at crawl
    time), so a k-url excerpt slice needs only the k urls' buckets —
    O(k-buckets x rounds) files, never the whole store. Fallbacks stay
    correct: urls=None (whole-store sweep), a store without the manifest
    (pre-round-5 or hand-built test stores), or a flat layout all return
    every parquet under the dir."""
    root = Path(store_dir)
    all_files = sorted(str(f) for f in root.rglob("*.parquet"))
    if urls is None:
        return all_files
    meta = root / "_meta.json"
    if not meta.exists():
        return all_files
    num_buckets = int(json.loads(meta.read_text())["num_buckets"])
    from aspseek_ray.functions.hashing import fnv1a64

    want = {int(np.abs(fnv1a64(u))) % num_buckets for u in urls}
    return [p for p in all_files
            if int(Path(p).stem.rsplit("-", 1)[1]) in want]


def excerpts(store_dir: str, terms: tuple[str, ...],
             width: int = 40, urls: tuple[str, ...] | None = None) -> pa.Table:
    """Cached-copy excerpt slicing (the ``stored`` daemon's excerpts.cpp
    role, SURVEY S8): read the crawl's zstd store parquet back and emit,
    per stored page matching any query term, a +-width-char snippet around
    the first match. Output (url, term, excerpt).
    ``urls``: restrict to these urls (the result page and the stored
    daemon's EXCERPT slice excerpts for k results, not the whole store).
    That read is one in-process scan of the urls' hash-bucket files
    (_store_paths_for) with the url predicate pushed into it, so its cost
    is O(k buckets) and it starts no Ray Data job. The whole-store sweep
    (``urls=None``) is a Ray Data map over the store partitions; only
    matching rows leave it."""
    import re

    pats = {t: re.compile(r"(?<![a-z0-9])" + re.escape(t) + r"(?![a-z0-9])")
            for t in terms}

    def slice_batch(batch: pa.Table) -> pa.Table:
        out_u, out_t, out_e = [], [], []
        for u, text in zip(batch["url"].to_pylist(), batch["text"].to_pylist()):
            low = (text or "").lower()
            for t, pat in pats.items():
                m = pat.search(low)
                if m is None:
                    continue
                lo = max(0, m.start() - width)
                hi = min(len(text), m.end() + width)
                out_u.append(u)
                out_t.append(t)
                out_e.append(text[lo:hi])
        return pa.table({"url": pa.array(out_u, pa.string()),
                         "term": pa.array(out_t, pa.string()),
                         "excerpt": pa.array(out_e, pa.string())})

    paths = _store_paths_for(store_dir, urls)
    empty = pa.table({"url": pa.array([], pa.string()),
                      "term": pa.array([], pa.string()),
                      "excerpt": pa.array([], pa.string())})
    if not paths:
        return empty
    if urls is not None:
        out = slice_batch(pads.dataset(paths, format="parquet").to_table(
            columns=["url", "text"], filter=pc.field("url").isin(list(urls))))
    else:
        ds = rd.read_parquet(paths, columns=["url", "text"])
        parts = [t for t in ray.get(ds.map_batches(
            slice_batch, batch_format="pyarrow").materialize().to_arrow_refs())
            if t.num_rows]
        out = pa.concat_tables(parts) if parts else empty
    return out.sort_by([("url", "ascending"), ("term", "ascending")])


def tfidf_search(sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS,
                 k: int = 10,
                 driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                 ) -> pa.Table:
    """Top-k docs by sum_t tf(t,d)*ln(N/df(t)) over the query terms
    (deterministic tiebreak doc_id), computed from the index: tf =
    |positions| per posting row, df = posting-list length — the scoring
    inputs searchd keeps alongside each list (O24/O30). Above the
    posting-row switch the whole score pipeline runs distributed (df via
    one tiny groupby(word) count, idf broadcast in the closure, per-doc
    sums via groupby(doc_seq), per-batch partial top-k) and the driver
    receives only O(k x blocks) candidate rows."""
    pdir = _ensure_doc_postings(sf_dir)
    n_docs = _index_manifest(pdir)["n_docs"]
    terms = tuple(sorted(set(terms)))
    ds = _term_postings_ds(pdir, terms)
    if ds is not None and ds.count() > driver_max_posting_rows:
        scores = _body_weights_ds(pdir, terms, terms, None, n_docs)
        top = _topk(scores, k, "w", "doc_seq")
    else:
        top = (_body_weights(pdir, terms, terms, None, n_docs).reset_index()
               .sort_values(["w", "doc_seq"], ascending=[False, True]).head(k))
    return pa.table({"doc_id": pa.array(top["doc_seq"].to_numpy(), pa.int64()),
                     "score": pa.array(np.round(top["w"].to_numpy(np.float64),
                                                4))})


def bm25_search(sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS,
                k: int = 10, k1: float = 1.2, b: float = 0.75,
                driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                ) -> pa.Table:
    """Top-k docs by Okapi BM25 (Robertson et al.; the non-negative
    ln(1 + (N-df+0.5)/(df+0.5)) idf variant Lucene ships):

        score(d) = sum_t idf(t) * tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl))

    The length normalization needs each posting's doc length — the index
    denormalizes doclen onto every posting row at build (the per-doc norms
    Lucene stores beside the lists), so the whole score is a per-row map
    over the PRUNED posting partitions + one groupby(doc_seq): no
    corpus-sized doclen join, no full-index scan. avgdl comes from the
    build manifest (total_tokens / n_docs). Dual physical plan like
    tfidf_search: driver pandas below the posting-row switch, distributed
    (df groupby + per-batch partial top-k) above it; deterministic
    tiebreak doc_id asc."""
    pdir = _ensure_doc_postings(sf_dir)
    man = _index_manifest(pdir)
    n_docs = man["n_docs"]
    avgdl = (man.get("total_tokens", 0) / n_docs) if n_docs else 0.0
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not avgdl:
        return empty
    ds = _term_postings_ds(pdir, tuple(set(terms)),
                           columns=("word", "doc_seq", "positions",
                                    "doclen"))
    if ds is None:
        return empty

    def _row_scores(word: pa.Array, positions, doclen, idf: dict,
                    ) -> np.ndarray:
        tf = pc.list_value_length(positions).to_numpy(
            zero_copy_only=False).astype(np.float64)
        dl = doclen.to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.array([idf[t] for t in word.to_pylist()])
        return w * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))

    if ds.count() > driver_max_posting_rows:
        from ray.data.aggregate import Count, Sum

        dfp = ds.groupby("word").aggregate(Count(alias_name="df")).to_pandas()
        if not len(dfp):
            return empty
        idf = {w: math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5))
               for w, d in zip(dfp["word"], dfp["df"])}

        def weigh(bt: pa.Table) -> pa.Table:
            return pa.table({"doc_seq": bt["doc_seq"], "w": pa.array(
                _row_scores(bt["word"], bt["positions"], bt["doclen"], idf))})

        scores = (ds.map_batches(weigh, batch_format="pyarrow")
                    .groupby("doc_seq").aggregate(Sum("w", alias_name="w")))

        def partial_topk(bt: pa.Table) -> pa.Table:
            return bt.sort_by([("w", "descending"),
                               ("doc_seq", "ascending")]).slice(0, k)

        parts = [t for t in ray.get(scores.map_batches(
            partial_topk, batch_format="pyarrow").materialize().to_arrow_refs())
            if t.num_rows]
        if not parts:
            return empty
        cand = pa.concat_tables(parts).to_pandas()
        cand = cand.sort_values(["w", "doc_seq"],
                                ascending=[False, True]).head(k)
        return pa.table({"doc_id": pa.array(cand["doc_seq"].to_numpy(),
                                            pa.int64()),
                         "score": pa.array(np.round(cand["w"].to_numpy(),
                                                    4))})

    parts = [t for t in ray.get(ds.materialize().to_arrow_refs())
             if t.num_rows]
    if not parts:
        return empty
    post = pa.concat_tables(parts).combine_chunks()
    pdf = post.select(["word", "doc_seq"]).to_pandas()
    df_of = pdf.groupby("word")["doc_seq"].count()
    idf = {w: math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5))
           for w, d in df_of.items()}
    pdf["w"] = _row_scores(post["word"].combine_chunks(),
                           post["positions"].combine_chunks(),
                           post["doclen"].combine_chunks(), idf)
    scores = pdf.groupby("doc_seq", as_index=False)["w"].sum()
    scores = scores.sort_values(["w", "doc_seq"],
                                ascending=[False, True]).head(k)
    return pa.table({"doc_id": pa.array(scores["doc_seq"].to_numpy(),
                                        pa.int64()),
                     "score": pa.array(np.round(scores["w"].to_numpy(), 4))})


def near_search(sf_dir: str, w1: str = "scan", w2: str = "slow",
                k: int = 3, ordered: bool = False,
                driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                ) -> pa.Table:
    """Proximity operator NEAR/k over the positional index: doc_ids where
    ``w1`` and ``w2`` occur within ``k`` token positions (ordered: w1
    strictly before w2 with position delta in [1, k]; unordered: either
    direction) — the proximity-ranking primitive of the searchd family
    (positions are already in every posting row; phrase is the k=1 ordered
    special case). Dual physical plans like the boolean family: driver
    numpy below the posting-row switch; above it the two posting lists
    shuffle ONCE by doc_seq and the position check runs per group —
    per-task rows bounded by the two terms' df, never the corpus."""
    words = (w1, w2)

    def _hit(p1: np.ndarray, p2: np.ndarray) -> bool:
        # exists (a in p1, b in p2) with 1 <= b - a <= k, vectorized via
        # searchsorted on the sorted position lists
        lo = np.searchsorted(p2, p1, side="right")
        hi = np.searchsorted(p2, p1 + k, side="right")
        fwd = bool(np.any(hi > lo))
        if ordered or fwd:
            return fwd
        lo = np.searchsorted(p1, p2, side="right")
        hi = np.searchsorted(p1, p2 + k, side="right")
        return bool(np.any(hi > lo))

    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    ds = _term_postings_ds(_ensure_doc_postings(sf_dir), words)
    if ds is None:
        return empty
    if ds.count() > driver_max_posting_rows:
        def check(g: pd.DataFrame) -> pd.DataFrame:
            by_word = {w: np.sort(np.asarray(ps, np.int64))
                       for w, ps in zip(g["word"], g["positions"])}
            if w1 in by_word and w2 in by_word and _hit(by_word[w1],
                                                        by_word[w2]):
                return pd.DataFrame({"doc_id": [int(g["doc_seq"].iloc[0])]})
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64)})

        hits = (ds.groupby("doc_seq")
                  .map_groups(check, batch_format="pandas").to_pandas())
        return pa.table({"doc_id": pa.array(
            np.sort(hits["doc_id"].to_numpy()), pa.int64())})

    post = _collect(ds)
    pos_of: dict[int, dict[str, np.ndarray]] = {}
    for w, d, ps in zip(post["word"].to_pylist(), post["doc_seq"].to_pylist(),
                        post["positions"].to_pylist()):
        pos_of.setdefault(int(d), {})[w] = np.sort(np.asarray(ps, np.int64))
    out = [d for d, m in pos_of.items()
           if w1 in m and w2 in m and _hit(m[w1], m[w2])]
    return pa.table({"doc_id": pa.array(np.sort(np.asarray(out, np.int64)),
                                        pa.int64())})


# ------------------------------------------------------------ spell suggest
def _ensure_del_keys(pdir: str) -> str:
    """Materialize (once, beside the index) the SymSpell deletion-key
    sidecar: rows (delkey, delkey_bucket, word, df) over the DISTINCT
    vocabulary, where delkey ranges over the word itself plus every
    single-character deletion. Two words within Levenshtein distance 1
    always share a key (the SymSpell delete-neighborhood property), so a
    suggest query reads only its own keys' partitions — never sweeps the
    vocabulary. df = posting-row count = docs containing the word."""
    return str(build_once(Path(pdir) / "del_keys",
                          lambda build: _build_del_keys(pdir, build)))


def _build_del_keys(pdir: str, build: Path) -> None:
    from ray.data.aggregate import Count

    files = sorted(str(f) for f in Path(pdir).glob("word_bucket=*/*.parquet"))
    vocab = (rd.read_parquet(files, columns=["word"])
               .groupby("word").aggregate(Count(alias_name="df")))

    def to_keys(batch: pa.Table) -> pa.Table:
        keys, words, dfs = [], [], []
        for w, d in zip(batch["word"].to_pylist(), batch["df"].to_pylist()):
            for kk in {w} | {w[:i] + w[i + 1:] for i in range(len(w))}:
                keys.append(kk)
                words.append(w)
                dfs.append(int(d))
        karr = pa.array(keys, pa.string())
        bucket = np.abs(fnv1a64_arrow(karr)) % NUM_WORD_BUCKETS
        return pa.table({"delkey": karr,
                         "delkey_bucket": pa.array(bucket.astype(np.int32)),
                         "word": pa.array(words, pa.string()),
                         "df": pa.array(dfs, pa.int64())})

    (vocab.map_batches(to_keys, batch_format="pyarrow")
          .write_parquet(str(build), partition_cols=["delkey_bucket"]))


def _lev1(a: str, b: str) -> bool:
    """Levenshtein distance <= 1 (insert/delete/substitute)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a with one insertion: find first mismatch, skip it in b
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def spell_suggest(sf_dir: str, term: str) -> pa.Table:
    """Vocabulary words within Levenshtein distance 1 of ``term`` (the
    did-you-mean primitive), ranked by document frequency — SymSpell
    (Garbe) delete-neighborhood lookup against the del_keys sidecar: the
    query generates its own <= len+2 deletion keys on the driver, reads
    ONLY those keys' hash partitions with a key-pruned row filter, and
    verifies the (tiny) candidate set exactly. Output (word, df) by
    (df desc, word asc)."""
    kdir = _ensure_del_keys(_ensure_doc_postings(sf_dir))
    qkeys = sorted({term} | {term[:i] + term[i + 1:]
                             for i in range(len(term))})
    buckets = sorted({int(np.abs(fnv1a64(kk)) % NUM_WORD_BUCKETS)
                      for kk in qkeys})
    paths = []
    for b in buckets:
        d = Path(kdir) / f"delkey_bucket={b}"
        if d.exists():
            paths.extend(sorted(str(f) for f in d.glob("*.parquet")))
    empty = pa.table({"word": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64())})
    if not paths:
        return empty
    cand = (rd.read_parquet(paths, columns=["word", "df"],
                            filter=pc.field("delkey").isin(qkeys))
            .to_pandas())
    if not len(cand):
        return empty
    cand = cand.drop_duplicates("word")
    keep = cand[[_lev1(term, w) for w in cand["word"]]]
    keep = keep.sort_values(["df", "word"], ascending=[False, True])
    return pa.table({"word": pa.array(keep["word"], pa.string()),
                     "df": pa.array(keep["df"].to_numpy(), pa.int64())})


def anchor_boosted_search(store_dir: str, pages_path: str,
                          terms: tuple[str, ...] = (), k: int = 10,
                          alpha: float = 0.5,
                          driver_max_docs: int = 100_000) -> pa.Table:
    """Ranked search with the reference's LINK-WORD boost: score(url) =
    body tf-idf (sum_t tf*ln(N/df) over the stored pages, the
    crawl_ranked_tfidf scoring) + ``alpha`` x anchor hits, where anchor
    hits = sum over query terms of n_refs(word, url) from the anchor-text
    index (how many distinct pages link to ``url`` with the term in their
    anchor). A stored url referenced only by anchors still ranks — the
    reference indexes link words against targets it never parsed.

    Scale shape: both sides read ONLY the query terms' partitions — the
    body side from the store index that ranked_crawl_search reads
    (index_products.refresh_store_index), the anchor side from the cached word-bucketed
    anchor index. Dual plans: driver pandas under ``driver_max_docs``
    stored pages; above it body scoring runs distributed (tf rows ->
    groupby(doc_seq).sum), the query-sized anchor map rides a closure,
    blending happens before any top-k, and the driver sees O(k x blocks)
    candidate rows. Output (url, score) top-k by (score desc, url)."""
    from aspseek_ray.pipelines.index_products import (
        ensure_anchor_index, refresh_store_index)

    terms = tuple(sorted(set(terms)))
    empty = pa.table({"url": pa.array([], pa.string()),
                      "score": pa.array([], pa.float64())})
    if not terms:
        return empty
    idx = refresh_store_index(store_dir)
    n_docs = _index_manifest(idx)["n_docs"]
    if n_docs == 0:
        return empty

    # anchor hits for the query terms: the anchor index is word-bucketed
    # like the postings, so the same pruned partition read serves it
    at = _term_postings(ensure_anchor_index(pages_path), terms,
                        columns=("url", "n_refs")).to_pandas()
    hits: dict[str, float] = (
        at.groupby("url")["n_refs"].sum().astype(float).to_dict()
        if len(at) else {})
    # the stored anchor-hit docs: they rank even without a body score
    hit_docs = _doc_table(idx, fnv1a64_arrow(pa.array(list(hits), pa.string())))

    if n_docs > driver_max_docs:
        body = _body_weights_ds(idx, terms, terms, None, n_docs)
        rows = rd.from_arrow(pa.table({
            "doc_seq": hit_docs["doc_seq"],
            "w": pa.array(np.zeros(hit_docs.num_rows))}))
        if body is not None:
            rows = body.union(rows)
        docs = _doc_table_task.remote(idx)
        hits_ref = ray.put(hits)

        def blend(b: pa.Table) -> pa.Table:
            t, h = ray.get(docs), ray.get(hits_ref)
            pos = np.searchsorted(t["doc_seq"].to_numpy(),
                                  b["doc_seq"].to_numpy())
            urls = t["url"].take(pos)
            s = (b["w"].to_numpy(zero_copy_only=False).astype(np.float64)
                 + alpha * np.array([h.get(u, 0.0) for u in urls.to_pylist()]))
            return pa.table({"url": urls, "score": pa.array(s)})

        out = _topk(rows.map_batches(blend, batch_format="pyarrow"), k)
    else:
        w = _body_weights(idx, terms, terms, None, n_docs)
        docs = _doc_table(idx, set(w.index) | set(hit_docs["doc_seq"].to_pylist()))
        out = pd.DataFrame({"url": docs["url"].to_pylist(), "score": [
            float(w.get(s, 0.0)) + alpha * hits.get(u, 0.0)
            for s, u in zip(docs["doc_seq"].to_pylist(),
                            docs["url"].to_pylist())]})
        out = out.sort_values(["score", "url"],
                              ascending=[False, True]).head(k)
    if not len(out):
        return empty
    return pa.table({"url": pa.array(out["url"].tolist(), pa.string()),
                     "score": pa.array(np.round(
                         out["score"].to_numpy(np.float64), 4))})


# ---------------------------------------------------------- similar docs
def _ensure_doc_norms(pdir: str, n_docs: int) -> str:
    """Materialize (once, beside the index) the tf-idf vector NORMS
    sidecar: rows (doc_seq, doc_bucket, norm) with
    norm = sqrt(sum_w (tf * ln(N/df))^2) over the doc's full vocabulary —
    the denominator cosine needs. df is word-bucket-LOCAL (every posting
    row of a word lives in exactly one bucket partition), so the build is
    one map_groups per word_bucket emitting per-doc partial squared sums
    + one groupby(doc_seq) — no vocabulary-sized join, nothing on the
    driver. Partitioned by doc_bucket = doc_seq % NUM_WORD_BUCKETS for
    pruned candidate-norm reads."""
    return str(build_once(Path(pdir) / "doc_norms",
                          lambda build: _build_doc_norms(pdir, n_docs, build)))


def _build_doc_norms(pdir: str, n_docs: int, build: Path) -> None:
    from ray.data.aggregate import Sum

    files = sorted(str(f) for f in Path(pdir).glob("word_bucket=*/*.parquet"))

    def partial_sq(g: pd.DataFrame) -> pd.DataFrame:
        tf = np.array([len(p) for p in g["positions"]], np.float64)
        df_of = g.groupby("word")["doc_seq"].transform("count").to_numpy()
        w = tf * np.log(n_docs / df_of)
        acc = pd.DataFrame({"doc_seq": g["doc_seq"].to_numpy(), "sq": w * w})
        return acc.groupby("doc_seq", as_index=False)["sq"].sum()

    sums = (rd.read_parquet(files, columns=["word", "doc_seq", "positions",
                                            "word_bucket"])
              .groupby("word_bucket")
              .map_groups(partial_sq, batch_format="pandas")
              .groupby("doc_seq").aggregate(Sum("sq", alias_name="sq")))

    def to_norm(b: pa.Table) -> pa.Table:
        seq = b["doc_seq"].to_numpy()
        return pa.table({
            "doc_seq": b["doc_seq"],
            "doc_bucket": pa.array((np.abs(seq) % NUM_WORD_BUCKETS)
                                   .astype(np.int32)),
            "norm": pa.array(np.sqrt(
                b["sq"].to_numpy(zero_copy_only=False))),
        })

    (sums.map_batches(to_norm, batch_format="pyarrow")
         .write_parquet(str(build), partition_cols=["doc_bucket"]))


def similar_docs(sf_dir: str, doc_id: int = 0, k: int = 10) -> pa.Table:
    """"More like this" (the related-pages staple): top-k docs by COSINE
    similarity between full tf-idf vectors, seeded by ``doc_id``.
    score(d) = sum_shared(q_w * d_w) / (||q|| ||d||) with w = tf*ln(N/df).

    Index-backed end to end: the seed's (word, tf) vector is one
    doc_seq-filtered pass over the bucketed postings (pushed-down parquet
    predicate — the one full-index-metadata touch, O(row groups), rows
    out = the seed's vocabulary); candidates and their shared-word
    weights are exactly the seed terms' pruned posting partitions (a
    |terms|-term OR query — df-bounded, never corpus); candidate vector
    norms come from the doc_bucket-partitioned norms sidecar with an
    isin pushdown (built once per index, fully distributed, df computed
    word-bucket-locally). Output (doc_id, score desc, doc_id asc), seed
    excluded, zero-norm candidates dropped."""
    pdir = _ensure_doc_postings(sf_dir)
    n_docs = _index_manifest(pdir)["n_docs"]
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not n_docs:
        return empty
    files = sorted(str(f) for f in Path(pdir).glob("word_bucket=*/*.parquet"))
    seed = (rd.read_parquet(files, columns=["word", "positions"],
                            filter=pc.field("doc_seq") == int(doc_id))
            .to_pandas())
    if not len(seed):
        return empty
    q_tf = {w: len(p) for w, p in zip(seed["word"], seed["positions"])}
    terms = tuple(sorted(q_tf))

    post = _term_postings(pdir, terms)
    if post.num_rows == 0:
        return empty
    pdf = post.select(["word", "doc_seq"]).to_pandas()
    pdf["tf"] = pc.list_value_length(post["positions"]).to_numpy(
        zero_copy_only=False).astype(np.int64)
    df_of = pdf.groupby("word")["doc_seq"].count()
    idf = {w: math.log(n_docs / d) for w, d in df_of.items()}
    q_w = {w: q_tf[w] * idf[w] for w in q_tf if w in idf}
    q_norm_sq_shared = sum(v * v for v in q_w.values())

    # numerator: per candidate, sum over shared words of q_w * d_w
    pdf["dot"] = (pdf["tf"] * pdf["word"].map(idf)
                  * pdf["word"].map(q_w))
    dots = pdf.groupby("doc_seq")["dot"].sum()
    dots = dots.drop(labels=[int(doc_id)], errors="ignore")
    dots = dots[dots > 0]
    if not len(dots):
        return empty

    # ||q||: the seed vector contains ONLY its own words (all shared with
    # itself), so its full norm is sqrt(q_norm_sq_shared). ||d||: pruned
    # isin read of the norms sidecar partitions the candidates hash into.
    ndir = _ensure_doc_norms(pdir, n_docs)
    cand = dots.index.to_numpy()
    nbuckets = sorted({int(abs(int(c)) % NUM_WORD_BUCKETS) for c in cand})
    npaths = []
    for b in nbuckets:
        d = Path(ndir) / f"doc_bucket={b}"
        if d.exists():
            npaths.extend(sorted(str(f) for f in d.glob("*.parquet")))
    norms = (rd.read_parquet(npaths, columns=["doc_seq", "norm"],
                             filter=pc.field("doc_seq").isin(
                                 [int(c) for c in cand]))
             .to_pandas())
    norm_of = dict(zip(norms["doc_seq"], norms["norm"]))
    qn = math.sqrt(q_norm_sq_shared)
    rows = [(int(d), float(v) / (qn * norm_of[int(d)]))
            for d, v in dots.items()
            if norm_of.get(int(d), 0.0) > 0 and qn > 0]
    rows.sort(key=lambda t: (-t[1], t[0]))
    rows = rows[:k]
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "score": pa.array(np.round(
                         np.array([r[1] for r in rows]), 4))})


def prefix_search(sf_dir: str, prefix: str = "sca",
                  driver_max_posting_rows: int = DRIVER_MAX_POSTING_ROWS,
                  ) -> pa.Table:
    """Wildcard query ``prefix*``: doc_ids containing ANY vocabulary word
    that starts with ``prefix`` (the reference grammar's trailing-star
    form). Expansion first: the vocabulary is scanned with a pushed-down
    starts_with filter over the del_keys sidecar's exact-word rows
    (delkey == word holds for every word, so that slice IS the distinct
    vocabulary with df attached) — word-hash partitioning can't prune a
    lexicographic range, so expansion costs one column-pruned vocab scan
    (at real scale a lexicographically-partitioned vocab sidecar makes
    this a range read; the hash layout is kept because every OTHER query
    class prunes by hash). The expanded word set then runs as a normal
    boolean OR over the pruned posting partitions."""
    from aspseek_ray.pipelines.qparser import Prefix, expand_prefixes

    pdir = _ensure_doc_postings(sf_dir)
    ast = expand_prefixes(Prefix(prefix), lambda p: _prefix_words(pdir, p))
    return _ast_plan(pdir, ast, driver_max_posting_rows)


def _suffix_words(pdir: str, suffix: str) -> tuple[str, ...]:
    """Vocabulary words of the index ``pdir`` ENDING with ``suffix`` —
    the symmetric expansion for leading-star wildcards (*word), same
    sidecar scan as _prefix_words with an ends_with pushdown."""
    return _vocab_scan(pdir, pc.ends_with(pc.field("word"), suffix)
                       ) if suffix else ()


def _prefix_words(pdir: str, prefix: str) -> tuple[str, ...]:
    """Vocabulary words of the index ``pdir`` starting with ``prefix``
    (sorted) — the wildcard expansion pass shared by prefix_search and
    the qparser's Prefix nodes. Pushed-down starts_with scan over the
    del_keys sidecar's exact-word rows (delkey == word <=> one row per
    distinct word)."""
    return _vocab_scan(pdir, pc.starts_with(pc.field("word"), prefix)
                       ) if prefix else ()


def _vocab_scan(pdir: str, word_filter) -> tuple[str, ...]:
    kdir = _ensure_del_keys(pdir)
    files = sorted(str(f)
                   for f in Path(kdir).glob("delkey_bucket=*/*.parquet"))
    if not files:
        return ()
    vt = pads.dataset(files, format="parquet").to_table(
        columns=["word"],
        filter=word_filter & (pc.field("word") == pc.field("delkey")))
    return tuple(sorted(set(vt["word"].to_pylist())))
