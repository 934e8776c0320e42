"""Round-5 delta staging for the incremental index (SURVEY S7, the
reference's real delta-file model — src/deltas.cpp role): small rounds
accumulate as staged segments, queries read main + staged with
latest-wins masking, and a fold collapses the batch into main in ONE
_apply_delta pass. All views must stay bitwise-equal to a full rebuild
over the final corpus state — including a 12-round chain with repeated
doc updates, purges, and folds at arbitrary points."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from aspseek_ray.functions.hashing import fnv1a64
from aspseek_ray.pipelines.index_products import (
    _read_bucketed_postings,
    build_postings,
    fold_deltas,
    merge_postings,
    read_postings_with_deltas,
    stage_delta,
    update_postings_index_staged,
)


def _merged_table(postings_ds) -> pa.Table:
    tabs = [t for t in ray.get(merge_postings(postings_ds).to_arrow_refs())
            if t.num_rows]
    t = pa.concat_tables(tabs).select(["word", "df", "doc_seqs", "positions"])
    return t.sort_by("word").combine_chunks()


def _write_pages(path, urls, texts):
    pq.write_table(pa.table({"url": pa.array(urls, pa.string()),
                             "text": pa.array(texts, pa.string())}), path)


def _corpus_rounds(tmp_path, n_rounds=4, seed=7):
    """Synthetic rounds: round 0 = base corpus; each later round updates
    a sliding window of docs (latest wins when windows overlap) and adds
    a couple of new docs. Returns (round paths, final urls, final texts)."""
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "omega", "sigma",
             "kappa", "theta", "lam", "zeta", "mu", "nu"]
    urls = [f"http://h{i % 5}.example/p{i}.html" for i in range(36)]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(5, 16))))
             for _ in urls]
    state = dict(zip(urls, texts))
    paths = [tmp_path / "round0.parquet"]
    _write_pages(paths[0], urls, texts)
    for r in range(1, n_rounds):
        lo = (r * 5) % 20
        upd_urls = urls[lo:lo + 8]
        upd_texts = [f"round{r} body " + " ".join(
            rng.choice(vocab, size=int(rng.integers(3, 9))))
            for _ in upd_urls]
        new_urls = [f"http://h9.example/r{r}n{i}.html" for i in range(2)]
        new_texts = [f"fresh r{r} {vocab[i]} {vocab[(i + r) % len(vocab)]}"
                     for i in range(2)]
        p = tmp_path / f"round{r}.parquet"
        _write_pages(p, upd_urls + new_urls, upd_texts + new_texts)
        state.update(zip(upd_urls, upd_texts))
        state.update(zip(new_urls, new_texts))
        paths.append(p)
    return paths, list(state.keys()), list(state.values())


def _rebuild_table(tmp_path, urls, texts):
    _write_pages(tmp_path / "final.parquet", urls, texts)
    return _merged_table(build_postings(str(tmp_path / "final.parquet")))


def test_staged_view_equals_rebuild_no_fold(ray_session, tmp_path):
    paths, urls, texts = _corpus_rounds(tmp_path, n_rounds=4)
    idx = str(tmp_path / "idx")
    build_postings(str(paths[0]), out_dir=idx)
    for p in paths[1:]:
        stage_delta(idx, str(p))
    assert len(list((tmp_path / "idx" / ".deltas").glob("round-*"))) == 3
    got = _merged_table(read_postings_with_deltas(idx))
    want = _rebuild_table(tmp_path, urls, texts)
    assert got.equals(want)
    # main index untouched by staging
    base = _merged_table(_read_bucketed_postings(idx))
    want0 = _merged_table(build_postings(str(paths[0])))
    assert base.equals(want0)


def test_fold_collapses_staged_into_main(ray_session, tmp_path):
    paths, urls, texts = _corpus_rounds(tmp_path, n_rounds=4)
    idx = str(tmp_path / "idx")
    build_postings(str(paths[0]), out_dir=idx)
    for p in paths[1:]:
        stage_delta(idx, str(p))
    touched = fold_deltas(idx)
    assert touched
    assert not list((tmp_path / "idx" / ".deltas").glob("round-*"))
    want = _rebuild_table(tmp_path, urls, texts)
    assert _merged_table(_read_bucketed_postings(idx)).equals(want)
    # the with-deltas reader degrades to the plain reader when staging
    # is empty
    assert _merged_table(read_postings_with_deltas(idx)).equals(want)


def test_staged_equals_unstaged_update(ray_session, tmp_path):
    """fold_threshold=0 (fold every round, as an unstaged refresh does)
    must land in the same state as staging every round and folding once
    at the end."""
    paths, urls, texts = _corpus_rounds(tmp_path, n_rounds=3, seed=9)
    idx_a, idx_b = str(tmp_path / "a"), str(tmp_path / "b")
    build_postings(str(paths[0]), out_dir=idx_a)
    build_postings(str(paths[0]), out_dir=idx_b)
    for p in paths[1:]:
        r = update_postings_index_staged(idx_a, str(p),
                                         fold_threshold=float("inf"))
        assert not r["folded"]
        r = update_postings_index_staged(idx_b, str(p), fold_threshold=0.0)
        assert r["folded"]
    fold_deltas(idx_a)
    ta = _merged_table(_read_bucketed_postings(idx_a))
    tb = _merged_table(_read_bucketed_postings(idx_b))
    assert ta.equals(tb)
    assert ta.equals(_rebuild_table(tmp_path, urls, texts))


def test_purge_in_staged_round(ray_session, tmp_path):
    paths, urls, texts = _corpus_rounds(tmp_path, n_rounds=2, seed=4)
    idx = str(tmp_path / "idx")
    build_postings(str(paths[0]), out_dir=idx)
    gone = urls[3]
    purge = [fnv1a64(gone)]
    stage_delta(idx, str(paths[1]), purge_doc_seqs=purge)
    final = {u: t for u, t in zip(urls, texts) if u != gone}
    want = _rebuild_table(tmp_path, list(final), list(final.values()))
    assert _merged_table(read_postings_with_deltas(idx)).equals(want)
    fold_deltas(idx)
    assert _merged_table(_read_bucketed_postings(idx)).equals(want)


def test_twelve_round_chain_with_mixed_folds(ray_session, tmp_path):
    """The long-chain criterion: 12 staged rounds with folds forced at
    rounds 4 and 9 plus threshold-driven folds in between — the final
    with-deltas view AND the post-final-fold main must both equal a
    rebuild over the final corpus state, bitwise."""
    paths, urls, texts = _corpus_rounds(tmp_path, n_rounds=12, seed=13)
    idx = str(tmp_path / "idx")
    build_postings(str(paths[0]), out_dir=idx)
    for i, p in enumerate(paths[1:], start=1):
        thr = 0.0 if i in (4, 9) else 0.35
        update_postings_index_staged(idx, str(p), fold_threshold=thr)
    want = _rebuild_table(tmp_path, urls, texts)
    assert _merged_table(read_postings_with_deltas(idx)).equals(want)
    fold_deltas(idx)
    assert not list((tmp_path / "idx" / ".deltas").glob("round-*"))
    assert _merged_table(_read_bucketed_postings(idx)).equals(want)


def _store_dirs(tmp_path, paths) -> "list[str]":
    """One crawl-store round dir per pages file; the multi-round reader
    needs url_hash columns like a crawl store, so synthesize them (store
    schema: url_hash, url, text)."""
    from aspseek_ray.functions.hashing import fnv1a64_arrow

    dirs = []
    for i, p in enumerate(paths):
        t = pq.read_table(p)
        t = t.add_column(0, "url_hash",
                         pa.array(fnv1a64_arrow(t["url"]), pa.int64()))
        d = tmp_path / f"store_round{i}"
        d.mkdir()
        pq.write_table(t, d / "part-0.parquet")
        dirs.append(str(d))
    return dirs


def test_build_postings_latest_equals_final_rebuild(ray_session, tmp_path):
    """Multi-round rebuild (latest fetch wins) must equal a rebuild over
    the collapsed final corpus — the cost-model control bench.py times
    against the staged updates."""
    from aspseek_ray.pipelines.index_products import build_postings_latest

    paths, urls, texts = _corpus_rounds(tmp_path, n_rounds=4, seed=21)
    got = _merged_table(build_postings_latest(_store_dirs(tmp_path, paths)))
    want = _rebuild_table(tmp_path, urls, texts)
    assert got.equals(want)


def test_round_with_no_stored_pages(ray_session, tmp_path):
    """A round whose store holds zero rows (every fetch failed) stages
    without error, still applies its purges, and leaves both the
    with-deltas view and the folded main equal to a rebuild; a refresh
    that folds every round takes the same round."""
    from aspseek_ray.pipelines.index_products import build_postings_latest

    paths, urls, texts = _corpus_rounds(tmp_path, n_rounds=3, seed=5)
    empty = tmp_path / "empty.parquet"
    _write_pages(empty, [], [])
    dirs = _store_dirs(tmp_path, [paths[0], paths[1], empty, paths[2]])

    idx = str(tmp_path / "idx")
    build_postings(dirs[0], out_dir=idx)
    for d in dirs[1:]:
        update_postings_index_staged(idx, d, fold_threshold=float("inf"))
    want = _merged_table(build_postings_latest(dirs))
    assert want.equals(_rebuild_table(tmp_path, urls, texts))
    assert _merged_table(read_postings_with_deltas(idx)).equals(want)
    fold_deltas(idx)
    assert _merged_table(_read_bucketed_postings(idx)).equals(want)

    # the empty round's purge lands, staged and folded (urls[30] is not
    # refetched by any later round of this corpus)
    gone = urls[30]
    final = {u: t for u, t in zip(urls, texts) if u != gone}
    want = _rebuild_table(tmp_path, list(final), list(final.values()))
    r = update_postings_index_staged(idx, dirs[2],
                                     purge_doc_seqs=[fnv1a64(gone)],
                                     fold_threshold=float("inf"))
    assert r["staged_rows"] == 0
    assert _merged_table(read_postings_with_deltas(idx)).equals(want)
    r = update_postings_index_staged(idx, dirs[2], fold_threshold=0.0)
    assert r["folded"] and r["touched"]
    assert not list((tmp_path / "idx" / ".deltas").glob("round-*"))
    assert _merged_table(_read_bucketed_postings(idx)).equals(want)
    # a fold of an empty round with nothing to purge still reports it ran
    r = update_postings_index_staged(idx, dirs[2], fold_threshold=0.0)
    assert r["folded"] and not r["touched"]
    assert not list((tmp_path / "idx" / ".deltas").glob("round-*"))

    # a refresh that folds every round takes the same round, with the
    # same purge
    idx2 = str(tmp_path / "idx2")
    build_postings(dirs[0], out_dir=idx2)
    for d in dirs[1:]:
        update_postings_index_staged(idx2, d, fold_threshold=0.0)
    update_postings_index_staged(idx2, dirs[2], fold_threshold=0.0,
                                 purge_doc_seqs=[fnv1a64(gone)])
    assert _merged_table(_read_bucketed_postings(idx2)).equals(want)
