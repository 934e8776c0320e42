"""The per-bucket fold of the delta→main refresh (SURVEY S7/O21): the
remove-set comes from every url a round stored (so a re-fetch whose new
text yields no index token still drops the page's old postings), a fold
re-run after a crash is idempotent, and a refresh writes O(delta) files —
one staged file per bucket, untouched main files where no doc is
removed."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from aspseek_ray.functions.hashing import fnv1a64_arrow
from aspseek_ray.pipelines.index_products import (
    NUM_WORD_BUCKETS,
    _fold_bucket,
    _read_bucketed_postings,
    _staged_round_dirs,
    build_postings,
    build_postings_latest,
    fold_deltas,
    merge_postings,
    read_postings_with_deltas,
    stage_delta,
    update_postings_index,
    update_postings_index_staged,
)


def _merged_table(postings_ds) -> pa.Table:
    tabs = [t for t in ray.get(merge_postings(postings_ds).to_arrow_refs())
            if t.num_rows]
    t = pa.concat_tables(tabs).select(["word", "df", "doc_seqs", "positions"])
    return t.sort_by("word").combine_chunks()


def _store_round(path, urls, texts, n_files=1):
    """One crawl-store round dir (url_hash, url, text), split over
    ``n_files`` part files."""
    path.mkdir()
    t = pa.table({"url_hash": pa.array(fnv1a64_arrow(pa.array(urls,
                                                               pa.string()))),
                  "url": pa.array(urls, pa.string()),
                  "text": pa.array(texts, pa.string())})
    step = -(-t.num_rows // n_files) if t.num_rows else 1
    for i in range(n_files):
        pq.write_table(t.slice(i * step, step), path / f"part-{i}.parquet")
    return str(path)


def _bucket(word: str) -> int:
    return int(np.abs(fnv1a64_arrow(pa.array([word])))[0] % NUM_WORD_BUCKETS)


def _rounds(tmp_path):
    """Round 0 = 24 pages; rounds 1-2 re-fetch overlapping windows of
    them and add new pages."""
    urls = [f"http://h{i % 4}.example/p{i}.html" for i in range(24)]
    texts = [f"alpha{i % 5} beta{i % 3} steady words {i}" for i in range(24)]
    dirs = [_store_round(tmp_path / "s0", urls, texts)]
    for r in (1, 2):
        upd = urls[4 * r:4 * r + 8]
        new = [f"http://h9.example/r{r}n{i}.html" for i in range(3)]
        dirs.append(_store_round(
            tmp_path / f"s{r}", upd + new,
            [f"round{r} gamma{i} alpha{i % 5}" for i in range(11)]))
    return dirs


def test_refetch_without_index_tokens_drops_old_postings(ray_session,
                                                         tmp_path):
    """A page re-fetched as empty text, and one re-fetched as all-stopword
    text, keep none of their old postings on any refresh path."""
    urls = ["http://a/x", "http://a/y", "http://a/z"]
    r0 = _store_round(tmp_path / "s0", urls,
                      ["spark window scan", "spark join probe",
                       "window scan again"])
    r1 = _store_round(tmp_path / "s1", urls[:2], ["", "the of and"])
    want = _merged_table(build_postings_latest([r0, r1]))
    assert "spark" not in want["word"].to_pylist()

    staged = str(tmp_path / "staged")
    build_postings(r0, out_dir=staged)
    stage_delta(staged, r1)
    assert _merged_table(read_postings_with_deltas(staged)).equals(want)
    fold_deltas(staged)
    assert _merged_table(_read_bucketed_postings(staged)).equals(want)

    unstaged = str(tmp_path / "unstaged")
    build_postings(r0, out_dir=unstaged)
    update_postings_index(unstaged, r1)
    assert _merged_table(_read_bucketed_postings(unstaged)).equals(want)

    folded = str(tmp_path / "folded")
    build_postings(r0, out_dir=folded)
    r = update_postings_index_staged(folded, r1, fold_threshold=0.0)
    assert r["folded"]
    assert _bucket("spark") in r["touched"]
    assert _merged_table(_read_bucketed_postings(folded)).equals(want)


def test_fold_rerun_after_crash_is_idempotent(ray_session, tmp_path):
    dirs = _rounds(tmp_path)
    want = _merged_table(build_postings_latest(dirs))

    # a crash after the last bucket, before .deltas was cleared
    idx = tmp_path / "idx"
    build_postings(dirs[0], out_dir=str(idx))
    for d in dirs[1:]:
        stage_delta(str(idx), d)
    shutil.copytree(idx / ".deltas", tmp_path / "deltas_copy")
    assert fold_deltas(str(idx))
    shutil.rmtree(idx / ".deltas")
    shutil.copytree(tmp_path / "deltas_copy", idx / ".deltas")
    fold_deltas(str(idx))
    assert not _staged_round_dirs(str(idx))
    assert _merged_table(_read_bucketed_postings(str(idx))).equals(want)

    # a crash after one bucket's delta file was appended
    idx2 = tmp_path / "idx2"
    build_postings(dirs[0], out_dir=str(idx2))
    for d in dirs[1:]:
        stage_delta(str(idx2), d)
    rounds = [str(r) for r in _staged_round_dirs(str(idx2))]
    k = _bucket("gamma1")
    assert _fold_bucket(str(idx2), rounds, k)
    fold_deltas(str(idx2))
    assert _merged_table(_read_bucketed_postings(str(idx2))).equals(want)


def test_refresh_writes_are_o_delta(ray_session, tmp_path):
    urls = [f"http://h{i % 4}.example/p{i}.html" for i in range(40)]
    texts = [f"alpha{i % 7} beta{i % 5} gamma{i % 3} words {i}"
             for i in range(40)]
    r0 = _store_round(tmp_path / "s0", urls, texts)
    idx = tmp_path / "idx"
    build_postings(r0, out_dir=str(idx))
    before = {f: (f.stat().st_ino, f.stat().st_mtime_ns)
              for f in idx.glob("word_bucket=*/*.parquet")}
    files_per_bucket = {d.name: len(list(d.glob("*.parquet")))
                        for d in idx.glob("word_bucket=*")}

    # rounds of brand-new pages only, each split over 4 part files (4
    # input blocks): a staged bucket still gets ONE file
    new = [f"http://h8.example/n{i}.html" for i in range(24)]
    for r in (1, 2):
        d = _store_round(tmp_path / f"s{r}", new[12 * (r - 1):12 * r],
                         [f"alpha{i} fresh{r} delta words"
                          for i in range(12)], n_files=4)
        stage_delta(str(idx), d)
    staged = [b for r in _staged_round_dirs(str(idx))
              for b in (r / "postings").glob("word_bucket=*")]
    assert staged
    assert all(len(list(b.glob("*.parquet"))) == 1 for b in staged)

    touched = fold_deltas(str(idx))
    assert touched
    for f, stamp in before.items():
        assert f.exists()
        assert (f.stat().st_ino, f.stat().st_mtime_ns) == stamp
    for d in idx.glob("word_bucket=*"):
        n_before = files_per_bucket.get(d.name, 0)
        assert len(list(d.glob("*.parquet"))) <= n_before + 1
