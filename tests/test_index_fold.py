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


def _folded_table(idx) -> pa.Table:
    return _merged_table(_read_bucketed_postings(str(idx)))


def test_stage_and_fold_start_no_ray_data_job(ray_session, tmp_path,
                                              monkeypatch):
    """Staging two rounds and folding them into an index built beforehand
    runs plain Ray tasks only: with Ray Data's reader, item source and
    writer patched to raise, the folded index still equals a rebuild."""
    import ray.data

    dirs = _rounds(tmp_path)
    want = _merged_table(build_postings_latest(dirs))
    idx = tmp_path / "idx"
    build_postings(dirs[0], out_dir=str(idx))

    def boom(*args, **kwargs):
        raise AssertionError("Ray Data job started")

    with monkeypatch.context() as m:
        m.setattr(ray.data, "read_parquet", boom)
        m.setattr(ray.data, "from_items", boom)
        m.setattr(ray.data.Dataset, "write_parquet", boom)
        for d in dirs[1:]:
            stage_delta(str(idx), d)
        assert fold_deltas(str(idx))
    assert _folded_table(idx).equals(want)


def test_large_round_stages_across_tasks(ray_session, tmp_path,
                                         monkeypatch):
    """A round of at least 2 x STAGE_TASK_ROWS stored rows is split by
    row group across stage tasks of about equal rows, at most one per
    CPU, each writing at most one file per word bucket; folding the split
    rounds still equals a rebuild."""
    from aspseek_ray.pipelines import index_products as ip

    urls = [f"http://h{i % 4}.example/p{i}.html" for i in range(24)]
    dirs = [_store_round(tmp_path / "s0", urls,
                         [f"alpha{i % 5} beta{i % 3} words {i}"
                          for i in range(24)], n_files=8)]
    for r in (1, 2):
        dirs.append(_store_round(
            tmp_path / f"s{r}", urls[4 * r:4 * r + 8] + [f"http://n/{r}"],
            [f"round{r} gamma{i} alpha{i % 5} beta" for i in range(9)],
            n_files=3))
    want = _merged_table(build_postings_latest(dirs))
    idx = tmp_path / "idx"
    build_postings(dirs[0], out_dir=str(idx))

    cpus = int(ray.cluster_resources()["CPU"])
    monkeypatch.setattr(ip, "STAGE_TASK_ROWS", 3)
    assert [len(s) for s in ip._stage_shares(dirs[1])] == [1, 1, 1]
    assert len(ip._stage_shares(dirs[0])) == min(cpus, 8)
    monkeypatch.setattr(ip, "STAGE_TASK_ROWS", 5)
    assert len(ip._stage_shares(dirs[1])) == 1
    monkeypatch.setattr(ip, "STAGE_TASK_ROWS", 3)
    for d in dirs[1:]:
        stage_delta(str(idx), d)
    per_bucket = [len(list(b.glob("*.parquet")))
                  for r in _staged_round_dirs(str(idx))
                  for b in (r / "postings").glob("word_bucket=*")]
    assert max(per_bucket) <= 3 and max(per_bucket) > 1
    fold_deltas(str(idx))
    assert _folded_table(idx).equals(want)


def test_retried_stage_task_overwrites_its_files(ray_session, tmp_path):
    """A stage task's file names are fixed by its caller, so a retry of
    the same task (as Ray runs after a worker dies) overwrites its
    postings and docs files instead of adding a second copy of its
    rows."""
    from aspseek_ray.pipelines import index_products as ip

    d = _store_round(tmp_path / "s0", [f"http://h.example/p{i}.html"
                                       for i in range(6)],
                     [f"alpha{i} beta words" for i in range(6)], n_files=2)
    share = ip._stage_shares(d)[0]
    post, docs = tmp_path / "postings", tmp_path / "docs"
    args = (share, str(post), 0, True, False, str(docs / "t-00000.parquet"))
    first = ray.get(ip._stage_share.remote(*args))
    files = sorted(post.rglob("*.parquet"))
    assert ray.get(ip._stage_share.remote(*args)).tolist() == first.tolist()
    assert sorted(post.rglob("*.parquet")) == files
    assert [f.name for f in docs.iterdir()] == ["t-00000.parquet"]
    assert pq.read_table(docs).num_rows == 6
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in files) \
        == build_postings(d).count()


def test_fold_reports_its_file_counts(ray_session, tmp_path):
    """A fold reads each staged round's remove-set once (not once per
    bucket) and every main and staged file once, and reports it: on the
    test_refresh_writes_are_o_delta rounds of brand-new pages it reads
    every main file, rewrites none and appends one file per staged
    bucket; a round of re-fetches rewrites or unlinks exactly the main
    files holding a re-fetched doc."""
    from aspseek_ray.pipelines.index_products import FOLD_COUNTS, _fold

    urls = [f"http://h{i % 4}.example/p{i}.html" for i in range(40)]
    texts = [f"alpha{i % 7} beta{i % 5} gamma{i % 3} words {i}"
             for i in range(40)]
    r0 = _store_round(tmp_path / "s0", urls, texts)
    idx = tmp_path / "idx"
    build_postings(r0, out_dir=str(idx))
    new = [f"http://h8.example/n{i}.html" for i in range(24)]
    for r in (1, 2):
        d = _store_round(tmp_path / f"s{r}", new[12 * (r - 1):12 * r],
                         [f"alpha{i} fresh{r} delta words"
                          for i in range(12)], n_files=4)
        stage_delta(str(idx), d)
    staged = [b for r in _staged_round_dirs(str(idx))
              for b in (r / "postings").glob("word_bucket=*")]
    buckets = sorted({int(b.name.split("=")[1]) for b in staged})
    main_files = list(idx.glob("word_bucket=*/*.parquet"))
    touched, counts = _fold(str(idx))
    assert touched == buckets
    assert counts == {"docs_read": 2, "main_read": len(main_files),
                      "main_rewritten": 0, "main_unlinked": 0,
                      "staged_read": len(staged), "written": len(buckets)}

    # re-fetch 6 old pages (one of them with no index token left)
    refetch = urls[:6]
    d = _store_round(tmp_path / "s3", refetch,
                     ["", *(f"zeta{i} words" for i in range(5))])
    gone = set(fnv1a64_arrow(pa.array(refetch)).tolist())
    main_files = sorted(idx.glob("word_bucket=*/*.parquet"))
    hits = [np.isin(pq.read_table(f, columns=["doc_seq"])["doc_seq"]
                    .to_numpy(), list(gone)) for f in main_files]
    r = update_postings_index_staged(str(idx), d, fold_threshold=0.0)
    stage_buckets = {_bucket(w) for w in ["words"]
                     + [f"zeta{i}" for i in range(5)]}
    assert set(r["fold_files"]) == set(FOLD_COUNTS)
    assert r["fold_files"] == {
        "docs_read": 1, "main_read": len(main_files),
        "main_rewritten": sum(h.any() and not h.all() for h in hits),
        "main_unlinked": sum(h.all() for h in hits),
        "staged_read": len(stage_buckets), "written": len(stage_buckets)}
    assert r["fold_files"]["main_rewritten"]
