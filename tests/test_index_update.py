"""Incremental delta→main index refresh (S7/O21): updating an existing
word_bucket-partitioned postings index with one round's stored pages must
equal a full rebuild over the final corpus state, bitwise after merge."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from aspseek_ray.functions.hashing import fnv1a64
from aspseek_ray.pipelines.index_products import (
    build_postings,
    merge_postings,
    update_postings_index_staged,
)


def _merged_table(postings_ds) -> pa.Table:
    tabs = [t for t in ray.get(merge_postings(postings_ds).to_arrow_refs())
            if t.num_rows]          # empty groups lose their schema
    t = pa.concat_tables(tabs).select(["word", "df", "doc_seqs", "positions"])
    return t.sort_by("word").combine_chunks()


def _write_pages(path, urls, texts):
    pq.write_table(pa.table({"url": pa.array(urls, pa.string()),
                             "text": pa.array(texts, pa.string())}), path)


def test_incremental_update_equals_rebuild(ray_session, tmp_path):
    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa",
             "theta", "lambda", "zeta"]
    urls = [f"http://h{i % 5}.example/p{i}.html" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(5, 20)))
             for _ in urls]
    _write_pages(tmp_path / "round0.parquet", urls, texts)

    # round 1: 10 docs change (their new text DROPS some old words — the
    # replace-not-append case), 5 brand-new docs appear
    upd_urls = urls[10:20]
    upd_texts = ["omega only here " + vocab[i % 3] for i in range(10)]
    new_urls = [f"http://h9.example/new{i}.html" for i in range(5)]
    new_texts = ["zeta kappa fresh page " + vocab[i] for i in range(5)]
    _write_pages(tmp_path / "round1.parquet",
                 upd_urls + new_urls, upd_texts + new_texts)

    # final corpus state = round0 with the 10 texts replaced, + the 5 new
    final_urls = urls + new_urls
    final_texts = (texts[:10] + upd_texts + texts[20:]) + new_texts
    _write_pages(tmp_path / "final.parquet", final_urls, final_texts)

    idx = str(tmp_path / "idx")
    build_postings(str(tmp_path / "round0.parquet"), out_dir=idx)
    touched = update_postings_index_staged(
        idx, str(tmp_path / "round1.parquet"), fold_threshold=0.0)["touched"]
    assert touched  # something was rewritten

    from aspseek_ray.pipelines.index_products import _read_bucketed_postings
    import ray.data as rd

    inc = _merged_table(_read_bucketed_postings(idx))
    full = _merged_table(build_postings(str(tmp_path / "final.parquet")))
    assert inc.equals(full)

    # idempotence: re-applying the same round changes nothing
    update_postings_index_staged(idx, str(tmp_path / "round1.parquet"),
                                 fold_threshold=0.0)
    assert _merged_table(_read_bucketed_postings(idx)).equals(full)


def test_incremental_update_purges_docs(ray_session, tmp_path):
    urls = [f"http://h0.example/p{i}.html" for i in range(6)]
    texts = [f"common word{i} shared tail" for i in range(6)]
    _write_pages(tmp_path / "r0.parquet", urls, texts)
    _write_pages(tmp_path / "r1.parquet", [urls[0]], ["common rewritten"])

    idx = str(tmp_path / "idx")
    build_postings(str(tmp_path / "r0.parquet"), out_dir=idx)
    gone = [fnv1a64(urls[5].encode())]
    update_postings_index_staged(idx, str(tmp_path / "r1.parquet"),
                                 purge_doc_seqs=gone, fold_threshold=0.0)

    _write_pages(tmp_path / "final.parquet", [urls[0]] + urls[1:5],
                 ["common rewritten"] + texts[1:5])
    from aspseek_ray.pipelines.index_products import _read_bucketed_postings

    inc = _merged_table(_read_bucketed_postings(idx))
    full = _merged_table(build_postings(str(tmp_path / "final.parquet")))
    assert inc.equals(full)


def test_update_recovers_from_crashed_swap(ray_session, tmp_path):
    """A run that died between the stash and install renames leaves
    .old_bucket=K with the bucket dir missing; the next update must
    restore it and still equal the full rebuild."""
    import shutil
    from pathlib import Path

    urls = [f"http://h{i % 4}.example/p{i}.html" for i in range(24)]
    texts = [f"alpha{i % 5} beta{i % 3} steady words here" for i in range(24)]
    _write_pages(tmp_path / "r0.parquet", urls, texts)
    _write_pages(tmp_path / "r1.parquet", urls[:6],
                 [f"rewritten gamma{i}" for i in range(6)])
    idx = tmp_path / "idx"
    build_postings(str(tmp_path / "r0.parquet"), out_dir=str(idx))

    # simulate the mid-swap crash on one bucket
    victim = next(d for d in idx.glob("word_bucket=*"))
    k = victim.name.split("=")[1]
    victim.rename(idx / f".old_bucket={k}")
    # and a stale stash whose bucket still exists (post-install crash)
    survivor = next(d for d in idx.glob("word_bucket=*"))
    k2 = survivor.name.split("=")[1]
    shutil.copytree(survivor, idx / f".old_bucket={k2}")

    update_postings_index_staged(str(idx), str(tmp_path / "r1.parquet"),
                                 fold_threshold=0.0)
    assert not list(idx.glob(".old_bucket=*"))

    from aspseek_ray.pipelines.index_products import _read_bucketed_postings

    _write_pages(tmp_path / "final.parquet",
                 urls[:6] + urls[6:],
                 [f"rewritten gamma{i}" for i in range(6)] + texts[6:])
    inc = _merged_table(_read_bucketed_postings(str(idx)))
    full = _merged_table(build_postings(str(tmp_path / "final.parquet")))
    assert inc.equals(full)


def test_staged_refresh_folding_every_round_equals_rebuild(ray_session,
                                                          tmp_path):
    """update_postings_index_staged with fold_threshold=0 stages the
    round and folds it at once, and the folded index equals a rebuild
    over the final corpus state."""
    from aspseek_ray.pipelines.index_products import _read_bucketed_postings

    urls = [f"http://h{i % 3}.example/p{i}.html" for i in range(30)]
    texts = [f"tok{i % 7} tok{i % 11} stable suffix words" for i in range(30)]
    _write_pages(tmp_path / "r0.parquet", urls, texts)
    _write_pages(tmp_path / "r1.parquet", urls[:8],
                 [f"replaced body tok{i}" for i in range(8)])

    idx = str(tmp_path / "idx")
    build_postings(str(tmp_path / "r0.parquet"), out_dir=idx)
    r = update_postings_index_staged(idx, str(tmp_path / "r1.parquet"),
                                     fold_threshold=0.0)
    assert r["folded"] and r["touched"]
    _write_pages(tmp_path / "final.parquet", urls,
                 [f"replaced body tok{i}" for i in range(8)] + texts[8:])
    full = _merged_table(build_postings(str(tmp_path / "final.parquet")))
    assert _merged_table(_read_bucketed_postings(idx)).equals(full)


def test_build_postings_rejects_a_dir_without_parquet(ray_session, tmp_path):
    """A directory holding no parquet file is bad input: build_postings
    and update_postings_index_staged name the path in a ValueError."""
    import pytest

    empty = tmp_path / "no_parts"
    empty.mkdir()
    with pytest.raises(ValueError, match=str(empty)):
        build_postings(str(empty))
    index = tmp_path / "index"
    index.mkdir()
    with pytest.raises(ValueError, match=str(empty)):
        update_postings_index_staged(str(index), str(empty))
