"""Small runtime helpers shared by pipelines.

Repo-wide collect convention: every ``ds.to_arrow_refs()`` call goes
through ``ds.materialize().to_arrow_refs()``. On a non-materialized plan,
``to_arrow_refs`` executes the plan for the blocks and then AGAIN
(limit=1, which still pays any upstream sort/shuffle in full) for its
schema probe — a measured ~2x on collect-style queries. ``materialize()``
caches blocks + schema so the plan runs exactly once; the collected
results here are small (aggregates, top-k, signature tables), so pinning
them is free."""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
from pathlib import Path
from typing import Callable

import numpy as np
import pyarrow as pa
import ray


@ray.remote
def _worker_unique_i64(refs: list, column: str) -> np.ndarray:
    # len(), not num_rows: an empty block may come back as pandas
    blocks = [b for b in ray.get(list(refs)) if len(b)]
    if not blocks:
        return np.empty(0, np.int64)
    return np.unique(
        np.concatenate([b[column].to_numpy() for b in blocks]).astype(np.int64))


def unique_keys_ref(ds, column: str) -> "ray.ObjectRef":
    """Distinct int64 values of a Dataset column, reduced ON A WORKER task.
    ``to_arrow_refs`` hands over block refs only, so no row ever passes
    through the driver — it holds one ObjectRef to the sorted unique array
    (the broadcast side of a map-side semi/anti join)."""
    return _worker_unique_i64.remote(ds.materialize().to_arrow_refs(), column)


@ray.remote
def _worker_sorted_lookup(refs: list, key_col: str, val_col: str):
    blocks = [b for b in ray.get(list(refs)) if b.num_rows]
    if not blocks:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    t = pa.concat_tables(blocks)
    k = t[key_col].to_numpy().astype(np.int64)
    v = t[val_col].to_numpy()
    order = np.argsort(k, kind="stable")
    return k[order], v[order]


def sorted_lookup_ref(ds, key_col: str, val_col: str) -> "ray.ObjectRef":
    """(sorted unique keys, aligned values) lookup arrays built ON A WORKER
    from a Dataset's block refs — the vectorized broadcast-join side:
    readers ``ray.get`` the ref once per actor and probe with
    ``np.searchsorted``. Keys are assumed unique (a primary key)."""
    return _worker_sorted_lookup.remote(ds.materialize().to_arrow_refs(), key_col, val_col)


def join_partitions(default: int = 8) -> int:
    """Partition count for native Dataset.join: hash-shuffle aggregator
    actors reserve ~1 CPU each, so more partitions than cluster CPUs
    deadlocks a small cluster (actors pend forever). Cap the default by
    the cluster's CPU count; at real scale pass the default through."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", default))
    except Exception:
        cpus = default
    return min(default, max(1, cpus))


def actor_pool(lo: int = 2) -> tuple[int, int]:
    """Autoscaling (min, max) concurrency for a stateful fact-table scan
    stage: scale up to the cluster's CPUs (each map_batches actor holds
    one by default) instead of a fixed tiny pool that caps a 100-TB scan
    at two cores. Ray's streaming executor only spawns actors while the
    stage has queued blocks, so the max is a ceiling, not a reservation."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", lo))
    except Exception:
        cpus = lo
    return (lo, max(lo, cpus))


def file_ids(path: str) -> list[list]:
    """[relative name, size, mtime_ns] of each parquet file under the
    dir ``path`` (a rewrite in place leaves the dir's own stat as is)."""
    p = Path(path)
    return [[str(f.relative_to(p)), st.st_size, st.st_mtime_ns]
            for f, st in ((f, f.stat()) for f in sorted(p.rglob("*.parquet")))]


def source_key(path: str, tag: str) -> str:
    """Disk-cache key of a product derived from ``path``: a digest of the
    resolved path and the size and mtime of every source file. A file
    stands for itself; a directory stands for every parquet file under it
    (``file_ids``). ``tag`` versions the product's format."""
    p = Path(path).resolve()
    if p.is_dir():
        ident = ",".join(f"{n}:{size}:{mtime}" for n, size, mtime in file_ids(p))
    else:
        st = p.stat()
        ident = f"{st.st_size}:{st.st_mtime_ns}"
    return hashlib.blake2s(f"{p}:{ident}:{tag}".encode(),
                           digest_size=8).hexdigest()


def build_once(out: "str | Path", build: Callable[[Path], None]) -> Path:
    """Materialize the cache directory ``out`` unless it exists:
    ``build(tmp)`` fills a directory unique to this process and thread,
    which is then renamed into place atomically. Concurrent builders race
    benignly: the first rename wins, the losers discard their copies."""
    out = Path(out)
    if out.exists():
        return out
    tmp = Path(f"{out}.tmp{os.getpid()}.{threading.get_ident()}")
    tmp.mkdir(parents=True, exist_ok=True)
    build(tmp)
    try:
        tmp.rename(out)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # another builder won
    return out


_SOURCE_FILE = "_source.txt"   # the resolved source path of a cache entry


def cached_build(root: "str | Path", source: str, tag: str,
                 build: Callable[[Path], None]) -> str:
    """The cache entry under ``root`` of the product ``build`` derives
    from ``source`` (keyed by ``source_key(source, tag)``, made by
    ``build_once``). Each new entry records its resolved source path; a
    build (a miss, never a hit) then removes the sibling entries whose
    recorded source no longer exists, so scratch stores and tables do not
    pile up. Entries without a record are left alone."""
    root = Path(root)
    out = root / source_key(source, tag)
    if out.exists():
        return str(out)

    def build_recorded(tmp: Path) -> None:
        build(tmp)
        (tmp / _SOURCE_FILE).write_text(str(Path(source).resolve()))

    build_once(out, build_recorded)
    for rec in root.glob(f"*/{_SOURCE_FILE}"):
        if rec.parent == out or ".tmp" in rec.parent.name:
            continue   # this entry, or another builder's work in progress
        try:
            gone = not Path(rec.read_text()).exists()
        except OSError:   # swept meanwhile by a concurrent builder
            continue
        if gone:
            shutil.rmtree(rec.parent, ignore_errors=True)
    return str(out)
