"""Approximate-nearest-neighbor search over the embeddings table
(list<float> column) — the similarity-search component of a training-data
pipeline.

* ``brute_topk`` — exact cosine top-k: numpy matmul per batch against a
  broadcast query matrix (ray.put once), per-batch partial top-k, merged by
  a tiny grouped reduction. This is the oracle-checkable baseline.
* ``lsh_topk`` — random-hyperplane LSH bucketing (sign bits) as the scale
  path: vectors shuffle once into hash buckets; queries probe only their
  bucket (+ optional hamming-1 neighbors). Approximate -> rows-only check.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd


def recall_at_k(approx: pa.Table, exact: pa.Table) -> float:
    """Fraction of exact (query_id, vec_id) top-k pairs the approximate
    result recovered — the standard ANN recall@k metric. Both tables use
    the brute_topk output schema."""
    a = set(zip(approx["query_id"].to_pylist(), approx["vec_id"].to_pylist()))
    e = set(zip(exact["query_id"].to_pylist(), exact["vec_id"].to_pylist()))
    return len(a & e) / max(1, len(e))


def pair_recall(approx: pa.Table, exact: pa.Table,
                cols: tuple[str, str] = ("vec_a", "vec_b")) -> float:
    """Fraction of exact pairs an approximate pair scan recovered
    (embedding_near_dup_pairs-shaped tables)."""
    ca, cb = cols
    a = set(zip(approx[ca].to_pylist(), approx[cb].to_pylist()))
    e = set(zip(exact[ca].to_pylist(), exact[cb].to_pylist()))
    return len(a & e) / max(1, len(e))


def _load_queries(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return _query_matrix(t.filter(pc.less(t["vec_id"], n_queries)))


def _query_matrix(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec ids, unit-normalized float64 rows) of an embeddings table."""
    qids = t["vec_id"].to_numpy()
    Q = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    Q /= np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
    return qids, Q


def brute_topk(sf_dir: str, n_queries: int = 8, k: int = 5) -> pa.Table:
    """Exact cosine top-k of every query vector against the whole table
    (self-match excluded). Output (query_id, vec_id, score, rank) with
    score rounded to 4, rank 1..k by (-score, vec_id) — deterministic."""
    return _cosine_topk(sf_dir, *_load_queries(sf_dir, n_queries), k)


def _cosine_topk(sf_dir: str, qids: np.ndarray, Q: np.ndarray,
                 k: int) -> pa.Table:
    """brute_topk's scan for the given query rows (ids, unit vectors)."""
    q_ref = ray.put((qids, Q))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        qids_, Q_ = ray.get(q_ref)
        vids = batch["vec_id"].to_numpy()
        M = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        S = Q_ @ M.T                                   # (n_q, n_batch)
        out_q, out_v, out_s = [], [], []
        kk = min(k + 1, S.shape[1])                    # +1 to survive self-drop
        for qi in range(S.shape[0]):
            # deterministic partial top-k: argpartition keeps an arbitrary
            # subset among scores tied at the cut — widen to every row tied
            # with the kk-th score, then order by (-score, vec_id) like the
            # oracle's row_number tiebreak before cutting.
            part = np.argpartition(-S[qi], kk - 1)[:kk]
            cand = np.nonzero(S[qi] >= S[qi][part].min())[0]
            order = np.lexsort((vids[cand], -S[qi][cand]))
            part = cand[order[:kk]]
            out_q.append(np.full(len(part), qids_[qi], np.int64))
            out_v.append(vids[part].astype(np.int64))
            out_s.append(S[qi][part])
        return pa.table({"query_id": pa.array(np.concatenate(out_q)),
                         "vec_id": pa.array(np.concatenate(out_v)),
                         "score": pa.array(np.concatenate(out_s))})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["query_id"] != g["vec_id"]]            # drop self-match
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64),
                     score=np.round(g["score"].to_numpy(), 4))
        return g

    out = (ds.map_batches(partial_topk, batch_format="pyarrow", batch_size=4096)
             .groupby("query_id")
             .map_groups(merge, batch_format="pandas"))
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def train_centroids(ds: "rd.Dataset", n_clusters: int,
                    train_iters: int) -> np.ndarray:
    """Cosine k-means coarse quantizer (shared by ivf_topk and the dedup
    scale path): deterministic init from the first ``n_clusters`` vectors,
    then Lloyd iterations whose E-step runs as per-batch partial sums in
    map_batches — only (cluster, sum, count) partials reach the driver."""
    first = ds.take(n_clusters)
    C = np.stack([r["embedding"] for r in first]).astype(np.float64)
    C /= np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)

    for _ in range(train_iters):
        c_ref = ray.put(C)

        def partial(batch: pa.Table) -> pa.Table:
            C_ = ray.get(c_ref)
            M = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
            M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
            a = np.argmax(M @ C_.T, axis=1)          # cosine assignment
            sums = np.zeros_like(C_)
            np.add.at(sums, a, M)
            cnt = np.bincount(a, minlength=C_.shape[0])
            return pa.table({
                "cluster": pa.array(np.arange(C_.shape[0], dtype=np.int64)),
                "vsum": pa.array(sums.tolist(), pa.list_(pa.float64())),
                "n": pa.array(cnt.astype(np.int64))})

        acc = np.zeros_like(C)
        cnt = np.zeros(C.shape[0], np.int64)
        for b in (ds.map_batches(partial, batch_format="pyarrow")
                    .iter_batches(batch_size=4096, batch_format="pyarrow")):
            # np.add.at, NOT fancy-indexed +=: one driver batch holds one
            # partial row per cluster per INPUT batch, so cluster ids
            # repeat, and += silently keeps only the last duplicate.
            idx = b["cluster"].to_numpy()
            np.add.at(acc, idx, np.array(b["vsum"].to_pylist()))
            np.add.at(cnt, idx, b["n"].to_numpy())
        nz = cnt > 0
        C[nz] = acc[nz] / cnt[nz, None]
        C /= np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)
    return C


def ivf_topk(sf_dir: str, n_queries: int = 8, k: int = 5,
             n_clusters: int = 16, n_probe: int = 4,
             train_iters: int = 5) -> pa.Table:
    """IVF-flat approximate top-k (the inverted-file ANN family, Jégou et
    al. 2011 — public method): a k-means coarse quantizer is trained with
    Lloyd iterations whose E-step runs as per-batch partial sums in
    map_batches (only (cluster, sum, count) partials reach the driver —
    centroid state is dim-table-sized); vectors then shuffle ONCE into
    their cluster lists, and each query scans only its ``n_probe``
    nearest clusters. Output (query_id, vec_id, score) — approximate
    recall by design (rows-only check)."""
    qids, Q = _load_queries(sf_dir, n_queries)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    C = train_centroids(ds, n_clusters, train_iters)
    c_ref = ray.put(C)
    q_codes = np.argsort(-(Q @ C.T), axis=1)[:, :n_probe]   # probe lists
    probe: dict[int, list[int]] = {}
    for qi, cl in enumerate(q_codes):
        for c in cl:
            probe.setdefault(int(c), []).append(qi)
    probe_ref = ray.put((qids, Q, probe))

    def assign(batch: pa.Table) -> pa.Table:
        C_ = ray.get(c_ref)
        M = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        return pa.table({"vec_id": batch["vec_id"],
                         "embedding": batch["embedding"],
                         "code": pa.array(np.argmax(M @ C_.T, axis=1)
                                          .astype(np.int64))})

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        qids_, Q_, probe_ = ray.get(probe_ref)
        q_idx = probe_.get(int(g["code"].iloc[0]), [])
        if not q_idx:
            return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                                 "vec_id": pd.Series([], dtype=np.int64),
                                 "score": pd.Series([], dtype=np.float64)})
        M = np.stack(g["embedding"].to_list()).astype(np.float64)
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        vids = g["vec_id"].to_numpy()
        S = Q_[q_idx] @ M.T
        rows_q, rows_v, rows_s = [], [], []
        for r, qi in enumerate(q_idx):
            kk = min(k + 1, S.shape[1])
            part = np.argpartition(-S[r], kk - 1)[:kk]
            cand = np.nonzero(S[r] >= S[r][part].min())[0]
            order = np.lexsort((vids[cand], -S[r][cand]))
            part = cand[order[:kk]]
            rows_q.append(np.full(len(part), qids_[qi], np.int64))
            rows_v.append(vids[part].astype(np.int64))
            rows_s.append(S[r][part])
        return pd.DataFrame({"query_id": np.concatenate(rows_q),
                             "vec_id": np.concatenate(rows_v),
                             "score": np.concatenate(rows_s)})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["query_id"] != g["vec_id"]].drop_duplicates(["vec_id"])
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        return g.assign(score=np.round(g["score"].to_numpy(), 4))

    out = (ds.map_batches(assign, batch_format="pyarrow", batch_size=4096)
             .groupby("code")
             .map_groups(score_bucket, batch_format="pandas")
             .groupby("query_id")
             .map_groups(merge, batch_format="pandas"))
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def _hyperplanes(dim: int, n_bits: int, seed: int = 77) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((n_bits, dim))


def lsh_topk(sf_dir: str, n_queries: int = 8, k: int = 5, n_bits: int = 6,
             probe_hamming: int = 1) -> pa.Table:
    """LSH-bucketed approximate top-k: vectors are bucketed by the sign
    pattern of ``n_bits`` random hyperplanes (one shuffle); each query
    scans its own bucket plus every bucket within hamming distance
    ``probe_hamming`` (multi-probe — recall rises with the radius, score
    work grows ~C(bits, r) per extra hamming step; measured recall@k is
    pinned in tests/test_ann_recall.py). Scales as
    O(n / 2^bits x probed-buckets) score work per query vs O(n) brute
    force; recall is approximate by design. Output
    (query_id, vec_id, score)."""
    from itertools import combinations

    qids, Q = _load_queries(sf_dir, n_queries)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    # dim from the query matrix; hyperplanes fixed by seed
    H = _hyperplanes(Q.shape[1], n_bits)
    q_buckets = ((Q @ H.T) > 0).astype(np.int64)
    q_codes = (q_buckets * (1 << np.arange(n_bits))).sum(axis=1)
    flips = [0]
    for r in range(1, max(0, probe_hamming) + 1):
        flips.extend(sum(1 << b for b in bits)
                     for bits in combinations(range(n_bits), r))
    probe: dict[int, list[int]] = {}
    for qi, code in enumerate(q_codes):
        for f in flips:
            probe.setdefault(int(code) ^ f, []).append(qi)
    probe_ref = ray.put((qids, Q, probe))
    H_ref = ray.put(H)

    def bucket_stage(batch: pa.Table) -> pa.Table:
        H_ = ray.get(H_ref)
        M = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        codes = (((M @ H_.T) > 0).astype(np.int64)
                 * (1 << np.arange(H_.shape[0]))).sum(axis=1)
        return pa.table({"vec_id": batch["vec_id"],
                         "embedding": batch["embedding"],
                         "code": pa.array(codes)})

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        qids_, Q_, probe_ = ray.get(probe_ref)
        code = int(g["code"].iloc[0])
        q_idx = probe_.get(code, [])
        if not q_idx:
            return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                                 "vec_id": pd.Series([], dtype=np.int64),
                                 "score": pd.Series([], dtype=np.float64)})
        M = np.stack(g["embedding"].to_list()).astype(np.float64)
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        vids = g["vec_id"].to_numpy()
        S = Q_[q_idx] @ M.T
        rows_q, rows_v, rows_s = [], [], []
        for r, qi in enumerate(q_idx):
            kk = min(k + 1, S.shape[1])
            part = np.argpartition(-S[r], kk - 1)[:kk]
            cand = np.nonzero(S[r] >= S[r][part].min())[0]   # deterministic ties
            order = np.lexsort((vids[cand], -S[r][cand]))
            part = cand[order[:kk]]
            rows_q.append(np.full(len(part), qids_[qi], np.int64))
            rows_v.append(vids[part].astype(np.int64))
            rows_s.append(S[r][part])
        return pd.DataFrame({"query_id": np.concatenate(rows_q),
                             "vec_id": np.concatenate(rows_v),
                             "score": np.concatenate(rows_s)})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["query_id"] != g["vec_id"]].drop_duplicates(["vec_id"])
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        return g.assign(score=np.round(g["score"].to_numpy(), 4))

    out = (ds.map_batches(bucket_stage, batch_format="pyarrow", batch_size=4096)
             .groupby("code")
             .map_groups(score_bucket, batch_format="pandas")
             .groupby("query_id")
             .map_groups(merge, batch_format="pandas"))
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def mmr_topk(sf_dir: str, query_id: int = 0, k: int = 5,
             lam: float = 0.7, pool: int = 20) -> pa.Table:
    """Maximal Marginal Relevance (Carbonell & Goldstein 1998) diversified
    retrieval: greedily pick k results maximizing
    lam * sim(q, c) - (1 - lam) * max_{s in selected} sim(c, s) —
    relevance traded against redundancy (the diverse-sampling primitive a
    training-data pipeline uses to avoid near-identical picks).

    Scale shape: the candidate POOL (top-``pool`` by cosine, self
    excluded) comes from the distributed brute-force pass (per-batch
    partial top-k; at real scale swap in ivf_topk's pruned scan) — the
    greedy loop then runs on the driver over the pool's (pool x pool)
    similarity matrix, which is bounded by ``pool``, never the corpus.
    Deterministic: ties break on vec_id asc; the first pick is the plain
    cosine top-1. Output (rank, vec_id, relevance, mmr_score)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    qpos = np.nonzero(ids == query_id)[0]
    empty = pa.table({"rank": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "relevance": pa.array([], pa.float64()),
                      "mmr_score": pa.array([], pa.float64())})
    if not len(qpos):
        return empty
    qids, Q = _query_matrix(t.take(qpos))
    cand_ids = _cosine_topk(sf_dir, qids, Q, k=pool)["vec_id"].to_numpy()
    if not len(cand_ids):
        return empty

    # pool-sized vector fetch for the pairwise-redundancy matrix
    sel = t.filter(pc.is_in(t["vec_id"],
                            value_set=pa.array([int(c) for c in cand_ids]
                                               + [int(query_id)])))
    sids = sel["vec_id"].to_numpy()
    M = np.stack(sel["embedding"].to_pylist()).astype(np.float64)
    M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    pos = {int(v): i for i, v in enumerate(sids)}
    q = M[pos[int(query_id)]]
    cand = [int(c) for c in cand_ids]
    rel = {c: float(M[pos[c]] @ q) for c in cand}
    S = M @ M.T

    chosen: list[tuple[int, float]] = []
    remaining = sorted(cand)
    while remaining and len(chosen) < k:
        best, best_v = None, -np.inf
        for c in remaining:             # pool-sized, deterministic order
            red = max((S[pos[c], pos[s]] for s, _ in chosen), default=0.0)
            v = lam * rel[c] - (1.0 - lam) * red
            if v > best_v or (v == best_v and (best is None or c < best)):
                best, best_v = c, v
        chosen.append((best, float(best_v)))
        remaining.remove(best)
    return pa.table({
        "rank": pa.array(range(1, len(chosen) + 1), pa.int64()),
        "vec_id": pa.array([c for c, _ in chosen], pa.int64()),
        "relevance": pa.array(np.round([rel[c] for c, _ in chosen], 4)),
        "mmr_score": pa.array(np.round([v for _, v in chosen], 4)),
    })
