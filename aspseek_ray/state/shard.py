"""Frontier + URL-seen shard actor (SURVEY.md T1 + O16 + T3; reference:
MySQL `url` table unique-key seen-set + in-memory href hash in
src/hrefs.cpp, per-server politeness bookkeeping in src/index.cpp,
robots cache).

One ``CrawlShard`` owns a contiguous LEXICOGRAPHIC RANGE of hosts (range
partitioning via ``shard_of_hosts`` — boundaries cut from host samples of
the seed and robots tables) — so a host's politeness heap, its robots
rules and the seen-entries of all its URLs are co-located on exactly one
actor (url -> host is a function, so seen-by-url and frontier-by-host
shard identically).
Range (not hash) partitioning makes the global trace order
(host-lex, pop-order) equal to (shard_id, shard-local order), so the dense
``fetch_seq`` is a shard's start (S prefix-summed counts) plus a
SHARD-LOCAL row index. A round costs two actor calls per shard, both
made by the driver: ``pop_emit`` pops, tags each row with that index and
returns one piece per task group as its own return value (the round
tasks stamp fetch_seq), and ``offer_round`` stages the candidates the
round's tasks returned for the shard. Only the driver calls a shard, so
Ray's per-caller order of actor calls puts every offer of a round before
the next pop, snapshot or reset. The shard puts nothing in the object
store itself and calls no other actor; the driver passes refs and reads
no row.
The pool of S shards IS the explicit partitioning of the mutable crawl
state (north_rule: 10^10-URL frontier = many shards across nodes; hot-host
skew is bounded by the per-round budget; a backlogged host costs heap
memory only — at 10^10-URL scale raise num_shards so each shard's backlog
fits its node, and spill cold heap tails to the per-shard frontier parquet
if needed). Range-boundary skew: cut points are even quantiles of bounded
host samples of the seeds (weighted by URL mass) and robots tables, drawn
by worker tasks at first init; at real scale re-derive them from a
frontier sample and migrate shard state on rebalance (snapshot -> restore
with new bounds).

Determinism contract (matches tests/ref_sim.py exactly):
  * offers for round K+1 arrive between ``pop_round`` K and K+1 and are
    STAGED: per url the offer with the smallest discovery_seq wins,
    regardless of the order of the batches (a round's tasks finish in any
    order);
  * ``pop_round`` flushes staging into per-host heaps, then pops up to the
    host's effective budget (crawl-delay aware) in (depth, discovery_seq)
    order;
  * the seen-check rejects urls seen in PREVIOUS rounds; same-round
    duplicates are resolved by the staging min-rule.

Fast path: a cuckoo filter over url_hash answers "definitely new" without
touching the exact set; on "maybe seen" the exact url set decides (EXACT
answers always — false positives never drop URLs).
"""

from __future__ import annotations

import heapq
import re
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from aspseek_ray.config import CrawlConfig
from aspseek_ray.state.cuckoo import CuckooFilter


def host_shard_bounds(hosts: list[str], num_shards: int) -> list[str]:
    """S-1 lexicographic cut points: even quantiles of the sorted input
    WITH multiplicity — pass hosts weighted by expected URL mass (e.g. one
    entry per seed URL) so web-scale host-size skew (zipf: a handful of
    hosts owning most URLs) is balanced across shards, not just the host
    COUNT. A host above 1/S of total mass yields repeated cut values (its
    neighbors' shards go empty) — that host's work is irreducibly serial
    under per-host politeness anyway. Hosts never seen before still route
    deterministically (searchsorted against the cuts)."""
    if num_shards <= 1:
        return []
    u = sorted(hosts)
    if not u:
        return []
    return [u[min(len(u) - 1, (i * len(u)) // num_shards)]
            for i in range(1, num_shards)]


def shard_of_hosts(bounds: list[str], hosts) -> np.ndarray:
    """Vectorized host -> shard_id under lex-range partitioning. ``hosts``
    is any sequence of str (list / numpy object array / arrow column via
    to_pylist). Python string comparison semantics (object dtype) so the
    order agrees exactly with sorted() in the normative simulator."""
    arr = np.asarray(hosts, dtype=object)
    if not bounds:
        return np.zeros(len(arr), dtype=np.int64)
    return np.searchsorted(np.array(bounds, dtype=object), arr, side="right")


def host_range_filter(lo: str | None, hi: str | None):
    """Arrow filter ``lo <= host < hi`` (``None`` = unbounded) selecting
    the hosts ``shard_of_hosts`` routes to shard s when ``lo, hi`` are
    its neighbouring cut points ``bounds[s-1], bounds[s]``. Arrow orders
    strings by UTF-8 bytes, which is code-point order — Python's."""
    # imported here: every shard actor process imports this module but
    # never filters, and pyarrow.compute is a slow import
    import pyarrow.compute as pc

    cond = None
    if lo is not None:
        cond = pc.field("host") >= lo
    if hi is not None:
        below = pc.field("host") < hi
        cond = below if cond is None else cond & below
    return cond


class CrawlShard:
    """Run as a Ray actor (``ray.remote(CrawlShard)``); a plain class
    here so unit tests can drive it without a cluster. A pooled actor
    serves its next crawl through ``reset``."""

    def __init__(self, shard_id: int, cfg: CrawlConfig,
                 robots_rows: pa.Table | None = None,
                 cuckoo_capacity: int = 1 << 20,
                 follow_hosts: list[str] | None = None,
                 follow_prefixes: list[str] | None = None,
                 spill_dir: str | None = None):
        self.shard_id = shard_id
        self.cfg = cfg
        self.filters = [re.compile(p) for p in self.cfg.disallow_patterns]
        # follow mode (O3, reference `Server [mode] URL`): this shard's
        # slice of the seed host set / seed directory prefixes. A prefix
        # embeds scheme://host/, so a url can only match its own host's
        # prefixes — per-shard slices are exact.
        self.follow_mode = self.cfg.follow_mode
        self.follow_hosts = frozenset(follow_hosts or ())
        pref_of: dict[str, list[str]] = {}
        from aspseek_ray.functions.url import host_of

        for p in (follow_prefixes or ()):
            pref_of.setdefault(host_of(p), []).append(p)
        self.follow_prefix_of = {h: tuple(v) for h, v in pref_of.items()}
        # robots: host -> (tuple rules, delay_ms); only rows for my hosts are
        # passed in (pre-partitioned), loaded once per crawl (T3).
        self.robots: dict[str, tuple[tuple[str, ...], int]] = {}
        # offer() fast path: '?'-free Disallow rules check as a plain
        # str.startswith(tuple) on the url's path+query slice (paths can't
        # contain '?', so equivalence with urlsplit().path is exact); rules
        # WITH '?' keep the urlsplit fallback.
        self._robots_clean: dict[str, tuple[str, ...]] = {}
        self._robots_dirty: dict[str, tuple[str, ...]] = {}
        if robots_rows is not None:
            for h, r, d in zip(robots_rows["host"].to_pylist(),
                               robots_rows["rules"].to_pylist(),
                               robots_rows["crawl_delay_ms"].to_pylist()):
                rules = tuple(r or ())
                self.robots[h] = (rules, int(d or 0))
                clean = tuple(x for x in rules if "?" not in x)
                dirty = tuple(x for x in rules if "?" in x)
                if clean:
                    self._robots_clean[h] = clean
                if dirty:
                    self._robots_dirty[h] = dirty
        # offer() vectorized prefilter: fnv1a64 hashes of hosts that have
        # ANY robots rule — rows whose host_hash is not in this array
        # (np.isin, one vector op per batch) skip every per-row robots
        # check. Valid because host_hash is the pinned fnv1a64(host)
        # (same contract as url_hash below).
        from aspseek_ray.functions.hashing import fnv1a64 as _fnv

        ruled_hosts = set(self._robots_clean) | set(self._robots_dirty)
        self._ruled_hashes = np.sort(np.fromiter(
            (_fnv(h) for h in ruled_hosts), np.int64, len(ruled_hosts)))
        self.seen: set[str] = set()            # exact truth (urls of my hosts)
        self.cuckoo = CuckooFilter(cuckoo_capacity, seed=shard_id)
        # url -> (depth, seq, host, url_hash); url_hash is the caller-provided
        # hash (fnv1a64 everywhere) so cuckoo insert/check stay consistent.
        self.staged: dict[str, tuple[int, int, str, int]] = {}
        self.heaps: dict[str, list] = {}       # host -> [(depth, seq, url, uh)]
        # the last round slice pop_emit handed out, held until the next
        # pop so push_back can return the rows a max_docs cap cut
        self._popped: pa.Table | None = None
        # backlog spill (SURVEY §4 hot-host sub-partitioning): a host's
        # in-memory heap is capped at cfg.host_heap_cap; the tail lives in
        # sorted parquet RUNS on disk. EXACT invariant: every in-heap entry
        # orders before every spilled/overflow entry (spill_min), so heap
        # pops remain globally ordered; reload merges runs when the heap
        # drains.
        self.spill_dir = spill_dir
        self.spill_runs: dict[str, list[Path]] = {}   # host -> run files
        self.spill_min: dict[str, tuple] = {}         # host -> min spilled entry
        self.spill_rows: dict[str, int] = {}          # host -> spilled row count
        self.overflow: dict[str, list] = {}           # host -> pending >= spill_min
        self._run_seq = 0
        self.n_offered = 0
        self.n_rejected_seen = 0
        self.n_rejected_filtered = 0
        self.n_dup_in_round = 0               # offers of a url already staged

    def reset(self, *args, **kwargs) -> None:
        """Take the constructor's arguments and re-run it in place, so a
        pooled actor process serves a new crawl without a respawn. Every
        attribute is dropped first: no state of the previous crawl
        survives."""
        self.__dict__.clear()
        self.__init__(*args, **kwargs)

    # ------------------------------------------------------------------ offer
    def offer_round(self, *batches: pa.Table | None) -> dict:
        """Stage one round's candidates for this shard: the tables the
        round's tasks (or the seed pass's tasks) returned for it, None
        where a task had none. The driver makes this one call per shard
        per round. Returns the call's counters, where ``offered`` =
        ``rejected_seen + rejected_filtered + staged + dup_in_round``."""
        before = self._counters()
        staged = sum(self.offer(b) for b in batches if b is not None)
        out = {k: v - before[k] for k, v in self._counters().items()}
        out["staged"] = staged
        return out

    def offer(self, batch: pa.Table) -> int:
        """Stage candidate urls (columns url, url_hash, host, depth,
        discovery_seq). Returns number of urls newly staged (not previously
        seen). Arrival-order independent.

        CONTRACT: url_hash MUST be fnv1a64(url) — the engine-wide pinned
        hash (snapshot/restore rebuilds the cuckoo from recomputed fnv
        hashes, so a caller using a different hash would defeat the fast
        path after resume)."""
        n = batch.num_rows
        self.n_offered += n
        if n == 0:
            return 0
        batch = batch.combine_chunks()
        depths = np.asarray(batch["depth"], dtype=np.int64)
        hashes = np.asarray(batch["url_hash"], dtype=np.int64)
        rows = np.nonzero(depths <= self.cfg.max_hops)[0]   # O3, vectorized
        self.n_rejected_filtered += int(n - len(rows))
        if len(rows) == 0:
            return 0
        urls = batch["url"].to_pylist()
        hosts = batch["host"].to_pylist()
        seqs = batch["discovery_seq"].to_pylist()
        maybe_seen = self.cuckoo.contains_many(hashes[rows]).tolist()
        # vectorized reject prefilter (VERDICT r2 #7): in the common config
        # (follow world, no disallow regexes) a row only needs per-row
        # robots checks when its host HAS rules — one np.isin against the
        # ruled-host hash set replaces 4 dict probes + str ops per row.
        ruled = None
        if (self.follow_mode == "world" and not self.filters
                and "host_hash" in batch.schema.names):
            if len(self._ruled_hashes):
                hh = np.asarray(batch["host_hash"], dtype=np.int64)[rows]
                idx = np.searchsorted(self._ruled_hashes, hh)
                idx[idx == len(self._ruled_hashes)] = 0
                ruled = (self._ruled_hashes[idx] == hh).tolist()
            else:
                ruled = [False] * len(rows)
        depths_l = depths.tolist()
        hashes_l = hashes.tolist()
        clean_of = self._robots_clean
        dirty_of = self._robots_dirty
        filters = self.filters
        staged = self.staged
        seen = self.seen
        n_new = 0
        follow_mode = self.follow_mode
        follow_hosts = self.follow_hosts
        follow_prefix_of = self.follow_prefix_of
        for k, i in enumerate(rows.tolist()):
            url = urls[i]
            host = hosts[i]
            if ruled is None or ruled[k]:
                if follow_mode == "site" and host not in follow_hosts:
                    self.n_rejected_filtered += 1
                    continue
                if follow_mode == "path":
                    fp = follow_prefix_of.get(host)
                    if fp is None or not url.startswith(fp):
                        self.n_rejected_filtered += 1
                        continue
                pref = clean_of.get(host)
                if pref is not None:
                    slash = url.find("/", 8)  # first '/' after scheme://
                    # pathless raw URL (canonicalize() adds '/') → path '/'
                    path = url[slash:] if slash >= 0 else "/"
                    if path.startswith(pref):
                        self.n_rejected_filtered += 1
                        continue
                dirty = dirty_of.get(host)
                if dirty and self._robots_denied(url, dirty):
                    self.n_rejected_filtered += 1
                    continue
                if filters and any(f.search(url) for f in filters):
                    self.n_rejected_filtered += 1
                    continue
            if maybe_seen[k] and url in seen:  # exact check only on cuckoo hit
                self.n_rejected_seen += 1
                continue
            seq = seqs[i]
            cur = staged.get(url)
            if cur is None:
                staged[url] = (depths_l[i], seq, host, hashes_l[i])
                n_new += 1
            else:
                self.n_dup_in_round += 1
                if seq < cur[1]:
                    staged[url] = (depths_l[i], seq, host, hashes_l[i])
        return n_new

    @staticmethod
    def _robots_denied(url: str, rules: tuple[str, ...]) -> bool:
        path = urlsplit(url).path or "/"
        return any(path.startswith(r) for r in rules)

    # ------------------------------------------------------------- spill
    def _has_backlog(self, host: str) -> bool:
        return host in self.spill_runs or host in self.overflow

    def _entries_table(self, entries: list) -> pa.Table:
        return pa.table({
            "depth": pa.array([e[0] for e in entries], pa.int32()),
            "discovery_seq": pa.array([e[1] for e in entries], pa.int64()),
            "url": pa.array([e[2] for e in entries], pa.string()),
            "url_hash": pa.array([e[3] for e in entries], pa.int64()),
        })

    def _write_run(self, host: str, entries_sorted: list) -> None:
        d = Path(self.spill_dir) / f"shard={self.shard_id}"
        d.mkdir(parents=True, exist_ok=True)
        self._run_seq += 1
        from aspseek_ray.functions.hashing import fnv1a64

        f = d / f"run-{abs(fnv1a64(host)) & 0xFFFFFFFF:08x}-{self._run_seq}.parquet"
        pq.write_table(self._entries_table(entries_sorted), f)
        self.spill_runs.setdefault(host, []).append(f)
        self.spill_rows[host] = self.spill_rows.get(host, 0) + len(entries_sorted)
        cur = self.spill_min.get(host)
        if cur is None or entries_sorted[0] < cur:
            self.spill_min[host] = entries_sorted[0]

    def _cap_host(self, host: str) -> None:
        cap = self.cfg.host_heap_cap
        if not cap or self.spill_dir is None:
            return
        ov = self.overflow.get(host)
        if ov and len(ov) >= cap:
            ov.sort()
            self._write_run(host, ov)
            del self.overflow[host]
        hp = self.heaps.get(host)
        if hp and len(hp) > cap:
            hp.sort()
            keep = max(1, cap // 2)
            self._write_run(host, hp[keep:])
            self.heaps[host] = hp[:keep]      # a sorted list IS a valid heap

    def _reload(self, host: str) -> None:
        """Merge this host's spill runs + overflow (+ heap leftovers) back,
        keeping the best cap//2 in the heap and re-spilling the rest."""
        entries = list(self.heaps.get(host, ()))
        entries.extend(self.overflow.pop(host, ()))
        for f in self.spill_runs.pop(host, []):
            t = pq.read_table(f)
            entries.extend(zip(t["depth"].to_pylist(),
                               t["discovery_seq"].to_pylist(),
                               t["url"].to_pylist(),
                               t["url_hash"].to_pylist()))
            f.unlink()
        self.spill_min.pop(host, None)
        self.spill_rows.pop(host, None)
        entries.sort()
        cap = self.cfg.host_heap_cap
        keep = max(1, cap // 2) if cap else len(entries)
        if cap and len(entries) > cap:
            self.heaps[host] = entries[:keep]
            self._write_run(host, entries[keep:])
        else:
            self.heaps[host] = entries

    # -------------------------------------------------------------- pop_round
    def _flush(self) -> None:
        """Move staged offers into seen + heaps. Deterministic once all of a
        round's offers have arrived (min-seq resolution is order-free);
        called at pop_round and before snapshot."""
        if not self.staged:
            return
        hashes = np.empty(len(self.staged), dtype=np.int64)
        by_host: dict[str, list] = {}
        for i, (url, (depth, seq, host, uh)) in enumerate(self.staged.items()):
            self.seen.add(url)
            by_host.setdefault(host, []).append((depth, seq, url, uh))
            hashes[i] = uh
        for host, items in by_host.items():
            smin = self.spill_min.get(host)
            if smin is not None:              # spill invariant: >= spill_min
                worse = [e for e in items if e >= smin]
                if worse:
                    self.overflow.setdefault(host, []).extend(worse)
                    items = [e for e in items if e < smin]
                    if not items:
                        self._cap_host(host)
                        continue
            hp = self.heaps.get(host)
            if hp is None:
                heapq.heapify(items)          # O(k) bulk build
                self.heaps[host] = items
            elif len(items) > len(hp):        # merge-by-heapify beats k pushes
                hp.extend(items)
                heapq.heapify(hp)
            else:
                for it in items:
                    heapq.heappush(hp, it)
            self._cap_host(host)
        self.cuckoo.insert_many(hashes)
        self.staged = {}

    def pop_round(self) -> pa.Table:
        """Flush staging, then pop up to the per-host effective budget in
        (depth, discovery_seq) order, hosts in lexicographic order — so the
        returned table is already in the shard-local slice of the global
        (host-lex, pop-order) trace order."""
        self._flush()
        hosts_out, urls_out, depths_out, seqs_out, pops_out, hashes_out = [], [], [], [], [], []
        all_hosts = set(self.heaps) | set(self.spill_runs) | set(self.overflow)
        for host in sorted(all_hosts):
            hp = self.heaps.get(host)
            if not hp and self._has_backlog(host):
                self._reload(host)
                hp = self.heaps.get(host)
            if not hp:
                self.heaps.pop(host, None)
                continue
            _, delay = self.robots.get(host, ((), 0))
            budget = self.cfg.effective_budget(delay)
            for pop_idx in range(budget):
                if not hp:
                    if not self._has_backlog(host):
                        break
                    self._reload(host)        # exact: spilled entries all
                    hp = self.heaps[host]     # order after drained heap
                    if not hp:
                        break
                depth, seq, url, uh = heapq.heappop(hp)
                hosts_out.append(host)
                urls_out.append(url)
                depths_out.append(depth)
                seqs_out.append(seq)
                pops_out.append(pop_idx)
                hashes_out.append(uh)
            if not hp and not self._has_backlog(host):
                del self.heaps[host]
        return pa.table(
            {
                "host": pa.array(hosts_out, type=pa.string()),
                "url": pa.array(urls_out, type=pa.string()),
                "depth": pa.array(depths_out, type=pa.int32()),
                "discovery_seq": pa.array(seqs_out, type=pa.int64()),
                "pop_idx": pa.array(pops_out, type=pa.int32()),
                "url_hash": pa.array(hashes_out, type=pa.int64()),
            }
        )

    # ------------------------------------------------- distributed round path
    def pop_emit(self, num_buckets: int, num_groups: int) -> tuple:
        """The shard side of a distributed round's schedule, in one call:
        pop this shard's round slice and HOLD it, tag each row with its
        shard-local dense index ``local_seq``, its pages ``bucket`` and
        this ``shard`` id, and cut one piece per task group
        (``bucket % num_groups``). Returns ``(count, groups)`` (the row
        count and the non-empty groups), then the ``num_groups`` pieces,
        None for an empty group. The driver calls it with
        ``num_returns=num_groups + 1``, so each piece is a return value
        it owns and hands on to its group's task unread; it prefix-sums
        the S counts and each round task stamps fetch_seq = start of its
        shard + local_seq."""
        self._popped = t = self.pop_round()
        pieces = [None] * num_groups
        if t.num_rows:
            bucket = (np.abs(np.asarray(t["url_hash"], dtype=np.int64))
                      % num_buckets).astype(np.int32)
            group = bucket % num_groups
            t = t.append_column(
                "local_seq", pa.array(np.arange(t.num_rows, dtype=np.int64)))
            t = t.append_column("bucket", pa.array(bucket))
            t = t.append_column(
                "shard", pa.array(np.full(t.num_rows, self.shard_id, np.int32)))
            for g in np.unique(group):
                pieces[g] = t.filter(pa.array(group == g)).combine_chunks()
        groups = [g for g, p in enumerate(pieces) if p is not None]
        return (t.num_rows, groups), *pieces

    def push_back(self, start: int) -> None:
        """Return the held round slice's rows from local index ``start``
        on to their heaps: the rows the max_docs cap (O32) cut from the
        round. Popped entries always order before any spilled entry (they
        came out of the heap), so a plain push preserves the spill
        invariant."""
        batch, self._popped = self._popped.slice(start), None
        touched = set()
        for host, url, depth, seq, uh in zip(batch["host"].to_pylist(),
                                             batch["url"].to_pylist(),
                                             batch["depth"].to_pylist(),
                                             batch["discovery_seq"].to_pylist(),
                                             batch["url_hash"].to_pylist()):
            heapq.heappush(self.heaps.setdefault(host, []), (depth, seq, url, uh))
            touched.add(host)
        for host in touched:
            self._cap_host(host)

    # ------------------------------------------------------------- lifecycle
    def pending(self) -> int:
        return (sum(len(h) for h in self.heaps.values()) + len(self.staged)
                + sum(self.spill_rows.values())
                + sum(len(o) for o in self.overflow.values()))

    def _counters(self) -> dict:
        return {"offered": self.n_offered,
                "rejected_seen": self.n_rejected_seen,
                "rejected_filtered": self.n_rejected_filtered,
                "dup_in_round": self.n_dup_in_round}

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "seen": len(self.seen),
            "pending": self.pending(),
            "hosts": len(self.heaps),
            **self._counters(),
            "cuckoo_load": self.cuckoo.count / (self.cuckoo.n_buckets * 4),
        }

    def seen_table(self, sort: bool = True) -> pa.Table:
        from aspseek_ray.functions.hashing import fnv1a64_arrow

        self._flush()  # durable seen output must not depend on checkpoint cadence
        urls = sorted(self.seen) if sort else list(self.seen)
        arr = pa.array(urls, type=pa.string())
        return pa.table({"url": arr, "url_hash": pa.array(fnv1a64_arrow(arr))})

    def write_seen(self, out_dir: str) -> int:
        """Write this shard's seen partition directly (atomic tmp+rename) —
        the final seen artifact is produced in parallel by the shards, the
        driver never holds O(corpus) rows."""
        t = self.seen_table()
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        tmp = d / f".shard={self.shard_id}.parquet.tmp"
        pq.write_table(t, tmp)
        tmp.rename(d / f"shard={self.shard_id}.parquet")
        return t.num_rows

    # ------------------------------------------------------------ checkpoint
    def snapshot(self, ckpt_dir: str) -> dict:
        """Atomic per-shard snapshot: seen set + pending heap entries.
        Written to <ckpt_dir>/shard=<id>/ (tmp file + rename)."""
        d = Path(ckpt_dir) / f"shard={self.shard_id}"
        d.mkdir(parents=True, exist_ok=True)
        self._flush()  # staged offers are part of durable state
        seen_t = self.seen_table(sort=False)  # checkpoints need no ordering
        hosts, urls, depths, seqs, hashes = [], [], [], [], []

        def add(host, entries):
            for depth, seq, url, uh in entries:
                hosts.append(host); urls.append(url); depths.append(depth)
                seqs.append(seq); hashes.append(uh)

        for host, hp in self.heaps.items():
            add(host, hp)
        for host, ov in self.overflow.items():       # spilled state is part
            add(host, ov)                            # of the durable frontier
        for host, files in self.spill_runs.items():
            for f in files:
                t = pq.read_table(f)
                add(host, zip(t["depth"].to_pylist(),
                              t["discovery_seq"].to_pylist(),
                              t["url"].to_pylist(),
                              t["url_hash"].to_pylist()))
        front_t = pa.table({
            "host": pa.array(hosts, type=pa.string()),
            "url": pa.array(urls, type=pa.string()),
            "depth": pa.array(depths, type=pa.int32()),
            "discovery_seq": pa.array(seqs, type=pa.int64()),
            "url_hash": pa.array(hashes, type=pa.int64()),
        })
        for name, t in (("seen", seen_t), ("frontier", front_t)):
            tmp = d / f".{name}.parquet.tmp"
            pq.write_table(t, tmp)
            tmp.rename(d / f"{name}.parquet")
        return {"shard": self.shard_id, "seen": seen_t.num_rows,
                "pending": front_t.num_rows}

    def restore(self, ckpt_dir: str) -> dict:
        d = Path(ckpt_dir) / f"shard={self.shard_id}"
        seen_t = pq.read_table(d / "seen.parquet")
        self.seen = set(seen_t["url"].to_pylist())
        self.cuckoo = CuckooFilter(max(1 << 20, len(self.seen) * 2), seed=self.shard_id)
        self.cuckoo.insert_many(np.asarray(seen_t["url_hash"], dtype=np.int64))
        front_t = pq.read_table(d / "frontier.parquet")
        self.heaps = {}
        # stale spill runs from the crashed run are superseded by the
        # checkpoint frontier — wipe this shard's spill dir and rebuild
        self.spill_runs, self.spill_min, self.spill_rows = {}, {}, {}
        self.overflow = {}
        if self.spill_dir is not None:
            sd = Path(self.spill_dir) / f"shard={self.shard_id}"
            if sd.exists():
                for f in sd.glob("run-*.parquet"):
                    f.unlink()
        for host, url, depth, seq, uh in zip(front_t["host"].to_pylist(),
                                             front_t["url"].to_pylist(),
                                             front_t["depth"].to_pylist(),
                                             front_t["discovery_seq"].to_pylist(),
                                             front_t["url_hash"].to_pylist()):
            self.heaps.setdefault(host, []).append(
                (int(depth), int(seq), url, int(uh)))
        for host, hp in self.heaps.items():
            heapq.heapify(hp)
            self._cap_host(host)
        self.staged = {}
        return {"shard": self.shard_id, "seen": len(self.seen),
                "pending": self.pending()}
