"""searchd / stored daemon surface (SURVEY §3.2 and the 4th daemon).

The reference runs a standalone search daemon (``src/searchd.cpp``:
listen TCP -> per-connection thread -> protocol decode
(``include/protocol.h`` role) -> qparser -> postings fetch -> boolean
merge -> score -> site grouping -> qcache -> page slice back) and a
stored-copy daemon (``stored``: socket server, zlib store/retrieve,
excerpt slicing — SURVEY S8).  This module rebuilds both as localhost
TCP servers over the Ray-Data query pipelines that already implement
the semantics:

* ``SearchdServer`` — threaded TCP server answering SEARCH requests via
  :func:`aspseek_ray.pipelines.search.ranked_crawl_search` (the full
  qparser -> wildcard expansion -> boolean -> tf·idf×pagerank ->
  site-group -> excerpt lifecycle over the store's postings index).
  The store index (``index_products.refresh_store_index``) and the
  ranks are built by the first query that needs them, never at
  ``start()``.  Like the reference, the daemon computes the full result
  set ONCE per distinct (query, grouping) pair, stores it in the LRU
  query cache (T6, ``src/qcache.cpp`` role), and answers page requests
  by slicing the cached set.  A cached set is served only while the
  store index is at the generation it was computed at: each request
  reads the index manifest (no stat walk of the store).
* ``StoredServer`` — GET (zlib-compressed stored body, the wire format
  the reference's stored daemon uses) and EXCERPT (server-side snippet
  slicing via :func:`aspseek_ray.pipelines.search.excerpts`, which is
  bucket-pruned to the url's store partition).
* ``SearchdClient`` / ``StoredClient`` — the s.cgi side of the socket.

Wire protocol (from scratch; the reference's exact structs are
unpublished, only the lifecycle is): a 5-byte hello ``b"ASPR\\x01"``
each way, then length-prefixed frames ``!II`` (command, payload bytes).
Replies are frames ``!II`` (status, payload bytes): status 0 OK,
1 query parse error, 2 not found, 3 bad request.  All integers are
network byte order; strings are u32-length-prefixed UTF-8.

Threading note: handler threads call Ray (the query pipelines) — that
is supported from non-main threads; the daemon itself never calls
``ray.init`` (the embedding process owns the session, matching how
``searchd`` assumes the index is already built).
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import zlib

import pyarrow as pa

HELLO = b"ASPR\x01"

CMD_SEARCH = 1
CMD_EXCERPT = 2
CMD_GET = 3
CMD_STATS = 4
CMD_BYE = 5

ST_OK = 0
ST_QUERY_ERROR = 1
ST_NOT_FOUND = 2
ST_BAD_REQUEST = 3

_FRAME = struct.Struct("!II")


# ---------------------------------------------------------------- framing

def _send_frame(sock: socket.socket, code: int, payload: bytes) -> None:
    sock.sendall(_FRAME.pack(code, len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        buf += chunk
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    code, length = _FRAME.unpack(_recv_exact(sock, _FRAME.size))
    if length > 64 * 1024 * 1024:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    return code, _recv_exact(sock, length) if length else b""


def _pack_str(s: str) -> bytes:
    b = s.encode("utf-8")
    return struct.pack("!I", len(b)) + b


class _Reader:
    """Cursor over a payload: u32 / f64 / length-prefixed string."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def u32(self) -> int:
        (v,) = struct.unpack_from("!I", self.buf, self.pos)
        self.pos += 4
        return v

    def f64(self) -> float:
        (v,) = struct.unpack_from("!d", self.buf, self.pos)
        self.pos += 8
        return v

    def s(self) -> str:
        n = self.u32()
        v = self.buf[self.pos:self.pos + n].decode("utf-8")
        self.pos += n
        return v


# ---------------------------------------------------------------- searchd

def _pin_fsspec_http_stub() -> None:
    """Make concurrent queries safe against a Ray lazy-import race.

    Every ``ray.data.read_parquet`` calls ``_is_http_filesystem``, which
    does ``from fsspec.implementations.http import HTTPFileSystem``
    guarded by ``except ModuleNotFoundError``.  Without aiohttp that
    import always fails — fine single-threaded, but when two handler
    threads hit the failing import at once, the second can observe the
    partially-torn-down module and get a plain ``ImportError`` (not a
    ModuleNotFoundError), which escapes Ray's guard and kills one query.
    Pin a stub module exposing a sentinel ``HTTPFileSystem`` class so the
    import is a deterministic no-op; the class is only ever used in
    ``isinstance`` checks against real filesystems, which no local
    pipeline constructs."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
        return                                # real module importable
    except ImportError:
        pass
    import fsspec.implementations  # noqa: F401

    mod = types.ModuleType("fsspec.implementations.http")
    mod.HTTPFileSystem = type("HTTPFileSystem", (), {})
    sys.modules["fsspec.implementations.http"] = mod


class _BaseServer:
    """start()/stop() plumbing shared by searchd and stored."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host, self._port = host, port
        self._srv: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None

    def _make_handler(self):                     # pragma: no cover - abstract
        raise NotImplementedError

    def start(self) -> tuple[str, int]:
        """Bind + serve in a daemon thread; returns (host, bound_port)."""
        srv = socketserver.ThreadingTCPServer(
            (self._host, self._port), self._make_handler(),
            bind_and_activate=True)
        srv.daemon_threads = True
        self._srv = srv
        self._thread = threading.Thread(target=srv.serve_forever,
                                        daemon=True)
        self._thread.start()
        return srv.server_address[0], srv.server_address[1]

    def stop(self) -> None:
        if self._srv is not None:
            self._srv.shutdown()
            self._srv.server_close()
            self._srv = None


class SearchdServer(_BaseServer):
    """The searchd lifecycle behind a socket (SURVEY §3.2).

    ``max_results`` caps the result set the daemon computes and caches
    per query (the reference's page-slice model: the daemon holds the
    ranked set, clients page through it).  ``cache_size`` is the query
    cache's LRU capacity (T6).
    """

    def __init__(self, store_dir: str, pages_path: str,
                 max_results: int = 1000, cache_size: int = 128,
                 excerpt_width: int = 40,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        _pin_fsspec_http_stub()
        from aspseek_ray.pipelines.index_products import store_index_manifest
        from aspseek_ray.pipelines.search import (QueryCache,
                                                  ranked_crawl_search)

        self.store_dir = store_dir
        self.pages_path = pages_path
        self.max_results = max_results

        def run_query(query: str, per_site: int) -> pa.Table:
            return ranked_crawl_search(
                store_dir, pages_path, k=max_results,
                per_site=per_site or None, query=query,
                excerpt_width=excerpt_width)

        # per-connection handler threads share the cache; identical
        # concurrent queries dedupe to one pipeline run, distinct queries
        # run their pipelines in parallel
        self.cache = QueryCache(run_query, maxsize=cache_size, version=lambda: (
            store_index_manifest(store_dir) or {}).get("generation"))

    # -- request handlers ------------------------------------------------

    def _handle_search(self, payload: bytes) -> tuple[int, bytes]:
        from aspseek_ray.pipelines.qparser import QueryError

        r = _Reader(payload)
        try:
            query = r.s()
            page, page_size, per_site = r.u32(), r.u32(), r.u32()
        except (struct.error, UnicodeDecodeError):
            return ST_BAD_REQUEST, _pack_str("malformed SEARCH payload")
        if page_size == 0:
            return ST_BAD_REQUEST, _pack_str("page_size must be > 0")
        try:
            result = self.cache(query, per_site)
        except QueryError as e:
            return ST_QUERY_ERROR, _pack_str(str(e))
        except Exception as e:          # keep the connection serviceable
            return ST_BAD_REQUEST, _pack_str(f"{type(e).__name__}: {e}")

        total = result.num_rows
        lo = page * page_size
        hi = min(total, lo + page_size)
        in_range = lo < total
        rows = result.slice(lo, hi - lo) if in_range else result.slice(0, 0)
        grouped = "host" in result.schema.names
        first = lo + 1 if in_range else 0
        last = hi if in_range else 0
        out = [struct.pack("!IIII", total, first, last, rows.num_rows)]
        urls = rows["url"].to_pylist()
        scores = rows["score"].to_pylist()
        exs = rows["excerpt"].to_pylist()
        hosts = rows["host"].to_pylist() if grouped else [""] * rows.num_rows
        for u, sc, ex, h in zip(urls, scores, exs, hosts):
            out.append(_pack_str(u))
            out.append(struct.pack("!d", float(sc)))
            out.append(_pack_str(ex or ""))
            out.append(_pack_str(h or ""))
        return ST_OK, b"".join(out)

    def _handle_stats(self) -> tuple[int, bytes]:
        c = self.cache
        return ST_OK, struct.pack("!III", c.hits, c.misses, len(c._cache))

    def _make_handler(self):
        server = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                sock = self.request
                try:
                    if _recv_exact(sock, len(HELLO)) != HELLO:
                        return
                    sock.sendall(HELLO)
                    while True:
                        cmd, payload = _recv_frame(sock)
                        if cmd == CMD_BYE:
                            return
                        if cmd == CMD_SEARCH:
                            st, body = server._handle_search(payload)
                        elif cmd == CMD_STATS:
                            st, body = server._handle_stats()
                        else:
                            st, body = (ST_BAD_REQUEST,
                                        _pack_str(f"unknown command {cmd}"))
                        _send_frame(sock, st, body)
                except (ConnectionError, OSError):
                    return

        return Handler


# ---------------------------------------------------------------- stored

class StoredServer(_BaseServer):
    """The stored-copy daemon (SURVEY S8 / 4th daemon): zlib retrieve +
    excerpt slicing over a socket.  Reads are bucket-pruned: a url's
    body comes from its own store partition (``_store_paths_for``), not
    a store sweep."""

    def __init__(self, store_dir: str, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__(host, port)
        self.store_dir = store_dir

    def _body_of(self, url: str) -> str | None:
        import pyarrow.parquet as pq

        from aspseek_ray.pipelines.search import _store_paths_for

        for path in _store_paths_for(self.store_dir, (url,)):
            t = pq.read_table(path, columns=["url", "text"],
                              filters=[("url", "=", url)])
            if t.num_rows:
                return t["text"][0].as_py()
        return None

    def _handle_get(self, payload: bytes) -> tuple[int, bytes]:
        try:
            url = _Reader(payload).s()
        except (struct.error, UnicodeDecodeError):
            return ST_BAD_REQUEST, _pack_str("malformed GET payload")
        body = self._body_of(url)
        if body is None:
            return ST_NOT_FOUND, _pack_str(url)
        raw = body.encode("utf-8")
        return ST_OK, struct.pack("!I", len(raw)) + zlib.compress(raw, 6)

    def _handle_excerpt(self, payload: bytes) -> tuple[int, bytes]:
        from aspseek_ray.pipelines.search import excerpts

        r = _Reader(payload)
        try:
            url = r.s()
            nterms = r.u32()
            terms = tuple(r.s() for _ in range(nterms))
            width = r.u32()
        except (struct.error, UnicodeDecodeError):
            return ST_BAD_REQUEST, _pack_str("malformed EXCERPT payload")
        t = excerpts(self.store_dir, terms, width=width, urls=(url,))
        if t.num_rows == 0:
            return ST_NOT_FOUND, _pack_str(url)
        return ST_OK, _pack_str(t["excerpt"][0].as_py())

    def _make_handler(self):
        server = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                sock = self.request
                try:
                    if _recv_exact(sock, len(HELLO)) != HELLO:
                        return
                    sock.sendall(HELLO)
                    while True:
                        cmd, payload = _recv_frame(sock)
                        if cmd == CMD_BYE:
                            return
                        if cmd == CMD_GET:
                            st, body = server._handle_get(payload)
                        elif cmd == CMD_EXCERPT:
                            st, body = server._handle_excerpt(payload)
                        else:
                            st, body = (ST_BAD_REQUEST,
                                        _pack_str(f"unknown command {cmd}"))
                        _send_frame(sock, st, body)
                except (ConnectionError, OSError):
                    return

        return Handler


# ---------------------------------------------------------------- clients

class DaemonError(RuntimeError):
    """Raised by clients on a non-OK daemon reply."""

    def __init__(self, status: int, message: str):
        super().__init__(f"status {status}: {message}")
        self.status = status


class _BaseClient:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.sendall(HELLO)
        if _recv_exact(self.sock, len(HELLO)) != HELLO:
            raise ConnectionError("bad hello from daemon")

    def _rpc(self, cmd: int, payload: bytes) -> bytes:
        _send_frame(self.sock, cmd, payload)
        status, body = _recv_frame(self.sock)
        if status != ST_OK:
            raise DaemonError(status, _Reader(body).s() if body else "")
        return body

    def close(self) -> None:
        try:
            _send_frame(self.sock, CMD_BYE, b"")
        except OSError:
            pass
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SearchdClient(_BaseClient):
    def search(self, query: str, page: int = 0, page_size: int = 10,
               per_site: int = 0) -> dict:
        """Returns {total, first, last, results:[{url, score, excerpt,
        host}]} — the variables the s.cgi template consumes."""
        payload = (_pack_str(query)
                   + struct.pack("!III", page, page_size, per_site))
        body = self._rpc(CMD_SEARCH, payload)
        r = _Reader(body)
        total, first, last, nrows = (r.u32(), r.u32(), r.u32(), r.u32())
        results = []
        for _ in range(nrows):
            url = r.s()
            score = r.f64()
            excerpt = r.s()
            host = r.s()
            results.append({"url": url, "score": score,
                            "excerpt": excerpt, "host": host})
        return {"total": total, "first": first, "last": last,
                "results": results}

    def stats(self) -> dict:
        body = self._rpc(CMD_STATS, b"")
        hits, misses, cached = struct.unpack("!III", body)
        return {"hits": hits, "misses": misses, "cached": cached}


class StoredClient(_BaseClient):
    def get(self, url: str) -> str:
        """Stored body for ``url`` (decompressed from the zlib wire form)."""
        body = self._rpc(CMD_GET, _pack_str(url))
        (raw_len,) = struct.unpack_from("!I", body, 0)
        raw = zlib.decompress(body[4:])
        if len(raw) != raw_len:
            raise DaemonError(ST_BAD_REQUEST, "stored length mismatch")
        return raw.decode("utf-8")

    def excerpt(self, url: str, terms: tuple[str, ...],
                width: int = 40) -> str:
        payload = (_pack_str(url) + struct.pack("!I", len(terms))
                   + b"".join(_pack_str(t) for t in terms)
                   + struct.pack("!I", width))
        return _Reader(self._rpc(CMD_EXCERPT, payload)).s()
