"""HTML -> text extraction + href extraction (SURVEY.md O6; reference:
src/html.cpp / src/parse.cpp / src/content.cpp HTML tokenizer).

``extract_text`` implements the NORMATIVE spec of FIXTURES.md §3.2 exactly —
the per-row invariant of the build ("byte-identical extracted text per url",
BASELINE.json:input_hint) is defined against this function, and the fixture
generator derives the golden ``text`` column with it.

Steps (spec order):
  1. decode UTF-8 (errors="replace")
  2. remove <script>…</script>, <style>…</style> (case-insensitive,
     non-greedy, tags included) and <!-- … --> comments
  3. replace every remaining tag with "\n" if its name is in the BLOCK set,
     else ""
  4. decode entities: named {amp, lt, gt, quot, nbsp->space} and numeric
     &#NNN; / &#xHH;; unknown entities pass through verbatim
  5. collapse runs of spaces/tabs to one space; strip spaces adjacent to
     newlines; collapse newline runs; strip outer whitespace
"""

from __future__ import annotations

import re

__all__ = ["extract_text", "extract_links", "extract_text_and_links",
           "extract_anchors", "BLOCK_TAGS"]

BLOCK_TAGS = frozenset(
    "html head body title h1 h2 h3 h4 h5 h6 p div br li ul ol "
    "table tr td th frame area hr blockquote".split()
)

_SCRIPT_RE = re.compile(r"<script\b.*?</script\s*>", re.I | re.S)
_STYLE_RE = re.compile(r"<style\b.*?</style\s*>", re.I | re.S)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_TAG_RE = re.compile(r"<[^>]*>")
_TAG_NAME_RE = re.compile(r"^</?\s*([a-zA-Z0-9]+)")
_ENTITY_RE = re.compile(r"&(#x[0-9a-fA-F]+|#[0-9]+|[a-zA-Z]+);")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "nbsp": " "}
_SPACES_RE = re.compile(r"[ \t]+")
_SPACE_NL_RE = re.compile(r" *\n *")
_NL_RUN_RE = re.compile(r"\n+")

_BASE_RE = re.compile(r"<base\b[^>]*>", re.I)
_HREF_TAG_RE = re.compile(r"<(?:a|area|frame)\b[^>]*>", re.I)
_HREF_ATTR_RE = re.compile(
    r"""(?:href|src)\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)""", re.I
)


def _tag_repl(m: re.Match) -> str:
    name = _TAG_NAME_RE.match(m.group(0))
    if name and name.group(1).lower() in BLOCK_TAGS:
        return "\n"
    return ""


def _entity_repl(m: re.Match) -> str:
    body = m.group(1)
    if body.startswith("#x") or body.startswith("#X"):
        try:
            return chr(int(body[2:], 16))
        except (ValueError, OverflowError):
            return m.group(0)
    if body.startswith("#"):
        try:
            return chr(int(body[1:]))
        except (ValueError, OverflowError):
            return m.group(0)
    return _NAMED_ENTITIES.get(body, m.group(0))


def _strip_noise(s: str) -> str:
    s = _SCRIPT_RE.sub("", s)
    s = _STYLE_RE.sub("", s)
    return _COMMENT_RE.sub("", s)


def _text_from_stripped(s: str) -> str:
    s = _TAG_RE.sub(_tag_repl, s)
    s = _ENTITY_RE.sub(_entity_repl, s)
    s = _SPACES_RE.sub(" ", s)
    s = _SPACE_NL_RE.sub("\n", s)
    s = _NL_RUN_RE.sub("\n", s)
    return s.strip()


def extract_text(html: bytes | str) -> str:
    """Normative HTML->text pass (FIXTURES.md §3.2). Byte-stable."""
    s = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    return _text_from_stripped(_strip_noise(s))


def _decode_entities(s: str) -> str:
    return _ENTITY_RE.sub(_entity_repl, s)


def _links_from_stripped(s: str) -> tuple[str | None, list[str]]:
    base = None
    bm = _BASE_RE.search(s)
    if bm:
        am = _HREF_ATTR_RE.search(bm.group(0))
        if am:
            base = _decode_entities(am.group(1).strip("\"'"))
    hrefs: list[str] = []
    for tm in _HREF_TAG_RE.finditer(s):
        am = _HREF_ATTR_RE.search(tm.group(0))
        if am:
            hrefs.append(_decode_entities(am.group(1).strip("\"'")))
    return base, hrefs


def extract_links(html: bytes | str) -> tuple[str | None, list[str]]:
    """(base_href, hrefs) in document order.

    Hrefs come from <a>/<area> ``href`` and <frame> ``src`` attributes
    (reference: src/hrefs.cpp collection points), scanned AFTER removing
    script/style/comment regions; <base href> (first occurrence) is returned
    separately. Attribute values are entity-decoded with the same rules as
    text. No canonicalization here — that is O1 (functions/url.py).
    """
    s = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    return _links_from_stripped(_strip_noise(s))


def extract_text_and_links(
        html: bytes | str) -> tuple[str, str | None, list[str]]:
    """Fused single-pass (text, base_href, hrefs) — the fetch stage's hot
    path: decode + script/style/comment stripping (the expensive full-body
    regex subs) run ONCE for both products, with outputs identical to
    ``extract_text`` / ``extract_links`` on the same input."""
    s = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    s = _strip_noise(s)
    base, hrefs = _links_from_stripped(s)
    return _text_from_stripped(s), base, hrefs


_A_PAIR_RE = re.compile(r"(<a\b[^>]*>)(.*?)</a\s*>", re.I | re.S)


def extract_anchors(html: bytes | str) -> tuple[str | None, list[tuple[str, str]]]:
    """(base_href, [(href, anchor_text), ...]) in document order — the
    <a href> pairs with their visible inner text (the reference's link-word
    collection: anchor words are indexed against the TARGET url, SURVEY O26
    citation join / src/hrefs.cpp). Scanned after script/style/comment
    removal like extract_links; inner markup is dropped, entities decoded
    with the text rules, whitespace collapsed. <a> tags without an href are
    skipped; empty anchor text is kept (the caller decides)."""
    s = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    s = _strip_noise(s)
    base = None
    bm = _BASE_RE.search(s)
    if bm:
        am = _HREF_ATTR_RE.search(bm.group(0))
        if am:
            base = _decode_entities(am.group(1).strip("\"'"))
    pairs: list[tuple[str, str]] = []
    for m in _A_PAIR_RE.finditer(s):
        am = _HREF_ATTR_RE.search(m.group(1))
        if not am:
            continue
        href = _decode_entities(am.group(1).strip("\"'"))
        inner = _TAG_RE.sub(" ", m.group(2))
        inner = _ENTITY_RE.sub(_entity_repl, inner)
        inner = _SPACES_RE.sub(" ", inner.replace("\n", " ")).strip()
        pairs.append((href, inner))
    return base, pairs


_META_ROBOTS_RE = re.compile(
    r"""<meta\b[^>]*name\s*=\s*(?:"robots"|'robots'|robots(?=[\s/>]))"""
    r"""[^>]*>""", re.I)
_CONTENT_ATTR_RE = re.compile(
    r"""content\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)""", re.I)


_EMPTY_FLAGS: frozenset[str] = frozenset()


def _robots_from_stripped(s: str) -> frozenset[str]:
    # fast path for the crawl's fused parse: no "robots" substring means
    # no directive tag can exist; the C-level scan is ~10x cheaper than
    # the regex pass this skips (most pages carry no directives)
    if "robots" not in s and "robots" not in s.lower():
        return _EMPTY_FLAGS
    flags: set[str] = set()
    for m in _META_ROBOTS_RE.finditer(s):
        am = _CONTENT_ATTR_RE.search(m.group(0))
        if not am:
            continue
        for tok in am.group(1).strip("\"'").lower().split(","):
            tok = tok.strip()
            if tok == "none":
                flags.update(("noindex", "nofollow"))
            elif tok in ("noindex", "nofollow"):
                flags.add(tok)
    return frozenset(flags)


def extract_meta_robots(html: bytes | str) -> frozenset[str]:
    """Directives from ``<meta name=robots content=...>`` (reference O6:
    the parser honors noindex/nofollow) — the subset {"noindex",
    "nofollow"}; ``none`` expands to both, ``all``/unknown tokens are
    ignored. Scanned after script/style/comment removal; multiple meta
    tags union. POLICY LAYERING (pinned): nofollow suppresses the
    page's outlinks in CRAWL DISCOVERY only — the citation graph
    (pagerank / anchor index) stays intended-link based, matching the
    generator's links.parquet ground truth; noindex excludes the page
    from postings builds that opt in (honor_noindex)."""
    s = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    return _robots_from_stripped(_strip_noise(s))


def extract_text_links_robots(
        html: bytes | str,
) -> tuple[str, str | None, list[str], frozenset[str]]:
    """Fused single-pass (text, base_href, hrefs, robots_flags) — the
    crawl fetch stage's hot path extended with the meta-robots scan; one
    decode + noise-strip serves all four products."""
    s = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    s = _strip_noise(s)
    base, hrefs = _links_from_stripped(s)
    return _text_from_stripped(s), base, hrefs, _robots_from_stripped(s)
