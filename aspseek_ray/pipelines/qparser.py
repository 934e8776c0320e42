"""Query-string parser (SURVEY.md §3.2, reference: src/qparser.cpp — the
front door a search user actually touches). Grammar (ASPseek search-form
semantics, pinned here):

    expr   := orexpr
    orexpr := andexpr (OR andexpr)*
    andexpr:= unary ((AND)? unary)*          # juxtaposition is AND
    unary  := (NOT | '-') unary | atom
    atom   := '(' expr ')' | '"' w1 w2 ... '"' | term

``AND`` / ``&``, ``OR`` / ``|``, ``NOT`` / ``!`` / a ``-`` prefix are
case-insensitive operators; anything else is a query term, normalized by
the engine tokenizer (lowercase, [a-z0-9]+ runs — a term that normalizes
to several tokens, e.g. "foo-bar", becomes a phrase, like the reference's
word-break handling). Negation must have a positive sibling in its AND
group (the reference rejects pure-negative queries); a NOT directly under
OR is rejected.

``search_query`` compiles the AST onto the posting-list primitives of
pipelines/search.py: ONE pruned index fetch for all leaf terms, then
numpy set algebra (intersect rarest-first / union / setdiff) and the
phrase position check — no rescan of the corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from aspseek_ray.functions.text import tokenize

__all__ = ["parse_query", "search_query", "QueryError",
           "Term", "Phrase", "Prefix", "Suffix", "And", "Or", "Not"]


class QueryError(ValueError):
    pass


@dataclass(frozen=True)
class Term:
    word: str


@dataclass(frozen=True)
class Phrase:
    words: tuple[str, ...]


@dataclass(frozen=True)
class Prefix:
    """Trailing-star wildcard ``word*`` — expanded against the index
    vocabulary before evaluation (search_query / expand_prefixes)."""
    prefix: str


@dataclass(frozen=True)
class Suffix:
    """Leading-star wildcard ``*word`` — the symmetric vocabulary
    expansion (ends_with)."""
    suffix: str


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]


Node = Term | Phrase | Not | And | Or

_TOKEN_RE = re.compile(r'\(|\)|"[^"]*"|[^\s()"]+')
_OPS = {"and": "AND", "&": "AND", "&&": "AND",
        "or": "OR", "|": "OR", "||": "OR",
        "not": "NOT", "!": "NOT",
        "-": "NOT"}   # standalone '-' (e.g. -"a b", -(a b)) negates too


def _lex(q: str) -> list[tuple[str, str]]:
    toks: list[tuple[str, str]] = []
    for m in _TOKEN_RE.finditer(q):
        t = m.group(0)
        if t == "(":
            toks.append(("LP", t))
        elif t == ")":
            toks.append(("RP", t))
        elif t.startswith('"'):
            toks.append(("PHRASE", t[1:-1]))
        elif t.lower() in _OPS:
            toks.append((_OPS[t.lower()], t))
        else:
            if t[0] in "-!" and len(t) > 1:
                toks.append(("NOT", t[0]))
                t = t[1:]
            if len(t) > 1 and t.startswith("*") and t.endswith("*"):
                raise QueryError(f"term {t!r} has a wildcard on both ends")
            if t.endswith("*") and len(t) > 1:
                toks.append(("PREFIX", t[:-1]))
            elif t.startswith("*") and len(t) > 1:
                toks.append(("SUFFIX", t[1:]))
            else:
                toks.append(("WORD", t))
    return toks


def _atom_of_words(words: list[str], raw: str) -> Node:
    if not words:
        raise QueryError(f"term {raw!r} has no indexable characters")
    if len(words) == 1:
        return Term(words[0])
    return Phrase(tuple(words))   # word-break terms become phrases


class _Parser:
    def __init__(self, toks: list[tuple[str, str]]):
        self.toks = toks
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self) -> Node:
        node = self.orexpr()
        if self.peek() is not None:
            raise QueryError(f"unexpected {self.toks[self.i][1]!r}")
        return node

    def orexpr(self) -> Node:
        parts = [self.andexpr()]
        while self.peek() == "OR":
            self.next()
            parts.append(self.andexpr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def andexpr(self) -> Node:
        parts = [self.unary()]
        while True:
            k = self.peek()
            if k == "AND":
                self.next()
                parts.append(self.unary())
            elif k in ("WORD", "PHRASE", "LP", "NOT"):  # juxtaposition
                parts.append(self.unary())
            else:
                break
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Node:
        if self.peek() == "NOT":
            self.next()
            child = self.unary()
            # NOT NOT x == x: collapse at parse time so the postings
            # evaluators (_eval, the distributed bitmask plan) and
            # matches() agree on nested negation.
            return child.child if isinstance(child, Not) else Not(child)
        return self.atom()

    def atom(self) -> Node:
        k = self.peek()
        if k is None:
            raise QueryError("unexpected end of query")
        kind, raw = self.next()
        if kind == "LP":
            node = self.orexpr()
            if self.peek() != "RP":
                raise QueryError("missing ')'")
            self.next()
            return node
        if kind == "PHRASE":
            return _atom_of_words(tokenize(raw), raw)
        if kind == "WORD":
            return _atom_of_words(tokenize(raw), raw)
        if kind in ("PREFIX", "SUFFIX"):
            words = tokenize(raw)
            if len(words) != 1:
                raise QueryError(
                    f"wildcard stem {raw!r} must normalize to one token")
            return Prefix(words[0]) if kind == "PREFIX" else Suffix(words[0])
        raise QueryError(f"unexpected {raw!r}")


def parse_query(q: str) -> Node:
    """Parse a query string into the boolean/phrase AST. Raises QueryError
    on empty queries, unbalanced parens, or dangling operators."""
    toks = _lex(q)
    if not toks:
        raise QueryError("empty query")
    node = _Parser(toks).parse()
    _validate(node, under_or=False, top=True)
    return node


def _validate(node: Node, under_or: bool, top: bool) -> None:
    if isinstance(node, Not):
        if top or under_or:
            raise QueryError(
                "negation needs a positive sibling in an AND group")
        _validate(node.child, under_or=False, top=False)
    elif isinstance(node, And):
        if all(isinstance(c, Not) for c in node.children):
            raise QueryError("pure-negative AND group")
        for c in node.children:
            _validate(c, under_or=False, top=False)
    elif isinstance(node, Or):
        for c in node.children:
            _validate(c, under_or=True, top=False)


def leaf_terms(node: Node) -> set[str]:
    """Every surface word the evaluator needs postings for."""
    if isinstance(node, Term):
        return {node.word}
    if isinstance(node, Phrase):
        return set(node.words)
    if isinstance(node, (Prefix, Suffix)):
        raise QueryError(
            "wildcards must be expanded against a vocabulary first "
            "(expand_prefixes)")
    if isinstance(node, Not):
        return leaf_terms(node.child)
    return set().union(*(leaf_terms(c) for c in node.children))


def positive_terms(node: Node) -> set[str]:
    """Leaf words NOT under a negation — the terms a ranker scores and
    an excerpter highlights (negated words only exclude, reference
    search-result semantics)."""
    if isinstance(node, Term):
        return {node.word}
    if isinstance(node, Phrase):
        return set(node.words)
    if isinstance(node, (Prefix, Suffix)):
        raise QueryError(
            "wildcards must be expanded against a vocabulary first "
            "(expand_prefixes)")
    if isinstance(node, Not):
        return set()
    return set().union(*(positive_terms(c) for c in node.children))


def expand_prefixes(node: Node, expander, suffix_expander=None) -> Node:
    """Rewrite every Prefix(p) / Suffix(p) into the OR of its expander's
    words — the vocabulary-expansion pass run before the postings
    evaluators (reference wildcard handling: the star expands against
    the word table, then the boolean machinery runs unchanged). An
    unmatched wildcard becomes Term(stem) itself, which (being absent
    from the vocabulary) evaluates to the empty set."""
    def _ors(words, stem):
        words = tuple(words)
        if not words:
            return Term(stem)
        if len(words) == 1:
            return Term(words[0])
        return Or(tuple(Term(w) for w in words))

    if isinstance(node, Prefix):
        return _ors(expander(node.prefix), node.prefix)
    if isinstance(node, Suffix):
        if suffix_expander is None:
            raise QueryError("no suffix expander available")
        return _ors(suffix_expander(node.suffix), node.suffix)
    if isinstance(node, Not):
        return Not(expand_prefixes(node.child, expander, suffix_expander))
    if isinstance(node, And):
        return And(tuple(expand_prefixes(c, expander, suffix_expander)
                         for c in node.children))
    if isinstance(node, Or):
        return Or(tuple(expand_prefixes(c, expander, suffix_expander)
                        for c in node.children))
    return node


def matches(node: Node, toks: list[str], tokset: set[str]) -> bool:
    """Per-document boolean evaluation over an already-tokenized doc.
    No search path uses it (every query reads a postings index through
    _eval); aspbench/prepare.py checks its drawn queries with it."""
    if isinstance(node, Term):
        return node.word in tokset
    if isinstance(node, Phrase):
        if not all(w in tokset for w in node.words):
            return False
        n = len(node.words)
        want = list(node.words)
        return any(toks[i:i + n] == want for i in range(len(toks) - n + 1))
    if isinstance(node, Prefix):
        # streaming eval has the doc's own tokens — no vocab needed
        return any(w.startswith(node.prefix) for w in tokset)
    if isinstance(node, Suffix):
        return any(w.endswith(node.suffix) for w in tokset)
    if isinstance(node, Not):
        return not matches(node.child, toks, tokset)
    if isinstance(node, And):
        return all(matches(c, toks, tokset) for c in node.children)
    return any(matches(c, toks, tokset) for c in node.children)


def _phrase_docs(words: tuple[str, ...],
                 pos_of: dict[tuple[str, int], np.ndarray],
                 sets: dict[str, np.ndarray]) -> np.ndarray:
    """Sorted doc ids containing the contiguous phrase (the positions
    check of search.phrase_search, shared via this evaluator)."""
    acc: np.ndarray | None = None
    for w in set(words):
        dl = sets.get(w, np.empty(0, np.int64))
        acc = dl if acc is None else np.intersect1d(acc, dl, assume_unique=True)
        if acc.size == 0:
            return acc
    keep = []
    for d in acc:
        d = int(d)
        starts = pos_of[(words[0], d)]
        for i, w in enumerate(words[1:], start=1):
            starts = starts[np.isin(starts + i, pos_of[(w, d)])]
            if starts.size == 0:
                break
        else:
            keep.append(d)
    return np.asarray(keep, np.int64)


def _eval(node: Node, pos_of, sets) -> np.ndarray:
    if isinstance(node, Term):
        return sets.get(node.word, np.empty(0, np.int64))
    if isinstance(node, Phrase):
        return _phrase_docs(node.words, pos_of, sets)
    if isinstance(node, Or):
        return np.unique(np.concatenate(
            [_eval(c, pos_of, sets) for c in node.children]))
    if isinstance(node, And):
        pos = [c for c in node.children if not isinstance(c, Not)]
        neg = [c.child for c in node.children if isinstance(c, Not)]
        evals = sorted((_eval(c, pos_of, sets) for c in pos), key=len)
        acc = evals[0]
        for e in evals[1:]:
            acc = np.intersect1d(acc, e, assume_unique=True)
        for n in neg:
            acc = np.setdiff1d(acc, _eval(n, pos_of, sets),
                               assume_unique=True)
        return np.sort(acc)
    raise QueryError("negation outside an AND group")   # bare Not


def search_query(sf_dir: str, q: str,
                 driver_max_posting_rows: int | None = None) -> pa.Table:
    """Parse ``q`` and run it against the documents postings index: one
    pruned index fetch for all leaf terms, then set algebra — on the
    driver below the posting-row switch, as distributed Dataset bitmask
    algebra above it (search._ast_plan's dual-plan pattern;
    ``driver_max_posting_rows=0`` forces the distributed plan). Returns
    (doc_id) sorted ascending."""
    from aspseek_ray.pipelines.search import DRIVER_MAX_POSTING_ROWS, _ast_plan

    if driver_max_posting_rows is None:
        driver_max_posting_rows = DRIVER_MAX_POSTING_ROWS
    ast = parse_query(q)
    from aspseek_ray.pipelines.search import (_ensure_doc_postings,
                                              _prefix_words, _suffix_words)

    pdir = _ensure_doc_postings(sf_dir)
    ast = expand_prefixes(ast, lambda p: _prefix_words(pdir, p),
                          lambda p: _suffix_words(pdir, p))
    return _ast_plan(pdir, ast, driver_max_posting_rows)
