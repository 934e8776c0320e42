"""Query-string parser (qparser.cpp role): grammar unit tests + full-scan
equivalence of the compiled plan over the documents index."""

import pytest

from aspseek_ray.pipelines.qparser import (
    And, Not, Or, Phrase, QueryError, Term, parse_query, search_query,
)

SF = "/root/testdata/sf0.001"


def test_parse_basic_forms():
    assert parse_query("spark") == Term("spark")
    assert parse_query("spark window") == And((Term("spark"), Term("window")))
    assert parse_query("spark AND window") == And((Term("spark"), Term("window")))
    assert parse_query("spark OR window") == Or((Term("spark"), Term("window")))
    assert parse_query('"scan slow"') == Phrase(("scan", "slow"))
    assert parse_query("spark NOT window") == And((Term("spark"),
                                                   Not(Term("window"))))
    assert parse_query("spark -window") == And((Term("spark"),
                                                Not(Term("window"))))


def test_parse_precedence_and_parens():
    # AND binds tighter than OR
    assert parse_query("a b OR c") == Or((And((Term("a"), Term("b"))),
                                          Term("c")))
    assert parse_query("a (b OR c)") == And((Term("a"),
                                             Or((Term("b"), Term("c")))))
    assert parse_query("a & b | c") == Or((And((Term("a"), Term("b"))),
                                           Term("c")))
    # case-insensitive operators; terms normalized by the tokenizer
    assert parse_query("Spark and Window") == And((Term("spark"),
                                                   Term("window")))
    # word-break terms become phrases
    assert parse_query("foo-bar") == Phrase(("foo", "bar"))


def test_parse_negation_forms():
    # double negation collapses at parse time, so both evaluators agree
    assert parse_query("a AND NOT NOT b") == And((Term("a"), Term("b")))
    assert parse_query("a NOT NOT NOT b") == And((Term("a"),
                                                  Not(Term("b"))))
    # standalone '-' negates a following phrase or group
    assert parse_query('a -"b c"') == And((Term("a"),
                                           Not(Phrase(("b", "c")))))
    assert parse_query("a -(b OR c)") == And(
        (Term("a"), Not(Or((Term("b"), Term("c"))))))
    assert parse_query("a ! (b c)") == And(
        (Term("a"), Not(And((Term("b"), Term("c"))))))


def test_parse_errors():
    for bad in ("", "   ", "(a", "a)", "AND", "a AND", "NOT a",
                "NOT a OR b", "a OR NOT b", "!a !b", "*word*"):
        with pytest.raises(QueryError):
            parse_query(bad)


def _scan_tokens():
    import pyarrow.parquet as pq

    from aspseek_ray.functions.text import tokenize

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return {d: tokenize(t) for d, t in zip(docs["doc_id"].to_pylist(),
                                           docs["text"].to_pylist())}


def _has_phrase(toks, words):
    n = len(words)
    return any(toks[i:i + n] == list(words) for i in range(len(toks) - n + 1))


def test_search_query_matches_full_scan(ray_session):
    toks = _scan_tokens()
    sets = {d: set(ts) for d, ts in toks.items()}

    cases = {
        "spark AND (window OR scan) NOT order":
            lambda d: "spark" in sets[d]
            and ("window" in sets[d] or "scan" in sets[d])
            and "order" not in sets[d],
        'spark "scan slow"':
            lambda d: "spark" in sets[d] and _has_phrase(toks[d],
                                                         ("scan", "slow")),
        "window OR scan OR spark":
            lambda d: sets[d] & {"window", "scan", "spark"},
        "scan -slow":
            lambda d: "scan" in sets[d] and "slow" not in sets[d],
    }
    for q, pred in cases.items():
        got = search_query(SF, q)["doc_id"].to_pylist()
        want = sorted(d for d in sets if pred(d))
        assert got == want, q


def test_search_query_unknown_term(ray_session):
    # positive unknown term -> empty; negated unknown term -> no-op
    assert search_query(SF, "zzzqqqxx")["doc_id"].to_pylist() == []
    toks = _scan_tokens()
    want = sorted(d for d, ts in toks.items() if "spark" in ts)
    assert search_query(SF, "spark NOT zzzqqqxx")["doc_id"].to_pylist() == want
