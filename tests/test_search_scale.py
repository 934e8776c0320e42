"""Round-5: the distributed posting-set-algebra plan (search._ast_plan /
_eval_ast_distributed) must be bitwise-equal to the driver numpy plan —
the forced-distributed-plan check the round-4 verdict asked for (the
crawl_search_scaleplan trick applied to the boolean family). Forcing is
``driver_max_posting_rows=0``: every query then takes the Dataset bitmask
path regardless of posting size."""

from __future__ import annotations

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _eq(a, b):
    assert a.num_rows == b.num_rows
    assert a.equals(b), (a.to_pandas().head(), b.to_pandas().head())


def test_boolean_family_distributed_plan_equal(ray_session):
    from aspseek_ray.pipelines import search

    _eq(search.boolean_and_search(SF),
        search.boolean_and_search(SF, driver_max_posting_rows=0))
    _eq(search.boolean_or_search(SF),
        search.boolean_or_search(SF, driver_max_posting_rows=0))
    _eq(search.boolean_not_search(SF),
        search.boolean_not_search(SF, driver_max_posting_rows=0))
    _eq(search.phrase_search(SF),
        search.phrase_search(SF, driver_max_posting_rows=0))


@pytest.mark.parametrize("q", [
    'spark window scan',
    'spark OR window OR scan',
    'spark -window',
    '"scan slow"',
    'spark "scan slow" OR (window -scan)',
    '(spark OR window) (scan OR slow) -"scan slow"',
])
def test_parsed_query_distributed_plan_equal(ray_session, q):
    from aspseek_ray.pipelines.qparser import parse_query
    from aspseek_ray.pipelines.search import _ast_plan, _ensure_doc_postings

    ast = parse_query(q)
    pdir = _ensure_doc_postings(SF)
    _eq(_ast_plan(pdir, ast, driver_max_posting_rows=10 ** 9),
        _ast_plan(pdir, ast, driver_max_posting_rows=0))


def test_tfidf_distributed_plan_equal(ray_session):
    from aspseek_ray.pipelines import search

    a = search.tfidf_search(SF)
    b = search.tfidf_search(SF, driver_max_posting_rows=0)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    # scores: same formula, different float association (per-batch partial
    # sums vs one pandas groupby) — equal to rounding noise
    assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                       atol=1e-4)


def test_stemmed_search_unchanged_by_ast_rewrite(ray_session):
    # stemmed_search now routes through the shared AST planner; pin its
    # round-4 semantics: docs needing SOME surface form of EVERY stem
    from aspseek_ray.pipelines import search

    t = search.stemmed_search(SF, ("scanned", "windows"))
    assert t.num_rows > 0
    docs = set(t["doc_id"].to_pylist())
    # cross-check against the boolean primitives: (scan-forms OR) AND
    # (window-forms OR) computed via per-term postings
    import pandas as pd
    import ray
    import ray.data as rd

    import pyarrow.compute as pc  # noqa: F401
    from aspseek_ray.functions.morphology import stem as porter

    docs_tbl = rd.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"]).to_pandas()
    from aspseek_ray.functions.text import tokenize

    want = {porter("scanned"), porter("windows")}
    expect = set()
    for d, text in zip(docs_tbl["doc_id"], docs_tbl["text"]):
        stems = {porter(w) for w in tokenize(text or "")}
        if want <= stems:
            expect.add(int(d))
    assert docs == expect
