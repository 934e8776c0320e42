"""CLI surface (`python -m aspseek_ray ...` — the `ray job submit`
driver entry; reference `index` / s.cgi binary roles)."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args, timeout=300):
    env = dict(os.environ, PYTHONPATH=REPO)
    r = subprocess.run([sys.executable, "-m", "aspseek_ray", *args],
                       capture_output=True, text=True, env=env, cwd=REPO,
                       timeout=timeout)
    assert r.returncode == 0, r.stderr[-2000:]
    return r.stdout


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    from fixtures.gen import generate_corpus

    generate_corpus(str(d / "corpus"), n_pages=120, n_hosts=6, seed=3)
    return d


def test_cli_crawl_and_resume(cli_corpus):
    corpus = str(cli_corpus / "corpus")
    out = str(cli_corpus / "run")
    first = json.loads(_run("crawl", "--corpus", corpus, "--out", out,
                            "--max-rounds", "3", "--num-shards", "2")
                       .strip().splitlines()[-1])
    assert first["rounds"] == 3 and first["total_fetched"] > 0
    resumed = json.loads(_run("crawl", "--corpus", corpus, "--out", out,
                              "--resume", "--num-shards", "2")
                         .strip().splitlines()[-1])
    assert resumed["total_fetched"] >= first["total_fetched"]


def test_cli_search():
    out = _run("search", "--sf-dir", "/root/testdata/sf0.001",
               "spark AND (window OR scan)", "--limit", "5")
    ids = [int(x) for x in out.split()]
    assert len(ids) == 5 and ids == sorted(ids)


def test_cli_index(cli_corpus):
    corpus = str(cli_corpus / "corpus")
    out = str(cli_corpus / "idx")
    _run("index", "--pages", f"{corpus}/pages.parquet", "--out", out)
    assert os.listdir(out)


def test_cli_index_incremental_update(cli_corpus):
    """index --index-dir builds the bucketed raw index; --update folds a
    crawl round's store in-place and reports the rewritten buckets."""
    corpus = str(cli_corpus / "corpus")
    run_out = str(cli_corpus / "run")          # store from the crawl test
    rounds = sorted(n for n in os.listdir(f"{run_out}/store")
                if n.startswith("round="))
    assert len(rounds) >= 2
    idx = str(cli_corpus / "idx_inc")
    built = json.loads(_run("index", "--pages", f"{run_out}/store/{rounds[0]}",
                            "--index-dir", idx).strip().splitlines()[-1])
    assert built["index_dir"] == idx and os.listdir(idx)
    upd = json.loads(_run("index", "--pages", f"{run_out}/store/{rounds[1]}",
                          "--index-dir", idx, "--update")
                     .strip().splitlines()[-1])
    touched = upd["touched"]
    assert touched and touched == sorted(set(touched))
    for k in touched:
        assert os.path.isdir(f"{idx}/word_bucket={k}")
    # the refresh folds what it staged
    assert not os.listdir(f"{idx}/.deltas")


def test_cli_searchd_daemon(cli_corpus):
    """`searchd` serves the crawl test's store over TCP (plus the stored
    daemon): queries through the socket return ranked results, and the
    stored GET round-trips a body."""
    import collections
    import glob

    import pyarrow.parquet as pq

    corpus = str(cli_corpus / "corpus")
    run_out = str(cli_corpus / "run")          # store from the crawl test
    # most common stored token = a query guaranteed to match
    texts = pq.read_table(sorted(glob.glob(f"{run_out}/store/**/*.parquet",
                                           recursive=True))[0],
                          columns=["text"])["text"].to_pylist()
    term = collections.Counter(
        w for t in texts for w in t.split() if w.isalpha()).most_common(1)[0][0]
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.Popen(
        [sys.executable, "-m", "aspseek_ray", "searchd",
         "--store", f"{run_out}/store", "--pages", f"{corpus}/pages.parquet",
         "--port", "0", "--stored-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=REPO)
    try:
        line = proc.stdout.readline()
        addrs = json.loads(line)
        from aspseek_ray.daemon import SearchdClient, StoredClient

        with SearchdClient(addrs["searchd"]["host"],
                           addrs["searchd"]["port"], timeout=300) as c:
            got = c.search(term, page=0, page_size=5)
            assert got["total"] > 0 and got["results"]
            assert got["results"][0]["url"].startswith("http")
            url = got["results"][0]["url"]
        with StoredClient(addrs["stored"]["host"],
                          addrs["stored"]["port"], timeout=300) as sc:
            body = sc.get(url)
            assert isinstance(body, str) and body
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


def test_cli_suggest_and_similar(ray_session, capsys):
    from aspseek_ray.cli import build_parser, main

    rc = main(["suggest", "--sf-dir", "/root/testdata/sf0.001", "sow"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and [l.split("\t")[0] for l in out] == ["slow", "row"]
    rc = main(["similar", "--sf-dir", "/root/testdata/sf0.001", "7",
               "--limit", "3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(out) == 3


def test_cli_search_wildcard(ray_session, capsys):
    from aspseek_ray.cli import main

    rc = main(["search", "--sf-dir", "/root/testdata/sf0.001",
               "sca* slow", "--limit", "5"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(out) == 5
