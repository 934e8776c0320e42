"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture(scope="session")
def ray_session():
    import os

    import ray

    # Ray workers inherit the env captured at ray.init — make the repo (and
    # tests/, for ref_sim) importable in workers regardless of driver cwd.
    root = str(Path(__file__).resolve().parents[1])
    extra = f"{root}:{root}/tests"
    prev = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = f"{extra}:{prev}" if prev else extra

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_small_dir(tmp_path_factory) -> str:
    """Deterministic sf-small crawl corpus (pages/seeds/robots) generated
    once per session — FIXTURES.md §1–2."""
    from fixtures.gen import generate_corpus

    out = tmp_path_factory.mktemp("corpus_small")
    generate_corpus(str(out), n_pages=2000, n_hosts=40, seed=42)
    return str(out)


@pytest.fixture
def kill_shards():
    """``kill(handles)``: ray.kill the shard actors and wait until each
    one fails a call, so no later call can still reach a dying actor."""
    import time

    import ray

    def kill(handles) -> None:
        for h in handles:
            ray.kill(h)
        deadline = time.monotonic() + 30
        for h in handles:
            while True:
                try:
                    ray.get(h.stats.remote())
                except ray.exceptions.RayActorError:
                    break
                assert time.monotonic() < deadline, "killed shard still answers"
                time.sleep(0.05)

    return kill


@pytest.fixture(scope="module", autouse=True)
def release_pooled_shards():
    """Crawl shard actors outlive a crawl, pooled for the session's next
    one. Kill the idle ones when a test module ends, so that one module's
    pooled actors do not add to the Ray worker processes of the next
    (Ray prints a worker-count warning to the driver's stdout when they
    pass 4x num_cpus, which the CLI output tests would read)."""
    yield
    crawl = sys.modules.get("aspseek_ray.pipelines.crawl")
    if crawl is not None:
        crawl.release_shards()
