"""The benchmark's own arithmetic. Run from the checkout root:

    python3 -m pytest aspbench/tests -q
"""

import json
from pathlib import Path

import pytest

from aspbench import session
from aspbench.spans import Tracer
from aspbench.spec import E2E, LAYERS
from aspbench.stats import (LedgerRow, percentile, quartile_spread,
                            reconcile, self_time)

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ percentiles
def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(19)), 50) is None      # 9 beyond rank 10
    assert percentile(list(range(20)), 50) == 9         # 10 beyond rank 10
    assert percentile(list(range(99)), 90) is None      # 9 beyond rank 90
    assert percentile(list(range(100)), 90) == 89       # 10 beyond rank 90
    assert percentile([], 50) is None


def test_percentile_is_nearest_rank_of_sorted_samples():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 6                  # 30 samples
    assert percentile(xs, 50) == 3.0
    with pytest.raises(ValueError):
        percentile(xs, 100)


# ------------------------------------------------------------- self time
def test_self_time_without_children_is_the_duration():
    assert self_time((2.0, 5.0), []) == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    # children cover [1, 6] and [8, 10] of the parent: 7 of its 10 s
    kids = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0), (11.0, 13.0)]
    assert self_time((0.0, 10.0), kids) == pytest.approx(3.0)


def test_self_time_nested_and_identical_children():
    kids = [(1.0, 9.0), (2.0, 3.0), (1.0, 9.0)]
    assert self_time((0.0, 10.0), kids) == pytest.approx(2.0)


def test_tracer_self_times_use_child_spans():
    tr = Tracer(True)
    with tr.span("round"):
        s = tr.spans[-1].start
        tr.add("phase", s, s)                           # zero-length child
    with tr.span("round"):
        pass
    n, total, own = tr.self_times()["round"]
    assert n == 2 and own == pytest.approx(total)
    off = Tracer(False)
    with off.span("round"):
        off.add("phase", 0.0, 1.0)
    assert off.spans == []


def test_tracer_self_time_of_a_parent_with_reported_phases():
    tr = Tracer(True)
    tr.spans.clear()
    with tr.span("round"):
        pass
    parent = tr.spans[0]
    parent.start, parent.end = 0.0, 1.0
    tr._stack.append(parent.sid)
    tr.add("counts", 0.0, 0.2)
    tr.add("pipeline", 0.1, 0.7)                        # overlaps counts
    tr._stack.pop()
    assert tr.self_total("round") == pytest.approx(0.3)


# ---------------------------------------------------------------- ledger
def _row(**kw):
    base = dict(round=0, offered=10, rejected_seen=3, rejected_filtered=2,
                newly_discovered=4, scheduled=7, trace_rows=7)
    base.update(kw)
    return LedgerRow(**base)


def test_ledger_remainder_is_dup_in_round():
    dups, errors = reconcile([_row(), _row(round=1, offered=9)])
    assert dups == [1, 0] and errors == []


def test_ledger_offered_below_outcomes_fails():
    dups, errors = reconcile([_row(offered=8)])
    assert dups == [-1] and len(errors) == 1 and "offered 8" in errors[0]


def test_ledger_scheduled_must_match_trace_rows():
    _, errors = reconcile([_row(scheduled=7, trace_rows=6)])
    assert len(errors) == 1 and "trace rows 6" in errors[0]


# ---------------------------------------------------------------- spread
def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    # statistics.quantiles(vals, n=4) -> [9.725, 10.0, 10.275]
    assert quartile_spread(vals) == pytest.approx(0.055)


# ---------------------------------------------------------- metric lists
def test_benchmark_json_lists_the_metrics_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYERS
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in bench["end_to_end"])


def test_ray_temp_dir_leaves_room_for_sockets(tmp_path, monkeypatch):
    deep = tmp_path / ("d" * 120)
    deep.mkdir()
    monkeypatch.chdir(deep)
    path = session.ray_temp_dir(deep, "aspbench/.run/ray")
    assert path.startswith("/proc/")
    assert len(path) + session._SESSION_SUFFIX <= session.SOCKET_PATH_MAX


def test_input_key_follows_the_sources_inputs_are_computed_by(
        tmp_path, monkeypatch):
    from aspbench import run

    for rel in ("aspseek_ray/functions/text.py", "tests/ref_sim.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("x = 1\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    key = run._digest({"n": 1})
    assert run._digest({"n": 1}) == key
    assert run._digest({"n": 2}) != key
    (tmp_path / "aspseek_ray/functions/text.py").write_text("x = 2\n")
    assert run._digest({"n": 1}) != key


# -------------------------------------------------------------- CPU clock
def test_busy_cpu_counts_a_child_that_has_ended():
    import subprocess
    import sys

    burn = "import time\nt = time.process_time() + 0.3\n" \
           "while time.process_time() < t: pass"
    c0 = session.busy_cpu_s()
    subprocess.run([sys.executable, "-c", burn], check=True)
    assert session.busy_cpu_s() - c0 >= 0.28
