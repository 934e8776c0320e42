"""Run one benchmark workload with one seed and print its metrics.

    python3 aspbench/run.py --workload crawl_polite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run generates (or reuses) the inputs
for (workload, seed) in a child process, starts its own Ray session, does
the workload's fixed work, checks every output and stops every process it
started. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, and a span self-time table and the tracing overhead
are printed before the result. Every run does the same work: it is not
time-boxed, and ``--seconds`` (the budget the work was sized to) is only
recorded. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / "aspbench" / ".run"
PROGRAM = ("aspseek_ray/__init__.py", "fixtures/gen.py", "tests/ref_sim.py")
# the code that computes a run's inputs: the corpus generator, the
# reference simulator and every program module either of them, or the
# query mix, imports
INPUT_SOURCES = ("aspseek_ray/**/*.py", "fixtures/gen.py", "tests/ref_sim.py",
                 "aspbench/prepare.py", "aspbench/spec.py")
KEEP_INPUTS = 24          # cached (workload, seed) inputs kept on disk


def _digest(params: dict) -> str:
    """Key of a cached input: the workload parameters and the content of
    every source file the inputs are computed by, so that a change to
    any of them generates the inputs afresh."""
    h = hashlib.sha1(json.dumps(params, sort_keys=True).encode())
    for f in sorted({f for pat in INPUT_SOURCES for f in ROOT.glob(pat)}):
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:12]


def _inputs(workload: str, seed: int, params: dict) -> Path:
    """The cached inputs of (workload, seed) under these workload
    parameters and input sources, generated in a child process when
    missing. The least recently used entries beyond KEEP_INPUTS go."""
    base = STATE / "inputs"
    path = base / f"{workload}-{seed}-{_digest(params)}"
    if not path.is_dir():
        subprocess.run([sys.executable, "-m", "aspbench.prepare", workload,
                        str(seed), str(path)], cwd=ROOT, check=True,
                       timeout=600, stdout=sys.stderr)
    path.touch()
    entries = sorted((p for p in base.iterdir() if p.is_dir()),
                     key=lambda p: p.stat().st_mtime)
    for old in entries[:-KEEP_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def _kernel_sample(inputs: Path) -> tuple[list[str], list[bytes], list[str]]:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    urls = json.loads((inputs / "queries.json").read_text())["kernel_sample"]
    t = pq.read_table(inputs / "corpus" / "pages.parquet",
                      columns=["url", "html", "text"])
    t = t.filter(pc.is_in(t["url"], value_set=pa.array(urls)))
    t = t.sort_by("url")
    return t["url"].to_pylist(), t["html"].to_pylist(), t["text"].to_pylist()


def _reset_peak_rss() -> None:
    """Lower this process's peak-RSS mark to its current RSS, so that
    the benchmark's own input loading does not count in it."""
    Path("/proc/self/clear_refs").write_text("5")


def _cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0]
              .split()[1:]]
    return fields[7], sum(fields)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in PROGRAM if not (ROOT / p).is_file()]
    if missing:
        print(f"aspbench: the program is not in this checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # import the benchmark as a package, never its modules by bare name
    sys.path[0] = str(ROOT)

    import pyarrow
    import ray

    from aspbench import kernels, session
    from aspbench.prepare import crawl_config
    from aspbench.spans import Tracer
    from aspbench.spec import E2E, LAYERS, NUM_BUCKETS, NUM_SHARDS, WORKLOADS
    from aspbench.workloads import RUNNERS, Run

    if args.workload not in WORKLOADS:
        print(f"aspbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("aspbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    session.sweep(str(STATE))                 # leftovers of a killed run
    shutil.rmtree(STATE / "ray", ignore_errors=True)   # ended sessions' logs
    inputs = _inputs(args.workload, args.seed, WORKLOADS[args.workload])
    scratch = STATE / "scratch" / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    urls, htmls, texts = _kernel_sample(inputs)
    host_before = kernels.host_rate(htmls)
    steal0, total0 = _cpu_times()
    run = Run(args.workload, inputs, scratch, Tracer(args.trace == 1))
    _reset_peak_rss()
    try:
        init_s = session.start(ROOT, STATE)
        RUNNERS[args.workload](run, init_s)
    except Exception:                         # the run's boundary: report it
        traceback.print_exc()
        run.op(["run aborted: " + traceback.format_exc().splitlines()[-1]])
    finally:
        session.stop(STATE)
    steal1, total1 = _cpu_times()
    host_after = kernels.host_rate(htmls)

    run.layer["host.kernel_mb_per_s_before"] = host_before
    run.layer["host.kernel_mb_per_s_after"] = host_after
    if run.tracer.enabled and not run.failed:
        queries = [q for q, _, _ in json.loads(
            (inputs / "queries.json").read_text())["mix"]]
        run.layer.update(kernels.layer_rates(
            urls, htmls, texts, queries, str(scratch / "bucketed0"),
            NUM_BUCKETS, crawl_config(args.workload).max_hops))

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {
            "kernel_mb_per_s_before": host_before,
            "kernel_mb_per_s_after": host_after,
            # share of CPU time the hypervisor gave to other guests
            "cpu_steal_pct": 100 * (steal1 - steal0) / max(1, total1 - total0),
            "affinity_cores": len(os.sched_getaffinity(0)),
            "ray_num_cpus": session.NUM_CPUS,
            "object_store_bytes": session.OBJECT_STORE_BYTES,
            "num_shards": NUM_SHARDS, "num_page_buckets": NUM_BUCKETS,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        },
        "end_to_end": run.e2e, "figures": run.extra,
        "errors": run.errors,
    }
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    # untraced figures of the same inputs and workload parameters
    key = results / f"{inputs.name}.json"
    if run.tracer.enabled:
        print(run.tracer.table())
        print(f"tracing bookkeeping: {run.tracer.cost_s * 1000:.3f} ms")
        base = json.loads(key.read_text()) if key.exists() else {}
        if "work_cost" in base and "work_cost" in run.e2e:
            now = {"work_cost": run.e2e["work_cost"],
                   "work_s": run.extra["work_s"]}
            over = {k: (now[k] / base[k] - 1) * 100 for k in now}
            detail["tracing_overhead_pct"] = over
            print("tracing overhead: " + "; ".join(
                f"{k} {now[k]:.3f} traced vs {base[k]:.3f} untraced "
                f"({over[k]:+.1f}%)" for k in now)
                + ". Beyond the bookkeeping this is host noise (CPU steal "
                f"this run: {detail['host']['cpu_steal_pct']:.1f}%)")
        else:
            print("tracing overhead: no untraced run of this workload and "
                  "seed to compare with")
    elif not run.failed and "work_cost" in run.e2e:
        key.write_text(json.dumps({**run.e2e, "work_s": run.extra["work_s"]}))
    print(json.dumps(detail, default=str))

    names = LAYERS if run.tracer.enabled else E2E
    ok = run.failed == 0 and run.attempted > 0
    metrics = {n: {"value": run.layer[n] if run.tracer.enabled else run.e2e[n],
                   "unit": u}
               for n, u in names.items()
               if n in (run.layer if run.tracer.enabled else run.e2e)}
    if ok and len(metrics) != len(names):
        run.op([f"metrics missing: {sorted(set(names) - set(metrics))}"])
        ok = False
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
