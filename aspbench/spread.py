"""Run workloads over several seeds and report each end-to-end metric's
median and quartile spread, (Q3 - Q1) / median, against its bound.

    python3 aspbench/spread.py --seeds 1-10 [--workloads a,b] [--save F]

Run from the root of a checkout; every run is a separate run.py process,
exactly as a single measurement would be made."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RAW_FIGURES = ("work_cpu_s", "op_cpu_ms", "work_s", "op_ms")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    sys.path[0] = str(ROOT)
    from aspbench.stats import quartile_spread

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="append each run's detail line here")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            p = subprocess.run(
                [sys.executable, "aspbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=900)
            wall = time.perf_counter() - t0
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            res = json.loads(last) if last.startswith("{") else {}
            if p.returncode or not res.get("correct"):
                print(f"{w} seed {seed}: FAILED rc={p.returncode}\n"
                      f"{p.stderr[-2000:]}", flush=True)
                return 1
            detail = json.loads(p.stdout.strip().splitlines()[-2])
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps(detail) + "\n")
            host = detail["host"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            # the raw CPU and wall times behind the metrics, unbounded
            for k in RAW_FIGURES:
                values.setdefault(k, []).append(detail["figures"][k])
            print(f"{w} seed {seed}: {wall:.1f} s  " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + f"  host {host['kernel_mb_per_s_before']:.1f}/"
                f"{host['kernel_mb_per_s_after']:.1f} MB/s"
                f" steal {host['cpu_steal_pct']:.1f}%", flush=True)
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            sp = quartile_spread(vs)
            b = bounds.get(k)
            if b:
                worst = max(worst, sp / b)
            print(f"  {w}/{k}: median {statistics.median(vs):.4g}  "
                  f"spread {sp:.3f}  bound {b}  "
                  f"({'ok' if b is None or sp < b / 3 else 'WIDE'})",
                  flush=True)
    print(f"widest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
