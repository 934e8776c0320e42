"""One isolated Ray session per benchmark run.

Every Ray process a run starts carries ``ASPBENCH_STATE=<state dir>`` in
its environment, so a later run can find and kill the leftovers of a run
that was killed mid-way (``sweep``), without touching any other Ray
session on the host.

Unix socket paths are limited to 107 bytes, and a checkout can sit at any
depth. Ray's temp dir is therefore addressed through the driver's
``/proc/<pid>/cwd`` link, whose length does not depend on where the
checkout is; the files still land inside the checkout.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

MARKER = "ASPBENCH_STATE"

NUM_CPUS = 2
OBJECT_STORE_BYTES = 384 * 1024 * 1024
SOCKET_PATH_MAX = 107
# the longest socket Ray creates under its temp dir:
# /session_YYYY-MM-DD_HH-MM-SS_ffffff_<pid>/sockets/plasma_store
_SESSION_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304"
                      "/sockets/plasma_store")


def _marked_pids(state_dir: str) -> list[int]:
    """Live processes whose environment carries this checkout's marker."""
    needle = f"{MARKER}={state_dir}".encode() + b"\0"
    me = os.getpid()
    out = []
    for p in Path("/proc").iterdir():
        if not p.name.isdigit() or int(p.name) == me:
            continue
        try:
            env = (p / "environ").read_bytes()
        except OSError:          # gone, or not ours to read
            continue
        if needle in env:
            out.append(int(p.name))
    return out


def sweep(state_dir: str, timeout_s: float = 20.0) -> int:
    """Kill every leftover process of this checkout's benchmark runs and
    wait until each has ended. Returns how many were killed."""
    pids = _marked_pids(state_dir)
    killed = len(pids)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if Path(f"/proc/{p}").exists()
                and not _is_zombie(p)]
        time.sleep(0.05)
    if pids:
        raise RuntimeError(f"processes {pids} survived SIGKILL")
    return killed


def _is_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def ray_temp_dir(root: Path, rel: str) -> str:
    """Ray temp dir inside the checkout, spelled through /proc/<pid>/cwd
    so that socket paths stay short at any checkout depth."""
    if Path.cwd().resolve() != root.resolve():
        raise RuntimeError("the driver must run from the checkout root")
    path = f"/proc/{os.getpid()}/cwd/{rel}"
    if len(path) + _SESSION_SUFFIX > SOCKET_PATH_MAX:
        raise RuntimeError(f"ray temp dir {path!r} leaves no room for sockets")
    return path


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def busy_cpu_s() -> float:
    """CPU seconds the machine has spent running code since boot: user,
    nice, system, irq and softirq time over all CPUs (/proc/stat), but
    not idle, I/O wait or steal.

    Every run starts its own Ray session and nothing else runs beside it,
    so the difference between two readings is the CPU time of the
    driver, Ray's daemons and every worker and actor, including those
    that ended in between (Ray's raylet does not keep its workers' times
    when they exit, so summing live processes would lose them). Time
    the run spends waiting for a CPU, in the run queue or stolen by the
    hypervisor, does not enter it, whereas it enters wall time in
    full."""
    f = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    user, nice, system, _idle, _iowait, irq, softirq = map(int, f[:7])
    return (user + nice + system + irq + softirq) / _TICKS_PER_S


def start(root: Path, state_dir: Path) -> float:
    """Start this run's Ray session; returns ``ray.init`` seconds."""
    import ray

    rt = state_dir / "ray"
    rt.mkdir(parents=True, exist_ok=True)
    tmp = state_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ[MARKER] = str(state_dir)
    os.environ["TMPDIR"] = str(tmp)
    # workers import the program and the benchmark from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    temp_dir = ray_temp_dir(root, str(rt.relative_to(root)))
    os.environ["RAY_TMPDIR"] = temp_dir
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=NUM_CPUS,
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=temp_dir)
    init_s = time.perf_counter() - t0
    import logging

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return init_s


def stop(state_dir: Path) -> None:
    """Shut Ray down and make sure none of its processes outlive the run."""
    import ray

    try:
        if ray.is_initialized():
            ray.shutdown()
    finally:
        sweep(str(state_dir))
