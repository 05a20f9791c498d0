"""Benchmark of the ggqd CLI and library.

    python3 perfbench/run.py --workload {cold_cli,sweep,random} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the working tree under
``src/`` (``PYTHONPATH=src``, no installed package). One client sends one
request at a time and waits for it (a closed loop). Inputs come from
``--seed``. Every output is checked against values computed without ggqd.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a traced in-process replay of the same workload.
Human-readable lines and a ``report`` line (machine, method, the ROADMAP
baseline next to the measured values) come first; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import worker

WORKLOADS = ("cold_cli", "sweep", "random")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
PROCESS_TIMEOUT_S = 150.0

# The two request kinds of each workload. End-to-end metric names are the
# same on every workload; these workload-specific names are printed beside them.
ALIASES = {
    "cold_cli": ("compute_cold", "oracle_cold"),
    "sweep": ("sweep_1001", "sweep_41"),
    "random": ("solve", "oracle"),
}

# ROADMAP's "Measured baseline", printed next to what this run measured.
ROADMAP_BASELINE = {
    "compute_cold_s": "0.65-0.9 s per fresh `ggqd compute` process",
    "sweep_1001_s": "~4.4 s for the 1001-point Werner sweep",
    "solve_s": "~4.9 ms per fast solve",
    "oracle_s": "~55 ms per oracle state",
    "init.import_s": "0.66-0.77 s for `import ggqd`",
    "init.scipy_optimize_import_s": "0.55-0.63 s for `import scipy.optimize`",
    "pauli.pauli_decompose_s": "~0.17 ms",
    "qstate.validate_density_s": "~25 us",
    "objective.grid_nodes": "16,380 grid nodes per fast solve",
    "objective.reduced_over_a_batch_s": "~0.40 ms for the 16,380-node batch",
    "objective.reduced_over_a_calls": "91 polish calls per fast solve",
    "solver.maximize_objective_self_s": "~1.25 ms for the direction grid rebuilt per call",
    "solver.oracle_search_s": "~55 ms per oracle state",
    "solver.oracle_grid_evals": "2,664 x 2,664 per state (README: ~7.7M)",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(argv, env, cwd, directory: Path) -> dict:
    """Run one process to completion: wall time, exit code, output, peak RSS.

    The child is waited for without being reaped, so the time is taken the
    moment it exits and its resource usage is read from its own reaping."""
    out_path, err_path = directory / "stdout.txt", directory / "stderr.txt"
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=cwd)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(PROCESS_TIMEOUT_S, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise BenchmarkError(f"{argv} ran longer than {PROCESS_TIMEOUT_S} s")
    return {
        "wall": wall,
        "code": proc.returncode,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_worker(args, ctx) -> tuple[float, dict]:
    """Start worker.py; return seconds from spawn to its ``ready`` line, and
    the JSON object it prints last."""
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")), *args,
            "--seed", str(ctx.seed), "--dir", str(ctx.work)]
    err_path = ctx.work / "worker-stderr.txt"
    with open(err_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=se, env=ctx.env, cwd=ctx.root, text=True)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        err = err_path.read_text(encoding="utf-8", errors="replace")
        raise BenchmarkError(f"worker {args} exited with {proc.returncode}:\n{err[-3000:]}")
    return ready, json.loads(rest.strip().splitlines()[-1])


def set_up(ctx) -> tuple[float, dict]:
    """Median set-up time over fresh processes, and the last one's output."""
    times = []
    for _ in range(SETUP_REPEATS):
        ready, out = run_worker(["setup", "--workload", ctx.workload], ctx)
        times.append(ready)
    return statistics.median(times), out


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the higher of p90 and p50
    that has at least ten samples beyond it; the maximum when neither has.

    p99 is left out: on a shared 2-core machine the p99 of the fast solves
    moved by 69% (quartile spread over median) between runs of one commit."""
    n = len(samples)
    for pct in (90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            value = float(np.percentile(samples, pct, method="higher"))
            return value, pct, int(sum(1 for s in samples if s > value))
    return float(max(samples)), 100.0, 0


class Run(checks.Tally):
    """Samples of a workload's two request kinds, peak RSS and checked results."""

    def __init__(self, ctx):
        super().__init__()
        self.ctx = ctx
        self.primary: list[float] = []
        self.secondary: list[float] = []
        # Per kind, the samples that primary_s and secondary_s are the median
        # of, and what they are, where they are not all calls.
        self.central: dict[str, list[float]] = {}
        self.central_over = "all calls"
        self.rss_mb = 0.0

    def ggqd_process(self, cli_args) -> dict:
        res = spawn([sys.executable, "-m", "ggqd", *cli_args], self.ctx.env, self.ctx.root, self.ctx.work)
        self.rss_mb = max(self.rss_mb, res["rss_mb"])
        return res


def self_test(name: str, caught: bool) -> None:
    if not caught:
        raise BenchmarkError(f"self-test: a corrupted {name} passed the output checks")


def measure_cold_cli(ctx, run: Run) -> None:
    """Fresh ``compute`` and ``oracle`` processes over the seeded state files."""
    manifest = ctx.setup_out["inputs"]
    first = None
    visits = worker.Deadline(ctx.seconds)
    visited = 0
    while visits.another():
        entry = manifest[visited % len(manifest)]
        m = worker.read_matrix(entry["file"])
        res = run.ggqd_process(worker.cli_argv("compute", entry))
        run.primary.append(res["wall"])
        problems, out = checks.check_compute_output(m, res["code"], res["stdout"])
        run.record(problems)
        if out and first is None:
            first = (m, res["stdout"])
        res = run.ggqd_process(worker.cli_argv("oracle", entry))
        run.secondary.append(res["wall"])
        run.record(checks.check_oracle_output(res["code"], res["stdout"], out["f_max"] if out else None))
        visited += 1

    if first is not None:
        m, stdout = first
        shifted = json.loads(stdout)
        shifted["ggqd"] += 1e-6
        self_test("ggqd value", bool(checks.check_compute_output(m, 0, json.dumps(shifted))[0]))
        self_test("exit code", bool(checks.check_compute_output(m, 1, stdout)[0]))


def measure_sweep(ctx, run: Run) -> None:
    """Fresh ``sweep`` processes: the 1001-point Werner sweep, then the
    41-point Bell-mixture sweep."""
    first = None
    pairs = worker.Deadline(ctx.seconds)
    while pairs.another():
        for sweep, times in zip(worker.SWEEPS, (run.primary, run.secondary)):
            path = ctx.work / f"{sweep.family}.csv"
            res = run.ggqd_process(worker.sweep_argv(sweep, path))
            times.append(res["wall"])
            text = path.read_text(encoding="utf-8") if res["code"] == 0 else ""
            problems = worker.check_sweep(sweep, res["code"], text)
            run.record(problems)
            if not problems and first is None:
                first = (sweep, text)

    if first is not None:
        sweep, text = first
        lines = text.splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        corrupted = "\n".join(lines[:-1] + [",".join(cells)])
        self_test("sweep row", bool(worker.check_sweep(sweep, 0, corrupted)))
        self_test("sweep exit code", bool(worker.check_sweep(sweep, 4, text)))


def measure_random(ctx, run: Run) -> None:
    """Warm solves in one interpreter: fast phase, then oracle phase."""
    _, out = run_worker(["random", "--seconds", str(ctx.seconds)], ctx)
    self_test("warm ggqd value", out["self_test_caught"])
    run.primary, run.secondary = out["fast_s"], out["oracle_s"]
    # Every state is solved many times in a run. The median is taken over the
    # states of each state's fastest call: on a shared machine the speed can
    # switch between two levels every few seconds, so the median of all calls
    # jumps with the share of the run spent at the slow level. The tails stay raw.
    run.central = {"primary": out["fast_best_s"], "secondary": out["oracle_best_s"]}
    run.central_over = "the fastest call of each state"
    run.rss_mb = out["peak_rss_mb"]
    run.attempted, run.failed, run.problems = out["attempted"], out["failed"], out["problems"]


def end_to_end(ctx) -> tuple[dict, dict]:
    ctx.setup_s, ctx.setup_out = set_up(ctx)
    run = Run(ctx)
    {"cold_cli": measure_cold_cli, "sweep": measure_sweep, "random": measure_random}[ctx.workload](ctx, run)

    metrics = {"setup_s": (ctx.setup_s, "s")}
    detail = {"setup_repeats": SETUP_REPEATS}
    for kind, samples, alias in zip(("primary", "secondary"), (run.primary, run.secondary), ALIASES[ctx.workload]):
        value, pct, beyond = tail(samples)
        central = run.central.get(kind, samples)
        metrics[f"{kind}_s"] = (statistics.median(central), "s")
        metrics[f"{kind}_tail_s"] = (value, "s")
        detail[f"{kind}_s"] = {"alias": f"{alias}_s", "samples": len(samples),
                               "median_over": run.central_over,
                               "median_of_all_calls": statistics.median(samples)}
        detail[f"{kind}_tail_s"] = {"alias": f"{alias}_tail_s", "percentile": pct, "beyond": beyond,
                                    "samples": len(samples)}
    metrics["peak_rss_mb"] = (run.rss_mb, "MB")
    detail["error_rate"] = run.failed / run.attempted
    detail["problems"] = run.problems[:5]
    ctx.attempted, ctx.failed = run.attempted, run.failed
    return metrics, detail


def import_times(ctx) -> tuple[float, float]:
    """Median cumulative import time of ``ggqd`` and of ``scipy.optimize``
    in fresh ``python -X importtime -c "import ggqd"`` processes."""
    ggqd_s, scipy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        res = spawn([sys.executable, "-X", "importtime", "-c", "import ggqd"], ctx.env, ctx.root, ctx.work)
        if res["code"] != 0:
            raise BenchmarkError(f"import ggqd failed:\n{res['stderr'][-3000:]}")
        cumulative = {}
        for line in res["stderr"].splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        ggqd_s.append(cumulative["ggqd"])
        scipy_s.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(ggqd_s), statistics.median(scipy_s)


def per_layer(ctx) -> tuple[dict, dict]:
    import_s, scipy_s = import_times(ctx)
    _, out = run_worker(["trace", "--workload", ctx.workload, "--seconds", str(ctx.seconds)], ctx)
    ctx.setup_out = out
    spans = ctx.root / ".perfbench_out" / f"spans-{ctx.workload}.jsonl.gz"
    spans.parent.mkdir(exist_ok=True)
    shutil.move(str(ctx.work / "spans.jsonl.gz"), spans)
    metrics = {"init.import_s": (import_s, "s"), "init.scipy_optimize_import_s": (scipy_s, "s")}
    metrics.update({k: tuple(v) for k, v in out["metrics"].items()})
    ctx.attempted, ctx.failed = out["attempted"], out["failed"]
    detail = {"passes": out["passes"], "spans": out["spans"], "spans_file": str(spans.relative_to(ctx.root)),
              "importtime_repeats": IMPORTTIME_REPEATS,
              "error_rate": out["failed"] / out["attempted"], "problems": out["problems"]}
    return metrics, detail


def print_report(ctx, metrics: dict, detail: dict) -> None:
    print(f"ggqd benchmark: workload {ctx.workload}, seed {ctx.seed}, {ctx.seconds} s, trace {int(ctx.trace)}")
    aliases = {name: d["alias"] for name, d in detail.items() if isinstance(d, dict) and "alias" in d}
    for name, (value, unit) in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name + alias:<44} {value:.10g} {unit}")
    print(f"  error_rate {detail['error_rate']:.6g} ({ctx.failed} of {ctx.attempted} results failed)")
    for problem in detail.get("problems", []):
        print(f"  failure: {problem}")
    for name, baseline in ROADMAP_BASELINE.items():
        key = next((k for k, a in aliases.items() if a == name), name)
        if metrics.get(key, (0.0,))[0]:
            value, unit = metrics[key]
            print(f"  ROADMAP baseline {name}: {baseline}; measured {value:.10g} {unit}")
    report = {"workload": ctx.workload, "seconds": ctx.seconds, "trace": int(ctx.trace),
              "machine": ctx.setup_out["info"], "detail": detail}
    print("report " + json.dumps(report))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ctx = ap.parse_args(argv)

    ctx.root = Path.cwd()
    if not (ctx.root / "src" / "ggqd" / "__init__.py").is_file():
        print("error: run from the root of a ggqd checkout (src/ggqd not found)", file=sys.stderr)
        return 2
    spec = json.loads((ctx.root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer" if ctx.trace else "end_to_end"]]
    ctx.env = dict(os.environ)
    ctx.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ctx.root / "src"), os.environ.get("PYTHONPATH")) if p)
    ctx.work = ctx.root / ".perfbench_run" / f"{ctx.workload}-{os.getpid()}"
    ctx.work.mkdir(parents=True)
    try:
        metrics, detail = (per_layer if ctx.trace else end_to_end)(ctx)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    if sorted(metrics) != sorted(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    print_report(ctx, metrics, detail)
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
