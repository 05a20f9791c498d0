"""The part of the benchmark that runs inside a Python process importing ggqd.

    worker.py setup  --workload W --seed N --dir D
    worker.py random --seed N --seconds S --dir D
    worker.py trace  --workload W --seed N --seconds S --dir D

``run.py`` starts it with ``PYTHONPATH=src`` so that it imports the working
tree. ``setup`` prepares a workload's inputs and prints ``ready``; ``random``
then times warm solves; ``trace`` replays a workload in this one process
with and without the tracer. The last line printed is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import tracing

RANDOM_STATES = 200
ORACLE_STATES = 20
RANDOM_FILES = 5
# Tails are read at p90, so each kind of call runs until ten samples lie beyond it.
MIN_SAMPLES = 110

FAMILY_FILES = (
    ("werner", {"p": 0.7}),
    ("bell-phi-plus", {}),
    ("bell-mixture", {"c3": 0.5}),
    ("classical-classical", {}),
    ("x-state", {"rho00": 0.4, "rho11": 0.1, "rho22": 0.2, "rho33": 0.3, "rho03": 0.25, "rho12": 0.1}),
)

class Sweep(NamedTuple):
    family: str
    param: str
    start: float
    stop: float
    step: float
    points: int
    flags: tuple = ()


SWEEPS = (
    Sweep("werner", "p", 0.0, 1.0, 0.001, 1001),
    Sweep("bell-mixture", "c3", -1.0, 1.0, 0.05, 41, ("--allow-nonphysical",)),
)


class Deadline:
    """Repeats a unit of work for about ``seconds``: at least once, and again
    while half a unit (timed by the last one) still fits before the deadline,
    so a run overshoots its length by no more than a fraction of a unit."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.last = None

    def another(self) -> bool:
        now = time.perf_counter()
        unit = 0.0 if self.last is None else now - self.last
        self.last = now
        return unit == 0.0 or now + unit / 2.0 < self.end


def sweep_argv(sweep: Sweep, output) -> list[str]:
    return ["sweep", sweep.family, sweep.param, "--from", repr(sweep.start), "--to", repr(sweep.stop),
            "--step", repr(sweep.step), "-o", str(output), *sweep.flags]


def check_sweep(sweep: Sweep, code: int, text: str) -> list[str]:
    return checks.check_sweep_csv(code, text, sweep.family, sweep.start, sweep.step, sweep.points)


def cli_argv(command: str, entry: dict) -> list[str]:
    argv = [command, entry["file"], "--json"]
    return argv + (["--allow-nonphysical"] if entry["nonphysical"] else [])


def write_state_files(ggqd, seed: int, directory: Path) -> list[dict]:
    """The cold_cli inputs: seeded random states and the family members.

    Returns the manifest, in the seeded order the files are visited."""
    rng = np.random.default_rng(seed)
    states = [(f"random-{k}", ggqd.validate_density(m), False)
              for k, m in enumerate(checks.ginibre_states(rng, RANDOM_FILES))]
    for family, params in FAMILY_FILES:
        nonphysical = family == "bell-mixture"
        spec = ggqd.StateFamilySpec(family, params)
        states.append((family, ggqd.generate_state(spec, allow_nonphysical=nonphysical), nonphysical))
    manifest = []
    for name, rho, nonphysical in states:
        path = directory / f"{name}.json"
        ggqd.save_state(path, rho)
        manifest.append({"name": name, "file": str(path), "nonphysical": nonphysical})
    return [manifest[k] for k in rng.permutation(len(manifest))]


def read_matrix(path) -> np.ndarray:
    """The matrix a state file holds, read without ggqd."""
    rows = json.loads(Path(path).read_text(encoding="utf-8"))["matrix"]
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def random_inputs(ggqd, seed: int):
    """Seeded Ginibre states for the warm workload, and the oracle subset."""
    rng = np.random.default_rng(seed)
    mats = checks.ginibre_states(rng, RANDOM_STATES)
    subset = [int(k) for k in rng.choice(RANDOM_STATES, ORACLE_STATES, replace=False)]
    return mats, [ggqd.validate_density(m) for m in mats], subset


def setup(workload: str, seed: int, directory: Path):
    """Import ggqd and build the workload's inputs; on ``random`` also make
    one warm-up fast call and one warm-up oracle call."""
    import ggqd

    if workload == "cold_cli":
        return ggqd, write_state_files(ggqd, seed, directory)
    if workload == "random":
        mats, states, subset = random_inputs(ggqd, seed)
        ggqd.ggqd(states[0])
        ggqd.ggqd(states[0], method="oracle")
        return ggqd, (mats, states, subset)
    return ggqd, None


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                out[os.path.basename(lib)] = int(fn())
                break
    return out


def machine_info(ggqd, seed: int) -> dict:
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "ggqd_file": ggqd.__file__,
        "load": "closed loop, one client, one request at a time",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def solve(ggqd, rho, method: str):
    """One library call. An exception is returned as the result, so that it
    counts as a failed result rather than ending the run."""
    try:
        return ggqd.ggqd(rho, method=method)
    except Exception as exc:
        return exc


def check_fast(mats, k, res) -> list[str]:
    if isinstance(res, Exception):
        return [f"state {k}: raised {res!r}"]
    return checks.check_solution(mats[k], res.ggqd, res.f_max, res.a_star, res.b_star, res.trace_cc)


def check_against(f_fast, k, res) -> list[str]:
    """An oracle result for state k, against the fast f_max for k."""
    if f_fast is None:
        return [f"state {k}: no fast result to compare with"]
    return [] if isinstance(res, Exception) else checks.check_oracle_agreement(f_fast, res.f_max)


def best_per_state(samples) -> list[float]:
    """The fastest call of each state, over all the times it was solved."""
    best = {}
    for t, k, _ in samples:
        best[k] = min(t, best.get(k, t))
    return [best[k] for k in sorted(best)]


def run_random(ggqd, inputs, seconds: float) -> dict:
    """Time warm ``ggqd(rho)`` calls and warm oracle calls, one at a time.

    Each cycle is a fast pass over every state, then an oracle pass over the
    subset. The two kinds stay in passes of their own on purpose: the
    oracle's 58 MB objective array evicts the caches, so an oracle call after
    each fast solve slows the fast solves (about 6.3 ms to 8.3 ms per solve
    measured on a 2-core Xeon) and a cut in oracle memory would then read as
    a false gain in fast solves. The passes alternate, rather than running
    one phase after the other, so that both kinds are sampled over the whole
    run: on a shared 2-core Xeon the speed switched between two levels
    (about 4.4 ms and 7.9 ms per fast solve) every few seconds.
    """
    mats, states, subset = inputs
    fast, oracle = [], []
    cycles = Deadline(seconds)
    while cycles.another() or len(oracle) < MIN_SAMPLES:
        for k, rho in enumerate(states):
            t0 = time.perf_counter()
            res = solve(ggqd, rho, "fast")
            fast.append((time.perf_counter() - t0, k, res))
        for k in subset:
            t0 = time.perf_counter()
            res = solve(ggqd, states[k], "oracle")
            oracle.append((time.perf_counter() - t0, k, res))

    tally, first_f = checks.Tally(), {}
    for _, k, res in fast:
        problems = check_fast(mats, k, res)
        if not problems and first_f.setdefault(k, res.f_max) != res.f_max:
            problems.append(f"state {k}: f_max {res.f_max!r} differs from the first solve {first_f[k]!r}")
        tally.record(problems)
    for _, k, res in oracle:
        tally.record(check_fast(mats, k, res) + check_against(first_f.get(k), k, res))

    # Self-test: the same checks must reject a result shifted by 1e-6.
    k, res = next(((k, r) for _, k, r in fast if not check_fast(mats, k, r)), (None, None))
    shifted = res is None or bool(
        checks.check_solution(mats[k], res.ggqd + 1e-6, res.f_max, res.a_star, res.b_star, res.trace_cc))
    return {
        "fast_s": [t for t, _, _ in fast],
        "oracle_s": [t for t, _, _ in oracle],
        "fast_best_s": best_per_state(fast),
        "oracle_best_s": best_per_state(oracle),
        **tally.as_dict(),
        "self_test_caught": shifted,
        "peak_rss_mb": peak_rss_mb(),
    }


class Replay:
    """One pass of a workload inside this process, with its output checks."""

    def __init__(self, ggqd, workload: str, inputs, directory: Path, tracer: tracing.Tracer):
        self.ggqd, self.workload, self.inputs = ggqd, workload, inputs
        self.directory, self.tracer = directory, tracer
        self.tally = checks.Tally()

    def _main(self, argv: list[str]) -> tuple[int, str]:
        self.tracer.request += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.ggqd.cli.main(argv)
        return code, out.getvalue()

    def run_pass(self) -> None:
        getattr(self, f"_pass_{self.workload}")()

    def _pass_cold_cli(self) -> None:
        for entry in self.inputs:
            m = read_matrix(entry["file"])
            problems, out = checks.check_compute_output(m, *self._main(cli_argv("compute", entry)))
            self.tally.record(problems)
            f_compute = out["f_max"] if out else None
            self.tally.record(checks.check_oracle_output(*self._main(cli_argv("oracle", entry)), f_compute))

    def _pass_sweep(self) -> None:
        for sweep in SWEEPS:
            path = self.directory / f"trace-{sweep.family}.csv"
            code, _ = self._main(sweep_argv(sweep, path))
            text = path.read_text(encoding="utf-8") if code == 0 else ""
            self.tally.record(check_sweep(sweep, code, text))

    def _pass_random(self) -> None:
        mats, states, subset = self.inputs
        f_fast = {}
        for k, rho in enumerate(states):
            self.tracer.request += 1
            res = solve(self.ggqd, rho, "fast")
            problems = check_fast(mats, k, res)
            self.tally.record(problems)
            if not problems:
                f_fast[k] = res.f_max
        for k in subset:
            self.tracer.request += 1
            res = solve(self.ggqd, states[k], "oracle")
            self.tally.record(check_fast(mats, k, res) + check_against(f_fast.get(k), k, res))


def run_trace(ggqd, workload: str, inputs, directory: Path, seconds: float) -> dict:
    """Alternate untraced and traced passes until ``seconds`` have passed.

    The order flips every pair, so drift over the run weighs on both sides
    alike; the traced over untraced wall time is the tracing overhead."""
    # The package does not import its CLI module itself.
    modules = {name: importlib.import_module(name) for name in ("ggqd.cli", "ggqd.qstate", "ggqd.solver")}
    tracer = tracing.Tracer()
    replay = Replay(ggqd, workload, inputs, directory, tracer)
    replay.run_pass()  # warm-up: first calls pay one-time costs inside numpy and scipy
    replay.tally = checks.Tally()
    wall = {False: 0.0, True: 0.0}
    pairs = 0
    deadline = Deadline(seconds)
    while deadline.another():
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                tracer.install(modules)
            t0 = time.perf_counter()
            try:
                replay.run_pass()
            finally:
                wall[traced] += time.perf_counter() - t0
                tracer.uninstall()
        pairs += 1
    metrics = tracing.layer_metrics(tracer.spans, pairs)
    metrics["trace.overhead_ratio"] = (wall[True] / wall[False], "ratio")
    tracer.write(directory / "spans.jsonl.gz")
    return {
        "metrics": metrics,
        "passes": pairs,
        **replay.tally.as_dict(),
        "spans": len(tracer.spans),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "random", "trace"])
    ap.add_argument("--workload", default="random")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args()

    ggqd, inputs = setup(args.workload, args.seed, args.dir)
    print("ready", flush=True)
    out = {"info": machine_info(ggqd, args.seed)}
    if args.mode == "setup":
        out["inputs"] = inputs if args.workload == "cold_cli" else None
    elif args.mode == "random":
        out.update(run_random(ggqd, inputs, args.seconds))
    else:
        out.update(run_trace(ggqd, args.workload, inputs, args.dir, args.seconds))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
