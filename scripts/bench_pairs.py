"""Run perfbench/run.py at two commits in alternating pairs and write the medians to a JSON file.

    python3 scripts/bench_pairs.py --parent REV --change REV --out BENCH_<n>.json

Run it from the root of a git checkout. Each commit is exported with
``git archive`` into its own directory under ``.bench_pairs/``, and
each run is that copy's own ``perfbench/run.py``, started there, as a
fresh checkout would run it. Each run lasts BENCHMARK.json's
``run_seconds``, and there are PAIRS pairs. Pair i runs every workload
that BENCHMARK.json lists with seed ``BASE_SEED + i`` on both commits,
the parent first in even pairs and the change first in odd ones, so that
a drift in the host's speed falls on both sides alike. The output holds, per workload and end-to-end metric,
each side's median and quartiles over the pairs, the pairs in which the
change read better, and every pair's values, with the machine, the
method and the seeds. Per workload, ``attempted`` holds each run's count
of checked results next to the metrics, so that a metric which grows
with the work done in a run, such as ``random/peak_rss_mb``, can be read
against it.

Each metric also gets two verdicts, from its ``bound`` and ``better`` in
BENCHMARK.json. ``gain_rule_met`` is true when the change read better in
at least GAIN_PAIRS of the pairs and its median moved the better way by
more than the parent's quartile spread. ``regression`` is "yes" when the
change's median is worse than the parent's by more than the bound (a
fraction of the parent's median), else "unresolved" when the parent's
quartile spread is wider than that bound and not every run of the change
read better than every run of the parent, so no verdict can be read from
the runs, else "no".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
BASE_SEED = 3201
#: the pairs out of PAIRS in which the change must read better for a claimed gain
GAIN_PAIRS = 9


def export(rev: str, directory: Path) -> str:
    """Write the tree of ``rev`` into ``directory``; return the commit's full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One run of the checkout's benchmark: its result object and its report line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout.name} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report "))
    return json.loads(lines[-1]), report


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def verdicts(parent: list[float], change: list[float], spec: dict) -> dict:
    """The pairs the change won, gain_rule_met and regression for one metric; ``spec`` is its BENCHMARK.json entry."""
    sign = -1.0 if spec["better"] == "lower" else 1.0
    q1, median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - median)
    better_pairs = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if -gain > spec["bound"] * abs(median):
        regression = "yes"
    elif q3 - q1 > spec["bound"] * abs(median) and not every_run_better:
        regression = "unresolved"
    else:
        regression = "no"
    return {"change_better_pairs": better_pairs, "gain_rule_met": better_pairs >= GAIN_PAIRS and gain > q3 - q1,
            "regression": regression}


def summarize(pairs: list[dict], specs: dict) -> dict:
    """Per metric: each side's quartiles, the pairs the change won, the verdicts and every pair's values.

    ``attempted`` holds each side's median and every pair's counts of the results a run checked.
    """
    attempted = [[p["attempted"]["parent"], p["attempted"]["change"]] for p in pairs]
    out = {"attempted": {"parent_median": statistics.median(p for p, _ in attempted),
                         "change_median": statistics.median(c for _, c in attempted), "pairs": attempted}}
    for name in pairs[0]["parent"]:
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        q_parent, q_change = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": pairs[0]["parent"][name]["unit"],
            "parent_median": q_parent[1],
            "change_median": q_change[1],
            "change_vs_parent": q_change[1] / q_parent[1] - 1.0 if q_parent[1] else None,
            "parent_quartiles": [q_parent[0], q_parent[2]],
            "change_quartiles": [q_change[0], q_change[2]],
            "bound": specs[name]["bound"],
            **verdicts(parent, change, specs[name]),
            "pairs": [[p, c] for p, c in zip(parent, change)],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against, e.g. HEAD~1")
    ap.add_argument("--change", default="HEAD", help="the commit that is measured (default HEAD)")
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    specs = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    work = Path(".bench_pairs")
    sides = {"parent": work / "parent", "change": work / "change"}
    commits = {side: export(rev, sides[side]) for side, rev in (("parent", args.parent), ("change", args.change))}

    runs = {w: [] for w in workloads}
    machine, correct = None, True
    started = time.time()
    for i in range(PAIRS):
        seed = BASE_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": seed, "first": order[0], "attempted": {}}
            for side in order:
                result, report = run_once(sides[side], workload, seed, seconds)
                pair[side] = result["metrics"]
                pair["attempted"][side] = result["attempted"]
                correct = correct and result["correct"]
                # the first run's machine, without its seed and the path of its checkout
                machine = machine or {k: v for k, v in report["machine"].items() if k not in ("seed", "ggqd_file")}
            runs[workload].append(pair)
            print(f"pair {i} seed {seed} {workload}: " + ", ".join(
                f"{name} {pair['parent'][name]['value']:.4g}/{pair['change'][name]['value']:.4g}"
                for name in pair["parent"]) + f", attempted {pair['attempted']['parent']}/{pair['attempted']['change']}",
                  flush=True)

    result = {
        "parent": commits["parent"],
        "change": commits["change"],
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count(), "benchmark": machine},
        "method": (f"perfbench/run.py --seconds {seconds:g} of each commit's own checkout, {PAIRS} pairs "
                   "per workload; pair i uses seed + i on both sides, the parent first in even pairs and the "
                   "change first in odd ones; medians and quartiles over the pairs; change_better_pairs counts "
                   "the pairs in which the change read better (ties count for neither side); gain_rule_met: better in "
                   f"at least {GAIN_PAIRS} pairs and the median moved the better way by more than the parent's "
                   "quartile spread; regression: yes (worse than the parent's median by more than BENCHMARK.json's "
                   "bound, a fraction of it), unresolved (the parent's quartile spread is wider than that bound, "
                   "unless every change run read better than every parent run) or no"),
        "seeds": [BASE_SEED + i for i in range(PAIRS)],
        "seconds": seconds,
        "all_runs_correct": correct,
        "wall_s": time.time() - started,
        "workloads": {w: summarize(runs[w], specs) for w in workloads},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
