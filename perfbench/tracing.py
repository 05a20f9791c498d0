"""Spans around the calls into each ggqd module, recorded from outside it.

The tracer replaces public names in the module that calls them (for
example ``ggqd.solver.minimize``, the name ``maximize_objective`` looks up)
with a wrapper that records a span, and puts the originals back on
``uninstall``. Nothing under ``src/`` changes. A name the program no longer
has is skipped, so its spans are absent rather than an error.

Spans are kept in memory as ``[id, parent, request, name, start_ns,
end_ns, failed, note]`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np

# (module, name as that module binds it, span name, note taken from (args, result))
TRACED = (
    ("ggqd.cli", "main", "cli.main", lambda args, res: {"command": args[0][0], "code": res}),
    ("ggqd.cli", "load_state", "qstate.load_state", None),
    ("ggqd.cli", "generate_state", "qstate.generate_state", None),
    ("ggqd.qstate", "validate_density", "qstate.validate_density", None),
    ("ggqd.cli", "pauli_decompose", "pauli.pauli_decompose", None),
    ("ggqd.solver", "pauli_decompose", "pauli.pauli_decompose", None),
    ("ggqd.cli", "maximize_objective", "solver.maximize_objective", None),
    ("ggqd.solver", "maximize_objective", "solver.maximize_objective", None),
    ("ggqd.solver", "_oracle_search", "solver.oracle_search", None),
    ("ggqd.solver", "_direction_grid", "solver.direction_grid", lambda args, res: len(res[0])),
    ("ggqd.solver", "minimize", "solver.minimize", lambda args, res: -float(res.fun)),
    ("ggqd.solver", "reduced_over_a_batch", "objective.reduced_over_a_batch",
     lambda args, res: {"rows": len(args[1]), "best": float(np.max(res))}),
    ("ggqd.solver", "reduced_over_a", "objective.reduced_over_a", None),
    ("ggqd.solver", "objective_f", "objective.objective_f", None),
)

LAYERS = ("cli", "qstate", "pauli", "solver", "objective")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, modules: dict) -> None:
        for module_name, attr, span_name, note in TRACED:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.request, name, 0, 0, True, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()
            span[6] = False
            if note is not None:
                span[7] = note(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], passes: int) -> dict:
    """Per-layer figures from the spans of ``passes`` traced passes.

    Times are mean seconds per call. ``*_calls`` are calls per pass; the
    counts inside one solve are per solve (``maximize_objective`` call) or
    per oracle state (``_oracle_search`` call), so they repeat exactly.
    """
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)

    def dur(span):
        return (span[5] - span[4]) * 1e-9

    def mean_s(name, select=lambda s: True):
        chosen = [dur(s) for s in by_name[name] if select(s)]
        return sum(chosen) / len(chosen) if chosen else 0.0

    def descendants(span, name):
        out, todo = [], list(children[span[0]])
        while todo:
            s = todo.pop()
            if s[3] == name:
                out.append(s)
            todo.extend(children[s[0]])
        return out

    def direct(span, name):
        return [s for s in children[span[0]] if s[3] == name]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    solves = by_name["solver.maximize_objective"]
    oracles = by_name["solver.oracle_search"]
    cli = by_name["cli.main"]

    def cli_s(command):
        return mean_s("cli.main", lambda s: s[7] is not None and s[7]["command"] == command)

    solve_self, improved, grid_nodes, scalar_calls = [], 0, [], []
    for s in solves:
        batches = direct(s, "objective.reduced_over_a_batch")
        polishes = direct(s, "solver.minimize")
        solve_self.append(dur(s) - sum(dur(c) for c in batches + polishes))
        grid_nodes.append(sum(c[7]["rows"] for c in batches if c[7]))
        scalar_calls.append(len(descendants(s, "objective.reduced_over_a")))
        grid_best = max((c[7]["best"] for c in batches if c[7]), default=-np.inf)
        if any(c[7] is not None and c[7] > grid_best for c in polishes):
            improved += 1
    polish_s = [sum(dur(c) for c in direct(s, "solver.minimize")) for s in solves]

    oracle_polish, oracle_grid, oracle_evals, f_calls = [], [], [], []
    for s in oracles:
        p = sum(dur(c) for c in direct(s, "solver.minimize"))
        oracle_polish.append(p)
        oracle_grid.append(dur(s) - p)
        grids = [c[7] for c in direct(s, "solver.direction_grid") if c[7]]
        oracle_evals.append(float(np.prod(grids)) if grids else 0.0)
        f_calls.append(len(descendants(s, "objective.objective_f")))

    failed = defaultdict(int)
    for span in spans:
        if span[6] or (span[3] == "cli.main" and span[7] is not None and span[7]["code"] != 0):
            failed[span[3].split(".")[0]] += 1

    evals = mean(oracle_evals)
    per_pass = 1.0 / passes if passes else 0.0
    out = {
        "cli.main_compute_s": (cli_s("compute"), "s"),
        "cli.main_oracle_s": (cli_s("oracle"), "s"),
        "cli.main_sweep_s": (cli_s("sweep"), "s"),
        "cli.main_calls": (len(cli) * per_pass, "calls/pass"),
        "qstate.load_state_s": (mean_s("qstate.load_state"), "s"),
        "qstate.load_state_calls": (len(by_name["qstate.load_state"]) * per_pass, "calls/pass"),
        "qstate.generate_state_s": (mean_s("qstate.generate_state"), "s"),
        "qstate.generate_state_calls": (len(by_name["qstate.generate_state"]) * per_pass, "calls/pass"),
        "qstate.validate_density_s": (mean_s("qstate.validate_density"), "s"),
        "qstate.validate_density_calls": (len(by_name["qstate.validate_density"]) * per_pass, "calls/pass"),
        "pauli.pauli_decompose_s": (mean_s("pauli.pauli_decompose"), "s"),
        "pauli.pauli_decompose_calls": (len(by_name["pauli.pauli_decompose"]) * per_pass, "calls/pass"),
        "solver.maximize_objective_s": (mean_s("solver.maximize_objective"), "s"),
        "solver.maximize_objective_self_s": (mean(solve_self), "s"),
        "solver.maximize_objective_calls": (len(solves) * per_pass, "calls/pass"),
        "solver.polish_s": (mean(polish_s), "s"),
        "solver.polish_improved_ratio": (improved / len(solves) if solves else 0.0, "ratio"),
        "solver.oracle_search_s": (mean_s("solver.oracle_search"), "s"),
        "solver.oracle_grid_s": (mean(oracle_grid), "s"),
        "solver.oracle_polish_s": (mean(oracle_polish), "s"),
        "solver.oracle_search_calls": (len(oracles) * per_pass, "calls/pass"),
        "solver.oracle_grid_evals": (evals, "evals/oracle"),
        "solver.oracle_bytes": (8.0 * evals, "B-computed"),
        "objective.grid_nodes": (mean(grid_nodes), "nodes/solve"),
        "objective.reduced_over_a_batch_s": (mean_s("objective.reduced_over_a_batch"), "s"),
        "objective.reduced_over_a_calls": (mean(scalar_calls), "calls/solve"),
        "objective.objective_f_calls": (mean(f_calls), "calls/oracle"),
    }
    for layer in LAYERS:
        out[f"{layer}.failed_calls"] = (float(failed[layer]), "count")
    return out
