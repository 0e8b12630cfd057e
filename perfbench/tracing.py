"""Spans around the calls into each layer of `rsgame`, installed from outside.

`Tracer.installed()` replaces the traced functions by timing wrappers for the
duration of a `with` block.  A function is replaced in every `rsgame` module
that holds it, so a caller that imported it by name (`equilibria` imports
`maximize_scalar`, `harness.montecarlo` imports `waterfill_batch`) calls the
wrapper just as one that looks it up through its module (`robust` and
`budget` reach `game.derivatives` and `waterfill` that way).

A span records its name, start, end, parent span and the instance id the
benchmark set before the operation; spans stay in memory until `dump`.
"""

import contextlib
import sys
import time
from array import array


# (module, function) pairs whose calls become spans; the span name is
# "<last module name>.<function>"
TRACED = [
    ("rsgame.game", ("derivatives", "utility", "aggregate_impact")),
    ("rsgame.robust", ("worst_case_observation",)),
    ("rsgame.budget", ("waterfill", "robust_waterfill", "waterfill_batch")),
    ("rsgame.numerics", ("maximize_scalar",)),
    ("rsgame.equilibria", ("solve_nse", "solve_rse1", "solve_rse2",
                           "followers_nash", "follower_best_response")),
    ("rsgame.analysis", ("check_conditions", "delta_metrics")),
    ("rsgame.harness.channels", ("generate_channels",)),
    ("rsgame.harness.experiment", ("solve_instance",)),
    ("rsgame.harness.montecarlo", ("monte_carlo_cdf", "follower_response_batch",
                                   "leader_ascent_batch")),
]

SOLVES = ("equilibria.solve_nse", "equilibria.solve_rse1", "equilibria.solve_rse2")


# counters read off a call's result, summed per span name: the Nash sweeps
# and worst-case iterations the results report, and the rows of the
# (B, K) allocations the batched kernels return
COUNTERS = {
    "equilibria.followers_nash": ("sweeps", lambda out: out.diagnostics.iterations),
    "robust.worst_case_observation": ("iterations", lambda out: out.iterations),
    "budget.waterfill_batch": ("rows", len),
    "montecarlo.follower_response_batch": ("rows", len),
}


def _rsgame_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "rsgame" or name.startswith("rsgame.")]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counters = {}
        self.current_instance = -1
        self._stack = [-1]

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        if counter is not None:
            key = f"{name}.{counter[0]}"
            self.counters[key] = 0
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(idx)
            self.parent.append(stack[-1])
            self.instance.append(self.current_instance)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                stack.pop()
            if counter is not None:
                self.counters[key] += counter[1](out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function wherever an rsgame module holds it."""
        modules = _rsgame_modules()
        saved = []
        try:
            for mod_name, fns in TRACED:
                module = sys.modules[mod_name]
                short = mod_name.rsplit(".", 1)[-1]
                for fn_name in fns:
                    original = getattr(module, fn_name)
                    wrapper = self._wrap(f"{short}.{fn_name}", original)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                saved.append((holder, attr, original))
                                setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def totals(self):
        """Per span name: calls, failed calls and self time in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "failed": 0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            row = out[self.names[self.name_of[sid]]]
            row["calls"] += 1
            row["failed"] += self.failed[sid]
            row["self_s"] += self.end[sid] - self.start[sid] - child[sid]
        return out

    def dump(self, path):
        """Write every span as CSV: id, name, start, end, parent, instance."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,instance,failed\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid},{self.names[self.name_of[sid]]},"
                         f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f},"
                         f"{self.parent[sid]},{self.instance[sid]},"
                         f"{self.failed[sid]}\n")


def layer_metrics(tracer):
    """The per-layer metrics of BENCHMARK.json from one traced phase."""
    t = tracer.totals()
    c = tracer.counters
    solve_calls = sum(t[s]["calls"] for s in SOLVES)
    wco = t["robust.worst_case_observation"]
    nash = t["equilibria.followers_nash"]
    fbr = t["equilibria.follower_best_response"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "equilibria.solve.calls": (solve_calls, "count"),
        "equilibria.solve.failed": (sum(t[s]["failed"] for s in SOLVES), "count"),
        "equilibria.followers_nash.calls": (nash["calls"], "count"),
        "equilibria.followers_nash.sweeps":
            (c["equilibria.followers_nash.sweeps"], "count"),
        "equilibria.followers_nash.self_s": (nash["self_s"], "s"),
        "equilibria.nash_per_solve": (ratio(nash["calls"], solve_calls), "count/solve"),
        "equilibria.follower_best_response.calls": (fbr["calls"], "count"),
        "equilibria.follower_best_response.self_s": (fbr["self_s"], "s"),
        "equilibria.follower_best_response.failed": (fbr["failed"], "count"),
        "robust.worst_case_observation.calls": (wco["calls"], "count"),
        "robust.worst_case_observation.iterations":
            (c["robust.worst_case_observation.iterations"], "count"),
        "robust.worst_case_observation.self_s": (wco["self_s"], "s"),
        "robust.wco_iterations_per_call":
            (ratio(c["robust.worst_case_observation.iterations"], wco["calls"]),
             "count/call"),
        "budget.waterfill_batch.rows": (c["budget.waterfill_batch.rows"], "count"),
        "montecarlo.follower_response_batch.rows":
            (c["montecarlo.follower_response_batch.rows"], "count"),
    }
    for name in ("numerics.maximize_scalar", "game.derivatives", "game.utility",
                 "game.aggregate_impact", "budget.waterfill",
                 "budget.robust_waterfill", "budget.waterfill_batch",
                 "montecarlo.follower_response_batch",
                 "montecarlo.leader_ascent_batch", "channels.generate_channels"):
        m[f"{name}.calls"] = (t[name]["calls"], "count")
        m[f"{name}.self_s"] = (t[name]["self_s"], "s")
    for name in ("analysis.check_conditions", "experiment.solve_instance"):
        m[f"{name}.self_s"] = (t[name]["self_s"], "s")
    return m
