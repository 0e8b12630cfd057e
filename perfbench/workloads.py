"""Inputs of the four benchmark workloads and the operations their rounds run.

Every workload is built by `build(name, seed)`, which is the set-up the
benchmark times.  Its inputs are a fixed catalog of instances drawn from a
documented distribution with a fixed stream; a round runs the whole catalog,
in an order drawn from the seed and the round number.  The timed phase runs
whole rounds until the run's time is up, so every run does the same work
and the share of failed operations is the same in every run.

The catalogs do not change with the seed because the cost of an instance
does: a solve costs from 10 ms to 8 s depending on the draw, and the few
dozen distinct instances a 20 s run affords made the figures of seeded
draws differ from seed to seed by more than the benchmark's bounds (up to
35% between seeds on the Monte Carlo workload).

This module is the only one that calls into `rsgame`; the functions of
`checks.py` verify the outputs it collects.
"""

import dataclasses
import time

import numpy as np

import checks
import rsgame as rs
from rsgame import equilibria
from rsgame.harness import channels, experiment, montecarlo
from rsgame.harness.config import ExperimentConfig, ScenarioSpec

# errors the solvers raise on purpose for an instance they cannot solve; any
# other exception is a fault of the program or the benchmark and ends the run
SOLVER_ERRORS = (rs.errors.IterationLimitError, rs.errors.SingularImpactError,
                 rs.errors.DegenerateModelError)


@dataclasses.dataclass
class Task:
    """One operation of a round: a label, an integer id for spans, inputs."""

    ident: int
    label: str
    spec: object = None
    config: object = None


@dataclasses.dataclass
class Outcome:
    """What one operation returned and how long it took."""

    task: Task
    seconds: float
    instances: int      # instances the operation covers (B for an ensemble)
    equilibria: int     # equilibrium results returned
    failed: int         # instances with a solve that raised
    results: dict       # kind -> EquilibriumResult, or the CdfResult
    error: str = ""


class Workload:
    """A catalog of tasks, run in a seeded order each round.

    The priced catalogs hold an odd number of instances: with whole rounds,
    the median instance time is then the middle instance's own, not a
    midpoint that jumps across the gap between two cost groups when noise
    moves one sample over it.  (`budgeted-bilevel` has two instances, and
    its median is the midpoint of the two.)
    """

    def __init__(self, seed):
        self.seed = seed
        self.catalog = []

    def round(self, r):
        order = np.random.default_rng([self.seed, r]).permutation(len(self.catalog))
        return [self.catalog[i] for i in order]

    def check(self, outcomes):
        """Messages of every failed check on the outcomes of a phase."""
        return [msg for o in outcomes for msg in self.check_outcome(o)]


# ---------------------------------------------------------------------------
# priced-sweep: what `rsgame sweep` does per instance
# ---------------------------------------------------------------------------

class PricedSweep(Workload):
    """`harness.solve_instance` on the default two-player, K = 1 sweep config.

    Rayleigh gains, prices 0.8/0.5, noise 0.01, box [0, 10]; one NSE, two
    RSE1, two RSE2, the C-conditions and the d-metrics per instance.  The
    catalog is the first 49 instances of the default config's ensemble
    (`rng_seed` 0).
    """

    name = "priced-sweep"
    size = 49

    def __init__(self, seed):
        super().__init__(seed)
        self.config = ExperimentConfig(eps_grid=(0.0, 0.02, 0.05),
                                       delta_grid=(0.0, 0.02, 0.05), rng_seed=0)
        for i in range(self.size):
            gains = channels.generate_channels(self.config, i)
            self.catalog.append(Task(ident=i, label=f"sweep-{i}",
                                     spec=self.config.to_spec(gains)))

    def run(self, task):
        start = time.perf_counter()
        try:
            record = experiment.solve_instance(self.config, task.spec, task.ident)
        except SOLVER_ERRORS as exc:
            return Outcome(task, time.perf_counter() - start, 1, 0, 1, {},
                           f"{type(exc).__name__}: {exc}")
        return Outcome(task, time.perf_counter() - start, 1, len(record.results),
                       0, record.results)

    def check_outcome(self, o):
        if o.failed:
            return []
        return checks.check_priced_sweep(o.task.spec, o.results, o.task.label)


# ---------------------------------------------------------------------------
# priced-robust: coupled inner problems
# ---------------------------------------------------------------------------

def draw_one_follower(rng, k):
    """One leader, one follower, K subchannels; the tests' moderate couplings."""
    h = rng.uniform(0.5, 2.0, size=(2, k))
    x01 = rng.uniform(0.1, 0.6, size=k) * np.sqrt(h[0] * h[1])
    x10 = rng.uniform(0.1, 0.6, size=k) * np.sqrt(h[0] * h[1])
    cross = np.zeros((2, 2, k))
    cross[0, 1] = x01
    cross[1, 0] = x10
    sigma = rng.uniform(0.05, 0.3, size=(2, k))
    price = rng.uniform(0.4, 1.2, size=2)
    return rs.make_spec(direct=h, cross=cross, noise=sigma, leaders=(0,),
                        action_min=0.0, action_max=8.0, price=price)


def draw_two_followers(rng):
    """One leader, two followers, one subchannel, the same coupling law."""
    n = 3
    h = rng.uniform(0.5, 2.0, size=(n, 1))
    cross = np.zeros((n, n, 1))
    for i in range(n):
        for j in range(n):
            if i != j:
                cross[i, j] = rng.uniform(0.1, 0.6, size=1) * np.sqrt(h[i] * h[j])
    sigma = rng.uniform(0.05, 0.3, size=(n, 1))
    price = rng.uniform(0.4, 1.2, size=n)
    return rs.make_spec(direct=h, cross=cross, noise=sigma, leaders=(0,),
                        action_min=0.0, action_max=8.0, price=price)


class PricedRobust(Workload):
    """`solve_nse` then `solve_rse1` at eps = 0.04 on coupled priced games.

    The catalog holds two K = 2 one-follower games and the first nine
    two-follower K = 1 games of the stream `default_rng(1)`.  The K = 2 games
    are draws 0 and 5 of the stream `default_rng(0)`: the first whose RSE1
    completes and the first whose RSE1 raises `IterationLimitError` (the
    follower best-response fault, counted as a failed instance).
    """

    name = "priced-robust"
    eps = 0.04
    k2_draws = (0, 5)
    two_followers = 9

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(0)
        stream = [draw_one_follower(rng, 2) for _ in range(max(self.k2_draws) + 1)]
        self.catalog = [Task(ident=100 + i, label=f"k2-draw{i}", spec=stream[i])
                        for i in self.k2_draws]
        rng = np.random.default_rng(1)
        self.catalog += [Task(ident=i, label=f"2f-draw{i}",
                              spec=draw_two_followers(rng))
                         for i in range(self.two_followers)]

    def run(self, task):
        start = time.perf_counter()
        results = {"NSE": equilibria.solve_nse(task.spec)}
        error = ""
        try:
            results["RSE1"] = equilibria.solve_rse1(task.spec, self.eps)
        except SOLVER_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        return Outcome(task, time.perf_counter() - start, 1, len(results),
                       int(bool(error)), results, error)

    def check_outcome(self, o):
        return checks.check_priced_robust(o.task.spec, o.results, self.eps,
                                          o.task.label)


# ---------------------------------------------------------------------------
# the budgeted ensemble of demo_05, on both solver paths
# ---------------------------------------------------------------------------

def budgeted_config(ensemble_size):
    """demo_05's s2 ensemble: two players, K = 4, four-ray, budgets 10."""
    return ExperimentConfig(
        n_players=2, n_dims=4, leaders=(0,),
        utility={"kind": "budgeted", "budget": [10.0, 10.0]},
        action_max=10.0, noise=0.01, channel_model="four_ray",
        rng_seed=1, ensemble_size=ensemble_size, eps_grid=(0.0, 0.05),
        scenario=ScenarioSpec(filter="s2"), restarts=3)


class BudgetedMonteCarlo(Workload):
    """`harness.monte_carlo_cdf`, what `rsgame montecarlo` runs.

    Each round is one call on the first 64 instances of demo_05's ensemble;
    64 is where the lockstep engine's cost per instance stops falling.  The
    s2 draws happen inside the timed call.
    """

    name = "budgeted-montecarlo"
    ensemble = 64
    probe_instances = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.config = budgeted_config(self.ensemble)
        self.catalog = [Task(ident=0, label="demo05-ensemble", config=self.config)]

    def run(self, task):
        start = time.perf_counter()
        cdf = montecarlo.monte_carlo_cdf(task.config)
        size = task.config.ensemble_size
        return Outcome(task, time.perf_counter() - start, size, 2 * size, 0,
                       {"cdf": cdf})

    def check_outcome(self, o):
        return checks.check_cdf(o.results["cdf"], o.instances, o.task.label)

    def check(self, outcomes):
        return super().check(outcomes) + checks.check_batch_probe(self.probe())

    def probe(self):
        """Engine outputs on a few instances, for checks outside the timed phase.

        Returns the stacked batch, leader allocations drawn from the seed
        with the follower's nominal response to them, and the nominal and
        robust leader ascents.
        """
        batch, _ = montecarlo.batch_from_config(self.config, self.probe_instances)
        rng = np.random.default_rng(self.seed)
        shape = (self.probe_instances, self.config.n_dims)
        a0 = rng.dirichlet(np.ones(shape[1]), size=shape[0]) * batch.p0
        a0 *= rng.uniform(0.2, 1.0, size=(shape[0], 1))
        return {
            "batch": batch, "a0": a0,
            "a1": montecarlo.follower_response_batch(batch, a0, 0.0),
            "ascent": {e: montecarlo.leader_ascent_batch(
                batch, e, n_steps=40, seed=self.config.rng_seed,
                restarts=self.config.restarts)
                for e in self.config.eps_grid},
        }


class BudgetedBilevel(Workload):
    """`solve_nse` and `solve_rse1` per instance on the budgeted ensemble.

    The same mathematics as the Monte Carlo workload through the
    per-instance path, on the first two instances of the same ensemble,
    with its radius and restarts.
    """

    name = "budgeted-bilevel"
    size = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.config = budgeted_config(self.size)
        self.eps = max(self.config.eps_grid)
        self.catalog = [Task(ident=i, label=f"demo05-{i}",
                             spec=self.config.to_spec(
                                 channels.generate_channels(self.config, i)))
                        for i in range(self.size)]

    def run(self, task):
        kwargs = {"restarts": self.config.restarts, "seed": self.config.rng_seed}
        start = time.perf_counter()
        results = {}
        error = ""
        try:
            results["NSE"] = equilibria.solve_nse(task.spec, **kwargs)
            results["RSE1"] = equilibria.solve_rse1(task.spec, self.eps, **kwargs)
        except SOLVER_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        return Outcome(task, time.perf_counter() - start, 1, len(results),
                       int(bool(error)), results, error)

    def check_outcome(self, o):
        return checks.check_budgeted_bilevel(o.task.spec, o.results, o.task.label)


WORKLOADS = {cls.name: cls for cls in (PricedSweep, PricedRobust,
                                       BudgetedMonteCarlo, BudgetedBilevel)}


def build(name, seed):
    return WORKLOADS[name](seed)


def check_worked_instance():
    """The checks, run on the worked instance before they judge a workload."""
    spec = rs.make_spec(direct=[[1.0], [1.0]], cross=[[0.0, 0.5], [0.5, 0.0]],
                        noise=0.1, leaders=(0,), action_min=0.0,
                        action_max=[[1.0], [2.0]], price=[0.8, 0.5])
    return checks.worked_instance_selftest(spec, {
        ("NSE", 0.0): equilibria.solve_nse(spec),
        ("RSE1", 0.1): equilibria.solve_rse1(spec, 0.1),
        ("RSE2", 0.1): equilibria.solve_rse2(spec, 0.0, 0.1)})
