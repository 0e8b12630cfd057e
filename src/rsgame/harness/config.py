"""Experiment configuration: a JSON-mirrored dataclass with strict parsing."""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .. import game
from ..errors import ConfigError


@dataclass(frozen=True)
class ScenarioSpec:
    """Interference-ratio rejection filter for two-player ensembles.

    s1: leader-to-follower ratio above 0.8, follower-to-leader below 0.1;
    s2: both above 0.9; s3: leader-to-follower below 0.1,
    follower-to-leader above 0.9 (`channels.generate_channels`).
    """

    filter: str = None  # "s1" | "s2" | "s3" | None

    def __post_init__(self):
        if self.filter is not None and self.filter not in ("s1", "s2", "s3"):
            raise ConfigError(f"unknown scenario filter {self.filter!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible ensemble run needs, JSON field-for-field."""

    n_players: int = 2
    n_dims: int = 1
    leaders: tuple = (0,)
    utility: dict = field(default_factory=lambda: {"kind": "priced",
                                                   "price": [0.8, 0.5]})
    action_min: object = 0.0
    action_max: object = 10.0
    noise: object = 0.01
    channel_model: str = "rayleigh"  # "rayleigh" | "four_ray"
    fixed_gains: object = None       # explicit (N, N, K) gains, overrides draws
    rng_seed: int = 0
    ensemble_size: int = 1
    eps_grid: tuple = (0.0,)
    delta_grid: tuple = (0.0,)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    out_dir: str = "out"
    format: str = "csv"              # "csv" | "csv+svg"
    restarts: int = 4                # budgeted leader starts (at least 4 run)

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ConfigError("ensemble_size must be at least 1")
        for name in ("eps_grid", "delta_grid"):
            grid = tuple(float(x) for x in getattr(self, name))
            object.__setattr__(self, name, grid)
            if not grid or grid[0] != 0.0 or list(grid) != sorted(grid):
                raise ConfigError(f"{name} must be ascending and start at 0")
        object.__setattr__(self, "leaders", tuple(int(x) for x in self.leaders))
        if (len(set(self.leaders)) != len(self.leaders)
                or not set(self.leaders) <= set(range(self.n_players))):
            raise ConfigError("leaders must be distinct players in "
                              f"range({self.n_players})")
        if self.scenario is None:  # no filter
            object.__setattr__(self, "scenario", ScenarioSpec())
        if self.format not in ("csv", "csv+svg"):
            raise ConfigError("format must be 'csv' or 'csv+svg'")
        if self.channel_model not in ("rayleigh", "four_ray"):
            raise ConfigError("channel_model must be 'rayleigh' or 'four_ray'")
        kind = self.utility.get("kind")
        if kind not in ("priced", "budgeted"):
            raise ConfigError("utility.kind must be 'priced' or 'budgeted'")
        if kind == "priced" and "price" not in self.utility:
            raise ConfigError("priced utility needs a 'price' list")
        if kind == "budgeted" and "budget" not in self.utility:
            raise ConfigError("budgeted utility needs a 'budget' list")
        per_player = self.utility["price" if kind == "priced" else "budget"]
        if np.size(per_player) not in (1, self.n_players):
            raise ConfigError(f"utility lists {np.size(per_player)} values "
                              f"for {self.n_players} players")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "scenario" in data and data["scenario"] is not None:
            sc = data["scenario"]
            sc_known = {f.name for f in fields(ScenarioSpec)}
            sc_unknown = set(sc) - sc_known
            if sc_unknown:
                raise ConfigError(f"unknown scenario keys: {sorted(sc_unknown)}")
            data["scenario"] = ScenarioSpec(**sc)
        if "utility" in data:
            u_unknown = set(data["utility"]) - {"kind", "price", "budget"}
            if u_unknown:
                raise ConfigError(f"unknown utility keys: {sorted(u_unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return asdict(self)

    # -- materialization ----------------------------------------------------

    def to_spec(self, gains):
        """GameSpec for one drawn gain tensor."""
        gains = np.asarray(gains, dtype=float)
        n, k = self.n_players, self.n_dims
        if gains.shape != (n, n, k):
            raise ConfigError(f"gains must have shape {(n, n, k)}")
        model = "price" if self.utility["kind"] == "priced" else "budget"
        idx = np.arange(n)
        return game.make_spec(
            gains[idx, idx], gains, self.noise, leaders=self.leaders,
            action_min=self.action_min, action_max=self.action_max,
            **{model: self.utility[model]})
