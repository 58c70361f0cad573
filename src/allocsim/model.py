"""Problem data model: instances, rate functions, configs, and scenario builders.

Defaults documented here and filled by :func:`config_from_document`:

* ``mu`` = 0.1 (entropy regularization weight)
* ``K`` = 1000 (checkpoint interval, arrivals)
* ``grid_dt`` = 0.001 (rate-scan resolution, hours)
* ``R_max`` = max(1, T // 5) when omitted
* ``lambda_max`` = max reward when omitted
"""

from __future__ import annotations

import bisect
import json
import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDimension,
    InvalidInstance,
    NegativeRate,
    NonpositiveMu,
    NonpositiveReward,
    ParseError,
    PreferenceOutOfRange,
    RateFunctionError,
)

__all__ = [
    "RATE_KINDS",
    "RatePiece",
    "RateFunction",
    "scan_grid",
    "StationaryArrivals",
    "NonstationaryArrivals",
    "ArrivalModel",
    "ProblemInstance",
    "AlgoParams",
    "SimConfig",
    "default_ucb_rounds",
    "substream",
    "validate_instance",
    "save_config",
    "config_document",
    "config_from_document",
    "config_hash",
    "scenario_stationary",
    "scenario_nonstationary",
]

MU_DEFAULT = 0.1
K_DEFAULT = 1000
GRID_DT_DEFAULT = 0.001

# Number of expected params per piece kind.
RATE_KINDS = {"constant": 1, "linear": 2, "quadratic": 3, "sinusoid": 4}


# ============================================================
# Piecewise rate functions
# ============================================================

@dataclass(frozen=True)
class RatePiece:
    """One piece of a piecewise rate function on [t_from, t_to).

    Kinds and params:
        constant  (c,)          -> c
        linear    (a, c)        -> a*t + c
        quadratic (a, b, c)     -> a*t^2 + b*t + c
        sinusoid  (a, b, c, d)  -> a*sin(b*t + c) + d
    """

    t_from: float
    t_to: float
    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in RATE_KINDS:
            raise RateFunctionError(f"unknown piece kind {self.kind!r}")
        if len(self.params) != RATE_KINDS[self.kind]:
            raise RateFunctionError(
                f"{self.kind} piece expects {RATE_KINDS[self.kind]} params, "
                f"got {len(self.params)}"
            )
        if not np.all(np.isfinite((self.t_from, self.t_to, *self.params))):
            raise RateFunctionError(
                f"piece bounds and params must be finite, got "
                f"[{self.t_from}, {self.t_to}) {self.params}"
            )
        if not self.t_from < self.t_to:
            raise RateFunctionError(
                f"piece interval [{self.t_from}, {self.t_to}) is empty"
            )

    def value(self, t):
        """Evaluate the piece at scalar or array t (no domain check)."""
        p = self.params
        if self.kind == "constant":
            return np.full_like(np.asarray(t, dtype=float), p[0]) if np.ndim(t) else p[0]
        if self.kind == "linear":
            return p[0] * t + p[1]
        if self.kind == "quadratic":
            return (p[0] * t + p[1]) * t + p[2]
        return p[0] * np.sin(p[1] * t + p[2]) + p[3]

    def grid_max(self, grid_dt: float) -> float:
        """Maximum over the piece's own scan grid, [t_from, t_to] anchored at
        t_from; raises NegativeRate if any grid value is negative."""
        ts = scan_grid((), self.t_from, self.t_to, grid_dt)
        vals = self.value(ts)
        k = int(np.argmin(vals))
        if vals[k] < 0.0:
            raise NegativeRate(f"rate is negative at t={ts[k]:.6g} ({vals[k]:.6g})")
        return float(vals.max())

    def integral(self, a: float, b: float) -> float:
        """Closed-form integral over [a, b] ⊆ [t_from, t_to]."""
        p = self.params
        if self.kind == "constant":
            return p[0] * (b - a)
        if self.kind == "linear":
            return 0.5 * p[0] * (b * b - a * a) + p[1] * (b - a)
        if self.kind == "quadratic":
            return (
                p[0] * (b**3 - a**3) / 3.0
                + 0.5 * p[1] * (b * b - a * a)
                + p[2] * (b - a)
            )
        amp, freq, phase, off = p
        if freq == 0.0:
            return (amp * np.sin(phase) + off) * (b - a)
        return -(amp / freq) * (np.cos(freq * b + phase) - np.cos(freq * a + phase)) + off * (b - a)

    def scaled(self, factor: float) -> "RatePiece":
        """Scale the piece's output by `factor` (frequency/phase untouched)."""
        p = self.params
        if self.kind == "sinusoid":
            new = (p[0] * factor, p[1], p[2], p[3] * factor)
        else:
            new = tuple(x * factor for x in p)
        return replace(self, params=new)


@dataclass(frozen=True, eq=False)
class RateFunction:
    """Piecewise arrival-rate function covering a contiguous span."""

    pieces: tuple[RatePiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise RateFunctionError("rate function needs at least one piece")
        prev = None
        for piece in self.pieces:
            if prev is not None and abs(piece.t_from - prev.t_to) > 1e-12:
                raise RateFunctionError(
                    f"coverage gap between pieces at t={prev.t_to} and t={piece.t_from}"
                )
            prev = piece
        object.__setattr__(self, "_starts", [p.t_from for p in self.pieces])

    @property
    def t0(self) -> float:
        return self.pieces[0].t_from

    @property
    def t_end(self) -> float:
        return self.pieces[-1].t_to

    @cached_property
    def boundaries(self) -> np.ndarray:
        """All piece endpoints, sorted ascending."""
        return np.array(self._starts + [self.t_end], dtype=float)

    def value(self, t):
        """Evaluate at scalar or array t; pieces are [from, to), last closed."""
        if np.ndim(t) == 0:
            k = max(bisect.bisect_right(self._starts, float(t)) - 1, 0)
            return float(self.pieces[k].value(float(t)))
        ts = np.asarray(t, dtype=float)
        out = self.pieces[0].value(ts)
        for piece in self.pieces[1:]:
            np.copyto(out, piece.value(ts), where=ts >= piece.t_from)
        return out

    def integral(self, a: float | None = None, b: float | None = None) -> float:
        """Closed-form integral over [a, b] (defaults to the full span)."""
        a = self.t0 if a is None else max(a, self.t0)
        b = self.t_end if b is None else min(b, self.t_end)
        if b <= a:
            return 0.0
        total = 0.0
        for piece in self.pieces:
            lo, hi = max(a, piece.t_from), min(b, piece.t_to)
            if hi > lo:
                total += piece.integral(lo, hi)
        return total

    def scaled(self, factor: float) -> "RateFunction":
        return RateFunction(tuple(p.scaled(factor) for p in self.pieces))

    def check_nonnegative(self, grid_dt: float) -> None:
        """Grid-scan every piece; raise NegativeRate on any negative value."""
        for piece in self.pieces:
            piece.grid_max(grid_dt)


def scan_grid(rate_fns, a: float, b: float, grid_dt: float) -> np.ndarray:
    """The points rates are checked on over [a, b], sorted and distinct:
    {a, a+grid_dt, ...} below b, every piece boundary inside (a, b), and b.
    `np.arange` fills a + i·step with step fixed by a and grid_dt alone, so
    the grid over [a, c] holds every point of the grid over [a, b] below c."""
    pts = np.arange(a, b, grid_dt)
    grid = np.append(pts[pts < b], b)
    edges = np.concatenate([grid[:0], *(fn.boundaries for fn in rate_fns)])
    inner = edges[(edges > a) & (edges < b)]
    return np.unique(np.concatenate([grid, inner])) if inner.size else grid


# ============================================================
# Arrival models
# ============================================================

@dataclass(frozen=True, eq=False)
class StationaryArrivals:
    """Constant Poisson rates, one per customer type."""

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise InvalidInstance("stationary rates must be a non-empty vector")
        if not np.all(np.isfinite(self.rates) & (self.rates > 0.0)):
            raise InvalidInstance("stationary rates must be finite and strictly positive")

    @property
    def m(self) -> int:
        return self.rates.size


@dataclass(frozen=True, eq=False)
class NonstationaryArrivals:
    """Per-type piecewise rate functions over a shared horizon [t0, t_end]."""

    rate_fns: tuple[RateFunction, ...]
    t0: float
    t_end: float

    def __post_init__(self):
        if not self.rate_fns:
            raise InvalidInstance("need at least one rate function")
        if not self.t0 < self.t_end:
            raise InvalidInstance("horizon must have positive length")
        for k, fn in enumerate(self.rate_fns):
            if abs(fn.t0 - self.t0) > 1e-9 or abs(fn.t_end - self.t_end) > 1e-9:
                raise RateFunctionError(
                    f"rate function {k} covers [{fn.t0}, {fn.t_end}], "
                    f"expected [{self.t0}, {self.t_end}]"
                )

    @property
    def m(self) -> int:
        return len(self.rate_fns)

    def expected_arrivals(self, a: float, b: float) -> tuple[np.ndarray, int]:
        """Expected arrivals over [a, b]: per type (the rate integrals), and
        their total rounded to a count of at least one."""
        per_type = np.array([fn.integral(a, b) for fn in self.rate_fns])
        return per_type, max(1, round(float(per_type.sum())))


ArrivalModel = StationaryArrivals | NonstationaryArrivals


# ============================================================
# Problem instance
# ============================================================

@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Static problem data.

    Attributes:
        rewards: per-item reward r_i, length n.
        budgets: per-item budget b_i; np.inf marks an uncapped item.
        mu: entropy regularization weight (> 0).
        preferences: ground-truth purchase probabilities P*, shape (m, n).
        horizon: total expected number of arrivals T.
    """

    rewards: np.ndarray
    budgets: np.ndarray
    mu: float
    preferences: np.ndarray
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=float))
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        object.__setattr__(self, "preferences", np.asarray(self.preferences, dtype=float))

    @property
    def n(self) -> int:
        return self.rewards.size

    @property
    def m(self) -> int:
        return self.preferences.shape[0] if self.preferences.ndim == 2 else 0

    @cached_property
    def r_star(self) -> float:
        return float(self.rewards.max())

    @cached_property
    def infinite_items(self) -> np.ndarray:
        """Boolean mask of uncapped items."""
        return np.isinf(self.budgets)


def validate_instance(inst: ProblemInstance) -> ProblemInstance:
    """Check instance consistency and cache derived fields.

    Returns the instance itself with r_star populated. On failure
    raises the subclass of InvalidInstance matching the first violation; the
    exception carries the full violation list.
    """
    violations: list[tuple[type, str]] = []
    if inst.n == 0 or inst.m == 0:
        violations.append((EmptyDimension, f"empty dimension n={inst.n}, m={inst.m}"))
    if inst.preferences.ndim != 2 or (
        inst.m and inst.preferences.shape != (inst.m, inst.n)
    ):
        violations.append(
            (EmptyDimension, f"preferences shape {inst.preferences.shape} != (m, n)")
        )
    elif not np.all((inst.preferences >= 0.0) & (inst.preferences <= 1.0)):
        violations.append(
            (PreferenceOutOfRange, "preference entries must lie in [0, 1]")
        )
    if not np.all(np.isfinite(inst.rewards) & (inst.rewards > 0.0)):
        violations.append(
            (NonpositiveReward, "rewards must be finite and strictly positive")
        )
    if inst.budgets.size != inst.rewards.size:
        violations.append(
            (EmptyDimension, f"budgets length {inst.budgets.size} != n={inst.n}")
        )
    elif not np.all(inst.budgets >= 0.0):
        violations.append((InvalidInstance, "budgets must be nonnegative"))
    if not 0.0 < inst.mu < np.inf:
        violations.append(
            (NonpositiveMu, f"mu must be positive and finite, got {inst.mu}")
        )
    if inst.horizon < 1:
        violations.append((InvalidInstance, f"horizon must be >= 1, got {inst.horizon}"))

    if violations:
        cls, first = violations[0]
        raise cls(first, violations=[msg for _, msg in violations])

    # touch cached fields so later hot paths never recompute under surprise
    _ = inst.r_star, inst.infinite_items
    return inst


# ============================================================
# Algorithm parameters and config
# ============================================================

@dataclass(frozen=True)
class AlgoParams:
    """Tunable knobs shared by the online algorithms.

    Attributes:
        r_max: max number of UCB rounds (global arrival clock).
        k_interval: checkpoint interval K in arrivals.
        ucb_stop_epsilon: Frobenius-change threshold that retires the UCB phase.
        epsilon: type-A per-type rate-variation bound (rate units).
        delta: type-B probability-band width bound, in (0, 1).
        d: minimum type-A segment length in hours.
        grid_dt: rate-scan grid resolution in hours.
        lambda_max: dual box upper bound; None means max reward.
        offline_tol: projected-gradient-norm tolerance for the offline solver.
        offline_max_iter: iteration cap for the offline solver.
    """

    r_max: int
    k_interval: int = K_DEFAULT
    ucb_stop_epsilon: float = 0.02
    epsilon: float = 1.0
    delta: float = 0.05
    d: float = 0.1
    grid_dt: float = GRID_DT_DEFAULT
    lambda_max: float | None = None
    offline_tol: float = 1e-8
    offline_max_iter: int = 5000

    def __post_init__(self):
        if self.r_max < 0:
            raise InvalidInstance("r_max must be nonnegative")
        if self.k_interval < 1:
            raise InvalidInstance("k_interval must be >= 1")
        for name in ("ucb_stop_epsilon", "epsilon", "d", "grid_dt", "offline_tol"):
            if not getattr(self, name) > 0.0:
                raise InvalidInstance(f"{name} must be strictly positive")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInstance(f"delta must lie in (0, 1), got {self.delta}")
        if self.lambda_max is not None and not self.lambda_max > 0.0:
            raise InvalidInstance("lambda_max must be strictly positive")
        if self.offline_max_iter < 1:
            raise InvalidInstance("offline_max_iter must be >= 1")


UCB_ROUNDS_FLOOR = 750


def default_ucb_rounds(horizon: int) -> int:
    """Default learning-phase length for a run of `horizon` arrivals.

    A fifth of the horizon, but never fewer than UCB_ROUNDS_FLOOR arrivals
    (capped at the horizon itself): the estimate table needs a roughly
    constant number of visits per type-item cell to settle, however short
    the run is.
    """
    horizon = int(horizon)
    return max(min(horizon, UCB_ROUNDS_FLOOR), horizon // 5, 1)


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One experiment's complete inputs."""

    instance: ProblemInstance
    arrivals: ArrivalModel
    seed: int
    params: AlgoParams
    # Kept verbatim for round-tripping config files; the instance always holds
    # the resolved preference matrix.
    pref_generator: dict | None = None
    scenario: dict | None = None

    def lambda_max(self) -> float:
        return self.params.lambda_max if self.params.lambda_max is not None else self.instance.r_star


# ============================================================
# Deterministic RNG streams
# ============================================================

def substream(seed: int, *tags) -> np.random.Generator:
    """Independent generator keyed by (seed, tags).

    Tags are strings or small ints; streams with different tags never share
    state, so adding one consumer does not perturb another's draws.
    """
    key = tuple(
        t if isinstance(t, int) else zlib.crc32(str(t).encode()) for t in tags
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ============================================================
# Config file I/O
# ============================================================

def _integer(value) -> int:
    """int(value), refusing a number with a fractional part (1000.0 passes)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# config key -> (AlgoParams field, conversion), in document order
_PARAM_KEYS = {
    "R_max": ("r_max", _integer),
    "K": ("k_interval", _integer),
    "ucb_stop_epsilon": ("ucb_stop_epsilon", float),
    "epsilon": ("epsilon", float),
    "delta": ("delta", float),
    "d": ("d", float),
    "grid_dt": ("grid_dt", float),
    "lambda_max": ("lambda_max", float),
    "offline_tol": ("offline_tol", float),
    "offline_max_iter": ("offline_max_iter", _integer),
}


def _convert(convert, value, where: str):
    """`convert(value)`; a value it rejects is a ParseError naming `where`."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _finite(value) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("expected finite numbers")
    return out


def _vector(value) -> np.ndarray:
    out = _finite(value)
    if out.ndim != 1:
        raise ValueError("expected a list of numbers")
    return out


def _require(doc: dict, key: str, path: str, convert=None):
    """doc[key], passed through `convert` when given."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise ParseError(f"missing required key {where}")
    return doc[key] if convert is None else _convert(convert, doc[key], where)


def _budget(value) -> float:
    out = float(value)
    if np.isnan(out):
        raise ValueError("budget is NaN")
    return out


def _parse_budget(entry, path: str) -> float:
    if isinstance(entry, dict):
        if entry.get("infinite"):
            return np.inf
        if "value" in entry:
            return _convert(_budget, entry["value"], f"{path}.value")
        raise ParseError(f"{path} must carry 'value' or 'infinite': true")
    if isinstance(entry, (int, float)):
        return _convert(_budget, entry, path)
    raise ParseError(f"{path} is not a budget entry")


def _parse_piece(doc, path: str) -> RatePiece:
    doc = _convert(_object, doc, path)
    try:
        return RatePiece(
            t_from=_require(doc, "from", path, float),
            t_to=_require(doc, "to", path, float),
            kind=str(_require(doc, "kind", path)),
            params=_require(doc, "params", path, lambda v: tuple(float(x) for x in v)),
        )
    except RateFunctionError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _draw_preferences(gen_spec: dict, m: int, n: int, seed: int) -> np.ndarray:
    kind = gen_spec.get("generator")
    where = "instance.preferences.params"
    params = _convert(lambda v: [float(x) for x in v], gen_spec.get("params", []), where)
    rng = substream(seed, "preferences")
    if kind == "beta":
        ab = (params + [2.0, 5.0])[:2]
        return _convert(lambda p: rng.beta(*p, size=(m, n)), ab, where)
    if kind == "gaussian":
        loc_scale = (params + [0.1, 0.03])[:2]
        draw = _convert(lambda p: rng.normal(*p, size=(m, n)), loc_scale, where)
        return np.clip(draw, 0.01, 1.0)
    raise ParseError(f"instance.preferences.generator {kind!r} is not recognized")


def config_from_document(doc: dict) -> SimConfig:
    """Build a SimConfig from a parsed JSON document (defaults filled).

    Any malformed value raises ParseError naming its key path.
    """
    if not isinstance(doc, dict):
        raise ParseError("config root must be an object")
    inst_doc = _require(doc, "instance", "", _object)
    arr_doc = _require(doc, "arrivals", "", _object)
    seed = _require(doc, "seed", "", _integer)
    if seed < 0:
        raise ParseError("seed must be a nonnegative integer")

    n = _require(inst_doc, "n", "instance", _integer)
    m = _require(inst_doc, "m", "instance", _integer)
    horizon = _require(inst_doc, "T", "instance", _integer)
    rewards = _require(inst_doc, "rewards", "instance", _vector)
    budgets_doc = _require(inst_doc, "budgets", "instance", list)
    budgets = np.array(
        [_parse_budget(e, f"instance.budgets[{k}]") for k, e in enumerate(budgets_doc)]
    )
    mu = _convert(float, inst_doc.get("mu", MU_DEFAULT), "instance.mu")
    prefs_doc = _require(inst_doc, "preferences", "instance")
    pref_generator = None
    if isinstance(prefs_doc, dict):
        pref_generator = dict(prefs_doc)
        preferences = _draw_preferences(prefs_doc, m, n, seed)
    else:
        preferences = _convert(_finite, prefs_doc, "instance.preferences")
    if rewards.size != n:
        raise ParseError(f"instance.rewards length {rewards.size} != n={n}")
    if preferences.shape != (m, n):
        raise ParseError(
            f"instance.preferences shape {preferences.shape} != (m={m}, n={n})"
        )

    if "stationary" in arr_doc:
        stat = _require(arr_doc, "stationary", "arrivals", _object)
        rates = _require(stat, "rates", "arrivals.stationary", _vector)
        if rates.size != m:
            raise ParseError(f"arrivals.stationary.rates length {rates.size} != m={m}")
        arrivals: ArrivalModel = StationaryArrivals(rates)
    elif "nonstationary" in arr_doc:
        path = "arrivals.nonstationary"
        ns = _require(arr_doc, "nonstationary", "arrivals", _object)
        t0 = _require(ns, "t0", path, float)
        t_end = _require(ns, "t_end", path, float)
        fns_doc = _require(ns, "rate_fns", path, list)
        if len(fns_doc) != m:
            raise ParseError(f"{path}.rate_fns length {len(fns_doc)} != m={m}")
        rate_fns = tuple(
            RateFunction(
                tuple(
                    _parse_piece(p, f"{path}.rate_fns[{j}][{k}]")
                    for k, p in enumerate(_convert(list, pieces, f"{path}.rate_fns[{j}]"))
                )
            )
            for j, pieces in enumerate(fns_doc)
        )
        arrivals = NonstationaryArrivals(rate_fns, t0, t_end)
    else:
        raise ParseError("arrivals must carry 'stationary' or 'nonstationary'")

    params_doc = _convert(_object, doc.get("params", {}), "params")
    unknown = set(params_doc) - set(_PARAM_KEYS)
    if unknown:
        raise ParseError(f"params has unknown keys: {sorted(unknown)}")
    fields = {"r_max": default_ucb_rounds(horizon)}
    for key, value in params_doc.items():
        name, convert = _PARAM_KEYS[key]
        if value is None and name == "lambda_max":
            continue  # null means the max reward, AlgoParams' default
        fields[name] = _convert(convert, value, f"params.{key}")
    params = AlgoParams(**fields)

    instance = validate_instance(
        ProblemInstance(
            rewards=rewards, budgets=budgets, mu=mu,
            preferences=preferences, horizon=horizon,
        )
    )
    if isinstance(arrivals, NonstationaryArrivals):
        for j, fn in enumerate(arrivals.rate_fns):
            _convert(fn.check_nonnegative, params.grid_dt,
                     f"arrivals.nonstationary.rate_fns[{j}]")
    return SimConfig(
        instance=instance,
        arrivals=arrivals,
        seed=seed,
        params=params,
        pref_generator=pref_generator,
        scenario=doc.get("scenario"),
    )


def config_document(config: SimConfig) -> dict:
    """Serialize a SimConfig back to its JSON document form."""
    inst = config.instance
    budgets = [
        {"infinite": True} if np.isinf(b) else {"value": float(b)}
        for b in inst.budgets
    ]
    if config.pref_generator is not None:
        prefs = config.pref_generator
    else:
        prefs = [[float(x) for x in row] for row in inst.preferences]
    doc: dict = {
        "instance": {
            "n": inst.n,
            "m": inst.m,
            "T": inst.horizon,
            "rewards": [float(r) for r in inst.rewards],
            "budgets": budgets,
            "mu": inst.mu,
            "preferences": prefs,
        },
    }
    if isinstance(config.arrivals, StationaryArrivals):
        doc["arrivals"] = {"stationary": {"rates": [float(r) for r in config.arrivals.rates]}}
    else:
        doc["arrivals"] = {
            "nonstationary": {
                "t0": config.arrivals.t0,
                "t_end": config.arrivals.t_end,
                "rate_fns": [
                    [
                        {
                            "from": p.t_from,
                            "to": p.t_to,
                            "kind": p.kind,
                            "params": list(p.params),
                        }
                        for p in fn.pieces
                    ]
                    for fn in config.arrivals.rate_fns
                ],
            }
        }
    doc["seed"] = config.seed
    doc["params"] = {
        key: getattr(config.params, name) for key, (name, _) in _PARAM_KEYS.items()
    }
    if config.scenario is not None:
        doc["scenario"] = config.scenario
    return doc


def save_config(config: SimConfig, path: str | Path) -> None:
    """Write the config as JSON; save → load → save is byte-stable."""
    with open(path, "w") as fh:
        json.dump(config_document(config), fh, indent=2)
        fh.write("\n")


def config_hash(config: SimConfig) -> str:
    """Short deterministic fingerprint of the config document."""
    import hashlib

    canon = json.dumps(config_document(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ============================================================
# Scenario builders
# ============================================================

def scenario_stationary(T: int, seed: int) -> SimConfig:
    """Ten-type, ten-item stationary scenario.

    Rates λ_j = 0.1·j; budgets fall linearly from 30% to 10% of T as item
    index rises while rewards climb 0.1 → 1.0, so scarce items are the
    valuable ones. Ground-truth preferences are i.i.d. Beta(2, 5).
    """
    if T < 1:
        raise InvalidInstance("T must be >= 1")
    m = n = 10
    rates = 0.1 * np.arange(1, m + 1)
    rewards = np.linspace(0.1, 1.0, n)
    budgets = np.linspace(0.30 * T, 0.10 * T, n)
    pref_generator = {"generator": "beta", "params": [2.0, 5.0]}
    preferences = _draw_preferences(pref_generator, m, n, seed)
    instance = validate_instance(
        ProblemInstance(
            rewards=rewards, budgets=budgets, mu=MU_DEFAULT,
            preferences=preferences, horizon=int(T),
        )
    )
    return SimConfig(
        instance=instance,
        arrivals=StationaryArrivals(rates),
        seed=int(seed),
        params=AlgoParams(r_max=default_ucb_rounds(T)),
        pref_generator=pref_generator,
        scenario={"kind": "stationary", "T": int(T), "seed": int(seed)},
    )


def _base_rate_shapes(h: float) -> tuple[RateFunction, ...]:
    """Ten slowly varying positive shapes on [0, h]: 2 sinusoid, 4 linear, 4 quadratic."""
    two_pi = 2.0 * np.pi

    def fn(kind, params):
        return RateFunction((RatePiece(0.0, h, kind, params),))

    return (
        fn("sinusoid", (0.30, two_pi / h, 0.0, 1.00)),
        fn("sinusoid", (0.25, np.pi / h, np.pi / 3.0, 0.80)),
        fn("linear", (0.5 / h, 0.60)),
        fn("linear", (-0.5 / h, 1.20)),
        fn("linear", (0.2 / h, 0.90)),
        fn("linear", (0.8 / h, 0.50)),
        fn("quadratic", (1.2 / h**2, -1.2 / h, 0.90)),
        fn("quadratic", (-1.0 / h**2, 0.8 / h, 0.94)),
        fn("quadratic", (0.6 / h**2, 0.0, 0.70)),
        fn("quadratic", (-0.6 / h**2, 0.0, 1.30)),
    )


def scenario_nonstationary(kind: str, T: int, horizon_hours: float, seed: int) -> SimConfig:
    """Ten-type, ten-item non-stationary scenario.

    Rate functions: two sinusoids, four linears, four quadratics, jointly
    rescaled so the expected arrival count over the horizon equals T.
    Preferences are N(0.1, 0.03) clamped to [0.01, 1].

    kind="extreme_budget": all rewards 1.0; items 0-6 hold 1% of T each,
    items 7-8 hold 10%, item 9 is uncapped.
    kind="varying_reward": rewards 0.2 → 1.0; item 0 (reward 0.2) holds 2/3
    of T, the rest 10% each.
    """
    if kind not in ("extreme_budget", "varying_reward"):
        raise InvalidInstance(f"unknown scenario kind {kind!r}")
    if T < 1 or not horizon_hours > 0.0:
        raise InvalidInstance("T must be >= 1 and horizon_hours positive")
    m = n = 10
    h = float(horizon_hours)
    base = _base_rate_shapes(h)
    raw_total = sum(fn.integral() for fn in base)
    rate_fns = tuple(fn.scaled(T / raw_total) for fn in base)

    if kind == "extreme_budget":
        rewards = np.ones(n)
        budgets = np.concatenate([np.full(7, 0.01 * T), np.full(2, 0.10 * T), [np.inf]])
    else:
        rewards = np.linspace(0.2, 1.0, n)
        budgets = np.concatenate([[T * 2.0 / 3.0], np.full(9, 0.10 * T)])

    pref_generator = {"generator": "gaussian", "params": [0.1, 0.03]}
    preferences = _draw_preferences(pref_generator, m, n, seed)
    instance = validate_instance(
        ProblemInstance(
            rewards=rewards, budgets=budgets, mu=MU_DEFAULT,
            preferences=preferences, horizon=int(T),
        )
    )
    # Segmentation knobs sized to the scenario: epsilon at 1% of the mean
    # total rate, minimum type-A span at 2% of the horizon.
    params = AlgoParams(
        r_max=default_ucb_rounds(T),
        epsilon=0.01 * T / h,
        delta=0.05,
        d=0.02 * h,
        grid_dt=GRID_DT_DEFAULT,
    )
    return SimConfig(
        instance=instance,
        arrivals=NonstationaryArrivals(rate_fns, 0.0, h),
        seed=int(seed),
        params=params,
        pref_generator=pref_generator,
        scenario={
            "kind": kind,
            "T": int(T),
            "horizon_hours": h,
            "seed": int(seed),
        },
    )
