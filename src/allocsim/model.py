"""Problem data model: instances, rate functions, configs, and scenario builders.

A config document is read and written against one key table per object
(`_ROOT`, `_INSTANCE`, ... `_PARAMS`, under "Config file I/O"): each key's
field, conversion and default. README.md's "Config format" lists them.
"""

from __future__ import annotations

import json
import numbers
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidInstance, ParseError

__all__ = [
    "RATE_KINDS",
    "RatePiece",
    "RateFunction",
    "RateStack",
    "scan_grid",
    "StationaryArrivals",
    "NonstationaryArrivals",
    "ArrivalModel",
    "ProblemInstance",
    "AlgoParams",
    "SimConfig",
    "default_ucb_rounds",
    "substream",
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
# Most scan points of grid_dt a non-stationary horizon may hold; SimConfig
# checks it before any scan allocates a grid.
SCAN_POINTS_MAX = 10**6

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
            raise InvalidInstance(f"unknown piece kind {self.kind!r}")
        if len(self.params) != RATE_KINDS[self.kind]:
            raise InvalidInstance(
                f"{self.kind} piece expects {RATE_KINDS[self.kind]} params, "
                f"got {len(self.params)}"
            )
        if not np.all(np.isfinite((self.t_from, self.t_to, *self.params))):
            raise InvalidInstance(
                f"piece bounds and params must be finite, got "
                f"[{self.t_from}, {self.t_to}) {self.params}"
            )
        if not self.t_from < self.t_to:
            raise InvalidInstance(
                f"piece interval [{self.t_from}, {self.t_to}) is empty"
            )

    def value(self, t):
        """Evaluate the piece at scalar or array t (no domain check)."""
        return _piece_rate(self.kind, self.params, t)

    def grid_max(self, grid_dt: float) -> float:
        """Maximum over the piece's own scan grid, [t_from, t_to] anchored at
        t_from; raises InvalidInstance if any grid value is negative."""
        ts = scan_grid((), self.t_from, self.t_to, grid_dt)
        vals = self.value(ts)
        k = int(np.argmin(vals))
        if vals[k] < 0.0:
            raise InvalidInstance(f"rate is negative at t={ts[k]:.6g} ({vals[k]:.6g})")
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
    # all piece endpoints, sorted ascending (derived)
    boundaries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.pieces:
            raise InvalidInstance("rate function needs at least one piece")
        prev = None
        for piece in self.pieces:
            if prev is not None and abs(piece.t_from - prev.t_to) > 1e-12:
                raise InvalidInstance(
                    f"coverage gap between pieces at t={prev.t_to} and t={piece.t_from}"
                )
            prev = piece
        edges = [p.t_from for p in self.pieces] + [self.t_end]
        object.__setattr__(self, "boundaries", np.array(edges, dtype=float))

    @property
    def t0(self) -> float:
        return self.pieces[0].t_from

    @property
    def t_end(self) -> float:
        return self.pieces[-1].t_to

    def value(self, t):
        """Evaluate at scalar or array t through `RateStack`; pieces are
        [from, to), last closed. A scalar t gives a float."""
        out = RateStack((self,)).values(t)[0]
        return float(out) if out.ndim == 0 else out

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
        """Grid-scan every piece; raise InvalidInstance on any negative value."""
        for piece in self.pieces:
            piece.grid_max(grid_dt)


def _piece_rate(kind: str, p, t):
    """The rate of a `kind` piece with params p at t: the one copy of the
    four formulas. The params may be columns, one row per piece, that
    broadcast against t."""
    if kind == "constant":
        return np.broadcast_to(p[0], np.broadcast_shapes(np.shape(p[0]), np.shape(t)))
    if kind == "linear":
        return p[0] * t + p[1]
    if kind == "quadratic":
        return (p[0] * t + p[1]) * t + p[2]
    return p[0] * np.sin(p[1] * t + p[2]) + p[3]


class RateStack:
    """The piece lookup of several rate functions at once: `values(t)` holds
    one row per function, its rate at each t.

    A row takes its function's first piece everywhere, and each later piece
    from its own start on, so pieces are [from, to) and the last one is
    closed. The pieces at one position in their functions are grouped by
    kind when the stack is built, and each group is evaluated as one block
    of rows, so a call costs a few array operations per kind and position,
    not a lookup per function.
    """

    def __init__(self, rate_fns):
        self.rate_fns = tuple(rate_fns)
        # per piece position, (kind, rows, param columns, piece starts)
        self._levels = []
        for r in range(max((len(fn.pieces) for fn in self.rate_fns), default=0)):
            groups: dict[str, list] = {}
            for j, fn in enumerate(self.rate_fns):
                if r < len(fn.pieces):
                    groups.setdefault(fn.pieces[r].kind, []).append((j, fn.pieces[r]))
            self._levels.append([
                (kind, np.array([j for j, _ in group]),
                 np.array([piece.params for _, piece in group]).T[:, :, None],
                 np.array([[piece.t_from] for _, piece in group]))
                for kind, group in groups.items()
            ])

    def values(self, t) -> np.ndarray:
        """Every function's rate at scalar or array t, shape (functions,
        *t.shape); bit for bit each function's own pieces evaluated alone."""
        ts = np.asarray(t, dtype=float).ravel()
        out = np.empty((len(self.rate_fns), ts.size))
        for r, level in enumerate(self._levels):
            for kind, rows, params, starts in level:
                vals = _piece_rate(kind, params, ts)
                out[rows] = vals if r == 0 else np.where(ts >= starts, vals, out[rows])
        return out.reshape((len(self.rate_fns),) + np.shape(t))


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
                raise InvalidInstance(
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
    """Static problem data, checked when built.

    Attributes:
        rewards: per-item reward r_i, length n.
        budgets: per-item budget b_i; np.inf marks an uncapped item.
        mu: entropy regularization weight (> 0).
        preferences: ground-truth purchase probabilities P*, shape (m, n).
        horizon: total expected number of arrivals T.
        r_star: the largest reward (derived).
        infinite_items: boolean mask of uncapped items (derived).

    An inconsistent instance raises InvalidInstance with the first
    violation's message; the exception carries the full violation list.
    """

    rewards: np.ndarray
    budgets: np.ndarray
    mu: float
    preferences: np.ndarray
    horizon: int
    r_star: float = field(init=False)
    infinite_items: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("rewards", "budgets", "preferences"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        violations: list[str] = []
        if self.n == 0 or self.m == 0:
            violations.append(f"empty dimension n={self.n}, m={self.m}")
        if self.preferences.ndim != 2 or (
            self.m and self.preferences.shape != (self.m, self.n)
        ):
            violations.append(f"preferences shape {self.preferences.shape} != (m, n)")
        elif not np.all((self.preferences >= 0.0) & (self.preferences <= 1.0)):
            violations.append("preference entries must lie in [0, 1]")
        if not np.all(np.isfinite(self.rewards) & (self.rewards > 0.0)):
            violations.append("rewards must be finite and strictly positive")
        if self.budgets.size != self.rewards.size:
            violations.append(f"budgets length {self.budgets.size} != n={self.n}")
        elif not np.all(self.budgets >= 0.0):
            violations.append("budgets must be nonnegative")
        if not 0.0 < self.mu < np.inf:
            violations.append(f"mu must be positive and finite, got {self.mu}")
        if self.horizon < 1:
            violations.append(f"horizon must be >= 1, got {self.horizon}")

        if violations:
            raise InvalidInstance(violations[0], violations=violations)
        object.__setattr__(self, "r_star", float(self.rewards.max()))
        object.__setattr__(self, "infinite_items", np.isinf(self.budgets))

    @property
    def n(self) -> int:
        return self.rewards.size

    @property
    def m(self) -> int:
        return self.preferences.shape[0] if self.preferences.ndim == 2 else 0


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

    def __post_init__(self):
        model = self.arrivals
        if isinstance(model, NonstationaryArrivals):
            points = (model.t_end - model.t0) / self.params.grid_dt
            if not points <= SCAN_POINTS_MAX:
                raise InvalidInstance(
                    f"grid_dt={self.params.grid_dt:g} puts {points:.3g} scan points "
                    f"on the horizon (at most {SCAN_POINTS_MAX:.0e})"
                )

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

def _number(value):
    """`value`, refusing anything that is not a JSON number: a string such
    as "0.5", which float() would read, and a boolean, which Python counts
    as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _real(value) -> float:
    return float(_number(value))


def _integer(value) -> int:
    """int(value), refusing a number with a fractional part (1000.0 passes)
    and anything that is not a number."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _reals(value) -> tuple[float, ...]:
    return tuple(map(_real, value))


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
    for x in np.asarray(value, dtype=object).flat:
        _number(x)
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
    out = _real(value)
    if np.isnan(out):
        raise ValueError("budget is NaN")
    return out


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


# One key table per config object: key -> (field, conversion, default).
# `_read` turns a document object into fields and `_write` turns them back,
# in table order. A None conversion keeps the value as parsed (a nested
# object, read against its own table, or the free-form `scenario`).
_REQUIRED = object()  # the key must be present
_UNSET = object()  # an absent key leaves the field to AlgoParams' default

_ROOT = {
    "instance": ("instance", None, _REQUIRED),
    "arrivals": ("arrivals", None, _REQUIRED),
    "seed": ("seed", _integer, _REQUIRED),
    "params": ("params", None, {}),
    "scenario": ("scenario", None, None),
}
_INSTANCE = {
    "n": ("n", _integer, _REQUIRED),
    "m": ("m", _integer, _REQUIRED),
    "T": ("horizon", _integer, _REQUIRED),
    "rewards": ("rewards", _vector, _REQUIRED),
    "budgets": ("budgets", list, _REQUIRED),
    "mu": ("mu", _real, MU_DEFAULT),
    "preferences": ("preferences", None, _REQUIRED),  # a matrix, or a _GENERATOR
}
# a budget entry may also be a bare number
_BUDGET = {"infinite": ("infinite", _flag, False), "value": ("value", _budget, None)}
# exactly one of the two kinds
_ARRIVALS = {kind: (kind, None, None) for kind in ("stationary", "nonstationary")}
_STATIONARY = {"rates": ("rates", _vector, _REQUIRED)}
_NONSTATIONARY = {
    "t0": ("t0", _real, _REQUIRED),
    "t_end": ("t_end", _real, _REQUIRED),
    "rate_fns": ("rate_fns", list, _REQUIRED),  # per type, a list of pieces
}
_PIECE = {
    "from": ("t_from", _real, _REQUIRED),
    "to": ("t_to", _real, _REQUIRED),
    "kind": ("kind", str, _REQUIRED),
    "params": ("params", _reals, _REQUIRED),
}
_GENERATOR = {
    "generator": ("generator", str, _REQUIRED),
    "params": ("params", _reals, ()),  # at most 2; the missing tail from _GENERATORS
}
_GENERATORS = {"beta": (2.0, 5.0), "gaussian": (0.1, 0.03)}  # kind -> default params
# An absent R_max takes default_ucb_rounds(T); null lambda_max is the
# largest reward.
_PARAMS = {
    "R_max": ("r_max", _integer, _UNSET),
    "K": ("k_interval", _integer, _UNSET),
    "ucb_stop_epsilon": ("ucb_stop_epsilon", _real, _UNSET),
    "epsilon": ("epsilon", _real, _UNSET),
    "delta": ("delta", _real, _UNSET),
    "d": ("d", _real, _UNSET),
    "grid_dt": ("grid_dt", _real, _UNSET),
    "lambda_max": ("lambda_max", lambda v: None if v is None else _real(v), _UNSET),
    "offline_tol": ("offline_tol", _real, _UNSET),
    "offline_max_iter": ("offline_max_iter", _integer, _UNSET),
}


def _read(doc, path: str, table: dict) -> dict:
    """The fields of the document object `doc` at `path`, converted or
    defaulted; a non-object, an unknown key (the first in sorted order), a
    missing required key or a rejected value is a ParseError naming it."""
    doc = _convert(_object, doc, path)
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ParseError(f"{path}{'.' if path else ''}{unknown[0]}: unknown key")
    fields = {}
    for key, (name, convert, default) in table.items():
        if key in doc or default is _REQUIRED:
            fields[name] = _require(doc, key, path, convert)
        elif default is not _UNSET:
            fields[name] = default
    return fields


def _write(table: dict, fields: dict) -> dict:
    """The document object holding `fields` (field -> JSON value) under their
    table keys, in table order; a None field whose default is None is left out."""
    return {key: fields[name] for key, (name, _, default) in table.items()
            if name in fields and (fields[name] is not None or default is not None)}


def _parse_budget(entry, path: str) -> float:
    if isinstance(entry, (int, float)):
        return _convert(_budget, entry, path)
    budget = _read(entry, path, _BUDGET)
    if budget["infinite"]:
        return np.inf
    if budget["value"] is None:
        raise ParseError(f"{path} must carry 'value' or 'infinite': true")
    return budget["value"]


def _draw_preferences(gen_spec: dict, m: int, n: int, seed: int) -> np.ndarray:
    spec = _read(gen_spec, "instance.preferences", _GENERATOR)
    kind, params = spec["generator"], spec["params"]
    where = "instance.preferences.params"
    if kind not in _GENERATORS:
        raise ParseError(f"instance.preferences.generator {kind!r} is not recognized")
    if len(params) > 2:
        raise ParseError(f"{where}: expected at most 2 params, got {len(params)}")
    params = params + _GENERATORS[kind][len(params):]
    rng = substream(seed, "preferences")
    if kind == "beta":
        return _convert(lambda p: rng.beta(*p, size=(m, n)), params, where)
    draw = _convert(lambda p: rng.normal(*p, size=(m, n)), params, where)
    return np.clip(draw, 0.01, 1.0)


def _parse_rate_fn(pieces, path: str) -> RateFunction:
    """One type's rate function; a piece RatePiece refuses is a ParseError."""
    return RateFunction(tuple(
        _convert(lambda fields: RatePiece(**fields), _read(p, f"{path}[{k}]", _PIECE),
                 f"{path}[{k}]")
        for k, p in enumerate(_convert(list, pieces, path))
    ))


def _parse_arrivals(doc) -> ArrivalModel:
    kinds = _read(doc, "arrivals", _ARRIVALS)
    if (kinds["stationary"] is None) == (kinds["nonstationary"] is None):
        raise ParseError("arrivals: needs exactly one of 'stationary' and 'nonstationary'")
    if kinds["stationary"] is not None:
        return StationaryArrivals(**_read(kinds["stationary"], "arrivals.stationary", _STATIONARY))
    path = "arrivals.nonstationary"
    fields = _read(kinds["nonstationary"], path, _NONSTATIONARY)
    fields["rate_fns"] = tuple(_parse_rate_fn(pieces, f"{path}.rate_fns[{j}]")
                               for j, pieces in enumerate(fields["rate_fns"]))
    return NonstationaryArrivals(**fields)


def config_from_document(doc: dict) -> SimConfig:
    """Build a SimConfig from a parsed JSON document, reading each object
    against its key table (defaults filled).

    Any malformed value or unknown key raises ParseError naming its key path.
    """
    if not isinstance(doc, dict):
        raise ParseError("config root must be an object")
    root = _read(doc, "", _ROOT)
    if root["seed"] < 0:
        raise ParseError("seed must be a nonnegative integer")

    inst = _read(root["instance"], "instance", _INSTANCE)
    n, m, prefs = inst.pop("n"), inst.pop("m"), inst["preferences"]
    inst["budgets"] = np.array([_parse_budget(e, f"instance.budgets[{k}]")
                                for k, e in enumerate(inst["budgets"])])
    pref_generator = dict(prefs) if isinstance(prefs, dict) else None
    inst["preferences"] = (
        _convert(_finite, prefs, "instance.preferences") if pref_generator is None
        else _draw_preferences(pref_generator, m, n, root["seed"]))
    if inst["rewards"].size != n:
        raise ParseError(f"instance.rewards length {inst['rewards'].size} != n={n}")
    if inst["preferences"].shape != (m, n):
        raise ParseError(f"instance.preferences shape {inst['preferences'].shape} "
                         f"!= (m={m}, n={n})")
    arrivals = _parse_arrivals(root["arrivals"])
    if arrivals.m != m:
        raise ParseError(f"arrivals: {arrivals.m} customer types != m={m}")
    fields = _read(root["params"], "params", _PARAMS)
    fields.setdefault("r_max", default_ucb_rounds(inst["horizon"]))
    params = AlgoParams(**fields)
    config = SimConfig(ProblemInstance(**inst), arrivals, root["seed"], params,
                       pref_generator, root["scenario"])
    if isinstance(arrivals, NonstationaryArrivals):
        for j, fn in enumerate(arrivals.rate_fns):
            _convert(fn.check_nonnegative, params.grid_dt,
                     f"arrivals.nonstationary.rate_fns[{j}]")
        total = float(arrivals.expected_arrivals(arrivals.t0, arrivals.t_end)[0].sum())
        if not total > 0.0:
            raise ParseError(
                "arrivals.nonstationary: expected arrival total over "
                f"[{arrivals.t0:g}, {arrivals.t_end:g}] is {total:g}, not positive")
    return config


def config_document(config: SimConfig) -> dict:
    """Serialize a SimConfig back to its JSON document form: each object
    holds its table's keys, in table order."""
    inst, model = config.instance, config.arrivals
    budgets = [{"infinite": True} if np.isinf(b) else {"value": float(b)} for b in inst.budgets]
    if isinstance(model, StationaryArrivals):
        arrivals = {"stationary": _write(_STATIONARY, {"rates": model.rates.tolist()})}
    else:
        rate_fns = [[_write(_PIECE, {**vars(p), "params": list(p.params)}) for p in fn.pieces]
                    for fn in model.rate_fns]
        arrivals = {"nonstationary": _write(_NONSTATIONARY, {**vars(model), "rate_fns": rate_fns})}
    return _write(_ROOT, {
        "instance": _write(_INSTANCE, {
            **vars(inst), "n": inst.n, "m": inst.m, "rewards": inst.rewards.tolist(),
            "budgets": [_write(_BUDGET, b) for b in budgets],
            "preferences": inst.preferences.tolist() if config.pref_generator is None
            else _write(_GENERATOR, config.pref_generator),
        }),
        "arrivals": _write(_ARRIVALS, arrivals),
        "seed": config.seed,
        "params": _write(_PARAMS, vars(config.params)),
        "scenario": config.scenario,
    })


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
    return SimConfig(
        instance=ProblemInstance(
            rewards=rewards, budgets=budgets, mu=MU_DEFAULT,
            preferences=preferences, horizon=int(T),
        ),
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
        instance=ProblemInstance(
            rewards=rewards, budgets=budgets, mu=MU_DEFAULT,
            preferences=preferences, horizon=int(T),
        ),
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
