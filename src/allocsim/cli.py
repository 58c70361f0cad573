"""Command-line entry point.

    allocsim <mode> --config cfg.json --out results/ [--seed N] [--trace]
                    [--grid T=1e3,1e4,1e5]

Modes: offline, stationary, nonstationary, greedy, segment-plan. A grid
run rebuilds the config's scenario at each requested T and writes one
subdirectory per value. Exit codes: 0 success, 2 refused input or
environment (any AllocSimError but NonConvergence: a bad config, argument
or mode for the config, or an ALLOCSIM_BACKEND that cannot run here), 3
offline solve failed to converge, 4 I/O failure. Any other exception is a
fault in the program and ends in a traceback. Only stationary and
nonstationary run the integrated loop, so offline, greedy and segment-plan
never check the backend.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import AllocSimError, NonConvergence, ParseError
from .harness import MODES, run_experiment, write_plan_csv
from .model import (
    NonstationaryArrivals,
    SimConfig,
    _convert,
    _integer,
    _object,
    _real,
    _require,
    config_from_document,
    scenario_nonstationary,
    scenario_stationary,
    substream,
)
from .segmentation import segment_time_span, segment_weights

COMMANDS = MODES + ("segment-plan",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocsim",
        description="Budgeted-allocation simulation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        s = sub.add_parser(name, help=f"run the {name} mode")
        s.add_argument("--config", required=True, help="config JSON path")
        s.add_argument("--out", required=True, help="output directory")
        s.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        s.add_argument("--trace", action="store_true",
                       help="also write per-arrival trace.csv and lambda.csv")
        s.add_argument("--grid", default=None, metavar="T=V1,V2,...",
                       help="rerun the config's scenario at several horizons")
    return parser


def _parse_grid(text: str) -> list[int]:
    key, _, values = text.partition("=")
    values = [v for v in values.split(",") if v.strip()]
    if key.strip() != "T" or not values:
        raise ParseError(f"--grid expects T=V1,V2,... (got {text!r})")
    try:
        return [_integer(float(v)) for v in values]
    except ValueError as exc:
        raise ParseError(f"bad --grid value in {text!r}: {exc}") from exc


def _rebuild_scenario(config: SimConfig, horizon: int) -> SimConfig:
    info = config.scenario
    if not info:
        raise ParseError(
            "--grid needs a config with scenario provenance "
            "(generated by the scenario builders)"
        )
    info = _convert(_object, info, "scenario")
    kind = _require(info, "kind", "scenario")
    if kind == "stationary":
        return scenario_stationary(T=horizon, seed=config.seed)
    return scenario_nonstationary(
        kind=kind, T=horizon,
        horizon_hours=_require(info, "horizon_hours", "scenario", _real),
        seed=config.seed,
    )


def _emit_plan_only(config: SimConfig, out_dir: Path) -> None:
    model = config.arrivals
    if not isinstance(model, NonstationaryArrivals):
        raise ParseError("segment-plan needs a non-stationary config")
    p = config.params
    plan = segment_time_span(
        model.rate_fns, model.t0, model.t_end, p.epsilon, p.delta, p.d, p.grid_dt
    )
    rng = substream(config.seed, "weights")
    for seg in plan.segments:
        segment_weights(seg, model.rate_fns, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_plan_csv(plan, out_dir / "plan.csv")


def _load_config(path: str, seed: int | None) -> SimConfig:
    """The config at `path`, its seed replaced when `seed` is given. A
    missing file, invalid JSON (nested too deep included) or a root that is
    not an object raises ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{path} not found") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8, or nested deeper than the parser recurses
        raise ParseError(f"invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    if seed is not None:
        doc["seed"] = seed
    return config_from_document(doc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_root = Path(args.out)
    try:
        config = _load_config(args.config, args.seed)
        if args.grid:
            # the grid is parsed up front, each horizon's scenario built in turn
            runs = ((_rebuild_scenario(config, h), out_root / f"T_{h}")
                    for h in _parse_grid(args.grid))
        else:
            runs = [(config, out_root)]
        for cfg, out_dir in runs:
            if args.command == "segment-plan":
                _emit_plan_only(cfg, out_dir)
            else:
                run_experiment(cfg, args.command, out_dir=out_dir, trace_flag=args.trace)
    except NonConvergence as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except AllocSimError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
