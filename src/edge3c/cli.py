"""Command-line front end.

Subcommands: solve, sweep, verify, regions, turning-points. Machine-readable
output goes to stdout (JSON, or CSV for sweep) and is byte-stable for a given
input; --human adds formatted annotations without touching the SI fields.
Exit codes: 0 success (verify: all trials within tolerance), 1 infeasible or
invalid input, 2 config file unreadable/unparseable or --output file
unwritable (error code "output_unwritable"). The --output path is checked
before the command starts, so a run whose result cannot be saved does no work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bandwidth import route_costs
from .errors import ConfigParseError, Edge3cError, InvalidConfigError
from .model import _FIELD_SPECS, load_config
from .oracle import run_verification
from .policy import _scalars, solve_with_costs
from .tradeoff import SWEEP_PARAMETERS, SweepSpec, rows_to_csv, sweep, turning_points
from .units import format_hz, parse_quantity

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edge3c",
        description="Bandwidth-optimal caching/computing split for a device-edge task set.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON system config")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("solve", help="optimal route counts and total bandwidth")
    add_common(p)
    p.add_argument("--human", action="store_true", help="add human-unit annotations")

    p = sub.add_parser("sweep", help="re-solve over a grid of one parameter (CSV)")
    add_common(p)
    p.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMETERS))
    p.add_argument("--start", required=True, help="grid start (SI number or quantity string)")
    p.add_argument("--stop", required=True, help="grid stop")
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--baselines", default="",
                   help="comma-separated: mec_only,local_only,local_no_cache")
    p.add_argument("--log-scale", action="store_true", help="geometric grid spacing")

    p = sub.add_parser("verify", help="closed form vs brute-force oracle on random configs")
    add_common(p, config=False)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("regions", help="operating regime and binding constraints")
    add_common(p)
    p.add_argument("--human", action="store_true")

    p = sub.add_parser("turning-points", help="cpu-speed turning points of the bandwidth curve")
    add_common(p)
    p.add_argument("--human", action="store_true")
    return parser


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Raise OSError unless ``path`` can be opened for writing. An existing
    file keeps its bytes, and a file the check makes is removed again."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        os.close(os.open(path, os.O_WRONLY))
    else:
        os.remove(path)


def _unwritable(exc: OSError) -> int:
    _emit(_json({"error": "output_unwritable", "detail": str(exc)}), None)
    return 2


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_and_solve(args) -> tuple:
    """(F, Q, Pbar), the route costs and the solution of the --config file."""
    config = load_config(args.config)
    scalars, costs = _scalars(config), route_costs(config)
    return scalars, costs, solve_with_costs(*scalars, costs)


def _cmd_solve(args) -> str:
    _, costs, solution = _load_and_solve(args)
    payload = solution.to_dict()
    payload["routes"] = costs.to_dict()
    if args.human:
        payload["human"] = {
            "b_total": format_hz(solution.b_total_hz),
            "b_avg": format_hz(solution.b_avg_hz),
        }
    return _json(payload)


def _cmd_sweep(args) -> str:
    config = load_config(args.config)
    dim = _FIELD_SPECS[SWEEP_PARAMETERS[args.param]][0]
    spec = SweepSpec(parameter=args.param,
                     start=parse_quantity(args.start, dim, "start"),
                     stop=parse_quantity(args.stop, dim, "stop"),
                     steps=args.steps, baselines=tuple(b for b in args.baselines.split(",") if b),
                     log_scale=args.log_scale)
    return rows_to_csv(sweep(config, spec))


def _cmd_regions(args) -> str:
    (f, q, _), costs, solution = _load_and_solve(args)
    regime = solution.regime
    payload = {
        "regime": regime.label,
        "k1_gt_k2": regime.k1_gt_k2,
        "b3_gt_b2": regime.b3_gt_b2,
        "detail": regime.detail,
        "binding": list(solution.binding),
        "task_count": f,
        "cache_capacity_tasks": q,
        "routes": costs.to_dict(),
    }
    if args.human:
        payload["human"] = {
            "b2": None if costs.b2 is None else format_hz(costs.b2),
            "b3": None if costs.b3 is None else format_hz(costs.b3),
        }
    return _json(payload)


def _cmd_turning_points(args) -> str:
    config = load_config(args.config)
    tp = turning_points(config)
    payload = tp.to_dict()
    if args.human:
        payload["human"] = {
            name: None if v is None else format_hz(v)
            for name, v in (("f1", tp.f1_hz), ("f2", tp.f2_hz), ("f3", tp.f3_hz))
        }
    return _json(payload)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.output:
        try:
            _check_writable(args.output)
        except OSError as exc:
            return _unwritable(exc)
    code = 0
    try:
        if args.command == "verify":
            report = run_verification(trials=args.trials, seed=args.seed)
            text, code = _json(report), 0 if report["pass"] else 1
        else:
            handler = {
                "solve": _cmd_solve,
                "sweep": _cmd_sweep,
                "regions": _cmd_regions,
                "turning-points": _cmd_turning_points,
            }[args.command]
            text = handler(args)
    except ConfigParseError as exc:
        _emit(_json({"error": exc.code, "detail": exc.detail()}), None)
        return 2
    except InvalidConfigError as exc:
        _emit(_json({"error": exc.code, "detail": exc.detail(),
                     "violations": [str(v) for v in exc.violations]}), None)
        return 1
    except Edge3cError as exc:
        _emit(_json({"error": exc.code, "detail": exc.detail()}), None)
        return 1
    try:
        _emit(text, args.output)
    except OSError as exc:
        return _unwritable(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
