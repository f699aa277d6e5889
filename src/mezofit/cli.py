"""Command-line front end.

    mezofit plan   --config FILE --mode {bp,bp-ckpt,mezo} [--json]
    mezofit sweep  --config FILE --axis {n,l,d} --from A --to B --points K [--ckpt] [--out FILE]
    mezofit solve  --config FILE --budget BYTES[GB|GiB] --axis {d,l} --mode MODE [--json]
    mezofit train  --plan FILE|desk --out DIR [--progress]
    mezofit verify [--dim N] [--seed S] [--epsilon E]    (N sizes the restoration vector)

Exit codes: 0 success, 1 verification failure, 2 invalid input (including a
file that cannot be read or written, or a non-finite loss), 3 infeasible budget.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from mezofit.bench import emit_csv, run_experiment, summarize
from mezofit.configfile import parse_model_config, parse_plan
from mezofit.memory import (
    AXIS_FIELD,
    ConfigError,
    InfeasibleError,
    MemoryMode,
    SweepAxis,
    SweepSpec,
    max_dimension,
    memory_for_mode,
    sweep,
)
from mezofit.verify import MAX_VERIFY_DIM, run_verification
from mezofit.zo import NonfiniteGradError, NonfiniteLossError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _sig3(x: float) -> str:
    return f"{float(f'{x:.3g}'):g}"


def human_bytes(x: float) -> str:
    """Bytes rendered in both binary and decimal units, 3 significant figures."""
    return f"{_sig3(x / 2**30)} GiB ({_sig3(x / 1e9)} GB)"


def parse_budget(text: str) -> float:
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*(GiB|GB|B)?\s*", text)
    if not m:
        raise ConfigError(f"cannot parse budget {text!r} (use bytes, GB, or GiB)")
    value = float(m.group(1)) * {"B": 1.0, "GB": 1e9, "GiB": float(2**30)}[m.group(2) or "B"]
    if not np.isfinite(value):
        raise ConfigError(f"budget {text!r} is not a finite number of bytes")
    return value


def _breakdown_lines(b) -> list[str]:
    rows = [("weights", b.weights_bytes), ("gradients", b.gradients_bytes),
            ("embedding+head", b.embedding_head_bytes),
            ("activations", b.activations_bytes), ("total", b.total_bytes)]
    width = max(len(n) for n, _ in rows)
    return [f"  {name:<{width}}  {value:>20.1f} B  {human_bytes(value)}"
            for name, value in rows]


def cmd_plan(args) -> int:
    cfg = parse_model_config(args.config)
    b = memory_for_mode(cfg, MemoryMode(args.mode))
    if args.json:
        print(json.dumps(b.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"mode: {b.mode.value}")
        print("\n".join(_breakdown_lines(b)))
    return EXIT_OK


def _sweep_values(axis: SweepAxis, lo: int, hi: int, points: int,
                  heads: int) -> tuple[int, ...]:
    if lo < 1:
        raise ConfigError(f"--from must be at least 1, got {lo}")
    if hi > np.iinfo(np.int64).max:  # numpy makes object arrays of ends past uint64
        raise ConfigError(f"--to must be at most {np.iinfo(np.int64).max}, got {hi}")
    if lo >= hi:
        raise ConfigError(f"--from ({lo}) must be below --to ({hi})")
    if not 2 <= points <= hi - lo + 1:
        raise ConfigError(f"--points must lie in [2, {hi - lo + 1}], the count of integers "
                          f"from --from to --to, got {points}")
    if axis is SweepAxis.L:
        values = np.linspace(lo, hi, points)
    else:
        values = np.geomspace(lo, hi, points)
    values = [int(round(v)) for v in values]
    if axis is SweepAxis.D:
        values = [max(heads, int(round(v / heads)) * heads) for v in values]
    values[0], values[-1] = lo, hi
    out = sorted(set(values))
    return tuple(out)


def cmd_sweep(args) -> int:
    cfg = parse_model_config(args.config)
    axis = SweepAxis(args.axis)
    values = _sweep_values(axis, args.from_, args.to, args.points, cfg.num_heads)
    points = sweep(SweepSpec(axis, values, cfg), checkpointed=args.ckpt)
    lines = ["axis_value,m_bp,m_mezo,ratio"]
    lines += [f"{p.axis_value},{p.m_bp!r},{p.m_mezo!r},{p.ratio!r}" for p in points]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(points)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = parse_model_config(args.config)
    budget = parse_budget(args.budget)
    axis = SweepAxis(args.axis)
    mode = MemoryMode(args.mode)
    value = max_dimension(budget, cfg, axis, mode)
    field = AXIS_FIELD[axis]
    solved = cfg.replace(**{field: value})
    b = memory_for_mode(solved, mode)
    if args.json:
        print(json.dumps({"axis": axis.value, "value": value,
                          "budget_bytes": budget, **b.as_dict()},
                         indent=2, sort_keys=True))
    else:
        print(f"largest {field} within {human_bytes(budget)}: {value}")
        print("\n".join(_breakdown_lines(b)))
    return EXIT_OK


def _resolve_plan(spec: str):
    if spec == "desk":
        ref = resources.files("mezofit").joinpath("plans/desk.ini")
        return ref.read_text(), True
    return spec, False


def cmd_train(args) -> int:
    source, is_text = _resolve_plan(args.plan)
    plan = parse_plan(source, is_text=is_text)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(plan, progress=args.progress)
    (out_dir / "records.csv").write_text(emit_csv(result.all_records()))
    summary = summarize(result)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    for method in ("bp", "mezo"):
        m = summary["methods"][method]
        print(f"{method}: best lr {m['best_learning_rate']:g}, final running-max "
              f"accuracy {m['final_running_max_accuracy']:.4f}, "
              f"90% of plateau at step {m['steps_to_90pct_of_plateau']}")
    print(f"wrote {out_dir / 'records.csv'} and {out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    with np.errstate(over="ignore"):  # an overflowing loss raises NonfiniteLossError
        results = run_verification(dim=args.dim, seed=args.seed, epsilon=args.epsilon)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if failed:
        print(f"verification failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mezofit",
        description="Memory planning and desk-scale validation for "
                    "zeroth-order vs. backprop fine-tuning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="itemized memory breakdown for one mode")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=[m.value for m in MemoryMode], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="BP/MeZO totals and ratio along one axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=[a.value for a in SweepAxis], required=True)
    p.add_argument("--from", dest="from_", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--ckpt", action="store_true",
                   help="use activation checkpointing for the BP column")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("solve", help="largest model dimension within a budget")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", required=True,
                   help="bytes, optionally suffixed GB (1e9) or GiB (2^30)")
    p.add_argument("--axis", choices=["d", "l"], required=True)
    p.add_argument("--mode", choices=[m.value for m in MemoryMode], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="run a matched-budget training plan")
    p.add_argument("--plan", required=True,
                   help="path to a plan file, or 'desk' for the bundled plan")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="estimator and gradient checks")
    p.add_argument("--dim", type=int, default=64, help="length of the restoration "
                   f"check's vector, 1 to {MAX_VERIFY_DIM}; the other checks are fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError,  # ConfigError is a ValueError
            NonfiniteLossError, NonfiniteGradError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
