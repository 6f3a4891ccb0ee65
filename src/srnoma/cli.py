"""Command-line front end.

Exit codes: 0 on success, 1 on runtime failure (missing config, aborted run,
oversized grid), 2 on usage errors (argparse handles those).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, harness
from .agents import ALGORITHMS, train
from .network import derive_keys, draw_realization, make_placement


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML run configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srnoma",
        description="Two-phase backscatter network: training, baselines, sweeps",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent and dump trace + checkpoint")
    _add_config_arg(p_train)
    p_train.add_argument("--algo", choices=ALGORITHMS)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--episodes", type=int, default=None,
                         help="override the run-section episode budget")
    p_train.add_argument("--paper-scale", action="store_true",
                         help="use the full-scale episode budget from the agent section")
    p_train.add_argument("--checkpoint-every", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    _add_config_arg(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output directory")

    p_oracle = sub.add_parser("oracle", help="brute-force optimum on a scalar scene")
    _add_config_arg(p_oracle)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.add_argument("--resolution", type=int, default=5)
    p_oracle.add_argument("--ris-mode", choices=["active", "passive"], default=None)

    p_base = sub.add_parser("baseline", help="random search on one realization")
    _add_config_arg(p_base)
    p_base.add_argument("--seed", type=int, default=None)
    p_base.add_argument("--budget", type=int, default=10000)
    p_base.add_argument("--ris-mode", choices=["active", "passive"], default=None)

    p_report = sub.add_parser("report", help="aggregate sweep outputs")
    p_report.add_argument("--in", dest="in_dir", required=True)
    p_report.add_argument("--out", default=None)
    return parser


def _scene_from(config: dict, seed: int):
    cfg = harness.system_from(config)
    placement_key, draw_key = derive_keys(seed, 2)
    return cfg, draw_realization(cfg, make_placement(cfg, placement_key), draw_key)


def _cmd_train(args) -> int:
    config = harness.load_config(args.config)
    algo = args.algo or config["run"]["algo"]
    seed = args.seed if args.seed is not None else config["run"]["seeds"][0]
    episodes = config["run"]["episodes"]
    if args.paper_scale:
        episodes = config["agents"][algo]["episodes"]
    if args.episodes is not None:
        episodes = args.episodes
    checkpoint_every = (
        args.checkpoint_every
        if args.checkpoint_every is not None
        else config["run"]["checkpoint_every"]
    )
    os.makedirs(args.out, exist_ok=True)
    env = harness.env_from(config)
    _, trace = train(
        algo,
        env,
        episodes,
        seed,
        hyper=config["agents"][algo],
        checkpoint_dir=args.out,
        checkpoint_every=checkpoint_every,
    )
    trace_path = os.path.join(args.out, f"trace_{algo}_seed{seed}.csv")
    trace.to_csv(trace_path, harness.config_hash(config), seed)
    print(f"wrote {trace_path} ({len(trace)} episodes)")
    if trace.aborted:
        print("training aborted on a non-finite gradient; trace truncated",
              file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    config = harness.load_config(args.config)
    points, summary = harness.sweep(config, args.out)
    print(f"wrote {points}")
    print(f"wrote {summary}")
    return 0


def _cmd_oracle(args) -> int:
    config = harness.load_config(args.config)
    seed = args.seed if args.seed is not None else config["run"]["seeds"][0]
    mode = args.ris_mode or config["env"]["ris_mode"]
    cfg, ch = _scene_from(config, seed)
    result = harness.grid_oracle(cfg, ch, mode, resolution=args.resolution)
    if result.feasible:
        print(f"feasible optimum min_rate={result.objective!r} "
              f"over {result.evaluated} grid points")
    else:
        print(f"no feasible point among {result.evaluated} grid points")
    return 0


def _cmd_baseline(args) -> int:
    config = harness.load_config(args.config)
    seed = args.seed if args.seed is not None else config["run"]["seeds"][0]
    mode = args.ris_mode or config["env"]["ris_mode"]
    cfg, ch = _scene_from(config, seed)
    result = harness.random_search(cfg, ch, mode, args.budget, seed)
    if result.feasible:
        print(f"best feasible min_rate={result.objective!r} "
              f"({result.feasible_count}/{result.evaluated} feasible)")
    else:
        print(f"no feasible sample in {result.evaluated} draws")
    return 0


def _cmd_report(args) -> int:
    out_path, lines = harness.report(args.in_dir, args.out)
    for line in lines:
        print(line)
    print(f"wrote {out_path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "baseline": _cmd_baseline,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError, harness.GridCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
