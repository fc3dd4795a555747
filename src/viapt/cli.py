"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 file-format error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, FormatError, NumericError
from .harness import (
    CONFIG_SCHEMA,
    DATASET_VARIANTS,
    EXPERIMENT_SEEDS,
    cmd_ablate,
    cmd_eval,
    cmd_gen_data,
    cmd_gradcheck,
    cmd_param_count,
    cmd_pretrain_backbone,
    cmd_sweep_m,
    cmd_train,
    format_param_table,
    load_dataset_dir,
    make_run_config,
    parse_config_file,
)

_MODE_FLAGS = {
    "viapt": "viapt",
    "vpt-shallow": "vpt_shallow",
    "vpt-deep": "vpt_deep",
    "no-pca": "ablation_no_pca",
    "no-instance": "ablation_no_instance",
    "random-projection": "ablation_random_projection",
    "direct": "direct_generation",
}
_STRATEGY_FLAGS = {"multi": "multi_round", "fixed": "fixed_sampling", "direct": "direct"}
_WRITES_OUTPUTS = ("gen-data", "pretrain-backbone", "train", "eval", "sweep-m", "ablate")


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="training / data seed")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--precision", choices=["f32", "f64"])
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS))
    p.add_argument("--m", dest="retained_dims", type=int, help="retained dimensions")
    p.add_argument("--lambda", dest="instance_tokens", type=int, help="instance tokens")
    p.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS))
    p.add_argument("--rounds", type=int, help="multi-round inference rounds")
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup-epochs", type=int)
    p.add_argument("--train-samples", type=int)
    p.add_argument("--dataset", dest="dataset_variant", choices=DATASET_VARIANTS)


def _config_from_args(args) -> "RunConfig":
    """Every flag whose dest is a config key overrides the file; only the
    --mode and --strategy aliases need translating."""
    file_overrides = parse_config_file(args.config) if args.config else {}
    cli = {key: value for key, value in vars(args).items() if key in CONFIG_SCHEMA}
    cli["mode"] = _MODE_FLAGS.get(args.mode)
    cli["strategy"] = _STRATEGY_FLAGS.get(args.strategy)
    return make_run_config(file_overrides, cli)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="viapt",
                                     description="instance-aware prompt tuning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in [
        ("gen-data", "generate a synthetic dataset"),
        ("pretrain-backbone", "pretrain and freeze the shared backbone"),
        ("train", "prompt-tune against a frozen backbone"),
        ("eval", "evaluate a checkpoint"),
        ("sweep-m", "train one model per retained-dimension cell"),
        ("ablate", "run the ablation table"),
        ("param-count", "parameter accounting tables"),
        ("gradcheck", "finite-difference gradient verification"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _common_flags(p)
        if name in ("train", "sweep-m", "ablate"):
            p.add_argument("--backbone", required=True, help="frozen backbone checkpoint")
            p.add_argument("--data", help="directory from gen-data (default: regenerate)")
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--data", help="directory from gen-data (default: regenerate)")
            p.add_argument("--noise-seed", dest="noise_seed", type=int)
            p.add_argument("--split", default="test", choices=["train", "val", "test"])
        if name in ("sweep-m", "param-count"):
            p.add_argument("--m-list", help="comma-separated m values")
        if name in ("sweep-m", "ablate"):
            p.add_argument("--seeds", help="comma-separated seeds "
                           f"(default {','.join(map(str, EXPERIMENT_SEEDS))})")
            if name == "sweep-m":
                p.add_argument("--no-instance-compare", action="store_true",
                               help="sweep only the configured lambda")
    return parser


def _parse_int_list(text, default):
    if not text:
        return list(default)
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated integers, got '{text}'") from e


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    if args.command in _WRITES_OUTPUTS:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        (Path(cfg.out_dir) / "config.json").write_text(cfg.snapshot())

    if args.command == "gen-data":
        paths = cmd_gen_data(cfg)
        print(json.dumps(paths, sort_keys=True))
        return 0

    if args.command == "pretrain-backbone":
        path = cmd_pretrain_backbone(cfg)
        print(path)
        return 0

    if args.command == "train":
        data = load_dataset_dir(args.data) if args.data else None
        result = cmd_train(cfg, args.backbone, data=data)
        print(json.dumps({"best_val_accuracy": result.best["accuracy"],
                          "best_epoch": result.best["epoch"],
                          "out_dir": cfg.out_dir}, sort_keys=True))
        return 0

    if args.command == "eval":
        data = load_dataset_dir(args.data) if args.data else None
        if data is None:
            from .harness import gen_dataset
            data = gen_dataset(cfg.dataset)
        summary, _ = cmd_eval(args.checkpoint, data, cfg.infer, out_dir=cfg.out_dir,
                              split=args.split)
        print(json.dumps(summary, sort_keys=True))
        return 0

    if args.command == "sweep-m":
        d = cfg.vit.embed_dim
        m_list = _parse_int_list(args.m_list, [0, d // 4, d // 2, 3 * d // 4, d])
        seeds = _parse_int_list(args.seeds, EXPERIMENT_SEEDS)
        data = load_dataset_dir(args.data) if args.data else None
        rows, _ = cmd_sweep_m(cfg, args.backbone, m_list,
                              with_and_without_instance=not args.no_instance_compare,
                              seeds=seeds, data=data)
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return 0

    if args.command == "ablate":
        seeds = _parse_int_list(args.seeds, EXPERIMENT_SEEDS)
        data = load_dataset_dir(args.data) if args.data else None
        rows = cmd_ablate(cfg, args.backbone, data=data, seeds=seeds)
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return 0

    if args.command == "param-count":
        d = cfg.vit.embed_dim
        m_list = _parse_int_list(args.m_list, [0, d // 4, d // 2, 3 * d // 4, d])
        report = cmd_param_count(cfg.vit, cfg.prompt, m_list)
        print(format_param_table(report))
        return 0

    if args.command == "gradcheck":
        report = cmd_gradcheck(cfg)
        for name, err in sorted(report["tensors"].items()):
            print(f"{'ok ' if err < report['threshold'] else 'FAIL'} {name}: {err:.3e}")
        print(f"max relative error: {report['max_rel_error']:.3e} "
              f"(threshold {report['threshold']:.0e})")
        return 0 if report["passed"] else 3

    raise ConfigError(f"unhandled command {args.command}")


def main() -> None:
    try:
        sys.exit(run())
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        sys.exit(2)
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        sys.exit(4)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
