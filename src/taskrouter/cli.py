"""Command-line interface.

Subcommands: prompts expand, eval run, routerdata build, router train,
router route, baselines report, lodo run, ablation run, synth generate.
Global flags: --config <file> --seed <int> --out <dir> --log-level <level>.
Exit code 0 on success; on failure a machine-readable JSON error record
goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from . import harness
from .baselines import build_comparison_report
from .core import QueryGrid, load_world, read_json, save_records, save_world, write_json
from .errors import InvalidInputError, TaskRouterError
from .presets import builtin_prompt_configs
from .prompts import (
    DatasetPromptConfig,
    closed_prompt_set,
    prompt_variants,
)
from .router import FeaturizerConfig, RouterModel, TrainConfig, train_router
from .routerdata import (
    SerializationFlags,
    build_router_dataset,
    save_corpus,
    split_80_10_10,
)
from .scoring import EMBEDDING, evaluate, make_mock_backend
from .synth import WorldSpec, generate_world


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    package_logger = logging.getLogger("taskrouter")
    handler, level = None, package_logger.level
    if args.log_level is not None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        package_logger.addHandler(handler)
        package_logger.setLevel(args.log_level.upper())
    try:
        args.config_data = _load_config(args.config)
        args.handler(args)
        return 0
    except (TaskRouterError, OSError, ValueError, TypeError, KeyError) as exc:
        _emit_error(exc)
        return 1
    finally:
        if handler is not None:
            package_logger.removeHandler(handler)
            package_logger.setLevel(level)


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _load_config(path: str | None) -> dict:
    return {} if path is None else read_json(path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskrouter",
        description="Route closed-ended visual-task queries to the best model.",
    )
    parser.add_argument("--config", default=None, help="JSON config file with defaults")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="print the package's log lines at this level and above "
                             "to stderr (default: warnings only, unformatted)")
    groups = parser.add_subparsers(dest="group")

    # prompts expand
    p_prompts = groups.add_parser("prompts", help="prompt grammar tools")
    sub = p_prompts.add_subparsers(dest="verb")
    p_expand = sub.add_parser("expand", help="list variants or concrete prompts")
    p_expand.add_argument("--dataset", required=True,
                          help="builtin dataset id or a prompt-config JSON file")
    p_expand.add_argument("--world", default=None, help="world directory")
    p_expand.add_argument("--sample-id", default=None,
                          help="render concrete prompts for this sample")
    p_expand.set_defaults(handler=_cmd_prompts_expand)

    # eval run
    p_eval = groups.add_parser("eval", help="run a backend over a world")
    sub = p_eval.add_subparsers(dest="verb")
    p_run = sub.add_parser("run", help="evaluate a backend on every dataset")
    p_run.add_argument("--world", required=True)
    p_run.add_argument("--backend", default="seeded",
                       choices=["gold", "constant", "seeded"])
    p_run.add_argument("--family", default=EMBEDDING,
                       choices=["embedding", "generative"])
    p_run.add_argument("--model-id", default=None)
    p_run.add_argument("--normalization", default="sum", choices=["sum", "mean"])
    p_run.set_defaults(handler=_cmd_eval_run)

    # routerdata build
    p_rd = groups.add_parser("routerdata", help="router corpus construction")
    sub = p_rd.add_subparsers(dest="verb")
    p_build = sub.add_parser("build", help="build and split a router corpus")
    p_build.add_argument("--world", required=True)
    p_build.add_argument("--flags", default="md=on,ro=on",
                         help="serialization flags, e.g. md=on,ro=off")
    p_build.set_defaults(handler=_cmd_routerdata_build)

    # router train / route
    p_router = groups.add_parser("router", help="train or query a router")
    sub = p_router.add_subparsers(dest="verb")
    p_train = sub.add_parser("train", help="train a router on a world")
    p_train.add_argument("--world", required=True)
    p_train.add_argument("--flags", default="md=on,ro=on")
    _add_train_args(p_train)
    p_train.set_defaults(handler=_cmd_router_train)
    p_route = sub.add_parser("route", help="route serialized inputs to a model id")
    p_route.add_argument("--router", required=True, help="trained router file")
    p_route.add_argument("--input", default=None,
                         help="serialized input line (default: read stdin)")
    p_route.set_defaults(handler=_cmd_router_route)

    # baselines report
    p_base = groups.add_parser("baselines", help="selection-strategy comparison")
    sub = p_base.add_subparsers(dest="verb")
    p_report = sub.add_parser("report", help="build the comparison report")
    p_report.add_argument("--world", required=True)
    p_report.add_argument("--router", default=None, help="trained router file")
    p_report.add_argument("--chance", default="uniform",
                          choices=["uniform", "majority"])
    p_report.set_defaults(handler=_cmd_baselines_report)

    # lodo run
    p_lodo = groups.add_parser("lodo", help="leave-one-dataset-out runs")
    sub = p_lodo.add_subparsers(dest="verb")
    p_lrun = sub.add_parser("run", help="run the LODO protocol")
    p_lrun.add_argument("--world", required=True)
    p_lrun.add_argument("--flags", default="md=on,ro=on")
    p_lrun.add_argument("--chance", default="uniform", choices=["uniform", "majority"])
    _add_train_args(p_lrun)
    p_lrun.set_defaults(handler=_cmd_lodo_run)

    # ablation run
    p_abl = groups.add_parser("ablation", help="MD/RO ablation grid")
    sub = p_abl.add_subparsers(dest="verb")
    p_arun = sub.add_parser("run", help="run all four flag combinations")
    p_arun.add_argument("--world", required=True)
    p_arun.add_argument("--in-distribution", action="store_true")
    _add_train_args(p_arun)
    p_arun.set_defaults(handler=_cmd_ablation_run)

    # synth generate
    p_synth = groups.add_parser("synth", help="synthetic worlds")
    sub = p_synth.add_subparsers(dest="verb")
    p_gen = sub.add_parser("generate", help="generate a world from a spec")
    p_gen.add_argument("--spec", required=True, help="world spec JSON file")
    p_gen.set_defaults(handler=_cmd_synth_generate)

    return parser


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--eval-every", type=int, default=None)
    parser.add_argument("--hash-dim", type=int, default=None)
    parser.add_argument("--ngram-orders", default=None,
                        help="comma-separated n-gram orders, e.g. 2,3,4")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(args.config_data.get("seed", 0))


def _out_dir(args, default: str) -> Path:
    out = args.out or args.config_data.get("out") or default
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _train_config(args, seed: int) -> TrainConfig:
    base = dict(args.config_data.get("train", {}))
    for key, attr in (
        ("learning_rate", "learning_rate"),
        ("batch_size", "batch_size"),
        ("max_iterations", "max_iterations"),
        ("eval_every", "eval_every"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            base[key] = value
    base["seed"] = seed
    return TrainConfig.from_dict(base)


def _featurizer_config(args) -> FeaturizerConfig:
    base = dict(args.config_data.get("featurizer", {}))
    if getattr(args, "hash_dim", None) is not None:
        base["hash_dim"] = args.hash_dim
    if getattr(args, "ngram_orders", None) is not None:
        base["ngram_orders"] = [int(x) for x in args.ngram_orders.split(",")]
    base.setdefault("ngram_orders", [2, 3, 4])
    base.setdefault("hash_dim", 2 ** 18)
    base.setdefault("lowercase", True)
    return FeaturizerConfig.from_dict(base)


def _resolve_prompt_config(spec: str) -> DatasetPromptConfig:
    builtin = builtin_prompt_configs()
    if spec in builtin:
        return builtin[spec]
    path = Path(spec)
    if path.exists():
        return DatasetPromptConfig.from_dict(read_json(path))
    raise InvalidInputError(
        f"{spec!r} is neither a builtin dataset id {sorted(builtin)} nor a config file"
    )


def _cmd_prompts_expand(args) -> None:
    config = _resolve_prompt_config(args.dataset)
    variants = prompt_variants(config)
    if args.sample_id is None:
        for v in variants:
            option = v.option.template_text if v.option is not None else "<verbatim>"
            print(f"{v.variant_id}\t{v.question.template_text!r}\t{option!r}")
        return
    if args.world is None:
        raise InvalidInputError("--sample-id needs --world to look the sample up")
    world = load_world(args.world)
    sample = next(
        (s for m in world.datasets.values() for s in m.samples
         if s.sample_id == args.sample_id),
        None,
    )
    if sample is None:
        raise InvalidInputError(f"no sample {args.sample_id!r} in {args.world}")
    for v in variants:
        for i, prompt in enumerate(closed_prompt_set(sample, config, v)):
            print(f"{v.variant_id}\t{i}\t{prompt}")


def _cmd_eval_run(args) -> None:
    world = load_world(args.world)
    seed = _seed(args)
    out = _out_dir(args, "eval_out")
    backend = make_mock_backend(
        args.backend, args.family, name=args.model_id, seed=seed,
        manifests=list(world.datasets.values()),
        dim=max(len(s.response_options)
                for m in world.datasets.values() for s in m.samples),
    )
    all_records = []
    total_skips = 0
    for ds_id, manifest in world.datasets.items():
        run = evaluate(backend, manifest, world.prompt_configs[ds_id],
                       normalization=args.normalization)
        all_records.extend(run.records)
        total_skips += run.skip_count
    save_records(all_records, out / "records.jsonl")
    summary = {
        "backend": backend.info.name,
        "family": args.family,
        "records": len(all_records),
        "skipped": total_skips,
    }
    write_json(out / "eval_summary.json", summary)
    print(json.dumps(summary, sort_keys=True))


def _cmd_routerdata_build(args) -> None:
    world = load_world(args.world)
    flags = SerializationFlags.parse(args.flags)
    seed = _seed(args)
    out = _out_dir(args, "routerdata_out")
    grid = QueryGrid.build(world)
    examples = build_router_dataset(grid, flags)
    train, validate, test = split_80_10_10(examples, seed=seed)
    save_corpus(train, out / "train.txt")
    save_corpus(validate, out / "validate.txt")
    save_corpus(test, out / "test.txt")
    payload = {
        "flags": flags.to_dict(),
        "seed": seed,
        "counts": {"raw_records": len(world.records),
                   "valid_records": int(grid.covered.sum()), "examples": len(examples)},
        "splits": {"train": len(train), "validate": len(validate), "test": len(test)},
    }
    write_json(out / "counts.json", payload)
    print(json.dumps(payload, sort_keys=True))


def _cmd_router_train(args) -> None:
    world = load_world(args.world)
    flags = SerializationFlags.parse(args.flags)
    seed = _seed(args)
    out = _out_dir(args, "router_out")
    examples = build_router_dataset(QueryGrid.build(world), flags)
    train, validate, _ = split_80_10_10(examples, seed=seed)
    model = train_router(
        train, validate,
        config=_train_config(args, seed),
        flags=flags,
        featurizer=_featurizer_config(args),
        vocabulary=sorted(world.model_pool),
    )
    router_path = out / "router.bin"
    model.save(router_path)
    print(json.dumps({
        "router": str(router_path),
        "train_examples": len(train),
        "validate_examples": len(validate),
        "vocabulary": list(model.vocabulary),
    }, sort_keys=True))


def _cmd_router_route(args) -> None:
    model = RouterModel.load(args.router)
    if args.input is not None:
        _check_utf8(args.input, "--input")
        lines = [args.input]
    else:
        text = sys.stdin.read()
        _check_utf8(text, "stdin")
        lines = [ln for ln in text.split("\n") if ln.strip()]
    sys.stdout.write("".join(choice + "\n" for choice in model.route_batch(lines)))


def _check_utf8(text: str, source: str) -> None:
    """Raise ``InvalidInputError`` naming the first line of ``text`` (read
    from ``source``) that is not UTF-8: stdin and the command line decode
    such a byte to a lone surrogate, which does not encode. All-ASCII text,
    the common case, passes in one step."""
    if text.isascii():
        return
    for number, line in enumerate(text.split("\n"), 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidInputError(
                f"{source}:{number}: not valid UTF-8 at character {exc.start}") from None


def _cmd_baselines_report(args) -> None:
    world = load_world(args.world)
    out = _out_dir(args, "baselines_out")
    router = RouterModel.load(args.router) if args.router else None
    report = build_comparison_report(QueryGrid.build(world), router=router,
                                     chance_kind=args.chance)
    report.write_csv(out / "report.csv")
    report.write_json(out / "report.json")
    print((out / "report.csv").read_text(), end="")


def _cmd_lodo_run(args) -> None:
    world = load_world(args.world)
    seed = _seed(args)
    out = _out_dir(args, "lodo_out")
    flags = SerializationFlags.parse(args.flags)
    result = harness.run_lodo(
        world, flags=flags,
        train_config=_train_config(args, seed),
        featurizer=_featurizer_config(args),
        seed=seed, out_dir=out, chance_kind=args.chance,
    )
    harness.write_run_manifest(
        out,
        config={"flags": flags.to_dict(), "train": _train_config(args, seed).to_dict(),
                "chance": args.chance},
        seeds={"master": seed},
        input_files=[Path(args.world) / name
                     for name in ("datasets.jsonl", "records.jsonl")],
    )
    print(json.dumps({
        "report": str(out / "report.csv"),
        "failed_folds": result.failed_folds,
    }, sort_keys=True))


def _cmd_ablation_run(args) -> None:
    world = load_world(args.world)
    seed = _seed(args)
    out = _out_dir(args, "ablation_out")
    result = harness.run_ablation(
        world,
        train_config=_train_config(args, seed),
        featurizer=_featurizer_config(args),
        seed=seed, out_dir=out,
        include_in_distribution=args.in_distribution,
    )
    print(json.dumps({
        "ablation": str(out / "ablation.csv"),
        "columns": {t: result.average(t) for t in result.columns},
    }, sort_keys=True))


def _cmd_synth_generate(args) -> None:
    spec = WorldSpec.load(args.spec)
    if args.seed is not None:
        spec = WorldSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    out = _out_dir(args, "world_out")
    world = generate_world(spec)
    save_world(world, out)
    spec.save(out / "world_spec.json")
    print(json.dumps({
        "world": str(out),
        "datasets": len(world.datasets),
        "records": len(world.records),
        "model_pool": world.model_pool,
    }, sort_keys=True))


if __name__ == "__main__":
    raise SystemExit(main())
