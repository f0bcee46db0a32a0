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
from dataclasses import fields, replace
from pathlib import Path
from typing import Sequence

from . import harness
from .baselines import build_comparison_report
from .core import (QueryGrid, Records, load_tasks, load_world, read_json, reading,
                   save_records, save_world, typed_field, write_json)
from .errors import InvalidInputError, TaskRouterError
from .presets import builtin_prompt_configs
from .prompts import (
    DatasetPromptConfig,
    closed_prompt_set,
    prompt_variants,
)
from .router import (FeaturizerConfig, RouterModel, TrainConfig, evaluate_router,
                     featurize_batch, read_positions, train_router)
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
        _resolve_settings(args)
        args.handler(args)
        return 0
    except (TaskRouterError, OSError, ValueError, TypeError, KeyError, ArithmeticError,
            MemoryError) as exc:
        _emit_error(exc)
        return 1
    finally:
        if handler is not None:
            package_logger.removeHandler(handler)
            package_logger.setLevel(level)


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


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
    p_run.set_defaults(handler=_cmd_eval_run, default_out="eval_out")

    # routerdata build
    p_rd = groups.add_parser("routerdata", help="router corpus construction")
    sub = p_rd.add_subparsers(dest="verb")
    p_build = sub.add_parser("build", help="build and split a router corpus")
    p_build.add_argument("--world", required=True)
    p_build.add_argument("--flags", default="md=on,ro=on",
                         help="serialization flags, e.g. md=on,ro=off")
    p_build.set_defaults(handler=_cmd_routerdata_build, default_out="routerdata_out")

    # router train / route
    p_router = groups.add_parser("router", help="train or query a router")
    sub = p_router.add_subparsers(dest="verb")
    p_train = sub.add_parser("train", help="train a router on a world")
    p_train.add_argument("--world", required=True)
    p_train.add_argument("--flags", default="md=on,ro=on")
    _add_train_args(p_train)
    p_train.set_defaults(handler=_cmd_router_train, default_out="router_out")
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
    p_report.set_defaults(handler=_cmd_baselines_report, default_out="baselines_out")

    # lodo run
    p_lodo = groups.add_parser("lodo", help="leave-one-dataset-out runs")
    sub = p_lodo.add_subparsers(dest="verb")
    p_lrun = sub.add_parser("run", help="run the LODO protocol")
    p_lrun.add_argument("--world", required=True)
    p_lrun.add_argument("--flags", default="md=on,ro=on")
    p_lrun.add_argument("--chance", default="uniform", choices=["uniform", "majority"])
    _add_train_args(p_lrun)
    p_lrun.set_defaults(handler=_cmd_lodo_run, default_out="lodo_out")

    # ablation run
    p_abl = groups.add_parser("ablation", help="MD/RO ablation grid")
    sub = p_abl.add_subparsers(dest="verb")
    p_arun = sub.add_parser("run", help="run all four flag combinations")
    p_arun.add_argument("--world", required=True)
    p_arun.add_argument("--in-distribution", action="store_true")
    _add_train_args(p_arun)
    p_arun.set_defaults(handler=_cmd_ablation_run, default_out="ablation_out")

    # synth generate
    p_synth = groups.add_parser("synth", help="synthetic worlds")
    sub = p_synth.add_subparsers(dest="verb")
    p_gen = sub.add_parser("generate", help="generate a world from a spec")
    p_gen.add_argument("--spec", required=True, help="world spec JSON file")
    p_gen.set_defaults(handler=_cmd_synth_generate, default_out="world_out")

    return parser


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--eval-every", type=int, default=None)
    parser.add_argument("--hash-dim", type=int, default=None)
    parser.add_argument("--ngram-orders", default=None,
                        help="comma-separated n-gram orders, e.g. 2,3,4")


def _resolve_settings(args) -> None:
    """Read and check the whole ``--config`` file once, before any work,
    and put the run's settings on ``args``, each the flag over the file
    over the default: ``seed`` (None if neither gives one), ``out``,
    ``train_config`` and ``featurizer_config``. ``train_config.seed`` is
    ``seed``, or ``TrainConfig``'s default: the run's one seed. A key that
    nothing reads is refused, and so is a ``seed`` in the ``train``
    section. For a command that writes, ``out`` is a Path (its default is
    the command's ``default_out``) that neither is nor lies under a file;
    ``--flags``, where the command has it, becomes SerializationFlags."""
    data = {} if args.config is None else read_json(args.config)
    with reading(args.config):
        _refuse_unknown_keys(data, ("seed", "out", "train", "featurizer"), "top-level key")
        seed = typed_field(data, "seed", int, default=None)
        args.out = args.out or typed_field(data, "out", str, default=None)
    if hasattr(args, "default_out"):
        args.out = Path(args.out or args.default_out)
        blocker = next((p for p in (args.out, *args.out.parents)
                        if p.exists() and not p.is_dir()), None)
        if blocker is not None:
            raise InvalidInputError(f"cannot make output directory {str(args.out)!r}: "
                                    f"{str(blocker)!r} is an existing file")
    if args.seed is None:
        args.seed = seed
    with reading(f"{args.config}: section 'train'"):
        section = typed_field(data, "train", dict, default={})
        if "seed" in section:
            raise InvalidInputError(
                "field 'seed' is refused: the run's seed is the top-level 'seed' or --seed")
        _refuse_unknown_keys(section, [f.name for f in fields(TrainConfig) if f.name != "seed"])
        config = TrainConfig.from_dict(section)
    config = _with_flags(args, config,
                         ("learning_rate", "batch_size", "max_iterations", "eval_every"))
    args.train_config = config if args.seed is None else replace(config, seed=args.seed)
    with reading(f"{args.config}: section 'featurizer'"):
        section = typed_field(data, "featurizer", dict, default={})
        _refuse_unknown_keys(section, [f.name for f in fields(FeaturizerConfig)])
        config = FeaturizerConfig.from_dict({**FeaturizerConfig().to_dict(), **section})
    args.featurizer_config = _with_flags(
        args, config, ("hash_dim", "ngram_orders"),
        ngram_orders=lambda text: [int(x) for x in text.split(",")])
    if hasattr(args, "flags"):
        args.flags = SerializationFlags.parse(args.flags)


def _with_flags(args, config, names: Sequence[str], **parsers):
    """``config`` with the value of each given flag among ``names`` in the
    field of that name, read by ``parsers[name]`` if there is one. A value
    that the parser or the config refuses ends in an InvalidInputError
    naming the flag and the value."""
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            continue
        try:
            config = replace(config, **{name: parsers.get(name, lambda v: v)(value)})
        except ValueError as e:
            raise InvalidInputError(f"--{name.replace('_', '-')} {value!r}: {e}") from None
    return config


def _refuse_unknown_keys(section: dict, known: Sequence[str], what: str = "key") -> None:
    """Raise InvalidInputError naming the first of ``section``'s keys
    outside ``known``: a key that nothing reads."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise InvalidInputError(
            f"unknown {what} {unknown[0]!r}; known: {', '.join(sorted(known))}")


def _resolve_prompt_config(spec: str) -> DatasetPromptConfig:
    builtin = builtin_prompt_configs()
    if spec in builtin:
        return builtin[spec]
    path = Path(spec)
    if path.exists():
        return read_json(path, DatasetPromptConfig.from_dict)
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
    datasets, _ = load_tasks(args.world)
    sample = next(
        (s for m in datasets.values() for s in m.samples
         if s.sample_id == args.sample_id),
        None,
    )
    if sample is None:
        raise InvalidInputError(f"no sample {args.sample_id!r} in {args.world}")
    for v in variants:
        for i, prompt in enumerate(closed_prompt_set(sample, config, v)):
            print(f"{v.variant_id}\t{i}\t{prompt}")


def _cmd_eval_run(args) -> None:
    datasets, configs = load_tasks(args.world)
    backend = make_mock_backend(
        args.backend, args.family, name=args.model_id, seed=args.train_config.seed,
        manifests=list(datasets.values()),
        dim=max((len(s.response_options)
                 for m in datasets.values() for s in m.samples), default=1),
    )
    runs = [evaluate(backend, manifest, configs[ds_id], normalization=args.normalization)
            for ds_id, manifest in datasets.items()]
    records = Records.concat(run.records for run in runs)
    save_records(records, args.out / "records.jsonl")
    summary = {
        "backend": backend.info.name,
        "family": args.family,
        "records": len(records),
        "skipped": sum(run.skip_count for run in runs),
    }
    write_json(args.out / "eval_summary.json", summary)
    print(json.dumps(summary, sort_keys=True))


def _cmd_routerdata_build(args) -> None:
    world = load_world(args.world)
    flags, seed = args.flags, args.train_config.seed
    grid = QueryGrid.build(world)
    corpus = build_router_dataset(grid, flags)
    train, validate, test = split_80_10_10(range(len(corpus)), seed=seed)
    save_corpus(corpus, train, args.out / "train.txt")
    save_corpus(corpus, validate, args.out / "validate.txt")
    save_corpus(corpus, test, args.out / "test.txt")
    payload = {
        "flags": flags.to_dict(),
        "seed": seed,
        "counts": {"raw_records": len(world.records),
                   "valid_records": int(grid.covered.sum()), "examples": len(corpus)},
        "splits": {"train": len(train), "validate": len(validate), "test": len(test)},
    }
    write_json(args.out / "counts.json", payload)
    print(json.dumps(payload, sort_keys=True))


def _cmd_router_train(args) -> None:
    world = load_world(args.world)
    config = args.train_config
    corpus = build_router_dataset(QueryGrid.build(world), args.flags)
    train, validate, _ = split_80_10_10(range(len(corpus)), seed=config.seed)
    kept = train + validate
    # only the training lines SGD reads and the validation lines are hashed;
    # the other training rows are left empty
    hashed = [*read_positions(len(train), config).tolist(), *range(len(train), len(kept))]
    rows = featurize_batch([corpus.inputs[kept[i]] for i in hashed], args.featurizer_config)
    model = train_router(
        rows.placed(hashed, len(kept)), corpus.labels[kept], range(len(train)),
        range(len(train), len(kept)), config=config, flags=args.flags,
        vocabulary=corpus.grid.models,
    )
    router_path = args.out / "router.bin"
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
    router = RouterModel.load(args.router) if args.router else None
    grid = QueryGrid.build(world)
    accuracies = None
    if router is not None:
        # a coverage gap or a dataset without records fails before any replay
        grid.require_coverage()
        grid.require_records()
        accuracies = {ds: evaluate_router(router, grid, ds) for ds in world.datasets}
    report = build_comparison_report(grid, router_accuracies=accuracies,
                                     chance_kind=args.chance)
    report.write_csv(args.out / "report.csv")
    report.write_json(args.out / "report.json")
    print((args.out / "report.csv").read_text(), end="")


def _cmd_lodo_run(args) -> None:
    world = load_world(args.world)
    flags, train_config = args.flags, args.train_config
    result = harness.run_lodo(
        world, flags=flags, train_config=train_config, featurizer=args.featurizer_config,
        out_dir=args.out, chance_kind=args.chance,
    )
    harness.write_run_manifest(
        args.out,
        config={"flags": flags.to_dict(), "train": train_config.to_dict(),
                "chance": args.chance},
        seeds={"master": train_config.seed},
        input_files=[Path(args.world) / name
                     for name in ("datasets.jsonl", "records.jsonl")],
    )
    print(json.dumps({
        "report": str(args.out / "report.csv"),
        "failed_folds": result.failed_folds,
    }, sort_keys=True))


def _cmd_ablation_run(args) -> None:
    world = load_world(args.world)
    result = harness.run_ablation(
        world, train_config=args.train_config, featurizer=args.featurizer_config,
        out_dir=args.out, include_in_distribution=args.in_distribution,
    )
    print(json.dumps({
        "ablation": str(args.out / "ablation.csv"),
        "columns": {t: result.average(t) for t in result.columns},
    }, sort_keys=True))


def _cmd_synth_generate(args) -> None:
    spec = WorldSpec.load(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    world = generate_world(spec)
    save_world(world, args.out)
    spec.save(args.out / "world_spec.json")
    print(json.dumps({
        "world": str(args.out),
        "datasets": len(world.datasets),
        "records": len(world.records),
        "model_pool": world.model_pool,
    }, sort_keys=True))


if __name__ == "__main__":
    raise SystemExit(main())
