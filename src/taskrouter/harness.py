"""Experiment orchestration: leave-one-dataset-out cross-validation, the
metadata/response-option ablation grid, and run manifests.

A LODO run builds one query grid and one columnar corpus, and featurizes
its inputs in one batch. A dataset's examples are a contiguous range of
corpus positions; a fold splits the positions outside its held-out
dataset's range, trains and validates on their feature rows and label
codes, and replays by scoring the feature rows inside it, so no corpus
line is hashed twice. An ablation builds the grid and the corpus labels
once for all its flag combinations.
Every fold is self-contained: its corpus, router file, and metrics land in
their own directory, so reports can be rebuilt from persisted artifacts and
a failed fold never aborts the remaining ones.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .baselines import ComparisonReport, build_comparison_report
from .core import QueryGrid, World, csv_writer, write_json
from .errors import IntegrityError, InvalidInputError, TaskRouterError
from .router import FeatureRows, FeaturizerConfig, TrainConfig, featurize_batch, train_router
from .routerdata import (
    ALL_FLAG_COMBOS,
    Corpus,
    SerializationFlags,
    build_router_dataset,
    router_corpora,
    save_corpus,
    split_80_10_10,
)

logger = logging.getLogger(__name__)


@dataclass
class FoldResult:
    status: str  # "ok" | "failed"
    router_accuracy: float | None = None
    error: str | None = None
    corpus_sizes: dict = field(default_factory=dict)


@dataclass
class LodoResult:
    report: ComparisonReport
    folds: dict[str, FoldResult]

    @property
    def failed_folds(self) -> list[str]:
        return [ds for ds, f in self.folds.items() if f.status == "failed"]


def run_lodo(
    world: World,
    flags: SerializationFlags = SerializationFlags(),
    train_config: TrainConfig = TrainConfig(),
    featurizer: FeaturizerConfig = FeaturizerConfig(),
    out_dir: str | Path | None = None,
    chance_kind: str = "uniform",
) -> LodoResult:
    """For each dataset D: take the corpus examples of every other dataset,
    split 80/10/10, train, and evaluate on D by recorded-outcome replay.
    Fold i splits and trains with seed ``train_config.seed + i``.
    Fold failures are recorded and the remaining folds continue; a bad
    record, a coverage gap or a dataset without records fails the run
    before any fold starts."""
    _require_lodo_world(world)
    return _lodo(*_featurized_corpus(world, flags, featurizer), train_config, out_dir,
                 chance_kind)


def _lodo(corpus: Corpus, features: FeatureRows, train_config: TrainConfig,
          out_dir: str | Path | None, chance_kind: str = "uniform") -> LodoResult:
    """The folds and report of ``run_lodo`` on a corpus and its lines
    featurized in one batch."""
    grid = corpus.grid
    grid.require_records()
    out = Path(out_dir) if out_dir is not None else None
    folds: dict[str, FoldResult] = {}
    router_accuracies: dict[str, float] = {}

    for fold_index, heldout in enumerate(grid.world.datasets):
        fold_dir = out / f"fold_{heldout}" if out is not None else None
        try:
            fold_config = replace(train_config, seed=train_config.seed + fold_index)
            result = _run_fold(corpus, features, heldout, fold_config, fold_dir)
            folds[heldout] = result
            if result.router_accuracy is not None:
                router_accuracies[heldout] = result.router_accuracy
        except TaskRouterError as exc:
            logger.warning("fold %s failed: %s", heldout, exc)
            folds[heldout] = FoldResult("failed", error=str(exc))
            if fold_dir is not None:
                write_json(fold_dir / "metrics.json", {"status": "failed", "error": str(exc)})

    report = build_comparison_report(
        grid,
        router_accuracies=router_accuracies,
        chance_kind=chance_kind,
        failed_folds=[ds for ds, f in folds.items() if f.status == "failed"],
    )
    if out is not None:
        report.write_csv(out / "report.csv")
        report.write_json(out / "report.json")
    return LodoResult(report=report, folds=folds)


def _require_lodo_world(world: World) -> None:
    if len(world.datasets) < 2:
        raise InvalidInputError("leave-one-dataset-out needs at least two datasets")
    if len(world.model_pool) < 2:
        raise InvalidInputError("leave-one-dataset-out needs at least two models")


def _featurized_corpus(world: World, flags: SerializationFlags, featurizer: FeaturizerConfig):
    """(corpus, features): the corpus of the world's query grid and its
    inputs featurized once."""
    corpus = build_router_dataset(QueryGrid.build(world), flags)
    return corpus, featurize_batch(corpus.inputs, featurizer)


def _run_fold(
    corpus: Corpus,
    features: FeatureRows,
    heldout: str,
    train_config: TrainConfig,
    fold_dir: Path | None,
) -> FoldResult:
    grid, span = corpus.grid, corpus.grid.spans[heldout]
    lo, hi = np.searchsorted(corpus.rows, [span.start, span.stop]).tolist()
    train, validate, test = split_80_10_10([*range(lo), *range(hi, len(corpus))],
                                           train_config.seed)
    kept = np.concatenate((train, validate, test))
    if ((lo <= kept) & (kept < hi)).any():
        raise IntegrityError(f"fold {heldout}: the training corpus holds held-out examples")

    model = train_router(features, corpus.labels, train, validate, config=train_config,
                         flags=corpus.flags, vocabulary=grid.models)
    heldout_rows = corpus.rows[lo:hi]
    choices = model.route_features(features, range(lo, hi))
    accuracy = grid.variant_mean(heldout_rows, grid.outcome(heldout_rows, choices))

    result = FoldResult(
        status="ok",
        router_accuracy=accuracy,
        corpus_sizes={"train": len(train), "validate": len(validate), "test": len(test)},
    )
    if fold_dir is not None:
        save_corpus(corpus, train, fold_dir / "train.txt")
        save_corpus(corpus, validate, fold_dir / "validate.txt")
        save_corpus(corpus, test, fold_dir / "test.txt")
        model.save(fold_dir / "router.bin")
        write_json(fold_dir / "metrics.json", {
            "status": "ok",
            "heldout_dataset": heldout,
            "router_accuracy": accuracy,
            "corpus_sizes": result.corpus_sizes,
            "flags": corpus.flags.to_dict(),
            "seed": train_config.seed,
        })
    return result


@dataclass
class AblationResult:
    """Held-out router accuracy per dataset for each flag combination,
    plus the optional in-distribution column."""

    dataset_ids: tuple[str, ...]
    columns: dict[str, dict[str, float | None]]  # flag tag -> dataset -> fraction
    sizes: dict[str, int]
    in_distribution: dict[str, float] | None = None

    def average(self, tag: str) -> float | None:
        vals = [v for v in self.columns[tag].values() if v is not None]
        return sum(vals) / len(vals) if vals else None

    def write_csv(self, target: str | Path | IO[str]) -> None:
        with csv_writer(target) as writer:
            tags = list(self.columns)
            header = ["dataset", *tags]
            if self.in_distribution is not None:
                header.append("in_distribution")
            writer.writerow(header)
            for ds in self.dataset_ids:
                row = [ds] + [
                    _fmt(self.columns[t].get(ds)) for t in tags
                ]
                if self.in_distribution is not None:
                    row.append(_fmt(self.in_distribution.get(ds)))
                writer.writerow(row)
            avg_row = ["average"] + [_fmt(self.average(t)) for t in tags]
            if self.in_distribution is not None:
                vals = list(self.in_distribution.values())
                avg_row.append(_fmt(sum(vals) / len(vals) if vals else None))
            writer.writerow(avg_row)

    def to_dict(self) -> dict:
        return {
            "dataset_ids": list(self.dataset_ids),
            "columns": {t: dict(col) for t, col in self.columns.items()},
            "sizes": dict(self.sizes),
            "in_distribution": dict(self.in_distribution)
            if self.in_distribution is not None else None,
        }


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{100.0 * value:.1f}"


def run_ablation(
    world: World,
    train_config: TrainConfig = TrainConfig(),
    featurizer: FeaturizerConfig = FeaturizerConfig(),
    out_dir: str | Path | None = None,
    flag_grid: Sequence[SerializationFlags] = ALL_FLAG_COMBOS,
    include_in_distribution: bool = False,
) -> AblationResult:
    """Train and evaluate routers under every flag combination with the
    held-out protocol; optionally add the in-distribution protocol, where
    the router sees every dataset and is evaluated on held-out samples.
    The query grid and the corpus labels are built once for every
    combination, and the in-distribution router trains on the first
    combination's corpus and feature rows while they are at hand."""
    _require_lodo_world(world)
    out = Path(out_dir) if out_dir is not None else None
    grid = QueryGrid.build(world)
    columns: dict[str, dict[str, float | None]] = {}
    ind = None
    for k, corpus in enumerate(router_corpora(grid, flag_grid)):
        features = featurize_batch(corpus.inputs, featurizer)
        tag = corpus.flags.tag
        lodo = _lodo(corpus, features, train_config, out / tag if out is not None else None)
        columns[tag] = {
            ds: fold.router_accuracy for ds, fold in lodo.folds.items()
        }
        if include_in_distribution and k == 0:
            ind = _in_distribution(corpus, features, train_config)

    result = AblationResult(
        dataset_ids=tuple(world.datasets),
        columns=columns,
        sizes=world.sizes(),
        in_distribution=ind,
    )
    if out is not None:
        result.write_csv(out / "ablation.csv")
        write_json(out / "ablation.json", result.to_dict())
    return result


def _in_distribution(corpus: Corpus, features: FeatureRows,
                     train_config: TrainConfig) -> dict[str, float]:
    """Train one router on an 80/10/10 split of the corpus and replay it on
    the test split, grouped per dataset; the split and the training both
    take ``train_config.seed``."""
    grid = corpus.grid
    train, validate, test = split_80_10_10(range(len(corpus)), seed=train_config.seed)
    model = train_router(features, corpus.labels, train, validate, config=train_config,
                         flags=corpus.flags, vocabulary=grid.models)
    rows = corpus.rows[test]
    hits = grid.outcome(rows, model.route_features(features, test))
    accuracies = {}
    for ds, span in sorted(grid.spans.items()):
        held = hits[(span.start <= rows) & (rows < span.stop)]
        if len(held):
            accuracies[ds] = int(held.sum()) / len(held)
    return accuracies


def write_run_manifest(
    out_dir: str | Path,
    config: Mapping,
    seeds: Mapping[str, int],
    input_files: Sequence[str | Path] = (),
) -> Path:
    """Record seeds, a config hash, and input file digests for a run."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digests = {}
    for p in input_files:
        p, h = Path(p), hashlib.sha256()
        with p.open("rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
        digests[p.name] = h.hexdigest()
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seeds": dict(seeds),
        "input_digests": digests,
    }
    path = Path(out_dir) / "run_manifest.json"
    write_json(path, manifest)
    return path
