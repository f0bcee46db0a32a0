"""Experiment orchestration: leave-one-dataset-out cross-validation, the
metadata/response-option ablation grid, selection-distribution heatmaps,
and run manifests.

A LODO run builds one query grid, labels one corpus and featurizes it in
one batch. A dataset's examples are a contiguous range of corpus
positions; a fold splits the positions outside its held-out dataset's
range, trains on their examples and feature rows, and replays by routing
the corpus lines inside it. Every fold is self-contained: its corpus,
router file, and metrics land in their own directory, so reports can be
rebuilt from persisted artifacts and a failed fold never aborts the
remaining ones.
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
from .router import (FeaturizerConfig, Features, RouterModel, TrainConfig, featurize_batch,
                     route_rows, train_router)
from .routerdata import (
    ALL_FLAG_COMBOS,
    RouterExample,
    SerializationFlags,
    build_router_dataset,
    save_corpus,
    split_80_10_10,
)

logger = logging.getLogger(__name__)


@dataclass
class FoldResult:
    heldout_dataset: str
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


def _fold_seed(base_seed: int, fold_index: int) -> int:
    return base_seed + fold_index


def run_lodo(
    world: World,
    flags: SerializationFlags = SerializationFlags(),
    train_config: TrainConfig = TrainConfig(),
    featurizer: FeaturizerConfig = FeaturizerConfig(),
    seed: int = 0,
    out_dir: str | Path | None = None,
    chance_kind: str = "uniform",
) -> LodoResult:
    """For each dataset D: take the corpus examples of every other dataset,
    split 80/10/10, train, and evaluate on D by recorded-outcome replay.
    Fold failures are recorded and the remaining folds continue; a bad
    record, a coverage gap or a dataset without records fails the run
    before any fold starts."""
    if len(world.datasets) < 2:
        raise InvalidInputError("leave-one-dataset-out needs at least two datasets")
    if len(world.model_pool) < 2:
        raise InvalidInputError("leave-one-dataset-out needs at least two models")

    grid = QueryGrid.build(world)
    corpus = build_router_dataset(grid, flags)
    unrecorded = [ds for ds in world.datasets if not len(grid.rows(ds))]
    if unrecorded:
        raise InvalidInputError(f"no recorded queries in datasets {unrecorded}")
    rows = np.flatnonzero(grid.covered.any(axis=1))  # corpus position k is grid row rows[k]
    features = featurize_batch([ex.serialized_input for ex in corpus], featurizer)
    out = Path(out_dir) if out_dir is not None else None
    folds: dict[str, FoldResult] = {}
    router_accuracies: dict[str, float] = {}

    for fold_index, heldout in enumerate(world.datasets):
        fold_dir = None
        if out is not None:
            fold_dir = out / f"fold_{heldout}"
            fold_dir.mkdir(parents=True, exist_ok=True)
        try:
            result = _run_fold(
                grid, rows, corpus, features, heldout, flags, train_config, featurizer,
                _fold_seed(seed, fold_index), fold_dir,
            )
            folds[heldout] = result
            if result.router_accuracy is not None:
                router_accuracies[heldout] = result.router_accuracy
        except TaskRouterError as exc:
            logger.warning("fold %s failed: %s", heldout, exc)
            folds[heldout] = FoldResult(heldout, "failed", error=str(exc))
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


def _run_fold(
    grid: QueryGrid,
    rows: np.ndarray,
    corpus: Sequence[RouterExample],
    features: Sequence[Features],
    heldout: str,
    flags: SerializationFlags,
    train_config: TrainConfig,
    featurizer: FeaturizerConfig,
    fold_seed: int,
    fold_dir: Path | None,
) -> FoldResult:
    span = grid.spans[heldout]
    lo, hi = np.searchsorted(rows, [span.start, span.stop]).tolist()
    positions = split_80_10_10([*range(lo), *range(hi, len(corpus))], seed=fold_seed)
    if any(lo <= i < hi for part in positions for i in part):
        raise IntegrityError(f"fold {heldout}: the training corpus holds held-out examples")
    train, validate, test = ([corpus[i] for i in part] for part in positions)

    model = train_router(
        train, validate,
        config=replace(train_config, seed=fold_seed),
        flags=flags,
        featurizer=featurizer,
        vocabulary=grid.models,
        features=[features[i] for i in positions[0]],
    )
    heldout_rows = rows[lo:hi]
    choices = model.route_batch([ex.serialized_input for ex in corpus[lo:hi]])
    accuracy = grid.variant_mean(heldout_rows, grid.outcome(heldout_rows, choices))

    result = FoldResult(
        heldout_dataset=heldout,
        status="ok",
        router_accuracy=accuracy,
        corpus_sizes={"train": len(train), "validate": len(validate), "test": len(test)},
    )
    if fold_dir is not None:
        save_corpus(train, fold_dir / "train.txt")
        save_corpus(validate, fold_dir / "validate.txt")
        save_corpus(test, fold_dir / "test.txt")
        model.save(fold_dir / "router.bin")
        write_json(fold_dir / "metrics.json", {
            "status": "ok",
            "heldout_dataset": heldout,
            "router_accuracy": accuracy,
            "corpus_sizes": result.corpus_sizes,
            "flags": flags.to_dict(),
            "seed": fold_seed,
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
    seed: int = 0,
    out_dir: str | Path | None = None,
    flag_grid: Sequence[SerializationFlags] = ALL_FLAG_COMBOS,
    include_in_distribution: bool = False,
) -> AblationResult:
    """Train and evaluate routers under every flag combination with the
    held-out protocol; optionally add the in-distribution protocol, where
    the router sees every dataset and is evaluated on held-out samples."""
    out = Path(out_dir) if out_dir is not None else None
    columns: dict[str, dict[str, float | None]] = {}
    for flags in flag_grid:
        sub_dir = out / flags.tag if out is not None else None
        lodo = run_lodo(
            world, flags=flags, train_config=train_config, featurizer=featurizer,
            seed=seed, out_dir=sub_dir,
        )
        columns[flags.tag] = {
            ds: fold.router_accuracy for ds, fold in lodo.folds.items()
        }

    ind = None
    if include_in_distribution:
        ind = run_in_distribution(
            world, flags=flag_grid[0], train_config=train_config,
            featurizer=featurizer, seed=seed,
        )

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


def run_in_distribution(
    world: World,
    flags: SerializationFlags = SerializationFlags(),
    train_config: TrainConfig = TrainConfig(),
    featurizer: FeaturizerConfig = FeaturizerConfig(),
    seed: int = 0,
) -> dict[str, float]:
    """Train one router on an 80/10/10 split of every dataset and replay
    it on the test split, grouped per dataset."""
    grid = QueryGrid.build(world)
    corpus = build_router_dataset(grid, flags)
    train, validate, test = split_80_10_10(range(len(corpus)), seed=seed)
    model = train_router(
        [corpus[i] for i in train], [corpus[i] for i in validate],
        config=replace(train_config, seed=seed), flags=flags,
        featurizer=featurizer, vocabulary=grid.models,
    )
    # the corpus holds one example per covered row, in row order
    rows = np.flatnonzero(grid.covered.any(axis=1))[test]
    hits = grid.outcome(rows, model.route_batch([corpus[i].serialized_input for i in test]))
    per_dataset = {ds: hits[(span.start <= rows) & (rows < span.stop)]
                   for ds, span in sorted(grid.spans.items())}
    return {ds: int(v.sum()) / len(v) for ds, v in per_dataset.items() if len(v)}


@dataclass
class SelectionDistribution:
    """model x dataset matrix of selection fractions; every dataset column
    sums to one."""

    model_ids: tuple[str, ...]
    dataset_ids: tuple[str, ...]
    fractions: np.ndarray  # (n_models, n_datasets)

    def __post_init__(self):
        sums = self.fractions.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise InvalidInputError(
                f"selection fractions must sum to 1 per dataset, got {sums}"
            )

    def write_csv(self, target: str | Path | IO[str]) -> None:
        with csv_writer(target) as writer:
            writer.writerow(["model_id", *self.dataset_ids])
            for i, model in enumerate(self.model_ids):
                writer.writerow([model, *(repr(float(x)) for x in self.fractions[i])])


def selection_heatmap(
    router: RouterModel,
    world: World,
    datasets: Sequence[str] | None = None,
) -> SelectionDistribution:
    """How often the router picks each model per dataset, over every
    (sample, valid variant) query; records play no part."""
    grid = QueryGrid.build(world, ())
    chosen = list(datasets) if datasets is not None else list(world.datasets)
    models = list(router.vocabulary)
    index = {m: i for i, m in enumerate(models)}
    counts = np.zeros((len(models), len(chosen)))
    for j, ds_id in enumerate(chosen):
        for choice in route_rows(router, grid, grid.spans[ds_id]):
            counts[index[choice], j] += 1
        if counts[:, j].sum() == 0:
            raise InvalidInputError(f"no queries for dataset {ds_id!r}")
    return SelectionDistribution(
        model_ids=tuple(models),
        dataset_ids=tuple(chosen),
        fractions=counts / counts.sum(axis=0, keepdims=True),
    )


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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "run_manifest.json"
    write_json(path, manifest)
    return path
