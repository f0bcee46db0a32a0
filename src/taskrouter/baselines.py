"""The five model-selection baselines and the comparison report.

Strategies, in report column order: chance (no model runs), average over
all models, majority voting over all models, the trained router, the
dataset-level oracle, and the per-query upper bound. Inference cost over N
models is O(1) for average and the router, O(N) for voting, oracle, and
the upper bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .core import QueryGrid, Sample, csv_writer, weighted_average, write_json
from .errors import InvalidInputError

STRATEGIES = ("chance", "average", "voting", "router", "oracle", "upper_bound")
COST_ROW = {
    "chance": "-",
    "average": "O(1)",
    "voting": "O(N)",
    "router": "O(1)",
    "oracle": "O(N)",
    "upper_bound": "O(N)",
}


def chance_uniform(samples: Iterable[Sample]) -> float:
    """Expected accuracy of a uniform random guess: mean of 1/K.

    Computed in exact rational arithmetic so fixed-K sets yield exactly
    1/K (e.g. 0.01 for 100 options) rather than an accumulation of float
    error."""
    counts = Counter(len(s.response_options) for s in samples)
    if not counts:
        raise InvalidInputError("no samples")
    total = sum(Fraction(n, k) for k, n in counts.items())
    return float(total / counts.total())


def chance_majority(samples: Iterable[Sample]) -> float:
    """Frequency of the most common gold option string; the chance rate an
    always-majority guesser achieves on an imbalanced set."""
    samples = list(samples)
    if not samples:
        raise InvalidInputError("no samples")
    counts = Counter(s.gold_option for s in samples)
    return counts.most_common(1)[0][1] / len(samples)


def average_baseline(grid: QueryGrid, dataset_id: str) -> float:
    """Unweighted mean of the model x dataset marginals: the expected
    accuracy of picking a pool model at random per query."""
    grid.require_records([dataset_id])
    marginals = grid.marginals(dataset_id).values()
    return sum(marginals) / len(marginals)


def voting_predict(per_model_predicted_indices: Sequence[int]) -> int:
    """Modal predicted index; ties break to the lowest index among the tied."""
    if not per_model_predicted_indices:
        raise InvalidInputError("no votes")
    counts = Counter(per_model_predicted_indices)
    best_count = max(counts.values())
    return min(i for i, c in counts.items() if c == best_count)


def oracle_accuracy(grid: QueryGrid, heldout_dataset: str) -> float:
    """Best single model for the whole dataset, chosen with held-out ground
    truth."""
    grid.require_records([heldout_dataset])
    return max(grid.marginals(heldout_dataset).values())


def upper_bound_accuracy(grid: QueryGrid, dataset_id: str) -> float:
    """Per-query any-model-correct rate, averaged across prompt variants;
    the ceiling for any selection strategy."""
    grid.require_coverage()
    grid.require_records([dataset_id])
    rows = grid.rows(dataset_id)
    return grid.variant_mean(rows, grid.correct[rows].any(axis=1))


def voting_accuracy(grid: QueryGrid, dataset_id: str) -> float:
    """Accuracy of the modal prediction (``voting_predict``: ties break to
    the lowest index), per (sample, variant), averaged across prompt
    variants."""
    grid.require_coverage()
    grid.require_records([dataset_id])
    rows = grid.rows(dataset_id)
    votes = grid.predicted[rows]
    # per cell: how many models of its row predicted the same index
    count = (votes[:, :, None] == votes[:, None, :]).sum(axis=2)
    modal = count == count.max(axis=1, keepdims=True)
    # the cell with the lowest modal index; it is correct iff the vote is
    pick = np.where(modal, votes, np.iinfo(votes.dtype).max).argmin(axis=1)
    return grid.variant_mean(rows, grid.correct[rows, pick])


@dataclass
class ComparisonReport:
    """Per-dataset accuracy (percent) for every selection strategy, with
    plain and size-weighted averages and the cost row."""

    dataset_ids: tuple[str, ...]
    cells: dict[str, dict[str, float | None]]  # strategy -> dataset -> percent
    sizes: dict[str, int]
    chance_kind: str = "uniform"
    failed_folds: tuple[str, ...] = ()
    averages: dict[str, float | None] = field(init=False)
    weighted_averages: dict[str, float | None] = field(init=False)

    def __post_init__(self):
        for strategy in STRATEGIES:
            if strategy not in self.cells:
                raise InvalidInputError(f"missing strategy column {strategy!r}")
            for ds, value in self.cells[strategy].items():
                if value is not None and not 0.0 <= value <= 100.0:
                    raise InvalidInputError(
                        f"{strategy}/{ds}: accuracy {value} outside [0, 100]"
                    )
        self.averages = {}
        self.weighted_averages = {}
        for strategy in STRATEGIES:
            col = self.cells[strategy]
            values = {ds: col[ds] for ds in self.dataset_ids if col.get(ds) is not None}
            if len(values) == len(self.dataset_ids) and values:
                self.averages[strategy] = sum(values.values()) / len(values)
                self.weighted_averages[strategy] = weighted_average(
                    values, {ds: self.sizes[ds] for ds in values}
                )
            else:
                self.averages[strategy] = None
                self.weighted_averages[strategy] = None

    def cell(self, dataset_id: str, strategy: str) -> float | None:
        return self.cells[strategy].get(dataset_id)

    def write_csv(self, target: str | Path | IO[str]) -> None:
        """Table-2 shaped export: strategies as columns, datasets as rows,
        two summary rows, one cost row."""
        with csv_writer(target) as writer:
            writer.writerow(["dataset", *STRATEGIES])
            for ds in self.dataset_ids:
                writer.writerow([ds, *(_fmt_pct(self.cells[s].get(ds)) for s in STRATEGIES)])
            writer.writerow(["average", *(_fmt_pct(self.averages[s]) for s in STRATEGIES)])
            writer.writerow(
                ["average_weighted", *(_fmt_pct(self.weighted_averages[s]) for s in STRATEGIES)]
            )
            writer.writerow(["cost_over_n_models", *(COST_ROW[s] for s in STRATEGIES)])

    def to_dict(self) -> dict:
        return {
            "dataset_ids": list(self.dataset_ids),
            "chance_kind": self.chance_kind,
            "sizes": dict(self.sizes),
            "cells": {s: dict(col) for s, col in self.cells.items()},
            "averages": dict(self.averages),
            "weighted_averages": dict(self.weighted_averages),
            "cost_over_n_models": dict(COST_ROW),
            "failed_folds": list(self.failed_folds),
        }

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _fmt_pct(value: float | None) -> str:
    return "" if value is None else f"{value:.1f}"


def build_comparison_report(
    grid: QueryGrid,
    router_accuracies: Mapping[str, float] | None = None,
    chance_kind: str = "uniform",
    failed_folds: Sequence[str] = (),
) -> ComparisonReport:
    """Assemble the per-dataset strategy comparison.

    The router column holds ``router_accuracies`` (fractions per dataset,
    e.g. per-fold held-out replay results or ``router.evaluate_router``'s);
    a dataset without one has an empty cell.

    Every column is read from ``grid``, whose rows are the valid prompt
    variants only (the empty-question variants are removed for all
    models), so the six strategies share one (sample, variant) universe and
    the ordering guarantees among them hold exactly.
    """
    if chance_kind not in ("uniform", "majority"):
        raise InvalidInputError(f"unknown chance kind {chance_kind!r}")
    world = grid.world
    chance_fn = chance_uniform if chance_kind == "uniform" else chance_majority
    cells: dict[str, dict[str, float | None]] = {s: {} for s in STRATEGIES}
    grid.require_records()
    for ds_id, manifest in world.datasets.items():
        cells["chance"][ds_id] = 100.0 * chance_fn(manifest.samples)
        cells["average"][ds_id] = 100.0 * average_baseline(grid, ds_id)
        cells["voting"][ds_id] = 100.0 * voting_accuracy(grid, ds_id)
        r = (router_accuracies or {}).get(ds_id)
        cells["router"][ds_id] = None if r is None else 100.0 * r
        cells["oracle"][ds_id] = 100.0 * oracle_accuracy(grid, ds_id)
        cells["upper_bound"][ds_id] = 100.0 * upper_bound_accuracy(grid, ds_id)
    return ComparisonReport(
        dataset_ids=tuple(world.datasets),
        cells=cells,
        sizes=world.sizes(),
        chance_kind=chance_kind,
        failed_folds=tuple(failed_folds),
    )
