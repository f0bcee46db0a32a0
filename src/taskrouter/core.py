"""Canonical data model: datasets, samples, image metadata, execution
records, and accuracy aggregation.

Everything here is an immutable value after construction; the operations
are pure functions.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import CoverageError, IntegrityError, InvalidInputError

TASK_KINDS = ("recognition", "reasoning")
ID_FIELDS = ("sample_id", "dataset_id", "model_id", "prompt_variant_id")
RECORD_FIELDS = (*ID_FIELDS, "predicted_index", "correct")  # ExecutionRecord's, in order

_Row = TypeVar("_Row")


@dataclass(frozen=True)
class MetadataSummary:
    """Image resolution plus per-channel pixel mean/std, one decimal place."""

    dims: tuple[int, int, int]
    channel_means: tuple[float, ...]
    channel_stds: tuple[float, ...]

    def __post_init__(self):
        h, w, c = self.dims
        if min(h, w, c) < 1:
            raise InvalidInputError(f"dims must all be >= 1, got {self.dims}")
        if len(self.channel_means) != c or len(self.channel_stds) != c:
            raise InvalidInputError(
                f"expected {c} channel means/stds, got "
                f"{len(self.channel_means)}/{len(self.channel_stds)}"
            )
        if not (all(math.isfinite(m) for m in self.channel_means)
                and all(0 <= s < math.inf for s in self.channel_stds)):
            raise InvalidInputError("channel means must be finite, and stds finite and "
                                    "non-negative")

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "channel_means": list(self.channel_means),
            "channel_stds": list(self.channel_stds),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "MetadataSummary":
        return cls(
            dims=tuple(int(x) for x in d["dims"]),
            channel_means=tuple(float(x) for x in d["channel_means"]),
            channel_stds=tuple(float(x) for x in d["channel_stds"]),
        )


@dataclass(frozen=True)
class Sample:
    """One visual-task query: an image locator, named context text fields,
    the ordered response options, and the gold option index."""

    sample_id: str
    dataset_id: str
    image_ref: str
    context: Mapping[str, str]
    response_options: tuple[str, ...]
    gold_index: int

    def __post_init__(self):
        object.__setattr__(self, "response_options", tuple(self.response_options))
        object.__setattr__(self, "context", dict(self.context))
        if not self.response_options:
            raise InvalidInputError(f"sample {self.sample_id}: no response options")
        if not 0 <= self.gold_index < len(self.response_options):
            raise InvalidInputError(
                f"sample {self.sample_id}: gold_index {self.gold_index} outside "
                f"[0, {len(self.response_options)})"
            )

    @property
    def gold_option(self) -> str:
        return self.response_options[self.gold_index]

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "dataset_id": self.dataset_id,
            "image_ref": self.image_ref,
            "context": dict(self.context),
            "response_options": list(self.response_options),
            "gold_index": self.gold_index,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Sample":
        gold = d["gold_index"]
        if isinstance(gold, bool) or not isinstance(gold, int):
            raise InvalidInputError(f"gold_index must be an integer, got {gold!r}")
        return cls(
            sample_id=d["sample_id"],
            dataset_id=d["dataset_id"],
            image_ref=d["image_ref"],
            context=dict(d.get("context", {})),
            response_options=tuple(d["response_options"]),
            gold_index=gold,
        )


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset: its id, task kind, ordered samples, and the id of the
    prompt configuration it is evaluated with."""

    dataset_id: str
    task_kind: str
    samples: tuple[Sample, ...]
    prompt_config_ref: str

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if self.task_kind not in TASK_KINDS:
            raise InvalidInputError(
                f"task_kind must be one of {TASK_KINDS}, got {self.task_kind!r}"
            )
        seen = set()
        for s in self.samples:
            if s.dataset_id != self.dataset_id:
                raise IntegrityError(
                    f"sample {s.sample_id} belongs to {s.dataset_id}, "
                    f"not {self.dataset_id}"
                )
            if s.sample_id in seen:
                raise IntegrityError(
                    f"duplicate sample id {s.sample_id} in {self.dataset_id}"
                )
            seen.add(s.sample_id)

    @property
    def size(self) -> int:
        return len(self.samples)

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "task_kind": self.task_kind,
            "prompt_config_ref": self.prompt_config_ref,
            "size": self.size,
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "DatasetManifest":
        manifest = cls(
            dataset_id=d["dataset_id"],
            task_kind=d["task_kind"],
            samples=tuple(Sample.from_dict(s) for s in d["samples"]),
            prompt_config_ref=d["prompt_config_ref"],
        )
        if "size" in d and int(d["size"]) != manifest.size:
            raise IntegrityError(
                f"{manifest.dataset_id}: declared size {d['size']} != "
                f"{manifest.size} samples"
            )
        return manifest


@dataclass(frozen=True)
class ExecutionRecord:
    """Outcome of one (model, sample, prompt variant) evaluation."""

    sample_id: str
    dataset_id: str
    model_id: str
    prompt_variant_id: str
    predicted_index: int
    correct: bool

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "dataset_id": self.dataset_id,
            "model_id": self.model_id,
            "prompt_variant_id": self.prompt_variant_id,
            "predicted_index": self.predicted_index,
            "correct": self.correct,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExecutionRecord":
        return cls(*_record_fields(d))


_INT64 = np.iinfo(np.int64)


def _record_fields(d: Mapping) -> tuple:
    """A record row's ``RECORD_FIELDS``. A missing field raises KeyError; a
    field of the wrong type, InvalidInputError."""
    predicted, correct = d["predicted_index"], d["correct"]
    if isinstance(predicted, bool) or not isinstance(predicted, int):
        raise InvalidInputError(f"predicted_index must be an integer, got {predicted!r}")
    if not isinstance(correct, bool):
        raise InvalidInputError(f"correct must be true or false, got {correct!r}")
    ids = tuple(d[name] for name in ID_FIELDS)
    for name, value in zip(ID_FIELDS, ids):
        if not isinstance(value, str):
            raise InvalidInputError(f"{name} must be a string, got {value!r}")
    if not _INT64.min <= predicted <= _INT64.max:
        raise InvalidInputError(f"predicted_index {predicted} outside the int64 range")
    return (*ids, predicted, correct)


@dataclass(frozen=True, eq=False)
class IdColumn:
    """A dictionary-encoded string column: row ``i`` holds
    ``values[codes[i]]``, so each distinct id is stored once."""

    codes: np.ndarray  # (n,) int32
    values: tuple[str, ...]

    def __getitem__(self, i: int) -> str:
        return self.values[self.codes[i]]

    def tolist(self) -> list[str]:
        return list(map(self.values.__getitem__, self.codes.tolist()))


class _Encoder:
    """Builds one IdColumn block by block, keeping each distinct id once."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.parts: list[np.ndarray] = []

    def add(self, ids: Sequence[str]) -> None:
        index = self.index
        for value in dict.fromkeys(ids):
            index.setdefault(value, len(index))
        self.parts.append(np.fromiter(map(index.__getitem__, ids), np.int32, len(ids)))

    def column(self) -> IdColumn:
        return IdColumn(_concat(self.parts, np.int32), tuple(self.index))


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype)


_READ_BLOCK_BYTES = 1 << 20  # records.jsonl is read this many bytes of lines at a time
_WRITE_BLOCK_ROWS = 1 << 16
_scan_json = json.JSONDecoder().scan_once
_row_fields = itemgetter(*RECORD_FIELDS)
# json.dumps(rec.to_dict(), sort_keys=True), with each id already JSON-quoted
_RECORD_LINE = ('{"correct": %s, "dataset_id": %s, "model_id": %s, "predicted_index": %d, '
                '"prompt_variant_id": %s, "sample_id": %s}\n')


class Records:
    """Execution records as parallel columns, after the Apache Arrow
    columnar layout: a dictionary-encoded ``IdColumn`` per id field,
    ``predicted`` (int64) and ``correct`` (bool). ``records.jsonl`` loads
    straight into these columns and the query grid places them with numpy.
    Iterating yields ``ExecutionRecord``s for callers that want single
    records; two tables are equal when their rows are."""

    def __init__(self, sample_id: IdColumn, dataset_id: IdColumn, model_id: IdColumn,
                 prompt_variant_id: IdColumn, predicted: np.ndarray, correct: np.ndarray):
        self.sample_id, self.dataset_id = sample_id, dataset_id
        self.model_id, self.prompt_variant_id = model_id, prompt_variant_id
        self.predicted = np.asarray(predicted, dtype=np.int64)
        self.correct = np.asarray(correct, dtype=bool)
        if any(len(col.codes) != len(self.predicted) for col in self.ids()) \
                or len(self.correct) != len(self.predicted):
            raise InvalidInputError("record columns differ in length")

    @classmethod
    def of(cls, records: "Records | Iterable[ExecutionRecord]") -> "Records":
        """``records`` itself when it is a table, else a table of its rows."""
        if isinstance(records, Records):
            return records
        return cls._from_blocks([tuple(zip(*map(attrgetter(*RECORD_FIELDS), records)))])

    @classmethod
    def load(cls, path: str | Path) -> "Records":
        """Read a ``records.jsonl`` in blocks of lines, each line through the
        C JSON scanner, straight into columns; no row outlives its block. A
        block with any irregular line is read again line by line, so a bad
        line fails as ``read_numbered_jsonl`` and ``ExecutionRecord.from_dict``
        fail on it, naming ``path:line`` where they do."""
        with open(path, "rb") as fh:
            return cls._from_blocks(_read_blocks(path, fh))

    @classmethod
    def _from_blocks(cls, blocks: Iterable[tuple]) -> "Records":
        """A table of blocks, each a sequence per ``RECORD_FIELDS`` (or
        empty)."""
        encoders = [_Encoder() for _ in ID_FIELDS]
        predicted, correct = [], []
        for block in blocks:
            if block:
                *ids, preds, flags = block
                for encoder, column in zip(encoders, ids):
                    encoder.add(column)
                predicted.append(np.array(preds, dtype=np.int64))
                correct.append(np.array(flags, dtype=bool))
        return cls(*(encoder.column() for encoder in encoders),
                   _concat(predicted, np.int64), _concat(correct, bool))

    def save(self, path: str | Path) -> None:
        """Write one key-sorted JSON object per record: the bytes
        ``write_jsonl`` gives for ``rec.to_dict()``, each line from one
        template and each distinct id JSON-quoted once."""
        quoted = [list(map(json.dumps, col.values)) for col in self.ids()]
        with atomic_open(path) as fh:
            for lo in range(0, len(self), _WRITE_BLOCK_ROWS):
                rows = slice(lo, lo + _WRITE_BLOCK_ROWS)
                sample, dataset, model, variant = (
                    map(q.__getitem__, col.codes[rows].tolist())
                    for q, col in zip(quoted, self.ids()))
                flags = map(("false", "true").__getitem__, self.correct[rows].tolist())
                fh.writelines(map(_RECORD_LINE.__mod__, zip(
                    flags, dataset, model, self.predicted[rows].tolist(), variant, sample)))

    def ids(self) -> tuple[IdColumn, IdColumn, IdColumn, IdColumn]:
        """The id columns, in ``ID_FIELDS`` order."""
        return self.sample_id, self.dataset_id, self.model_id, self.prompt_variant_id

    def __len__(self) -> int:
        return len(self.predicted)

    def __iter__(self) -> Iterator[ExecutionRecord]:
        return map(ExecutionRecord, *(col.tolist() for col in self.ids()),
                   self.predicted.tolist(), self.correct.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Records):
            return NotImplemented
        return (np.array_equal(self.predicted, other.predicted)
                and np.array_equal(self.correct, other.correct)
                and all(a.tolist() == b.tolist() for a, b in zip(self.ids(), other.ids())))

    def __repr__(self) -> str:
        return f"Records(<{len(self)} rows>)"


def _read_blocks(path: str | Path, fh: IO[bytes]) -> Iterator[tuple]:
    """The columns of each block of lines of an open ``records.jsonl``."""
    lineno = 1
    while lines := fh.readlines(_READ_BLOCK_BYTES):
        yield _scan_block(lines) or _check_block(path, lineno, lines)
        lineno += len(lines)


def _scan_block(lines: list[bytes]) -> tuple | None:
    """The columns of a block whose every line is blank or exactly one
    record object as ``save`` writes it (well-typed, no surrounding
    space); None for any other block."""
    rows = []
    try:
        for text in b"".join(lines).decode("utf-8").split("\n"):
            if text:
                row, end = _scan_json(text, 0)  # each row dict is dropped at once
                if end != len(text):
                    return None
                rows.append(_row_fields(row))
    except (ValueError, KeyError, TypeError, StopIteration, RecursionError):
        return None
    if not rows:
        return ()
    *ids, preds, flags = columns = tuple(zip(*rows))
    if (set(map(type, flags)) != {bool} or set(map(type, preds)) != {int}
            or set(map(type, chain(*ids))) != {str}
            or not _INT64.min <= min(preds) <= max(preds) <= _INT64.max):
        return None
    return columns


def _check_block(path: str | Path, first_lineno: int, lines: list[bytes]) -> tuple:
    """The columns of a block, read line by line; the first bad line raises."""
    rows = []
    for lineno, row in _numbered_objects(path, enumerate(lines, first_lineno)):
        try:
            rows.append(_record_fields(row))
        except KeyError as exc:
            raise IntegrityError(f"{path}:{lineno}: missing field {exc}") from exc
    return tuple(zip(*rows))


class AccuracyTable:
    """Accuracy per (model, dataset, prompt variant) cell plus the
    (model, dataset) marginal, an unweighted mean over the prompt variants
    present for that pair, kept as (correct, total) counts.
    """

    def __init__(self, counts: Mapping[tuple[str, str, str], tuple[int, int]] | None = None):
        self._counts: dict[tuple[str, str, str], tuple[int, int]] = dict(counts or {})
        # (model, dataset) -> [(variant, correct, total)], sorted: marginals ignore cell order
        self._by_pair: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
        for (m, d, v), (c, t) in sorted(self._counts.items()):
            self._by_pair.setdefault((m, d), []).append((v, c, t))

    @property
    def counts(self) -> dict[tuple[str, str, str], tuple[int, int]]:
        return dict(self._counts)

    def cell(self, model_id: str, dataset_id: str, variant_id: str) -> float:
        correct, total = self._counts[(model_id, dataset_id, variant_id)]
        return correct / total

    def marginal(self, model_id: str, dataset_id: str) -> float:
        cells = self._by_pair.get((model_id, dataset_id))
        if not cells:
            raise KeyError((model_id, dataset_id))
        return sum(correct / total for _, correct, total in cells) / len(cells)

    def models(self) -> list[str]:
        return sorted({m for m, _, _ in self._counts})

    def datasets(self) -> list[str]:
        return sorted({d for _, d, _ in self._counts})

    def variants(self, model_id: str, dataset_id: str) -> list[str]:
        return [v for v, _, _ in self._by_pair.get((model_id, dataset_id), ())]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AccuracyTable) and self._counts == other._counts

    def __len__(self) -> int:
        return len(self._counts)

    def write_csv(self, target: str | Path | IO[str]) -> None:
        """Export cells as CSV: model_id,dataset_id,prompt_variant_id,accuracy."""
        with csv_writer(target) as writer:
            writer.writerow(["model_id", "dataset_id", "prompt_variant_id", "accuracy"])
            for (m, d, v) in sorted(self._counts):
                writer.writerow([m, d, v, repr(self.cell(m, d, v))])


@contextmanager
def csv_writer(target: str | Path | IO[str]):
    """A csv.writer over ``target``: a path, replaced atomically once the
    block completes, or an open text handle, left open."""
    if isinstance(target, (str, Path)):
        with atomic_open(target, newline="") as fh:
            yield csv.writer(fh)
    else:
        yield csv.writer(target)


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", newline: str | None = None):
    """A file handle on a temporary file in ``path``'s directory, which
    replaces ``path`` once the block completes. A failed write removes the
    temporary file and leaves any earlier file at ``path`` as it was.
    This is the package's one way of writing a file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def summarize_image(pixels) -> MetadataSummary:
    """Summarize a decoded H x W x C pixel array into resolution plus
    per-channel population mean/std, rounded to one decimal place.

    Decoding from picture file formats is out of scope; callers hand in
    integer arrays.
    """
    arr = np.asarray(pixels)
    if arr.size == 0:
        raise InvalidInputError("empty pixel array")
    if arr.ndim != 3:
        raise InvalidInputError(f"expected an H x W x C array, got shape {arr.shape}")
    return summarize_images(arr[None])[0]


def summarize_images(stack) -> list[MetadataSummary]:
    """``summarize_image`` of each H x W x C array of an N x H x W x C
    stack, in one numpy pass. Each sample's values are summed in the same
    order as on its own, so every summary equals the one-sample call's bit
    for bit."""
    arr = np.asarray(stack)
    if arr.size == 0:
        raise InvalidInputError("empty pixel array")
    if arr.ndim != 4:
        raise InvalidInputError(f"expected an N x H x W x C stack, got shape {arr.shape}")
    n, h, w, c = arr.shape
    flat = arr.reshape(n, h * w, c).astype(np.float64)
    means = np.round(flat.mean(axis=1), 1).tolist()
    stds = np.round(flat.std(axis=1), 1).tolist()  # population std (ddof=0)
    return [MetadataSummary(dims=(h, w, c), channel_means=tuple(m), channel_stds=tuple(sd))
            for m, sd in zip(means, stds)]


def _check_outcome(recs: Records, i: int, sample: Sample | None) -> None:
    """IntegrityError for record ``i``'s dangling sample reference,
    out-of-range prediction or correct flag inconsistent with the gold
    index."""
    sample_id, predicted = recs.sample_id[i], int(recs.predicted[i])
    if sample is None:
        raise IntegrityError(
            f"record references unknown sample {recs.dataset_id[i]}/{sample_id}"
        )
    if not 0 <= predicted < len(sample.response_options):
        raise IntegrityError(
            f"record for {sample_id}: predicted_index {predicted} outside option range"
        )
    if bool(recs.correct[i]) != (predicted == sample.gold_index):
        raise IntegrityError(
            f"record for {sample_id}: correct flag inconsistent with predicted_index"
        )


def _bad_outcomes(recs: Records, rows: np.ndarray, samples: Sequence[Sample | None],
                  of_sample: np.ndarray) -> np.ndarray:
    """Which ``rows`` fail ``_check_outcome`` against their samples, row
    ``k``'s being ``samples[of_sample[k]]``."""
    n_options = np.array([len(s.response_options) if s else 0 for s in samples],
                         dtype=np.int64)[of_sample]
    gold = np.array([s.gold_index if s else -1 for s in samples], dtype=np.int64)[of_sample]
    predicted = recs.predicted[rows]
    return (predicted < 0) | (predicted >= n_options) | (recs.correct[rows] != (predicted == gold))


def _groups(rows: np.ndarray, *columns: IdColumn,
            codes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Group ``rows`` by their ids in ``columns`` (within the groups that
    ``codes`` already gives them). Returns each row's group code and, for
    each code, the position in ``rows`` of the group's first row."""
    codes = np.zeros(len(rows), np.int64) if codes is None else codes
    for col in columns:
        _, first, codes = np.unique(codes * len(col.values) + col.codes[rows],
                                    return_index=True, return_inverse=True)
    return codes, first


def _first(mask: np.ndarray) -> int | None:
    """The position of the first true entry of ``mask``, if any."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def _accuracy_counts(recs: Records, rows: np.ndarray) -> AccuracyTable:
    """The AccuracyTable of ``rows``, counted per (model, dataset, variant)."""
    cell, first = _groups(rows, recs.model_id, recs.dataset_id, recs.prompt_variant_id)
    totals = np.bincount(cell, minlength=len(first))
    rights = np.bincount(cell[recs.correct[rows]], minlength=len(first))
    return AccuracyTable({
        (recs.model_id[i], recs.dataset_id[i], recs.prompt_variant_id[i]): (r, t)
        for i, r, t in zip(rows[first].tolist(), rights.tolist(), totals.tolist())
    })


def aggregate_accuracy(
    records: Records | Iterable[ExecutionRecord],
    samples: Mapping[tuple[str, str], Sample] | None = None,
) -> AccuracyTable:
    """Aggregate correctness flags into an AccuracyTable.

    When ``samples`` (keyed by (dataset_id, sample_id)) is supplied, every
    record is checked against it: dangling references, out-of-range
    predictions, and inconsistent correct flags raise IntegrityError, for
    the first faulty record.
    """
    recs = Records.of(records)
    if not len(recs):
        raise InvalidInputError("no records to aggregate")
    everything = np.arange(len(recs))
    if samples is not None:
        of_sample, first = _groups(everything, recs.dataset_id, recs.sample_id)
        found = [samples.get((recs.dataset_id[i], recs.sample_id[i])) for i in first.tolist()]
        i = _first(_bad_outcomes(recs, everything, found, of_sample))
        if i is not None:
            _check_outcome(recs, i, found[of_sample[i]])
    return _accuracy_counts(recs, everything)


def weighted_average(
    per_dataset_values: Mapping[str, float], sizes: Mapping[str, int]
) -> float:
    """Size-weighted mean of per-dataset values."""
    if set(per_dataset_values) != set(sizes):
        raise InvalidInputError(
            f"key mismatch: values {sorted(per_dataset_values)} vs "
            f"sizes {sorted(sizes)}"
        )
    if not per_dataset_values:
        raise InvalidInputError("no values to average")
    if any(s <= 0 for s in sizes.values()):
        raise InvalidInputError("all sizes must be positive")
    total = sum(sizes.values())
    return sum(per_dataset_values[k] * sizes[k] for k in per_dataset_values) / total


def group_records(
    records: Iterable[ExecutionRecord],
) -> dict[tuple[str, str, str], dict[str, ExecutionRecord]]:
    """Group records by (dataset_id, sample_id, prompt_variant_id), mapping
    each group to {model_id: record}. Duplicate (model, sample, variant)
    outcomes raise IntegrityError."""
    groups: dict[tuple[str, str, str], dict[str, ExecutionRecord]] = {}
    for rec in records:
        key = (rec.dataset_id, rec.sample_id, rec.prompt_variant_id)
        per_model = groups.setdefault(key, {})
        if rec.model_id in per_model:
            raise IntegrityError(
                f"duplicate record for model {rec.model_id} on "
                f"{rec.dataset_id}/{rec.sample_id}/{rec.prompt_variant_id}"
            )
        per_model[rec.model_id] = rec
    return groups


@dataclass
class World:
    """Everything the pipeline needs about one benchmark universe:
    manifests, prompt configs, per-sample image metadata, execution
    records, and the registered model pool.

    ``pixels`` holds raw arrays for freshly generated synthetic worlds;
    it is never persisted (records store no pixel data).
    """

    datasets: dict[str, DatasetManifest]
    prompt_configs: dict[str, "object"]  # DatasetPromptConfig; untyped to avoid a cycle
    metadata: dict[str, MetadataSummary]
    records: Records  # any iterable of ExecutionRecord is converted
    model_pool: list[str]
    seed: int | None = None
    pixels: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.records = Records.of(self.records)

    def sample_index(self) -> dict[tuple[str, str], Sample]:
        return {
            (ds_id, s.sample_id): s
            for ds_id, manifest in self.datasets.items()
            for s in manifest.samples
        }

    def sizes(self) -> dict[str, int]:
        return {ds_id: m.size for ds_id, m in self.datasets.items()}


@dataclass(frozen=True)
class QueryGrid:
    """The (query, model) outcome grid that labeling, the baselines, router
    replay and the selection heatmap read. Entry points build it once per
    run; every function below them takes the built grid. Rows are every
    (dataset, sample, valid variant) query, in ``world.datasets``, manifest
    and ``prompt_variants`` order, so nothing read from the grid depends on
    record order. Columns are the sorted model pool; ``covered`` marks
    cells with a record.
    """

    world: World
    models: tuple[str, ...]
    queries: list[tuple[str, Sample, object]]  # (dataset_id, sample, PromptVariant)
    spans: dict[str, range]  # dataset_id -> its rows
    variant_index: np.ndarray  # (n_rows,) position of the row's variant in its dataset
    correct: np.ndarray  # (n_rows, n_models) bool
    predicted: np.ndarray  # (n_rows, n_models) int
    covered: np.ndarray  # (n_rows, n_models) bool
    table: AccuracyTable  # of the grid's records

    @classmethod
    def build(
        cls, world: World, records: Records | Iterable[ExecutionRecord] | None = None
    ) -> "QueryGrid":
        """Grid over ``records`` (default: the world's) on valid variants.
        Records are checked as ``aggregate_accuracy`` and ``group_records``
        check them, and for models outside the pool (IntegrityError). Of
        several faults, the one raised is the first by check (prompt config,
        undefined prompt variant, duplicate, model/outcome, unknown sample),
        then by row, then by record order."""
        from .prompts import prompt_variants, valid_variant_ids

        recs = Records.of(world.records if records is None else records)
        i = _first(np.isin(recs.dataset_id.codes, [
            c for c, ds in enumerate(recs.dataset_id.values) if ds not in world.prompt_configs]))
        if i is not None:
            raise IntegrityError(
                f"record references dataset {recs.dataset_id[i]!r} with no prompt config"
            )
        models = tuple(sorted(world.model_pool))
        queries, spans, variant_index = [], {}, []
        sample_rows = {}  # (dataset_id, sample_id) -> (the sample's first row, sample)
        positions = {}  # (dataset_id, valid variant_id) -> position among the valid variants
        for ds_id, manifest in world.datasets.items():
            config = world.prompt_configs[ds_id]
            valid = valid_variant_ids(config)
            variants = [v for v in prompt_variants(config) if v.variant_id in valid]
            positions.update(((ds_id, v.variant_id), k) for k, v in enumerate(variants))
            start = len(queries)
            for sample in manifest.samples:
                sample_rows[(ds_id, sample.sample_id)] = (len(queries), sample)
                queries.extend([(ds_id, sample, variant) for variant in variants])
            variant_index.append(np.tile(np.arange(len(variants)), manifest.size))
            spans[ds_id] = range(start, len(queries))

        # a record on a variant its dataset does not define is a fault; one
        # on a variant with an empty question form is dropped
        everything = np.arange(len(recs))
        pair, pair_first = _groups(everything, recs.dataset_id, recs.prompt_variant_id)
        pairs = [(recs.dataset_id[i], recs.prompt_variant_id[i]) for i in pair_first.tolist()]
        defined = {ds: {v.variant_id for v in prompt_variants(world.prompt_configs[ds])}
                   for ds in recs.dataset_id.values}
        i = _first(np.array([v not in defined[ds] for ds, v in pairs], dtype=bool)[pair])
        if i is not None:
            raise IntegrityError(f"record references prompt variant {recs.prompt_variant_id[i]!r} "
                                 f"that dataset {recs.dataset_id[i]!r} does not define")
        valid_ids = {ds: valid_variant_ids(world.prompt_configs[ds])
                     for ds in recs.dataset_id.values}
        kept = np.flatnonzero(np.array([v in valid_ids[ds] for ds, v in pairs],
                                       dtype=bool)[pair])
        position = np.array([positions.get(p, -1) for p in pairs], dtype=np.int64)[pair[kept]]

        of_sample, sample_first = _groups(kept, recs.dataset_id, recs.sample_id)
        _, cell_first = _groups(kept, recs.prompt_variant_id, recs.model_id, codes=of_sample)
        repeated = np.ones(len(kept), dtype=bool)
        repeated[cell_first] = False
        i = _first(repeated)
        if i is not None:
            i = kept[i]
            raise IntegrityError(
                f"duplicate record for model {recs.model_id[i]} on {recs.dataset_id[i]}/"
                f"{recs.sample_id[i]}/{recs.prompt_variant_id[i]}"
            )

        found = [sample_rows.get((recs.dataset_id[i], recs.sample_id[i]), (-1, None))
                 for i in kept[sample_first].tolist()]
        samples = [sample for _, sample in found]
        row = np.array([r for r, _ in found], dtype=np.int64)[of_sample]
        column = {m: j for j, m in enumerate(models)}
        col = np.array([column.get(m, -1) for m in recs.model_id.values],
                       dtype=np.int64)[recs.model_id.codes[kept]]
        known = row >= 0
        row += position
        bad = np.flatnonzero(known & ((col < 0) | _bad_outcomes(recs, kept, samples, of_sample)))
        if len(bad):
            j = bad[np.lexsort((bad, row[bad]))[0]]  # grid order, then record order
            if col[j] < 0:
                raise IntegrityError(f"record of model {recs.model_id[kept[j]]!r} outside the "
                                     f"pool {list(models)}")
            _check_outcome(recs, kept[j], samples[of_sample[j]])
        i = _first(~known)
        if i is not None:
            _check_outcome(recs, kept[i], None)

        shape = (len(queries), len(models))
        grid = cls(
            world=world, models=models, queries=queries, spans=spans,
            variant_index=_concat(variant_index, np.int64),
            correct=np.zeros(shape, dtype=bool),
            predicted=np.full(shape, -1, dtype=np.int64), covered=np.zeros(shape, dtype=bool),
            table=_accuracy_counts(recs, kept),
        )
        cells = row * len(models) + col
        grid.covered.flat[cells] = True
        grid.correct.flat[cells] = recs.correct[kept]
        grid.predicted.flat[cells] = recs.predicted[kept]
        return grid

    def rows(self, dataset_id: str) -> np.ndarray:
        """The dataset's rows that have at least one record."""
        span = self.spans.get(dataset_id, range(0))
        return span.start + np.flatnonzero(self.covered[span.start:span.stop].any(axis=1))

    def require_coverage(self) -> None:
        """CoverageError listing (dataset, sample, variant, missing models)
        for every row with some records but not one of each pool model."""
        gaps = []
        for i in np.flatnonzero(self.covered.any(axis=1) & ~self.covered.all(axis=1)):
            ds_id, sample, variant = self.queries[i]
            missing = tuple(m for m, ok in zip(self.models, self.covered[i]) if not ok)
            gaps.append((ds_id, sample.sample_id, variant.variant_id, missing))
        if gaps:
            shown = ", ".join(
                f"{ds}/{sid}/{vid} missing {list(miss)}" for ds, sid, vid, miss in gaps[:5]
            )
            raise CoverageError(
                f"{len(gaps)} (sample, variant) groups lack full model coverage: "
                f"{shown}{'...' if len(gaps) > 5 else ''}",
                gaps=gaps,
            )

    def outcome(self, rows: Iterable[int], choices: Iterable[str]) -> np.ndarray:
        """Recorded correctness of the chosen model on each row
        (CoverageError when there is none)."""
        column = {m: j for j, m in enumerate(self.models)}
        hits = []
        for i, model in zip(rows, choices):
            j = column.get(model)
            if j is None or not self.covered[i, j]:
                ds_id, sample, variant = self.queries[i]
                raise CoverageError(f"no recorded outcome for routed model {model!r} on "
                                    f"{ds_id}/{sample.sample_id}/{variant.variant_id}")
            hits.append(self.correct[i, j])
        return np.array(hits, dtype=bool)

    def variant_mean(self, rows: np.ndarray, hits: Sequence[bool]) -> float:
        """Hit rate per prompt variant over ``rows`` (one dataset's), averaged
        over the variants in canonical order; ``hits`` is aligned with ``rows``."""
        if not len(rows):
            raise InvalidInputError("no recorded queries to average")
        codes = self.variant_index[rows]
        rights = np.bincount(codes, weights=np.asarray(hits, dtype=float))
        totals = np.bincount(codes)
        rates = [r / t for r, t in zip(rights.tolist(), totals.tolist()) if t]
        return sum(rates) / len(rates)


# ---------------------------------------------------------------------------
# Persistence: line-delimited JSON for records and manifests, JSON for the
# rest. Field names match the type definitions. Every file is written
# through ``atomic_open``.

def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    """Write one key-sorted JSON object per line."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    """The JSON object in ``path``; anything else raises InvalidInputError
    naming ``path``."""
    try:
        obj = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: not a JSON object")
    return obj


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of ``path`` with its number (from 1), decoded as UTF-8 and
    without its line end. A line that is not UTF-8 raises InvalidInputError
    naming ``path:line``."""
    with open(path, "rb") as fh:
        yield from _decoded(path, enumerate(fh, 1))


def _decoded(path: str | Path, lines: Iterable[tuple[int, bytes]]) -> Iterator[tuple[int, str]]:
    for lineno, raw in lines:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        yield lineno, line.rstrip("\r\n")


def read_numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for each non-blank line of ``path``. A line
    that is not a JSON object raises InvalidInputError naming ``path:line``."""
    with open(path, "rb") as fh:
        yield from _numbered_objects(path, enumerate(fh, 1))


def _numbered_objects(path: str | Path,
                      lines: Iterable[tuple[int, bytes]]) -> Iterator[tuple[int, dict]]:
    for lineno, line in _decoded(path, lines):
        if line.strip():
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise InvalidInputError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise InvalidInputError(f"{path}:{lineno}: not a JSON object")
            yield lineno, row


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """The JSON object on each non-blank line of ``path`` (see
    ``read_numbered_jsonl``)."""
    return (row for _, row in read_numbered_jsonl(path))


def _read_keyed(path: str | Path, id_field: str, from_dict: Callable[[dict], _Row],
                check: Callable[[_Row], str | None] | None = None) -> dict[str, _Row]:
    """``from_dict`` of each JSON object in ``path``, keyed by its
    ``id_field``. A row that lacks a field, repeats an earlier row's id, or
    fails ``check`` (which returns a fault or None) raises IntegrityError
    naming ``path:line``."""
    rows: dict[str, _Row] = {}
    for lineno, row in read_numbered_jsonl(path):
        try:
            key, value = row[id_field], from_dict(row)
        except KeyError as exc:
            raise IntegrityError(f"{path}:{lineno}: missing field {exc}") from exc
        if key in rows:
            raise IntegrityError(f"{path}:{lineno}: repeats {id_field} {key!r}")
        if check is not None and (fault := check(value)) is not None:
            raise IntegrityError(f"{path}:{lineno}: {fault}")
        rows[key] = value
    return rows


def save_records(records: Records | Iterable[ExecutionRecord], path: str | Path) -> None:
    Records.of(records).save(path)


def save_manifests(manifests: Iterable[DatasetManifest], path: str | Path) -> None:
    write_jsonl(path, (m.to_dict() for m in manifests))


def load_manifests(path: str | Path) -> list[DatasetManifest]:
    """The manifests in ``path``. A sample id used by two datasets raises
    IntegrityError naming ``path:line``: world metadata is keyed by sample
    id alone, so the two samples would share one metadata row."""
    owner: dict[str, str] = {}  # sample id -> the dataset that used it first

    def claim(manifest: DatasetManifest) -> str | None:
        for sample in manifest.samples:
            first = owner.setdefault(sample.sample_id, manifest.dataset_id)
            if first != manifest.dataset_id:
                return (f"sample_id {sample.sample_id!r} of dataset {manifest.dataset_id!r} "
                        f"repeats one of dataset {first!r}")
        return None

    return list(_read_keyed(path, "dataset_id", DatasetManifest.from_dict, claim).values())


def save_metadata(metadata: Mapping[str, MetadataSummary], path: str | Path) -> None:
    write_jsonl(path, ({"sample_id": sample_id, **summary.to_dict()}
                       for sample_id, summary in metadata.items()))


def load_metadata(path: str | Path) -> dict[str, MetadataSummary]:
    return _read_keyed(path, "sample_id", MetadataSummary.from_dict)


WORLD_FILES = ("datasets.jsonl", "prompt_configs.json", "metadata.jsonl",
               "records.jsonl", "world.json")


def save_world(world: World, out_dir: str | Path) -> Path:
    """Persist a world directory. Pixel arrays are intentionally dropped."""
    from .prompts import DatasetPromptConfig  # local import to avoid a cycle

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_manifests(world.datasets.values(), out / "datasets.jsonl")
    configs = {
        ds: cfg.to_dict() if isinstance(cfg, DatasetPromptConfig) else cfg
        for ds, cfg in world.prompt_configs.items()
    }
    write_json(out / "prompt_configs.json", configs)
    save_metadata(world.metadata, out / "metadata.jsonl")
    save_records(world.records, out / "records.jsonl")
    write_json(out / "world.json", {"model_pool": list(world.model_pool), "seed": world.seed})
    return out


def load_world(world_dir: str | Path) -> World:
    from .prompts import DatasetPromptConfig

    root = Path(world_dir)
    manifests = load_manifests(root / "datasets.jsonl")
    configs = {ds: DatasetPromptConfig.from_dict(d)
               for ds, d in read_json(root / "prompt_configs.json").items()}
    meta = load_metadata(root / "metadata.jsonl")
    records = Records.load(root / "records.jsonl")
    info = read_json(root / "world.json")
    return World(
        datasets={m.dataset_id: m for m in manifests},
        prompt_configs=configs,
        metadata=meta,
        records=records,
        model_pool=list(info["model_pool"]),
        seed=info.get("seed"),
    )
