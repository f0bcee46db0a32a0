"""Canonical data model: datasets, samples, image metadata, execution
records, and accuracy aggregation.

Everything here is an immutable value after construction; the operations
are pure functions.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import CoverageError, IntegrityError, InvalidInputError, TaskRouterError

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
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise InvalidInputError(f"dims must be three sizes >= 1, got {self.dims}")
        c = self.dims[2]
        if len(self.channel_means) != c or len(self.channel_stds) != c:
            raise InvalidInputError(
                f"expected {c} channel means/stds, got "
                f"{len(self.channel_means)}/{len(self.channel_stds)}"
            )
        if not (all(map(math.isfinite, self.channel_means))
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
            dims=tuple(typed_field(d, "dims", list, int)),
            channel_means=tuple(typed_field(d, "channel_means", list, float)),
            channel_stds=tuple(typed_field(d, "channel_stds", list, float)),
        )

    @classmethod
    def _checked(cls, dims: tuple[int, int, int], channel_means: tuple[float, ...],
                 channel_stds: tuple[float, ...]) -> "MetadataSummary":
        """The summary of fields that already pass ``__post_init__``'s
        checks, made without running them again. Its fields are set one
        after another, as ``__init__`` sets them, so that the instance keeps
        its compact attribute storage."""
        summary = object.__new__(cls)
        object.__setattr__(summary, "dims", dims)
        object.__setattr__(summary, "channel_means", channel_means)
        object.__setattr__(summary, "channel_stds", channel_stds)
        return summary


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
        return cls(
            sample_id=typed_field(d, "sample_id", str),
            dataset_id=typed_field(d, "dataset_id", str),
            image_ref=typed_field(d, "image_ref", str),
            context=typed_field(d, "context", dict, str, default={}),
            response_options=typed_field(d, "response_options", list, str),
            gold_index=typed_field(d, "gold_index", int),
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
        size = typed_field(d, "size", int, default=None)
        manifest = cls(
            dataset_id=typed_field(d, "dataset_id", str),
            task_kind=typed_field(d, "task_kind", str),
            samples=tuple(map(Sample.from_dict, typed_field(d, "samples", list, dict))),
            prompt_config_ref=typed_field(d, "prompt_config_ref", str),
        )
        if size not in (None, manifest.size):
            raise IntegrityError(f"{manifest.dataset_id}: declared size {size} != "
                                 f"{manifest.size} samples")
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExecutionRecord":
        return cls(*_record_fields(d))


_INT64 = np.iinfo(np.int64)


def _record_fields(d: Mapping) -> tuple:
    """A record row's ``RECORD_FIELDS``. A missing field raises KeyError; a
    field of the wrong type, InvalidInputError."""
    predicted = typed_field(d, "predicted_index", int)
    correct = typed_field(d, "correct", bool)
    ids = tuple(typed_field(d, name, str) for name in ID_FIELDS)
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

    @classmethod
    def encode(cls, ids: Sequence[str]) -> "IdColumn":
        """The column of ``ids``; its values are the distinct ids in order
        of first appearance."""
        index = {value: code for code, value in enumerate(dict.fromkeys(ids))}
        return cls(np.fromiter(map(index.__getitem__, ids), np.int32, len(ids)), tuple(index))

    @classmethod
    def concat(cls, columns: Sequence["IdColumn"]) -> "IdColumn":
        """The columns one after another. Each input's values must be the
        ids its rows use in order of first appearance, as in every column
        the package builds; the result's values are then too."""
        index: dict[str, int] = {}
        parts = []
        for column in columns:
            lookup = [index.setdefault(value, len(index)) for value in column.values]
            parts.append(np.array(lookup, dtype=np.int32)[column.codes])
        return cls(_concat(parts, np.int32), tuple(index))


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype)


_READ_BLOCK_BYTES = 1 << 20  # records and metadata are read this many bytes of lines at a time
_WRITE_BLOCK_ROWS = 1 << 16
# json.dumps(rec.to_dict(), sort_keys=True), with each id already JSON-quoted
_RECORD_LINE = ('{"correct": %s, "dataset_id": %s, "model_id": %s, "predicted_index": %d, '
                '"prompt_variant_id": %s, "sample_id": %s}\n')
# save_metadata's line: json.dumps of the summary's to_dict and its sample id, keys sorted
_METADATA_LINE = '{"channel_means": [%s], "channel_stds": [%s], "dims": [%s], "sample_id": %s}'
# The fast tier's patterns each match one whole line of a block. A string
# body is runs of plain characters between escapes, an unrolled loop that no
# input makes backtrack; numbers are as JSON writes them (no leading zero),
# a float with a fraction or an exponent, the numbers ``json`` reads as floats.
_BODY = r'[^"\\\x00-\x1f]*(?:\\[^\x00-\x1f][^"\\\x00-\x1f]*)*'
_STRING = f'"({_BODY})"'
_INT = "-?(?:0|[1-9][0-9]*)"
_FLOAT = _INT + r"(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"


def _template_pattern(template: str, *fields: str) -> str:
    """``template`` as a pattern: its text, each ``%s`` or ``%d`` the next of
    ``fields``."""
    return re.escape(template).replace("%d", "%s") % fields


# a record line's head: its fields before the sample id, which few lines differ in
_HEAD = _RECORD_LINE[1:_RECORD_LINE.index(', "sample_id"')]


def _head_pattern(group: str) -> str:
    """The pattern of a record line's head, each field in ``group``: a
    capturing or a non-capturing group's format."""
    string = f'"{group.format(_BODY)}"'
    return _template_pattern(_HEAD, group.format("true|false"), string, string,
                             group.format(_INT), string)


_HEAD_PATTERN = re.compile(_head_pattern("({})"))
_RECORD_PATTERN = re.compile("^" + _template_pattern(
    _RECORD_LINE[:-1].replace(_HEAD, "%s"), "(%s)" % _head_pattern("(?:{})"), _STRING) + "$",
    re.MULTILINE)
_METADATA_PATTERN = re.compile("^" + _template_pattern(
    _METADATA_LINE, *(f"({n}(?:, {n})*)" for n in (_FLOAT, _FLOAT, _INT)), _STRING) + "$",
    re.MULTILINE)


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
    def from_columns(cls, *columns: Sequence) -> "Records":
        """The table of one sequence per ``RECORD_FIELDS``, or of none for
        an empty table; each id column is ``IdColumn.encode``d."""
        *ids, predicted, correct = columns or ((),) * len(RECORD_FIELDS)
        return cls(*map(IdColumn.encode, ids), predicted, correct)

    @classmethod
    def of(cls, records: "Records | Iterable[ExecutionRecord]") -> "Records":
        """``records`` itself when it is a table, else a table of its rows."""
        if isinstance(records, Records):
            return records
        return cls.from_columns(*zip(*map(attrgetter(*RECORD_FIELDS), records)))

    @classmethod
    def concat(cls, tables: Iterable["Records"]) -> "Records":
        """The tables' rows one after another (see ``IdColumn.concat``)."""
        tables = list(tables)
        ids = (IdColumn.concat([t.ids()[f] for t in tables]) for f in range(len(ID_FIELDS)))
        return cls(*ids, _concat([t.predicted for t in tables], np.int64),
                   _concat([t.correct for t in tables], bool))

    @classmethod
    def load(cls, path: str | Path) -> "Records":
        """Read a ``records.jsonl`` in blocks of lines, each straight into
        a table, and join them; no row outlives its block. A block whose
        lines all match the one line ``save`` writes is read by one compiled
        pattern, which parses each distinct head (the fields before the
        sample id) once. Any other block is read again line by line, so a
        bad line fails as ``read_numbered_jsonl`` and
        ``ExecutionRecord.from_dict`` fail on it, naming ``path:line`` where
        they do."""
        return cls.concat(_read_blocks(path, _RECORD_PATTERN, _scan_records,
                                       partial(_check_block, path)))

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


def _read_blocks(path: str | Path, pattern: re.Pattern,
                 scan: Callable[[list, bool], _Row | None],
                 check: Callable[[int, list[bytes]], _Row]) -> Iterator[_Row]:
    """The value of each block of lines of ``path``, about
    ``_READ_BLOCK_BYTES`` each. When the block is UTF-8 and each of its
    non-blank lines matches ``pattern`` whole, that is ``scan`` of the
    matches and of whether the block holds a backslash. For any other
    block, or when ``scan`` finds a fault and gives None, it is ``check``
    of the block's first line number and its lines, which reads them one
    by one and raises, naming ``path:line``, at the first bad line."""
    with open(path, "rb") as fh:
        lineno = 1
        while lines := fh.readlines(_READ_BLOCK_BYTES):
            block = None
            try:
                text = b"".join(lines).decode("utf-8")
            except ValueError:
                pass
            else:
                rows = pattern.findall(text)  # a match is one whole line
                if len(rows) == len(lines) - lines.count(b"\n"):
                    block = scan(rows, "\\" in text)
            yield check(lineno, lines) if block is None else block
            lineno += len(lines)


def _scan_records(rows: list[tuple[str, str]], escaped: bool) -> Records | None:
    """The table of a block's (head, sample id) matches of
    ``_RECORD_PATTERN``. Each distinct head is parsed once, and its fields
    are gathered through the head codes, so each id column's values keep
    the order of first appearance; None for a bad escape or a prediction
    outside int64."""
    if not rows:
        return Records.from_columns()
    heads, samples = zip(*rows)
    head = IdColumn.encode(heads)
    flags, datasets, models, preds, variants = zip(
        *(_HEAD_PATTERN.fullmatch(h).groups() for h in head.values))
    try:
        if escaped:
            samples, datasets, models, variants = map(
                _unescaped, (samples, datasets, models, variants))
        preds = list(map(int, preds))
    except ValueError:  # a bad escape, or more digits than int() reads
        return None
    if not _INT64.min <= min(preds) <= max(preds) <= _INT64.max:
        return None
    dataset, model, variant = (IdColumn(col.codes[head.codes], col.values)
                               for col in map(IdColumn.encode, (datasets, models, variants)))
    return Records(IdColumn.encode(samples), dataset, model, variant,
                   np.array(preds, dtype=np.int64)[head.codes],
                   np.array(list(map("true".__eq__, flags)), dtype=bool)[head.codes])


def _unescaped(bodies: Sequence[str]) -> list[str]:
    """The strings of captured JSON string bodies; each distinct body with
    an escape is decoded once (ValueError for a bad escape)."""
    decoded = {body: json.loads(f'"{body}"') for body in set(bodies) if "\\" in body}
    return [decoded.get(body, body) for body in bodies]


def _check_block(path: str | Path, first_lineno: int, lines: list[bytes]) -> Records:
    """The table of a block, read line by line; the first bad line raises."""
    rows = []
    for lineno, row in _numbered_objects(path, enumerate(lines, first_lineno)):
        try:
            rows.append(_record_fields(row))
        except (KeyError, TaskRouterError):
            with reading(f"{path}:{lineno}"):
                raise
    return Records.from_columns(*zip(*rows))


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
    This is the package's one way of writing a file and of making a
    directory: it makes ``path``'s directory first, so a directory exists
    only once a file is written into it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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


def aggregate_accuracy(
    records: Records | Iterable[ExecutionRecord],
    samples: Mapping[tuple[str, str], Sample] | None = None,
) -> dict[tuple[str, str, str], tuple[int, int]]:
    """The (correct, total) counts of the records per (model, dataset,
    prompt variant) cell.

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
    cell, first = _groups(everything, recs.model_id, recs.dataset_id, recs.prompt_variant_id)
    totals = np.bincount(cell, minlength=len(first))
    rights = np.bincount(cell[recs.correct], minlength=len(first))
    return {(recs.model_id[i], recs.dataset_id[i], recs.prompt_variant_id[i]): (r, t)
            for i, r, t in zip(first.tolist(), rights.tolist(), totals.tolist())}


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

    def sizes(self) -> dict[str, int]:
        return {ds_id: m.size for ds_id, m in self.datasets.items()}


@dataclass(frozen=True)
class QueryGrid:
    """The (query, model) outcome grid that labeling, the baselines and
    router replay read. Entry points build it once per run; every function
    below them takes the built grid. Rows are every (dataset, sample, valid
    variant) query, in ``world.datasets``, manifest and ``prompt_variants``
    order, so nothing read from the grid depends on record order; a row is
    codes, read through ``queries``. Columns are the sorted model pool;
    ``covered`` marks cells with a record. Every count the baselines and
    labels read is a sum over these arrays.
    """

    world: World
    models: tuple[str, ...]
    spans: dict[str, range]  # dataset_id -> its rows
    variants: dict[str, tuple]  # dataset_id -> its valid PromptVariants, canonical order
    sample_index: np.ndarray  # (n_rows,) position of the row's sample in its manifest
    variant_index: np.ndarray  # (n_rows,) position of the row's variant in ``variants``
    correct: np.ndarray  # (n_rows, n_models) bool
    predicted: np.ndarray  # (n_rows, n_models) int
    covered: np.ndarray  # (n_rows, n_models) bool

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
        spans, variants, sample_index, variant_index, start = {}, {}, [], [], 0
        sample_rows = {}  # (dataset_id, sample_id) -> (the sample's first row, sample)
        for ds_id, manifest in world.datasets.items():
            config = world.prompt_configs[ds_id]
            valid = valid_variant_ids(config)
            variants[ds_id] = tuple(v for v in prompt_variants(config) if v.variant_id in valid)
            n = len(variants[ds_id])
            sample_rows.update({(ds_id, sample.sample_id): (start + k * n, sample)
                                for k, sample in enumerate(manifest.samples)})
            sample_index.append(np.repeat(np.arange(manifest.size), n))
            variant_index.append(np.tile(np.arange(n), manifest.size))
            spans[ds_id] = range(start, start := start + manifest.size * n)

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
        # (dataset_id, valid variant_id) -> position among the dataset's valid variants
        positions = {(ds, v.variant_id): k for ds in variants for k, v in enumerate(variants[ds])}
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

        shape = (start, len(models))
        grid = cls(
            world=world, models=models, spans=spans, variants=variants,
            sample_index=_concat(sample_index, np.int64),
            variant_index=_concat(variant_index, np.int64),
            correct=np.zeros(shape, dtype=bool),
            predicted=np.full(shape, -1, dtype=np.int64), covered=np.zeros(shape, dtype=bool),
        )
        cells = row * len(models) + col
        grid.covered.flat[cells] = True
        grid.correct.flat[cells] = recs.correct[kept]
        grid.predicted.flat[cells] = recs.predicted[kept]
        return grid

    def queries(self, rows: Sequence[int]) -> Iterator[tuple[str, Sample, object]]:
        """The (dataset_id, sample, PromptVariant) of each of ``rows``, read
        from its codes; a row's dataset is the first whose span ends past it."""
        rows = np.asarray(rows, dtype=np.intp)
        datasets = [(ds, self.world.datasets[ds].samples, self.variants[ds]) for ds in self.spans]
        which = np.searchsorted([span.stop for span in self.spans.values()], rows, side="right")
        for d, s, v in zip(which.tolist(), self.sample_index[rows].tolist(),
                           self.variant_index[rows].tolist()):
            ds_id, samples, variants = datasets[d]
            yield ds_id, samples[s], variants[v]

    def rows(self, dataset_id: str) -> np.ndarray:
        """The dataset's rows that have at least one record."""
        span = self.spans.get(dataset_id, range(0))
        return span.start + np.flatnonzero(self.covered[span.start:span.stop].any(axis=1))

    def counts(self, dataset_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The dataset's (variant x model) correct and total record counts,
        variants in canonical order: its rows are sample-major with the
        variants inner, so each count is a sum over the samples."""
        span = self.spans[dataset_id]
        shape = (self.world.datasets[dataset_id].size, len(self.variants[dataset_id]),
                 len(self.models))
        return (self.correct[span.start:span.stop].reshape(shape).sum(axis=0),
                self.covered[span.start:span.stop].reshape(shape).sum(axis=0))

    def marginals(self, dataset_id: str) -> dict[str, float]:
        """Each model's accuracy on the dataset, in pool order: the mean of
        its per-variant rates over the variants it has records on, summed
        in sorted variant id order. A model with no record there is left
        out."""
        rights, totals = self.counts(dataset_id)
        ids = [v.variant_id for v in self.variants[dataset_id]]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        marginals = {}
        for model, r, t in zip(self.models, rights[order].T.tolist(), totals[order].T.tolist()):
            rates = [c / n for c, n in zip(r, t) if n]
            if rates:
                marginals[model] = sum(rates) / len(rates)
        return marginals

    def require_records(self, dataset_ids: Iterable[str] | None = None) -> None:
        """InvalidInputError for the first of ``dataset_ids`` (default: the
        world's datasets) that holds no samples, else naming every one
        without a recorded query."""
        dataset_ids = list(self.world.datasets if dataset_ids is None else dataset_ids)
        empty = [ds for ds in dataset_ids
                 if ds in self.world.datasets and not self.world.datasets[ds].samples]
        if empty:
            raise InvalidInputError(f"dataset {empty[0]!r} holds no samples")
        unrecorded = [ds for ds in dataset_ids if not len(self.rows(ds))]
        if unrecorded:
            raise InvalidInputError(f"no recorded queries in datasets {unrecorded}")

    def require_coverage(self) -> None:
        """CoverageError listing (dataset, sample, variant, missing models)
        for every row with some records but not one of each pool model."""
        gaps, rows = [], np.flatnonzero(self.covered.any(axis=1) & ~self.covered.all(axis=1))
        for i, (ds_id, sample, variant) in zip(rows.tolist(), self.queries(rows)):
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
                ds_id, sample, variant = next(self.queries([i]))
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


def read_json(path: str | Path, from_dict: Callable[[dict], _Row] | None = None):
    """The JSON object in ``path``, or ``from_dict`` of it; anything else,
    or a field error from ``from_dict`` (see ``reading``), names ``path``."""
    try:
        obj = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: not a JSON object")
    with reading(path):
        return obj if from_dict is None else from_dict(obj)


_NAMES = {bool: "a bool", int: "an int", float: "a finite number", str: "a string",
          list: "a list", dict: "an object"}  # each JSON kind's name in an error
_REQUIRED = object()


def typed_field(d: Mapping, name: str, kind: type, item=None, default=_REQUIRED):
    """``d[name]``, checked to be of the JSON ``kind``: ``bool``; ``int``,
    not a bool; ``float``, any finite number; ``str``; or a ``list`` or
    ``dict`` (an object) whose items or values are each of the kind
    ``item``, which may be a pair: ``dict, (list, float)`` is an object of
    lists of numbers. The package's one JSON type check: a value of another
    kind raises InvalidInputError naming the field. A missing field gives
    ``default``, or without one raises KeyError."""
    if default is not _REQUIRED and name not in d:
        return default
    value = d[name]
    if (_finite(value) if kind is float else type(value) is kind) and (
            item is None or _each(value.values() if kind is dict else value, item)):
        return value
    items = item if type(item) is tuple else () if item is None else (item,)
    what = _NAMES[kind] + "".join(f" of {_NAMES[k].split(' ', 1)[1]}s" for k in items)
    raise InvalidInputError(f"field {name!r} must be {what}")


def _each(values, item) -> bool:
    """Whether each of ``values`` is of the JSON kind ``item``; types are
    exact, as ``json`` makes them."""
    if item is float:
        return all(map(_finite, values))
    if type(item) is tuple:
        kind, inner = item
        return all(type(v) is kind and _each(v.values() if kind is dict else v, inner)
                   for v in values)
    return all(type(v) is item for v in values)


def _finite(value) -> bool:
    """A JSON number in the range of a finite float (NaN compares false)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@contextmanager
def reading(where: str | Path):
    """Name ``where`` in a missing field (KeyError, raised as IntegrityError),
    a mistyped one (InvalidInputError) or an inconsistent one raised here."""
    try:
        yield
    except KeyError as exc:
        raise IntegrityError(f"{where}: missing field {exc}") from exc
    except (InvalidInputError, IntegrityError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


@contextmanager
def _gc_paused():
    """Turn the cyclic garbage collector off for the block, then back to as
    it was, also when the block raises. A world read makes many objects
    that live on, and a collection there would only walk them again and
    again. Nested blocks leave it off until the outermost one ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for each non-blank line of ``path``. A line
    that is not a JSON object raises InvalidInputError naming ``path:line``."""
    with open(path, "rb") as fh:
        yield from _numbered_objects(path, enumerate(fh, 1))


def _numbered_objects(path: str | Path,
                      lines: Iterable[tuple[int, bytes]]) -> Iterator[tuple[int, dict]]:
    for lineno, raw in lines:
        try:
            line = raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        if line.strip():
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise InvalidInputError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise InvalidInputError(f"{path}:{lineno}: not a JSON object")
            yield lineno, row


def _read_keyed(path: str | Path, id_field: str, from_dict: Callable[[dict], _Row],
                check: Callable[[_Row], str | None] | None = None) -> dict[str, _Row]:
    """``from_dict`` of each JSON object in ``path``, keyed by its
    ``id_field``. A row that lacks a field, repeats an earlier row's id, or
    fails ``check`` (which returns a fault or None) raises IntegrityError
    naming ``path:line``; a mistyped field, InvalidInputError naming it."""
    with open(path, "rb") as fh:
        return _keyed_lines(path, id_field, from_dict, check, {}, 1, fh)


def _keyed_lines(path: str | Path, id_field: str, from_dict: Callable[[dict], _Row],
                 check: Callable[[_Row], str | None] | None, earlier: Mapping[str, _Row],
                 first_lineno: int, lines: Iterable[bytes]) -> dict[str, _Row]:
    """``_read_keyed`` of ``lines``, the lines of ``path`` from
    ``first_lineno`` on, which follow the rows ``earlier``: an id of those
    rows is repeated too."""
    rows: dict[str, _Row] = {}
    for lineno, row in _numbered_objects(path, enumerate(lines, first_lineno)):
        try:
            value = from_dict(row)
            key = typed_field(row, id_field, str)
        except (KeyError, TaskRouterError):
            with reading(f"{path}:{lineno}"):
                raise
        if key in rows or key in earlier:
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


# ``json`` writes an int, or a finite float, by its repr
_JSON_NUMBER = {int: int.__repr__, float: float.__repr__}


def _json_items(values: Iterable) -> str:
    """What ``json.dumps(list(values))`` writes between its brackets, for
    values whose floats are finite: each plain int or float by its repr,
    any other value by ``json.dumps``."""
    return ", ".join([_JSON_NUMBER.get(type(v), json.dumps)(v) for v in values])


def save_metadata(metadata: Mapping[str, MetadataSummary], path: str | Path) -> None:
    """Write one key-sorted JSON object per summary: the bytes
    ``write_jsonl`` gives for ``{"sample_id": sample_id, **summary.to_dict()}``,
    each line from ``_METADATA_LINE``. A summary's numbers are finite."""
    with atomic_open(path) as fh:
        fh.writelines(_METADATA_LINE % (_json_items(summary.channel_means),
                                        _json_items(summary.channel_stds),
                                        _json_items(summary.dims), json.dumps(sample_id)) + "\n"
                      for sample_id, summary in metadata.items())


def load_metadata(path: str | Path) -> dict[str, MetadataSummary]:
    """The summaries in ``path``, keyed by sample id, read in blocks of
    lines. A block whose lines all match the one line ``save_metadata``
    writes is read by one compiled pattern, its numbers parsed a column at
    a time and checked for the whole block at once. Any other block, or one
    that fails a check or repeats a sample id, is read again line by line,
    as ``_read_keyed`` reads a file, so every fault raises its error there.
    The garbage collector is left as it is; ``load_world`` pauses it."""
    metadata: dict[str, MetadataSummary] = {}
    check = partial(_keyed_lines, path, "sample_id", MetadataSummary.from_dict, None, metadata)
    for block in _read_blocks(path, _METADATA_PATTERN, partial(_scan_metadata, metadata), check):
        metadata.update(block)
    return metadata


def _scan_metadata(earlier: Mapping[str, MetadataSummary], rows: list[tuple[str, ...]],
                   escaped: bool) -> dict[str, MetadataSummary] | None:
    """The summaries of a block's matches of ``_METADATA_PATTERN``. Each
    field is parsed a column at a time, and ``MetadataSummary``'s checks are
    made for the whole block at once with numpy; None when one fails, or a
    sample id repeats one of the block or of ``earlier``."""
    if not rows:
        return {}
    means, stds, dims, ids = zip(*rows)
    try:
        if escaped:
            ids = _unescaped(ids)
        dims, n_dims = _number_column(dims, int)
        means, n_means = _number_column(means, float)
        stds, n_stds = _number_column(stds, float)
        sizes = np.array(dims, dtype=np.int64)
    except (ValueError, OverflowError):  # more digits than int() reads, or than int64 holds
        return None
    if n_dims.count(3) < len(rows) or not (sizes >= 1).all():
        return None
    channels, floats = sizes[2::3].tolist(), np.array(means + stds)
    if n_means != channels or n_stds != channels or not (
            np.isfinite(floats).all() and (floats[len(means):] >= 0).all()):
        return None
    block = dict(zip(ids, map(MetadataSummary._checked, _cut(dims, n_dims),
                              _cut(means, n_means), _cut(stds, n_stds))))
    if len(block) < len(rows) or not earlier.keys().isdisjoint(block):
        return None
    return block


def _number_column(texts: Sequence[str], kind: type) -> tuple[list, list[int]]:
    """The numbers of a column of ``", "``-separated number texts, each read
    by ``kind``, one after another, and how many each text holds."""
    return (list(map(kind, ", ".join(texts).split(", "))),
            [text.count(", ") + 1 for text in texts])


def _cut(values: list, sizes: list[int]) -> list[tuple]:
    """``values`` cut into consecutive tuples of ``sizes`` items each."""
    if len(set(sizes)) == 1:
        return list(zip(*[iter(values)] * sizes[0]))
    items = iter(values)
    return [tuple(islice(items, size)) for size in sizes]


def save_world(world: World, out_dir: str | Path) -> Path:
    """Persist a world directory. Pixel arrays are intentionally dropped."""
    out = Path(out_dir)
    save_manifests(world.datasets.values(), out / "datasets.jsonl")
    write_json(out / "prompt_configs.json",
               {ds: cfg.to_dict() for ds, cfg in world.prompt_configs.items()})
    save_metadata(world.metadata, out / "metadata.jsonl")
    save_records(world.records, out / "records.jsonl")
    write_json(out / "world.json", {"model_pool": list(world.model_pool), "seed": world.seed})
    return out


@_gc_paused()
def load_tasks(world_dir: str | Path) -> tuple[dict[str, DatasetManifest], dict]:
    """The manifests and prompt configs in ``world_dir``, as ``World`` holds
    them: all that scoring reads. A prompt config under another dataset's
    id, or a dataset without a prompt config, is an IntegrityError. The
    cyclic garbage collector is paused while they are read (``_gc_paused``)."""
    from .prompts import DatasetPromptConfig

    root = Path(world_dir)
    manifests = load_manifests(root / "datasets.jsonl")
    raw, configs = read_json(root / "prompt_configs.json"), {}
    with reading(root / "prompt_configs.json"):
        for ds in raw:
            with reading(ds):
                configs[ds] = DatasetPromptConfig.from_dict(typed_field(raw, ds, dict))
                if configs[ds].dataset_id != ds:
                    raise IntegrityError(f"holds the config of {configs[ds].dataset_id!r}")
        unconfigured = [m.dataset_id for m in manifests if m.dataset_id not in configs]
        if unconfigured:
            raise IntegrityError(f"no prompt config for dataset {unconfigured[0]!r}")
    return {m.dataset_id: m for m in manifests}, configs


@_gc_paused()
def load_world(world_dir: str | Path) -> World:
    """The world in ``world_dir``: ``load_tasks``, then the metadata,
    records and ``world.json``, each checked in that order. The cyclic
    garbage collector is paused for the whole read and then restored to its
    state before the call, also when a file fails its checks."""
    root = Path(world_dir)
    datasets, configs = load_tasks(root)
    meta = load_metadata(root / "metadata.jsonl")
    records = Records.load(root / "records.jsonl")
    info = read_json(root / "world.json")
    with reading(root / "world.json"):
        return World(
            datasets=datasets,
            prompt_configs=configs,
            metadata=meta,
            records=records,
            model_pool=typed_field(info, "model_pool", list, str),
            seed=None if info.get("seed") is None else typed_field(info, "seed", int),
        )
