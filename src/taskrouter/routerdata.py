"""Router training data: best-model labeling, prompt-validity filtering,
the text serialization format, and the 80/10/10 split.

One serialized example looks like (single line):

    [img]dim::(270,317,3)ave::(23.1,31.8,46.2)std::(15.1,11.5,10.9)[prompt]
    What is this? This is ;;;['a car', 'a sofa', ...[SEP]model::clip
    [response]correct::True;;;avg_accuracy::0.88238

The [img] segment is omitted when metadata is excluded, and the ";;;[..."
options segment is omitted when response options are excluded. The options
list opens with "[" but is terminated by the [SEP] marker, not by a
closing bracket. Everything before [SEP] is the router's input; the model
and response segments after it carry the label and bookkeeping.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .core import MetadataSummary, QueryGrid, atomic_open, typed_field
from .errors import CoverageError, InvalidInputError, ParseError
from .prompts import options_key, question_key, render, rendered_options

SEP_MARK = "[SEP]"
IMG_MARK = "[img]"
PROMPT_MARK = "[prompt]"
RESPONSE_MARK = "[response]"
OPTIONS_MARK = ";;;["

_T = TypeVar("_T")


@dataclass(frozen=True)
class SerializationFlags:
    """The two input-ablation axes: image metadata (MD) and response
    options (RO)."""

    include_metadata: bool = True
    include_response_options: bool = True

    @property
    def tag(self) -> str:
        md = "on" if self.include_metadata else "off"
        ro = "on" if self.include_response_options else "off"
        return f"md-{md}_ro-{ro}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "SerializationFlags":
        return cls(
            include_metadata=typed_field(d, "include_metadata", bool),
            include_response_options=typed_field(d, "include_response_options", bool),
        )

    @classmethod
    def parse(cls, text: str) -> "SerializationFlags":
        """Parse the CLI form "md=on,ro=off" (order-insensitive)."""
        values = {"md": True, "ro": True}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise InvalidInputError(f"bad flag {part!r}; expected md=on|off,ro=on|off")
            key, _, val = part.partition("=")
            key, val = key.strip().lower(), val.strip().lower()
            if key not in values or val not in ("on", "off"):
                raise InvalidInputError(f"bad flag {part!r}; expected md=on|off,ro=on|off")
            values[key] = val == "on"
        return cls(include_metadata=values["md"], include_response_options=values["ro"])


ALL_FLAG_COMBOS = (
    SerializationFlags(True, True),
    SerializationFlags(True, False),
    SerializationFlags(False, True),
    SerializationFlags(False, False),
)


@dataclass(frozen=True)
class RouterExample:
    """One corpus line as objects: the input text (before [SEP]), its
    label, provenance, and the full line."""

    serialized_input: str
    label_model_id: str
    provenance: tuple[str, str, str]  # (sample_id, dataset_id, prompt_variant_id)
    raw_line: str


def _check_field(name: str, value: str, forbidden: Sequence[str]) -> None:
    for marker in forbidden:
        if marker in value:
            raise InvalidInputError(
                f"{name} may not contain the reserved marker {marker!r}: {value!r}"
            )


def serialize_input(
    metadata: MetadataSummary | None,
    prompt_text: str,
    options: Sequence[str] | None,
    flags: SerializationFlags,
) -> str:
    """The router-input portion of a serialized example (no [SEP] or
    response segments)."""
    img = ""
    if flags.include_metadata:
        if metadata is None:
            raise InvalidInputError("flags request metadata but none was supplied")
        img = _img_segment(metadata)
    text = img + _prompt_segment(prompt_text)
    return text + _options_segment(options) if flags.include_response_options else text


def _img_segment(metadata: MetadataSummary) -> str:
    """The ``[img]`` segment of a sample's metadata."""
    return _img_template(len(metadata.channel_means)) % (
        *metadata.dims, *metadata.channel_means, *metadata.channel_stds)


@functools.lru_cache(maxsize=16)
def _img_template(channels: int) -> str:
    """The ``%`` template of the ``[img]`` segment for ``channels`` channel
    means and stds: ``%s`` formats each size as ``f"{size}"`` does, and
    ``%.1f`` each mean and std as ``f"{value:.1f}"`` does."""
    floats = ",".join(["%.1f"] * channels)
    return f"{IMG_MARK}dim::(%s,%s,%s)ave::({floats})std::({floats})"


def _prompt_segment(prompt_text: str) -> str:
    """The ``[prompt]`` segment."""
    _check_field("prompt", prompt_text, (SEP_MARK, OPTIONS_MARK))
    return PROMPT_MARK + prompt_text


def _options_segment(options: Sequence[str] | None) -> str:
    """The options segment that follows the ``[prompt]`` segment when
    response options are included."""
    if not options:
        raise InvalidInputError("flags request response options but none were supplied")
    for opt in options:
        _check_field("option", opt, (SEP_MARK, OPTIONS_MARK, "', '"))
        if opt.endswith("', "):  # with the separator after it, it would read as one
            raise InvalidInputError(f"option may not end with \"', \": {opt!r}")
    return OPTIONS_MARK + ", ".join(f"'{opt}'" for opt in options)


def serialize_example(
    metadata: MetadataSummary | None,
    prompt_text: str,
    options: Sequence[str] | None,
    model_id: str,
    correct: bool,
    avg_accuracy: float,
    flags: SerializationFlags,
    model_pool: Sequence[str] | None = None,
) -> str:
    """Serialize one (query, model outcome) pair into the exact line format."""
    response = _response_segment(model_id, correct, avg_accuracy, model_pool)
    return serialize_input(metadata, prompt_text, options, flags) + response


def _response_segment(model_id: str, correct: bool, avg_accuracy: float,
                      model_pool: Sequence[str] | None = None) -> str:
    """The ``[SEP]model::...[response]...`` tail that follows a router input."""
    if model_pool is not None and model_id not in model_pool:
        raise InvalidInputError(
            f"model {model_id!r} is not in the registered pool {sorted(model_pool)}"
        )
    if not model_id:
        raise InvalidInputError("model_id may not be empty")
    _check_field("model_id", model_id, (SEP_MARK, RESPONSE_MARK))
    if not 0.0 <= avg_accuracy <= 1.0:
        raise InvalidInputError(f"avg_accuracy must be in [0, 1], got {avg_accuracy}")
    return (f"{SEP_MARK}model::{model_id}{RESPONSE_MARK}"
            f"correct::{correct};;;avg_accuracy::{avg_accuracy:.5f}")


@dataclass(frozen=True)
class ParsedExample:
    metadata: MetadataSummary | None
    prompt_text: str
    options: tuple[str, ...] | None
    model_id: str
    correct: bool
    avg_accuracy: float

    @property
    def flags(self) -> SerializationFlags:
        return SerializationFlags(
            include_metadata=self.metadata is not None,
            include_response_options=self.options is not None,
        )

    def reserialize(self) -> str:
        return serialize_example(
            self.metadata,
            self.prompt_text,
            list(self.options) if self.options is not None else None,
            self.model_id,
            self.correct,
            self.avg_accuracy,
            self.flags,
        )


def _byte_offset(line: str, pos: int) -> int:
    # a lone surrogate (from a JSON escape or surrogateescape stdin) counts as 3 bytes
    return len(line[:pos].encode("utf-8", "surrogatepass"))


# The steps that take a line apart, each anchored where the one before it
# ended: the optional [img] groups and [prompt], the router input, the model
# id, and the correct flag. What follows the last step is avg_accuracy.
_STEPS = (
    (re.compile(r"(?:\[img\]dim::\(([^)]*)\)ave::\(([^)]*)\)std::\(([^)]*)\))?\[prompt\]"),
     "expected [prompt] segment"),
    (re.compile(r"(.*?)\[SEP\]model::", re.DOTALL), "expected [SEP]model::"),
    (re.compile(r"(.*?)\[response\]correct::", re.DOTALL), "expected [response]correct::"),
    (re.compile(r"(True|False);;;avg_accuracy::"), "expected True or False and ;;;avg_accuracy::"),
)


def parse_example(line: str) -> ParsedExample:
    """Invert serialize_example. A line parses if and only if its fields
    reserialize to it byte for byte; otherwise ParseError carries the byte
    offset of the first byte that leaves the format, or 0 when a field is
    one the serializer refuses."""
    fields, pos = [], 0
    for step, expected in _STEPS:
        match = step.match(line, pos)
        if match is None:
            raise ParseError(expected, _byte_offset(line, pos))
        fields += match.groups()
        pos = match.end()
    dims, means, stds, body, model_id, correct = fields
    prompt_text, opts_mark, opts = body.partition(OPTIONS_MARK)
    try:
        parsed = ParsedExample(
            metadata=None if dims is None else MetadataSummary(
                tuple(map(int, dims.split(","))), tuple(map(float, means.split(","))),
                tuple(map(float, stds.split(",")))),
            prompt_text=prompt_text,
            options=tuple(opts[1:-1].split("', '")) if opts_mark else None,
            model_id=model_id,
            correct=correct == "True",
            avg_accuracy=float(line[pos:]),
        )
        again = parsed.reserialize()
    except ValueError as exc:  # InvalidInputError included
        raise ParseError(f"fields the serializer refuses: {exc}", 0) from exc
    if again != line:
        pos = len(os.path.commonprefix((line, again)))
        raise ParseError("fields do not reserialize to the line", _byte_offset(line, pos))
    return parsed


# ---------------------------------------------------------------------------
# Labeling and corpus construction.

def select_best_model(
    per_model_correct: Mapping[str, bool],
    per_model_prompt_dataset_avg: Mapping[str, float],
) -> str:
    """The labeling rule: discard models that got the sample wrong, then
    take the one with the best average for the prompt on the dataset; if
    every model is wrong, take the best average overall. Ties break to the
    lexicographically smallest model id."""
    if set(per_model_correct) != set(per_model_prompt_dataset_avg):
        raise InvalidInputError(
            f"correctness and average maps disagree: "
            f"{sorted(per_model_correct)} vs {sorted(per_model_prompt_dataset_avg)}"
        )
    if not per_model_correct:
        raise InvalidInputError("no models to select from")
    candidates = [m for m, ok in per_model_correct.items() if ok]
    if not candidates:
        candidates = list(per_model_correct)
    return min(candidates, key=lambda m: (-per_model_prompt_dataset_avg[m], m))


def router_inputs(grid: QueryGrid, rows: Sequence[int],
                  flags: SerializationFlags) -> list[str]:
    """The router input of each of the grid's ``rows``: the query's image
    metadata, rendered prompt and options, serialized under ``flags``.
    Corpus lines and routing replay both take their inputs from here.

    A sample's variants are consecutive rows, which share one formatted
    ``[img]`` segment. Each dataset's checked ``[prompt]`` and options
    segments are kept for the rest of the call under ``question_key`` and
    ``options_key``, so each distinct question context is rendered and
    checked once, and each distinct option context is rendered, checked and
    joined once. A row whose segments are new renders its options, then its
    question, checks its prompt, then its options; a render or check that
    raises is not kept."""
    world = grid.world
    texts, last, img = [], None, ""
    memo = {}  # dataset -> its [prompt] and options segments, by render key
    for ds_id, sample, variant in grid.queries(rows):
        if sample is not last:
            last, config = sample, world.prompt_configs[ds_id]
            prompts, tails = memo.setdefault(ds_id, ({}, {}))
            if flags.include_metadata:
                metadata = world.metadata.get(sample.sample_id)
                if metadata is None:
                    raise InvalidInputError(
                        f"flags request metadata but sample {sample.sample_id} has none"
                    )
                img = _img_segment(metadata)
        tail = ""
        if flags.include_response_options:
            tail = tails.get(option := options_key(sample, variant))
            if tail is None:
                options = rendered_options(sample, config, variant)
        prompt = prompts.get(question := question_key(sample, variant))
        if prompt is None:
            prompt = prompts[question] = _prompt_segment(render(variant.question, sample, config))
        if tail is None:
            tail = tails[option] = _options_segment(options)
        texts.append(img + prompt + tail)
    return texts


@dataclass(frozen=True, eq=False)
class Corpus:
    """A router corpus as columns, in grid row order: example ``p`` is the
    query at grid row ``rows[p]``, with router input ``inputs[p]``, label
    ``grid.models[labels[p]]`` and line ``inputs[p] + responses[p]``. The
    inputs are serialized under ``flags``."""

    grid: QueryGrid
    flags: SerializationFlags
    rows: np.ndarray  # intp
    inputs: list[str]
    labels: np.ndarray  # intp codes into grid.models
    responses: list[str]  # the [SEP]model::...[response]... segments

    def __len__(self) -> int:
        return len(self.inputs)


def build_router_dataset(grid: QueryGrid, flags: SerializationFlags) -> Corpus:
    """The corpus of the grid's covered rows, in row order, each labeled
    with its best model under the ``select_best_model`` rule.

    A label and its ``avg_accuracy`` read only their own dataset's cells, so
    the examples of a dataset are the same whichever other datasets the
    grid holds.
    """
    return next(router_corpora(grid, (flags,)))


def router_corpora(grid: QueryGrid,
                   flag_grid: Sequence[SerializationFlags]) -> Iterator[Corpus]:
    """``build_router_dataset`` under each of ``flag_grid`` in turn. The
    corpora share their rows, labels and response segments, which no flag
    changes; those are built once, with the first corpus."""
    grid.require_coverage()
    rows = np.flatnonzero(grid.covered.any(axis=1))
    for k, flags in enumerate(flag_grid):
        inputs = router_inputs(grid, rows, flags)
        if k == 0:
            labels, responses = _corpus_labels(grid)
        yield Corpus(grid, flags, rows, inputs, labels, responses)


def _corpus_labels(grid: QueryGrid) -> tuple[np.ndarray, list[str]]:
    """The ``select_best_model`` label code and the response segment of
    every covered row, in row order, labeled a dataset at a time: among the
    models that got the row right (every model when none did), the one with
    the best cell average for the row's prompt variant, the first of the
    sorted pool on an exact tie. Each (label, correct) segment of a dataset
    is built once."""
    labels, responses = [np.empty(0, dtype=np.intp)], []
    for ds_id in grid.spans:
        rows = grid.rows(ds_id)
        if not len(rows):
            continue
        rights, totals = grid.counts(ds_id)
        positions = grid.variant_index[rows]
        used = np.unique(positions)
        missing = np.argwhere(totals[used] == 0)  # a cell without records has no average
        if len(missing):
            v, m = missing[0].tolist()
            raise CoverageError(f"no record of model {grid.models[m]!r} on any sample of "
                                f"{ds_id}/{grid.variants[ds_id][used[v]].variant_id}")
        averages = rights[positions] / totals[positions]
        correct = grid.correct[rows]
        candidates = correct | ~correct.any(axis=1, keepdims=True)
        best = np.where(candidates, averages, -np.inf).argmax(axis=1)  # first of a tie
        # a segment per (label, correct) key, built in the order rows first use them
        keys, first, of_key = np.unique(2 * best + correct[np.arange(len(best)), best],
                                        return_index=True, return_inverse=True)
        marginals = grid.marginals(ds_id)
        segments = [""] * len(keys)
        for k in np.argsort(first).tolist():
            model, ok = divmod(int(keys[k]), 2)
            segments[k] = _response_segment(grid.models[model], bool(ok),
                                            marginals[grid.models[model]], grid.world.model_pool)
        labels.append(best)
        responses += map(segments.__getitem__, of_key.tolist())
    return np.concatenate(labels), responses


def split_80_10_10(examples: Sequence[_T], seed: int) -> tuple[list[_T], list[_T], list[_T]]:
    """Deterministic shuffled split into floor(0.8n) / floor(0.1n) / rest.
    The permutation depends only on ``seed`` and the length, so a split of
    corpus positions picks the same examples as a split of the corpus."""
    n = len(examples)
    if n < 10:
        raise InvalidInputError(f"need at least 10 examples to split, got {n}")
    order = list(examples)
    random.Random(seed).shuffle(order)
    n_train = (8 * n) // 10  # floor(0.8 n), exact
    n_val = n // 10  # floor(0.1 n)
    return (
        order[:n_train],
        order[n_train:n_train + n_val],
        order[n_train + n_val:],
    )


# ---------------------------------------------------------------------------
# Corpus persistence: one raw line per line, with a sidecar index mapping
# line numbers to provenance.

# json.dumps(entry, sort_keys=True) of a sidecar entry, with each id already JSON-quoted
_SIDECAR_LINE = ('{"dataset_id": %s, "label_model_id": %s, "line": %d, '
                 '"prompt_variant_id": %s, "sample_id": %s}\n')


def save_corpus(corpus: Corpus, positions: Sequence[int], path: str | Path) -> None:
    """Write the examples of ``corpus`` at ``positions`` and their sidecar,
    each sidecar line from one template and each distinct id JSON-quoted
    once. Both are complete in temporary files before either replaces its
    old file, so a failed write leaves the old pair as it was."""
    path, grid = Path(path), corpus.grid
    queries = list(grid.queries(corpus.rows[positions]))
    ids = {x for _, sample, variant in queries
           for x in (sample.sample_id, sample.dataset_id, variant.variant_id)}
    quoted, models = dict(zip(ids, map(json.dumps, ids))), list(map(json.dumps, grid.models))
    labels = corpus.labels[positions].tolist()
    with atomic_open(path) as fh:
        fh.writelines(corpus.inputs[p] + corpus.responses[p] + "\n" for p in positions)
        with atomic_open(_sidecar(path)) as index:
            for line, ((_, sample, variant), label) in enumerate(zip(queries, labels)):
                index.write(_SIDECAR_LINE % (quoted[sample.dataset_id], models[label], line,
                                             quoted[variant.variant_id], quoted[sample.sample_id]))


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".index.jsonl")
