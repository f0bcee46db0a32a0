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

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .core import (MetadataSummary, QueryGrid, atomic_open, read_lines, read_numbered_jsonl,
                   write_jsonl)
from .errors import IntegrityError, InvalidInputError, ParseError
from .prompts import render, rendered_options

SEP_MARK = "[SEP]"
IMG_MARK = "[img]"
PROMPT_MARK = "[prompt]"
RESPONSE_MARK = "[response]"
OPTIONS_MARK = ";;;["

_DIM = re.compile(r"\d+", re.ASCII)
_FLOAT_1DP = re.compile(r"-?\d+\.\d", re.ASCII)
_AVG_5DP = re.compile(r"\d+\.\d{5}", re.ASCII)

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
        return {
            "include_metadata": self.include_metadata,
            "include_response_options": self.include_response_options,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SerializationFlags":
        return cls(
            include_metadata=bool(d["include_metadata"]),
            include_response_options=bool(d["include_response_options"]),
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
    """One router training line: the input text (before [SEP]), its
    best-model label, provenance, and the full serialized line."""

    serialized_input: str
    label_model_id: str
    provenance: tuple[str, str, str]  # (sample_id, dataset_id, prompt_variant_id)
    raw_line: str


def _fmt_floats(values: Sequence[float]) -> str:
    return ",".join(f"{v:.1f}" for v in values)


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
    parts: list[str] = []
    if flags.include_metadata:
        if metadata is None:
            raise InvalidInputError("flags request metadata but none was supplied")
        h, w, c = metadata.dims
        parts.append(
            f"{IMG_MARK}dim::({h},{w},{c})"
            f"ave::({_fmt_floats(metadata.channel_means)})"
            f"std::({_fmt_floats(metadata.channel_stds)})"
        )
    _check_field("prompt", prompt_text, (SEP_MARK, OPTIONS_MARK))
    parts.append(PROMPT_MARK + prompt_text)
    if flags.include_response_options:
        if options is None:
            raise InvalidInputError("flags request response options but none were supplied")
        for opt in options:
            _check_field("option", opt, (SEP_MARK, OPTIONS_MARK, "', '"))
        parts.append(OPTIONS_MARK + ", ".join(f"'{opt}'" for opt in options))
    return "".join(parts)


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


def _parse_paren_group(line: str, pos: int, label: str) -> tuple[str, int]:
    if pos >= len(line) or line[pos] != "(":
        raise ParseError(f"expected '(' after {label}", _byte_offset(line, pos))
    end = line.find(")", pos)
    if end == -1:
        raise ParseError(f"unterminated {label} group", _byte_offset(line, pos))
    return line[pos + 1:end], end + 1


def parse_example(line: str) -> ParsedExample:
    """Invert serialize_example; malformed lines raise ParseError with the
    byte offset of the failure."""
    if not line:
        raise ParseError("empty line", 0)
    pos = 0
    metadata: MetadataSummary | None = None

    if line.startswith(IMG_MARK):
        pos = len(IMG_MARK)
        if not line.startswith("dim::", pos):
            raise ParseError("expected dim:: after [img]", _byte_offset(line, pos))
        pos += len("dim::")
        dims_text, pos = _parse_paren_group(line, pos, "dim")
        dim_parts = dims_text.split(",")
        # every number must be in the form serialization writes, so that
        # a parsed line reserializes byte for byte
        if len(dim_parts) != 3 or not all(_DIM.fullmatch(p) and str(int(p)) == p
                                          for p in dim_parts):
            raise ParseError(f"bad dims {dims_text!r}", _byte_offset(line, pos))
        dims = tuple(int(p) for p in dim_parts)
        if not line.startswith("ave::", pos):
            raise ParseError("expected ave:: after dims", _byte_offset(line, pos))
        pos += len("ave::")
        means_text, pos = _parse_paren_group(line, pos, "ave")
        if not line.startswith("std::", pos):
            raise ParseError("expected std:: after means", _byte_offset(line, pos))
        pos += len("std::")
        stds_text, pos = _parse_paren_group(line, pos, "std")
        try:
            means = _parse_1dp_floats(means_text)
            stds = _parse_1dp_floats(stds_text)
        except ValueError as exc:
            raise ParseError(str(exc), _byte_offset(line, pos)) from exc
        try:
            metadata = MetadataSummary(dims, means, stds)
        except InvalidInputError as exc:
            raise ParseError(f"inconsistent metadata: {exc}", _byte_offset(line, pos)) from exc

    if not line.startswith(PROMPT_MARK, pos):
        raise ParseError("expected [prompt] segment", _byte_offset(line, pos))
    pos += len(PROMPT_MARK)

    sep_at = line.find(SEP_MARK, pos)
    if sep_at == -1:
        raise ParseError("missing [SEP] marker", _byte_offset(line, pos))
    input_body = line[pos:sep_at]

    options: tuple[str, ...] | None = None
    opts_at = input_body.rfind(OPTIONS_MARK)
    if opts_at != -1:
        prompt_text = input_body[:opts_at]
        if OPTIONS_MARK in prompt_text:
            raise ParseError(f"prompt holds a second {OPTIONS_MARK!r}", _byte_offset(line, pos))
        opts_body = input_body[opts_at + len(OPTIONS_MARK):]
        options = _parse_options(opts_body, line, pos + opts_at + len(OPTIONS_MARK))
    else:
        prompt_text = input_body

    pos = sep_at + len(SEP_MARK)
    if not line.startswith("model::", pos):
        raise ParseError("expected model:: after [SEP]", _byte_offset(line, pos))
    pos += len("model::")
    resp_at = line.find(RESPONSE_MARK, pos)
    if resp_at == -1:
        raise ParseError("missing [response] segment", _byte_offset(line, pos))
    model_id = line[pos:resp_at]
    if not model_id or SEP_MARK in model_id:
        raise ParseError(f"model id empty or holding {SEP_MARK!r}", _byte_offset(line, pos))
    pos = resp_at + len(RESPONSE_MARK)

    if not line.startswith("correct::", pos):
        raise ParseError("expected correct:: in response segment", _byte_offset(line, pos))
    pos += len("correct::")
    if line.startswith("True", pos):
        correct, pos = True, pos + 4
    elif line.startswith("False", pos):
        correct, pos = False, pos + 5
    else:
        raise ParseError("correct:: must be True or False", _byte_offset(line, pos))

    if not line.startswith(";;;avg_accuracy::", pos):
        raise ParseError("expected ;;;avg_accuracy::", _byte_offset(line, pos))
    pos += len(";;;avg_accuracy::")
    avg_text = line[pos:]
    avg = float(avg_text) if _AVG_5DP.fullmatch(avg_text) else None
    if avg is None or f"{avg:.5f}" != avg_text:
        raise ParseError(
            f"avg_accuracy must be a 5-decimal value, got {avg_text!r}",
            _byte_offset(line, pos),
        )
    if not 0.0 <= avg <= 1.0:
        raise ParseError(f"avg_accuracy {avg} outside [0, 1]", _byte_offset(line, pos))

    return ParsedExample(
        metadata=metadata,
        prompt_text=prompt_text,
        options=options,
        model_id=model_id,
        correct=correct,
        avg_accuracy=avg,
    )


def _parse_1dp_floats(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    values = []
    for p in parts:
        if not _FLOAT_1DP.fullmatch(p) or f"{float(p):.1f}" != p:
            raise ValueError(f"expected a 1-decimal value, got {p!r}")
        values.append(float(p))
    return tuple(values)


def _parse_options(body: str, line: str, body_pos: int) -> tuple[str, ...]:
    if len(body) < 2 or not body.startswith("'") or not body.endswith("'"):
        raise ParseError("options list must be quoted", _byte_offset(line, body_pos))
    return tuple(body[1:-1].split("', '"))


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


def router_inputs(grid: QueryGrid, rows: Iterable[int],
                  flags: SerializationFlags) -> list[str]:
    """The router input of each of the grid's ``rows``: the query's image
    metadata, rendered prompt and options, serialized under ``flags``.
    Corpus lines and routing replay both take their inputs from here."""
    world = grid.world
    texts = []
    for i in rows:
        ds_id, sample, variant = grid.queries[i]
        config = world.prompt_configs[ds_id]
        metadata = world.metadata.get(sample.sample_id)
        if metadata is None and flags.include_metadata:
            raise InvalidInputError(
                f"flags request metadata but sample {sample.sample_id} has none"
            )
        options = (rendered_options(sample, config, variant)
                   if flags.include_response_options else None)
        texts.append(serialize_input(metadata, render(variant.question, sample, config),
                                     options, flags))
    return texts


def build_router_dataset(grid: QueryGrid, flags: SerializationFlags) -> list[RouterExample]:
    """Router examples in grid row order: one per recorded query, labeled
    with its best model under the ``select_best_model`` rule.

    A label and its ``avg_accuracy`` read only their own dataset's cells, so
    the examples of a dataset are the same whichever other datasets the
    grid holds.
    """
    grid.require_coverage()
    rows = np.flatnonzero(grid.covered.any(axis=1))
    examples: list[RouterExample] = []
    for i, text in zip(rows.tolist(), router_inputs(grid, rows, flags)):
        ds_id, sample, variant = grid.queries[i]
        correct = dict(zip(grid.models, grid.correct[i].tolist()))
        label = select_best_model(
            correct, {m: grid.table.cell(m, ds_id, variant.variant_id) for m in grid.models}
        )
        response = _response_segment(label, correct[label], grid.table.marginal(label, ds_id),
                                     grid.world.model_pool)
        examples.append(RouterExample(
            serialized_input=text,
            label_model_id=label,
            provenance=(sample.sample_id, sample.dataset_id, variant.variant_id),
            raw_line=text + response,
        ))
    return examples


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

def save_corpus(examples: Sequence[RouterExample], path: str | Path) -> None:
    """Write the corpus and its sidecar. Both are complete in temporary
    files before either replaces its old file, so a failed write leaves
    the old pair as it was."""
    path = Path(path)
    with atomic_open(path) as fh:
        for ex in examples:
            fh.write(ex.raw_line + "\n")
        write_jsonl(_sidecar(path), ({
            "line": i,
            "sample_id": ex.provenance[0],
            "dataset_id": ex.provenance[1],
            "prompt_variant_id": ex.provenance[2],
            "label_model_id": ex.label_model_id,
        } for i, ex in enumerate(examples)))


def load_corpus(path: str | Path) -> list[RouterExample]:
    """Load a corpus; when its sidecar exists, every corpus line must have
    one sidecar entry with the same label, and no entry another line
    (IntegrityError otherwise)."""
    path = Path(path)
    sidecar = _sidecar(path)
    index = _read_sidecar(sidecar) if sidecar.exists() else None
    examples = []
    for lineno, raw in read_lines(path):
        if not raw:
            continue
        try:
            parsed = parse_example(raw)
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc.reason}", exc.offset) from exc
        provenance = ("?", "?", "?")
        if index is not None:
            entry = index.pop(lineno - 1, None)
            if entry is None or entry[0] != parsed.model_id:
                raise IntegrityError(f"{sidecar} does not match {path} at line {lineno - 1}")
            provenance = entry[1]
        examples.append(RouterExample(
            serialized_input=raw.split(SEP_MARK, 1)[0],
            label_model_id=parsed.model_id,
            provenance=provenance,
            raw_line=raw,
        ))
    if index:
        raise IntegrityError(f"{sidecar} indexes lines {sorted(index)[:5]} that {path} lacks")
    return examples


def _read_sidecar(sidecar: Path) -> dict[int, tuple[str, tuple[str, str, str]]]:
    """Corpus line -> (label, provenance). An entry without an int ``line``
    or string label and provenance fields, or a second entry for a line,
    raises IntegrityError naming ``sidecar:line``."""
    index = {}
    for lineno, d in read_numbered_jsonl(sidecar):
        try:
            line, label = d["line"], d["label_model_id"]
            provenance = (d["sample_id"], d["dataset_id"], d["prompt_variant_id"])
        except KeyError as exc:
            raise IntegrityError(f"{sidecar}:{lineno}: entry lacks {exc}") from exc
        if type(line) is not int or not all(isinstance(x, str) for x in (label, *provenance)):
            raise IntegrityError(f"{sidecar}:{lineno}: malformed entry {d}")
        if line in index:
            raise IntegrityError(f"{sidecar}:{lineno}: second entry for line {line}")
        index[line] = (label, provenance)
    return index


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".index.jsonl")
