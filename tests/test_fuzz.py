"""Fuzzing of the readers of stored lines and files: every input gives a
value or a TaskRouterError, never another exception. Also every line the
serializer writes parses back to its fields, the batched featurizer
matches the one-line reference row by row, and the renders ``evaluate``
and ``router_inputs`` keep for a call change no outcome, call or input."""

import json
import math
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (grid_table, img_segment, keyed_metadata, line_by_line_records,
                     line_features, matmul_hash_chunk, object_records,
                     query_by_query_embedding_outcomes, query_by_query_generative_outcomes,
                     reference_corpus, reference_save_corpus, unique_feature_rows)

import taskrouter.core as core
import taskrouter.router as router_module
from taskrouter import (DatasetManifest, ExecutionRecord, InvalidInputError, MetadataSummary,
                        Sample, TaskRouterError, World, parse_example, serialize_example)
from taskrouter.baselines import voting_accuracy, voting_predict
from taskrouter.core import (TASK_KINDS, QueryGrid, Records, load_metadata, load_world,
                             read_numbered_jsonl, save_records, save_world, write_jsonl)
from taskrouter.prompts import (DatasetPromptConfig, PromptTemplate, prompt_variants,
                                valid_variant_ids)
from taskrouter.router import (FeaturizerConfig, RouterModel, TrainConfig, featurize,
                               featurize_batch)
from taskrouter.routerdata import (ALL_FLAG_COMBOS, ParsedExample, SerializationFlags,
                                   _img_segment, build_router_dataset, router_corpora,
                                   router_inputs, save_corpus, select_best_model)
from taskrouter.scoring import SeededEmbeddingBackend, SeededLogprobBackend, evaluate
from taskrouter.synth import WorldSpec
from taskrouter import wire

LINES = (
    "[img]dim::(2,3,1)ave::(0.5)std::(1.0)[prompt]What is this? ;;;['a cat', 'a dog'"
    "[SEP]model::alpha[response]correct::True;;;avg_accuracy::0.50000",
    "[prompt]Is it red?[SEP]model::beta[response]correct::False;;;avg_accuracy::1.00000",
)
# characters the grammar gives meaning to, non-ASCII digits among them
GRAMMAR_CHARS = st.sampled_from("0123456789²١٥.,-()[]:;' \n\r") | st.characters()


@st.composite
def damaged_lines(draw):
    """A well-formed line with up to three short spans replaced."""
    line = draw(st.sampled_from(LINES))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(line)))
        end = draw(st.integers(start, min(len(line), start + 8)))
        line = line[:start] + draw(st.text(GRAMMAR_CHARS, max_size=6)) + line[end:]
    return line


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _read_numbered_jsonl(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(data)
        return list(read_numbered_jsonl(path))


def _load_router(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "router.bin"
        path.write_bytes(data)
        return RouterModel.load(path)


def _value_or_error(read, *args):
    try:
        read(*args)
    except TaskRouterError:
        pass


@given(damaged_lines())
@example("[img]dim::(²,1,1)ave::(0.0)std::(0.0)[prompt]p[SEP]model::m[response]"
         "correct::True;;;avg_accuracy::0.50000")
@example("[img]dim::(\ud800,1,1)ave::(0.0)std::(0.0)[prompt]p[SEP]model::m[response]"
         "correct::True;;;avg_accuracy::0.50000")
@settings(max_examples=300, deadline=None)
def test_parse_example_gives_a_value_or_an_error(line):
    _value_or_error(parse_example, line)


@given(st.lists(st.sampled_from([b'{"a": 1}', b"[1]", b"", b"  ", b"{", b"\xff\xfe"])
                | st.binary(max_size=12), max_size=5).map(b"\n".join))
@example(b'{"a": 1}\n{"a": "\xff"}\n')
@settings(max_examples=200, deadline=None)
def test_read_numbered_jsonl_gives_a_value_or_an_error(data):
    _value_or_error(_read_numbered_jsonl, data)


VALID_HEADER = {
    "format_version": 1, "learner_kind": RouterModel.LEARNER_KIND, "vocabulary": ["a", "b"],
    "flags": {"include_metadata": True, "include_response_options": False},
    "featurization": {"ngram_orders": [2], "hash_dim": 2, "lowercase": True},
    "seed": 0, "weights_shape": [2, 2],
}


@st.composite
def router_headers(draw):
    """Arbitrary bytes, or the JSON of a valid header with a field replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    header = dict(VALID_HEADER)
    header[draw(st.sampled_from(sorted(header)))] = draw(JSON_VALUES)
    return json.dumps(header).encode("utf-8")


@given(router_headers(), st.integers(-4, 4), st.binary(max_size=64))
@example(b"[" * 100_000, 0, b"")
@settings(max_examples=300, deadline=None)
def test_router_load_gives_a_value_or_an_error(header, length_error, body):
    length = max(0, len(header) + length_error)
    _value_or_error(_load_router, RouterModel.MAGIC + struct.pack("<I", length) + header + body)


@given(damaged_lines())
@example(LINES[0].replace("(2,3,1)", "(02,3,1)"))
@example(LINES[0].replace("ave::(0.5)", "ave::(00.5)"))
@example(LINES[1].replace("::1.00000", "::01.00000"))
@example(LINES[0].replace("What is this?", "What ;;;[is this?"))
@example(LINES[1].replace("model::beta", "model::be[SEP]ta"))
@settings(max_examples=300, deadline=None)
def test_every_accepted_line_reserializes_byte_for_byte(line):
    try:
        parsed = parse_example(line)
    except TaskRouterError:
        return
    assert parsed.reserialize() == line


# field text built from separator and marker pieces, quotes and non-ASCII
# characters, so some draws are text the serializer must refuse
FIELD_TEXT = st.lists(st.sampled_from(["'", ", ", "', ", ";;;", "[", "]", "SEP", "é", "日", " "])
                      | st.characters(), max_size=6).map("".join)
TENTHS = st.integers(-5000, 5000).map(lambda k: k / 10) | st.just(-0.0)


@st.composite
def serializable_fields(draw):
    """(metadata, prompt, options, model id, correct, avg_accuracy, flags)
    under a drawn flag combination."""
    flags = draw(st.sampled_from(ALL_FLAG_COMBOS))
    metadata = options = None
    if flags.include_metadata:
        c = draw(st.integers(1, 4))
        channels = st.lists(TENTHS, min_size=c, max_size=c).map(tuple)
        metadata = MetadataSummary((draw(st.integers(1, 5000)), draw(st.integers(1, 5000)), c),
                                   draw(channels), tuple(map(abs, draw(channels))))
    if flags.include_response_options:
        options = tuple(draw(st.lists(FIELD_TEXT, max_size=4)))
    avg = draw(st.integers(0, 100_000).map(lambda k: k / 100_000) | st.just(-0.0))
    return (metadata, draw(FIELD_TEXT), options, draw(FIELD_TEXT), draw(st.booleans()), avg,
            flags)


@given(serializable_fields())
@example((None, "p", None, "m", True, -0.0, ALL_FLAG_COMBOS[3]))
@example((MetadataSummary((1, 2, 1), (-0.0,), (-0.0,)), "é ;;; [", ("日", "'", ""), "m",
          False, 1.0, ALL_FLAG_COMBOS[0]))
@settings(max_examples=300, deadline=None)
def test_every_serialized_line_parses_to_its_fields(fields):
    *values, flags = fields
    try:
        line = serialize_example(*values, flags=flags)
    except InvalidInputError:
        assume(False)
    parsed = parse_example(line)
    assert parsed == ParsedExample(*values)
    assert parsed.reserialize() == line


# ids with characters JSON escapes: quotes, backslashes, control and
# non-ASCII characters, text outside the BMP and a lone surrogate
RECORD_IDS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "é", "\u2028", "\U0001f600", "\ud800", 'a"b\\c\n'])
RECORD_ROWS = st.lists(st.builds(
    ExecutionRecord, RECORD_IDS, RECORD_IDS, RECORD_IDS, RECORD_IDS,
    st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans()), max_size=6)


@given(RECORD_ROWS)
@example([ExecutionRecord('q"\\\x00', "é\ud800", "\U0001f600", "\u2028\x85", -2 ** 63, True)])
@settings(max_examples=200, deadline=None)
def test_record_writer_bytes_equal_json_dumps_and_round_trip(records):
    with tempfile.TemporaryDirectory() as tmp:
        template, dumps = Path(tmp, "template.jsonl"), Path(tmp, "dumps.jsonl")
        save_records(records, template)
        write_jsonl(dumps, (rec.to_dict() for rec in records))
        assert template.read_bytes() == dumps.read_bytes()
        assert list(Records.load(template)) == records
        save_world(World(datasets={}, prompt_configs={}, metadata={}, records=records,
                         model_pool=[]), tmp)
        assert list(load_world(tmp).records) == records


RECORD_LINE = json.dumps(ExecutionRecord("s0", "d", "m", "q0-o0", 1, False).to_dict(),
                         sort_keys=True)
RECORD_CHARS = st.sampled_from('{}[]:,"\\ 0123456789-.eE\r\t') | st.characters()


@st.composite
def record_lines(draw):
    """A well-formed record line with a field dropped or replaced, or with
    up to three short spans replaced."""
    if draw(st.booleans()):
        row = json.loads(RECORD_LINE)
        key = draw(st.sampled_from(sorted(row)))
        if draw(st.booleans()):
            row.pop(key)
        else:
            row[key] = draw(JSON_VALUES | st.integers())
        return json.dumps(row).encode("utf-8")
    line = RECORD_LINE
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(line)))
        end = draw(st.integers(start, min(len(line), start + 8)))
        line = line[:start] + draw(st.text(RECORD_CHARS, max_size=6)) + line[end:]
    return line.encode("utf-8", "surrogatepass")


def saved_line(**fields) -> bytes:
    """RECORD_LINE with ``fields`` replaced, as ``Records.save`` writes it."""
    return json.dumps({**json.loads(RECORD_LINE), **fields}, sort_keys=True).encode()


def predicted_line(text: str) -> bytes:
    """RECORD_LINE with ``text`` written as its predicted_index."""
    return RECORD_LINE.replace('"predicted_index": 1', f'"predicted_index": {text}').encode()


@given(st.lists(st.sampled_from([RECORD_LINE.encode(), b"", b" ", b"\r", b"{", b"[1]"])
                | record_lines() | st.binary(max_size=12), max_size=6).map(b"\n".join))
# saved lines whose ids hold escapes, one holding a field separator, and a
# line with an escape JSON does not define
@example(saved_line(sample_id='"') + b"\n" + saved_line(model_id="\\"))
@example(saved_line(sample_id="\u2028", dataset_id="\U0001f600", prompt_variant_id="\ud800"))
@example(saved_line(sample_id='a", "model_id": "b'))
@example(RECORD_LINE.replace('"s0"', r'"\x"').encode())
# predictions JSON reads as ints, at and past the int64 bounds, and one it refuses
@example(predicted_line("-0") + b"\n" + predicted_line(str(-2 ** 63)) + b"\n"
         + predicted_line(str(2 ** 63 - 1)))
@example(predicted_line("01"))
@example(predicted_line(str(2 ** 63)))
@example(predicted_line(str(-2 ** 63 - 1)))
@example(predicted_line("1" * 20))
@example(b"\xef\xbb\xbf" + RECORD_LINE.encode())
@example(RECORD_LINE.encode() + b"\r\n" + RECORD_LINE.replace(" ", "\n").encode())
@example(RECORD_LINE.replace("1", "9" * 5000).encode())
@example(RECORD_LINE.replace('"s0"', "[" * 100_000).encode())
@settings(max_examples=300, deadline=None)
def test_records_file_gives_a_value_or_an_error_as_line_by_line(data):
    # any bytes read as records.jsonl give a table or a TaskRouterError, and
    # the same rows or words as reading it one record object at a time
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_bytes(data)
        for read in (Records.load, object_records):
            try:
                outcomes.append(list(read(path)))
            except TaskRouterError as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def _read_in_blocks(reads, data: bytes, block_bytes: int, name: str, value) -> list:
    """For each of ``reads``, ``value`` of what it gives for ``data`` saved
    as ``name`` and read in blocks of about ``block_bytes``, or the type
    and text of the error it raises."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(core, "_READ_BLOCK_BYTES", block_bytes):
        path = Path(tmp) / name
        path.write_bytes(data)
        for read in reads:
            try:
                outcomes.append(value(read(path)))
            except Exception as exc:  # noqa: BLE001 - the reader and its reference fail alike
                outcomes.append((type(exc), str(exc)))
    return outcomes


def _columns(table: Records) -> list:
    return [*((col.codes.dtype, col.codes.tolist(), col.values) for col in table.ids()),
            table.predicted.dtype, table.predicted.tolist(), table.correct.dtype,
            table.correct.tolist()]


# ids from few characters, so heads and ids repeat within and across
# blocks; among them characters JSON escapes and text outside ASCII
FEW_IDS = st.text(st.sampled_from('a"\\é\U0001f600\u2028\x00'), max_size=2)


@st.composite
def saved_record_lines(draw):
    """A line ``Records.save`` writes, with CRLF, other spacing, or a
    whitespace-only line in its place at times."""
    rec = draw(st.builds(ExecutionRecord, FEW_IDS, FEW_IDS, FEW_IDS, FEW_IDS,
                         st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-9, 9),
                         st.booleans()))
    line = json.dumps(rec.to_dict(), sort_keys=True)
    fault = draw(st.sampled_from(["", "", "", "crlf", "spacing", "blank"]))
    if fault == "crlf":
        line += "\r"
    elif fault == "spacing":
        line = json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":"))
    elif fault == "blank":
        line = draw(st.sampled_from(["", " ", "\t", "\r"]))
    return line.encode()


@given(st.lists(saved_record_lines() | saved_record_lines() | record_lines(), max_size=10),
       st.integers(0, 40), st.integers(1, 600))
@example([saved_line(sample_id="s1"), b" \t", saved_line(sample_id="s1", model_id="\u00e9")],
         0, 1)
@example([saved_line(prompt_variant_id="\U0001f600\u2028")] * 3, 10, 300)
@example([saved_line(), predicted_line(str(2 ** 63))], 0, 1)
@example([saved_line(), RECORD_LINE.replace('"s0"', r'"\x"').encode()], 0, 1)
@example([saved_line() + b"\r", saved_line(correct=True)], 0, 200)
@settings(max_examples=300, deadline=None)
def test_records_file_reads_as_the_line_by_line_reader(lines, cut, block_bytes):
    # blocks split anywhere in the file; the table equals the one that
    # ``_check_block`` reads line by line from the whole file, codes and
    # values included, or both fail with the same error
    data = b"\n".join(lines) + b"\n"
    data = data[:len(data) - cut]  # cut into the last lines
    loaded, reference = _read_in_blocks((Records.load, line_by_line_records), data,
                                        block_bytes, "records.jsonl", _columns)
    assert loaded == reference


# floats, -0.0, huge finite values and integers, which ``json`` reads as ints
MEANS = (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e308])
         | st.integers(-2 ** 70, 2 ** 70))


@st.composite
def metadata_lines(draw):
    """A line ``save_metadata`` writes for a drawn summary, integer means
    included, or one with a non-finite number, a negative std, a zero dim,
    a wrong channel count for both lists or for one, two or four dims, a
    CRLF end, other spacing, a whitespace-only line or a damaged span."""
    c = draw(st.integers(1, 4))
    row = {"sample_id": draw(FEW_IDS), "dims": [draw(st.integers(1, 2 ** 40)), 2, c],
           "channel_means": draw(st.lists(MEANS, min_size=c, max_size=c)),
           "channel_stds": draw(st.lists(MEANS.map(abs), min_size=c, max_size=c))}
    fault = draw(st.sampled_from(["", "", "", "non-finite", "negative-std", "zero-dim",
                                  "channels", "one-list", "dims-length", "crlf", "spacing",
                                  "blank", "span"]))
    if fault == "non-finite":
        row[draw(st.sampled_from(["channel_means", "channel_stds"]))][0] = "@"
    elif fault == "negative-std":
        row["channel_stds"][draw(st.integers(0, c - 1))] = draw(
            st.sampled_from([-1.0, -5e-324, -1]) | st.floats(max_value=-1e-3, allow_infinity=False))
    elif fault == "zero-dim":
        row["dims"][draw(st.integers(0, 2))] = 0
    elif fault == "channels":
        row["dims"][2] = draw(st.sampled_from([c - 1, c + 1]))
    elif fault == "one-list":
        row[draw(st.sampled_from(["channel_means", "channel_stds"]))].append(0.5)
    elif fault == "dims-length":
        row["dims"] = draw(st.sampled_from([row["dims"][1:], row["dims"] + [c]]))
    line = json.dumps(row, sort_keys=True)
    if fault == "non-finite":
        line = line.replace('"@"', draw(st.sampled_from(["NaN", "Infinity", "-Infinity",
                                                          "1e400", "-1e400"])))
    elif fault == "crlf":
        line += "\r"
    elif fault == "spacing":
        line = json.dumps(row, sort_keys=True, separators=(",", ":"))
    elif fault == "blank":
        line = draw(st.sampled_from(["", " ", "\t", "\r"]))
    elif fault == "span":
        start = draw(st.integers(0, len(line)))
        end = draw(st.integers(start, min(len(line), start + 8)))
        line = line[:start] + draw(st.text(RECORD_CHARS, max_size=6)) + line[end:]
    return line.encode("utf-8", "surrogatepass")


def metadata_line(sample_id='"s0"', means="[1.5]", stds="[0.5]", dims="[2, 2, 1]") -> bytes:
    """A metadata line with its fields' JSON texts as given."""
    return (f'{{"channel_means": {means}, "channel_stds": {stds}, "dims": {dims}, '
            f'"sample_id": {sample_id}}}').encode()


def _summaries(metadata: dict) -> list:
    # repr tells an int mean from a float and -0.0 from 0.0
    return [(sample_id, repr(summary)) for sample_id, summary in metadata.items()]


@given(st.lists(metadata_lines(), max_size=10), st.integers(0, 40), st.integers(1, 600))
# a sample id repeated in a later block, and one repeated within a block,
# once escaped and once not
@example([metadata_line('"a"'), metadata_line('"b"'), metadata_line('"a"')], 0, 1)
@example([metadata_line('"a"'), metadata_line('"\\u00e9"'), metadata_line('"é"')], 0, 10 ** 6)
@example([metadata_line(means="[1, 2.5]", stds="[0.5, 0.0]", dims="[2, 2, 2]")], 0, 1)
@example([metadata_line(means="[NaN]")], 0, 1)
@example([metadata_line('"a"'), metadata_line('"b"', stds="[Infinity]")], 0, 1)
@example([metadata_line(means="[1e400]")], 0, 10 ** 6)
@example([metadata_line('"\\u00e9\\ud83d\\ude00\\\\\\""'), metadata_line('"é\U0001f600"'),
          metadata_line('"x"') + b"\r", b" "], 0, 1)
@example([metadata_line(dims="[2, 2, 3]"), metadata_line(means="[-0.0]", stds="[-0.0]")], 0, 1)
@example([metadata_line('"a"'), metadata_line('"b"')], 12, 1)
@example([metadata_line(dims="[2, 2, 1]", means="[1" + "0" * 5000 + ".5]")], 0, 1)
@example([metadata_line(dims="[1" + "0" * 5000 + ", 2, 1]")], 0, 1)
# each in one block with a good line: a negative std, 1e400, a channel
# count that is not dims[2] (in dims or in one list), four dims then two,
# a zero dim, an int mean (which the line reader keeps) and a dim beyond int64
@example([metadata_line('"a"'), metadata_line('"b"', stds="[-1.0]")], 0, 10 ** 6)
@example([metadata_line('"a"'), metadata_line('"b"', stds="[1e400]")], 0, 10 ** 6)
@example([metadata_line('"a"'), metadata_line('"b"', dims="[2, 2, 2]")], 0, 10 ** 6)
@example([metadata_line('"a"'), metadata_line('"b"', means="[1.5, 2.5]")], 0, 10 ** 6)
@example([metadata_line('"a"'), metadata_line('"b"', stds="[0.5, 0.5]")], 0, 10 ** 6)
# four dims then two: six in all, two per channel count read from every third
@example([metadata_line('"a"', dims="[1, 1, 1, 1]"), metadata_line('"b"', dims="[1, 1]")],
         0, 10 ** 6)
@example([metadata_line('"a"'), metadata_line('"b"', dims="[2, 0, 1]")], 0, 10 ** 6)
@example([metadata_line('"a"'), metadata_line('"b"', means="[2]")], 0, 10 ** 6)
@example([metadata_line('"a"', dims="[2, 2, 2]", means="[1.5, 2.5]", stds="[0.5, 0.5]"),
          metadata_line('"b"', dims="[9" + "9" * 20 + ", 2, 1]")], 0, 10 ** 6)
# a sample id that is not a string, in a block of its own and in a file-wide one
@example([metadata_line('"a"'), metadata_line("5")], 0, 1)
@example([metadata_line("[1]"), metadata_line('"a"')], 0, 10 ** 6)
@settings(max_examples=300, deadline=None)
def test_metadata_file_reads_as_the_line_by_line_reader(lines, cut, block_bytes):
    # blocks split anywhere in the file; the summaries, their order and each
    # mean's int or float type included, equal those of the line-by-line
    # read, or both fail with the same first error
    data = b"\n".join(lines) + b"\n"
    data = data[:len(data) - cut]  # cut into the last lines
    loaded, reference = _read_in_blocks((load_metadata, keyed_metadata), data, block_bytes,
                                        "metadata.jsonl", _summaries)
    assert loaded == reference


@st.composite
def image_summaries(draw):
    """Summaries of 1 to 4 channels, with -0.0, integer and huge finite
    means and stds."""
    c = draw(st.integers(1, 4))
    means = draw(st.lists(MEANS | st.integers(-2 ** 1000, 2 ** 1000), min_size=c, max_size=c))
    stds = draw(st.lists(MEANS.map(abs), min_size=c, max_size=c))
    return MetadataSummary((draw(st.integers(1, 2 ** 70)), draw(st.integers(1, 9)), c),
                           tuple(means), tuple(stds))


def _formatted(fn, metadata):
    try:
        return fn(metadata)
    except Exception as exc:  # noqa: BLE001 - both must fail alike
        return type(exc)


@given(image_summaries())
@example(MetadataSummary((1, 1, 1), (-0.0,), (0.0,)))
@example(MetadataSummary((3, 2, 3), (5, -0.05, 1e308), (0.05, 2 ** 900, 0.25)))
@settings(max_examples=300, deadline=None)
def test_img_segment_equals_the_f_string_format(metadata):
    assert _formatted(_img_segment, metadata) == _formatted(img_segment, metadata)


@st.composite
def saved_summaries(draw):
    """``image_summaries`` with some float means and stds as np.float64."""
    summary = draw(image_summaries())

    def some_numpy(values):
        return tuple(np.float64(v) if type(v) is float and draw(st.booleans()) else v
                     for v in values)

    return MetadataSummary(summary.dims, some_numpy(summary.channel_means),
                           some_numpy(summary.channel_stds))


@given(st.dictionaries(FEW_IDS | st.text(max_size=6), saved_summaries(), max_size=6))
# int means, np.float64 values, and ids with escapes and non-ASCII characters
@example({'"\\é\x00': MetadataSummary((2, 3, 2), (7, np.float64(-0.05)), (np.float64(0.0), 3)),
          "\U0001f600\u2028\ud800": MetadataSummary((1, 1, 1), (1e308,), (0.5,))})
@settings(max_examples=200, deadline=None)
def test_saved_metadata_is_write_jsonl_of_its_rows(metadata):
    with tempfile.TemporaryDirectory() as tmp:
        core.save_metadata(metadata, Path(tmp, "metadata.jsonl"))
        write_jsonl(Path(tmp, "rows.jsonl"), ({"sample_id": sample_id, **summary.to_dict()}
                                              for sample_id, summary in metadata.items()))
        assert Path(tmp, "metadata.jsonl").read_bytes() == Path(tmp, "rows.jsonl").read_bytes()


# cased letters, one whose lowercase form is longer (İ), non-BMP code
# points, and any other character that UTF-32 can encode
FEATURE_CHARS = (st.sampled_from("aAbBzZ İΣσ[];:") | st.characters(min_codepoint=0x10000)
                 | st.characters(exclude_categories=("Cs",)))


@st.composite
def featurizer_configs(draw):
    """Orders up to 5, so short lines fit none of them, and hash spaces
    down to 2 buckets, where signs cancel to a stored 0.0."""
    return FeaturizerConfig(
        ngram_orders=tuple(sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)))),
        hash_dim=draw(st.sampled_from([2, 3, 16, 1024, 2 ** 18])),
        lowercase=draw(st.booleans()),
    )


@given(featurizer_configs(),
       st.lists(st.text(FEATURE_CHARS, min_size=1, max_size=24), min_size=1, max_size=12),
       st.sampled_from([1, 7, 40, 1 << 13]))
# unigrams of "a" and "c" share a bucket of 2 and cancel to 0.0
@example(FeaturizerConfig((1,), 2, lowercase=False), ["ac", "AC", "a"], 1 << 13)
# a line longer than a chunk, and a batch spanning several real chunks
@example(FeaturizerConfig(), ["x", "İ\U0001f600" * (1 << 14) + "y", "Mixed Case"], 1 << 13)
@example(FeaturizerConfig(), [f"[prompt]line {i} " * 300 for i in range(8)], 1 << 13)
# lowercasing lengthens İ to two code points: more buckets than the lines as
# given have n-grams, so the matrix's arrays grow
@example(FeaturizerConfig(), ["".join(f"İ{chr(0x4E00 + i)}" for i in range(200)), "Short"],
         1 << 13)
@settings(max_examples=300, deadline=None)
def test_every_batched_row_equals_the_one_line_featurizer(config, texts, chunk_chars):
    with mock.patch.object(router_module, "_FEATURIZE_CHUNK_CHARS", chunk_chars):
        rows = featurize_batch(texts, config)
    assert len(rows) == len(texts)
    assert (rows.indptr.dtype, rows.indices.dtype, rows.values.dtype) == \
        (np.dtype(np.int64), np.dtype(np.int32), np.dtype(np.float64))
    assert rows.indptr[0] == 0 and rows.indptr[-1] == len(rows.indices) == len(rows.values)
    for i, text in enumerate(texts):
        idx, vals = rows.row(i)
        for ref_idx, ref_vals in (featurize(text, config), line_features(text, config)):
            assert (ref_idx.dtype, ref_vals.dtype) == (np.dtype(np.int64), np.dtype(np.float64))
            assert idx.astype(np.int64).tobytes() == ref_idx.tobytes()
            assert vals.tobytes() == ref_vals.tobytes()


def test_batched_featurizer_keeps_a_cancelled_bucket():
    rows = featurize_batch(["ac"], FeaturizerConfig((1,), 2, lowercase=False))
    idx, vals = rows.row(0)
    assert idx.tolist() == [1] and vals.tolist() == [0.0]


def test_batched_featurizer_of_no_lines_is_an_empty_matrix():
    rows = featurize_batch([], FeaturizerConfig())
    assert len(rows) == 0 and rows.indptr.tolist() == [0]
    assert len(rows.indices) == len(rows.values) == 0


@st.composite
def hash_chunks(draw):
    """A featurizer config, with up to five distinct orders in any order,
    and a chunk of lines whose code points fall short of
    ``_PRODUCTS_MIN_CODES`` or, repeated, reach it."""
    config = FeaturizerConfig(
        ngram_orders=tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5,
                                         unique=True))),
        hash_dim=draw(st.sampled_from([2, 3, 16, 1000, 2 ** 18])),
        lowercase=draw(st.booleans()),
    )
    lines = draw(st.lists(st.text(FEATURE_CHARS, min_size=1, max_size=24), min_size=1,
                          max_size=12))
    if draw(st.booleans()):
        codes = sum(len(t.lower() if config.lowercase else t) for t in lines)
        lines *= -(-router_module._PRODUCTS_MIN_CODES // codes) + draw(st.integers(0, 2))
    return config, lines


def assert_equals_the_matmul_and_unique_oracles(config, texts):
    lengths, _, buckets, signs = router_module._hash_chunk(config, texts)
    ref_lengths, ref_buckets, ref_signs = matmul_hash_chunk(config, texts)
    assert lengths.tolist() == ref_lengths.tolist()
    for got, ref in ((buckets, ref_buckets), (signs, ref_signs)):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()
    rows = featurize_batch(texts, config)
    for got, ref in zip((rows.indptr, rows.indices, rows.values),
                        unique_feature_rows(texts, config)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@given(hash_chunks())
# several lines per featurizer chunk, each chunk past the products threshold
@example((FeaturizerConfig(), [f"[prompt]line {i} " * 80 for i in range(20)]))
# the largest hash space and a chunk of 8,192 one-character rows: keys near 2^62
@example((FeaturizerConfig((1,), 2 ** 48), [chr(97 + i % 26) for i in range(9000)]))
# one line as wide as the cached one-line fit mask, and one a code point longer
@example((FeaturizerConfig((1, 4), 1000),
          ["aZ" * (router_module._PRODUCTS_MIN_CODES // 2 - 1) + "b"]))
@example((FeaturizerConfig((1, 4), 1000), ["aZ" * (router_module._PRODUCTS_MIN_CODES // 2)]))
@settings(max_examples=300, deadline=None)
def test_hashes_and_rows_equal_the_matmul_and_unique_oracles(chunk):
    assert_equals_the_matmul_and_unique_oracles(*chunk)


def test_long_chunks_keep_cancelled_buckets_and_empty_rows():
    # unigrams of "a" and "c" share a bucket of 2 and cancel to 0.0, and "b"
    # is shorter than every order of the second config
    for config, texts, row in ((FeaturizerConfig((1,), 2, lowercase=False),
                                ["ac", "AC", "a"] * 700, ([1], [0.0])),
                               (FeaturizerConfig((3, 2), 16), ["b", "İbcdef"] * 300, ([], []))):
        assert sum(map(len, texts)) >= router_module._PRODUCTS_MIN_CODES
        idx, vals = featurize_batch(texts, config).row(0)
        assert (idx.tolist(), vals.tolist()) == row
        assert_equals_the_matmul_and_unique_oracles(config, texts)


@pytest.mark.parametrize("bad, error", [("", InvalidInputError),
                                        ("x\ud800", UnicodeEncodeError)])
def test_batched_featurizer_rejects_what_featurize_rejects(bad, error):
    with pytest.raises(error):
        featurize_batch(["fine", bad], FeaturizerConfig())
    with pytest.raises(error):
        featurize(bad, FeaturizerConfig())


@st.composite
def vote_grids(draw):
    """(options, golds per sample, votes per (sample, variant) row): rows of
    2 question forms by 2-5 models, many of them forced ties."""
    options = draw(st.integers(2, 6))
    models = draw(st.integers(2, 5))
    samples = draw(st.integers(1, 6))
    index = st.integers(0, options - 1)
    tie = st.tuples(index, index).map(lambda ab: [ab[0], ab[1]] * models)
    row = st.lists(index, min_size=models, max_size=models) | tie.flatmap(
        lambda pairs: st.permutations(pairs[:models]))
    golds = draw(st.lists(index, min_size=samples, max_size=samples))
    return options, golds, draw(st.lists(row, min_size=2 * samples, max_size=2 * samples))


@given(vote_grids())
@example((3, [2], [[1, 2, 2, 1], [0, 1, 2, 2]]))  # two-way tie, then a lone pair
@settings(max_examples=200, deadline=None)
def test_voting_accuracy_equals_per_row_voting_predict(grid_spec):
    options, golds, votes = grid_spec
    classes = tuple(f"c{k}" for k in range(options))
    config = DatasetPromptConfig("d", (PromptTemplate("Q? "), PromptTemplate("Pick: ")),
                                 (PromptTemplate("{class_name}"),), classes)
    samples = tuple(Sample(f"s{i}", "d", f"d/s{i}", {}, classes, gold)
                    for i, gold in enumerate(golds))
    models = [f"m{j}" for j in range(len(votes[0]))]
    variants = prompt_variants(config)
    queries = [(s, v) for s in samples for v in variants]
    records = [ExecutionRecord(s.sample_id, "d", m, v.variant_id, pick, pick == s.gold_index)
               for (s, v), row in zip(queries, votes) for m, pick in zip(models, row)]
    world = World({"d": DatasetManifest("d", "recognition", samples, "d")}, {"d": config}, {},
                  records, models)
    grid = QueryGrid.build(world)
    rows = grid.rows("d")
    hits = [voting_predict(row) == s.gold_index for (s, _), row in zip(queries, votes)]
    assert voting_accuracy(grid, "d") == grid.variant_mean(rows, hits)


@st.composite
def label_grids(draw):
    """(model pool, per dataset the rows of its samples' 2 prompt variants):
    a row is each model's correct flag, or None for a query without
    records. 2-5 models on 1-4 samples give cell averages few values, so
    exact ties are common; some rows have every model wrong."""
    models = draw(st.lists(st.sampled_from(["a", "b", "B", "ab", "m1", "m10", "m2"]),
                           min_size=2, max_size=5, unique=True))
    row = (st.lists(st.booleans(), min_size=len(models), max_size=len(models))
           | st.just([False] * len(models)) | st.none())
    return models, [draw(st.lists(row, min_size=2 * n, max_size=2 * n))
                    for n in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))]


def _label_world(spec) -> World:
    """The world of a ``label_grids`` draw: its datasets' samples, each
    with metadata, and a record per model on every row that has one."""
    models, datasets = spec
    world = World({}, {}, {}, [], models)
    records = []
    for d, rows in enumerate(datasets):
        ds = f"d{d}"
        config = DatasetPromptConfig(ds, (PromptTemplate("Q? "), PromptTemplate("Pick: ")),
                                     (PromptTemplate("{class_name}"),), ("c0", "c1"))
        samples = tuple(Sample(f"{ds}s{i}", ds, f"{ds}/s{i}", {}, ("c0", "c1"), 0)
                        for i in range(len(rows) // 2))
        world.datasets[ds] = DatasetManifest(ds, "recognition", samples, ds)
        world.prompt_configs[ds] = config
        world.metadata.update((s.sample_id, MetadataSummary((2, 3, 1), (0.5 + i,), (1.0,)))
                              for i, s in enumerate(samples))
        queries = [(s, v) for s in samples for v in prompt_variants(config)]
        records += [ExecutionRecord(s.sample_id, ds, m, v.variant_id, 1 - ok, bool(ok))
                    for (s, v), outcome in zip(queries, rows) if outcome is not None
                    for m, ok in zip(models, outcome)]
    world.records = Records.of(records)
    return world


@given(label_grids())
# a tie of two right models, and a row with both wrong
@example((["b", "a"], [[[True, True], [False, False]]]))
@settings(max_examples=200, deadline=None)
def test_corpus_labels_equal_per_row_select_best_model(spec):
    grid = QueryGrid.build(_label_world(spec))
    table = grid_table(grid)
    corpus = build_router_dataset(grid, SerializationFlags(False, True))
    rows = np.flatnonzero(grid.covered.any(axis=1)).tolist()
    assert corpus.rows.tolist() == rows
    assert len(corpus) == len(rows) == len(corpus.labels) == len(corpus.responses)
    for p, (i, (ds, sample, variant)) in enumerate(zip(rows, grid.queries(rows))):
        correct = dict(zip(grid.models, grid.correct[i].tolist()))
        label = select_best_model(correct, {m: table.cell(m, ds, variant.variant_id)
                                            for m in grid.models})
        assert grid.models[corpus.labels[p]] == label
        assert corpus.inputs[p] + corpus.responses[p] == (
            f"{corpus.inputs[p]}[SEP]model::{label}[response]correct::{correct[label]};;;"
            f"avg_accuracy::{table.marginal(label, ds):.5f}")


@given(label_grids(), st.data())
@settings(max_examples=100, deadline=None)
def test_saved_corpus_equals_the_reference_objects(spec, data):
    # under every flag combination, the columns give the reference's inputs,
    # labels and provenance, and save_corpus writes its corpus and sidecar
    grid = QueryGrid.build(_label_world(spec))
    for flags, corpus in zip(ALL_FLAG_COMBOS, router_corpora(grid, ALL_FLAG_COMBOS)):
        reference = reference_corpus(grid, flags)
        assert corpus.inputs == [ex.serialized_input for ex in reference]
        assert [grid.models[c] for c in corpus.labels] == [ex.label_model_id for ex in reference]
        assert [(sample.sample_id, sample.dataset_id, variant.variant_id)
                for _, sample, variant in grid.queries(corpus.rows)] == [
            ex.provenance for ex in reference]
        order = data.draw(st.permutations(range(len(corpus))))
        positions = order[:data.draw(st.integers(0, len(order)))]
        with tempfile.TemporaryDirectory() as tmp:
            save_corpus(corpus, positions, Path(tmp) / "got.txt")
            reference_save_corpus([reference[p] for p in positions], Path(tmp) / "want.txt")
            for name in ("{}.txt", "{}.txt.index.jsonl"):
                got, want = (Path(tmp, name.format(side)).read_bytes() for side in ("got", "want"))
                assert got == want


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
# one well-typed request per scoring job, answered by a backend of its family
GOOD_JOBS = {
    "embed_image": {"op": "embed_image", "image_ref": "d/s0"},
    "embed_texts": {"op": "embed_texts", "prompts": ["a", "b"]},
    "logprobs": {"op": "logprobs", "image_ref": "d/s0", "prompts": ["a", "b"]},
}
BACKENDS = {"embed_image": SeededEmbeddingBackend(seed=1, dim=4),
            "embed_texts": SeededEmbeddingBackend(seed=1, dim=4),
            "logprobs": SeededLogprobBackend(seed=1)}
JOBS = st.fixed_dictionaries(
    {"op": st.sampled_from(sorted(GOOD_JOBS)) | JSON},
    optional={"image_ref": st.text(max_size=4) | JSON,
              "prompts": st.lists(st.text(max_size=4), max_size=3) | JSON})
REQUESTS = JSON | JOBS | st.fixed_dictionaries(
    {"op": st.sampled_from(["batch", "info", "shutdown"]) | JSON},
    optional={"jobs": st.lists(JOBS | JSON, max_size=3) | JSON})


@given(st.sampled_from(sorted(BACKENDS)), REQUESTS)
@settings(max_examples=300, deadline=None)
def test_every_wire_request_gets_a_reply_object(backend, req):
    reply = wire._answer(BACKENDS[backend], req)
    assert wire._is_reply(reply) and reply["ok"] in (True, False)
    if reply["ok"] and isinstance(req, dict) and req.get("op") == "batch":
        assert all(wire._is_reply(r) for r in reply["result"])
    json.dumps(reply)  # the reply can go on the wire as it is


def _well_typed(field: str, value) -> bool:
    if field == "image_ref":
        return isinstance(value, str)
    return isinstance(value, list) and all(isinstance(p, str) for p in value)


@given(st.sampled_from(sorted(GOOD_JOBS)), st.data())
@settings(max_examples=200, deadline=None)
def test_a_wrong_typed_job_field_gets_an_error_reply(op, data):
    good = GOOD_JOBS[op]
    assert wire._answer(BACKENDS[op], good)["ok"] is True
    field = data.draw(st.sampled_from(sorted(set(good) - {"op"})))
    value = data.draw(JSON.filter(lambda v: not _well_typed(field, v)))
    assert wire._answer(BACKENDS[op], {**good, field: value})["ok"] is False


# ---------------------------------------------------------------------------
# Every from_dict inverts its to_dict, and refuses a field of another JSON
# type instead of coercing it into a different value.

def _is_kind(value, kind, *items) -> bool:
    """Whether ``value`` is of the JSON ``kind`` of ``items``: a finite
    number for ``float``, an int that is not a bool for ``int``."""
    if kind is float:  # an int is a number too, as far as a float goes
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if type(value) is not kind:
        return False
    return all(_is_kind(v, *items) for v in (value.values() if kind is dict else value)) \
        if items else True


# the wrong values any reader must refuse, besides arbitrary JSON of another kind
MISTYPED = {int: [True, "3", 2.5, 1e400], bool: ["false", 0, 1], str: [1, None, ["a"]],
            float: [True, "0.5", None, math.nan, math.inf, 10 ** 400],
            list: ["abc", {"0": 1}, 7],
            dict: [[["a", "b"]], "ab", None]}


def mistyped(kind, *items):
    """A JSON value that is not of the ``kind`` of ``items``: one of
    ``MISTYPED``, arbitrary JSON of another kind, or a container holding
    one mistyped item."""
    wrong = st.sampled_from(MISTYPED[kind]) | JSON_VALUES.filter(
        lambda v: not _is_kind(v, kind, *items))
    if items:
        inner = mistyped(*items)
        wrong |= inner.map(lambda v: [v]) if kind is list else inner.map(lambda v: {"k": v})
    return wrong


TEXT = st.text(max_size=6)
NAMES = st.text(st.characters(exclude_characters="{}"), max_size=6)  # plain templates


@st.composite
def metadata_summaries(draw):
    c = draw(st.integers(1, 4))
    reals = st.floats(-1e6, 1e6, allow_nan=False)
    return MetadataSummary((draw(st.integers(1, 2 ** 40)), draw(st.integers(1, 9)), c),
                           tuple(draw(st.lists(reals, min_size=c, max_size=c))),
                           tuple(draw(st.lists(reals.map(abs), min_size=c, max_size=c))))


@st.composite
def samples(draw, dataset_id=None):
    options = draw(st.lists(TEXT, min_size=1, max_size=4))
    return Sample(draw(TEXT), draw(TEXT) if dataset_id is None else dataset_id, draw(TEXT),
                  draw(st.dictionaries(TEXT, TEXT, max_size=2)), tuple(options),
                  draw(st.integers(0, len(options) - 1)))


@st.composite
def manifests(draw):
    dataset_id = draw(TEXT)
    rows = draw(st.lists(samples(dataset_id), max_size=3, unique_by=lambda s: s.sample_id))
    return DatasetManifest(dataset_id, draw(st.sampled_from(TASK_KINDS)), tuple(rows),
                           draw(TEXT))


@st.composite
def world_specs(draw):
    n = draw(st.integers(1, 3))
    lo = draw(st.integers(2, 5))
    probs = st.lists(st.floats(0, 1), min_size=n, max_size=n).map(tuple)
    return WorldSpec(n, draw(st.integers(1, 5)), (lo, draw(st.integers(lo, 6))),
                     draw(st.dictionaries(TEXT, probs, min_size=1, max_size=3)),
                     draw(st.sampled_from(["none", "metadata_band"])),
                     draw(st.integers(1, 3)), draw(st.integers(-2 ** 63, 2 ** 63)))


PROMPT_CONFIGS = st.builds(
    DatasetPromptConfig, dataset_id=TEXT,
    question_forms=st.lists(NAMES.map(PromptTemplate), min_size=1, max_size=3).map(tuple),
    option_forms=st.lists(NAMES.map(PromptTemplate), max_size=2).map(tuple),
    renames=st.dictionaries(TEXT, TEXT.filter(bool), max_size=2),
    class_names=st.lists(TEXT, max_size=3).map(tuple),
    context_keys=st.lists(TEXT, max_size=3).map(tuple),
    article_exceptions=st.dictionaries(TEXT, TEXT, max_size=2))
POSITIVE = st.integers(1, 2 ** 31)
IDS = {name: str for name in ("sample_id", "dataset_id", "model_id", "prompt_variant_id")}
# class -> (its instances, the JSON kinds of each field its from_dict reads)
READERS = {
    MetadataSummary: (metadata_summaries(), {
        "dims": (list, int), "channel_means": (list, float), "channel_stds": (list, float)}),
    Sample: (samples(), {
        "sample_id": (str,), "dataset_id": (str,), "image_ref": (str,),
        "context": (dict, str), "response_options": (list, str), "gold_index": (int,)}),
    DatasetManifest: (manifests(), {
        "dataset_id": (str,), "task_kind": (str,), "samples": (list, dict),
        "prompt_config_ref": (str,), "size": (int,)}),
    ExecutionRecord: (st.builds(ExecutionRecord, TEXT, TEXT, TEXT, TEXT,
                                st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans()),
                      {**{k: (v,) for k, v in IDS.items()}, "predicted_index": (int,),
                       "correct": (bool,)}),
    DatasetPromptConfig: (PROMPT_CONFIGS, {
        "dataset_id": (str,), "question_forms": (list, str), "option_forms": (list, str),
        "renames": (dict, str), "class_names": (list, str), "context_keys": (list, str),
        "article_exceptions": (dict, str)}),
    WorldSpec: (world_specs(), {
        "n_datasets": (int,), "samples_per_dataset": (int,), "options_range": (list, int),
        "competence": (dict, list, float), "signal_mode": (str,),
        "question_forms_per_dataset": (int,), "seed": (int,)}),
    FeaturizerConfig: (st.builds(FeaturizerConfig, st.lists(POSITIVE, min_size=1, max_size=3),
                                 st.integers(2, 2 ** 31), st.booleans()),
                       {"ngram_orders": (list, int), "hash_dim": (int,), "lowercase": (bool,)}),
    TrainConfig: (st.builds(TrainConfig, st.floats(1e-9, 1e3), POSITIVE, POSITIVE, POSITIVE,
                            st.integers(-2 ** 63, 2 ** 63)),
                  {"learning_rate": (float,), "batch_size": (int,), "max_iterations": (int,),
                   "eval_every": (int,), "seed": (int,)}),
    SerializationFlags: (st.builds(SerializationFlags, st.booleans(), st.booleans()),
                         {"include_metadata": (bool,), "include_response_options": (bool,)}),
}


@pytest.mark.parametrize("cls", READERS, ids=[cls.__name__ for cls in READERS])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_from_dict_inverts_to_dict_and_refuses_a_mistyped_field(cls, data):
    instances, kinds = READERS[cls]
    value = data.draw(instances)
    d = json.loads(json.dumps(value.to_dict()))
    assert cls.from_dict(d) == value
    name = data.draw(st.sampled_from(sorted(kinds)))
    wrong = data.draw(mistyped(*kinds[name]))
    with pytest.raises(InvalidInputError, match=f"field {name!r} must be"):
        cls.from_dict({**d, name: wrong})


# Templates that read nothing of the sample, a context value all samples
# share (``shared``), one of each sample's own (``own``), or one that some
# samples lack or hold empty (``some``); renamed and with articles.
_QUESTION_FORMS = ("What is it? ", "At {shared}: ", "Seen {own}: ", "By {a_an|some}: ",
                   "{rename_classes|shared} or ", "{a_an, rename_classes|own}? ", "")
_OPTION_FORMS = ("{class_name}", "{a_an|class_name}", "{rename_classes|class_name}",
                 "{a_an,rename_classes|class_name} at {shared}", "{class_name}, {some}")
_WORDS = ("owl", "hour", "unicorn", "red", "apple", "sky")
_MARKED = ("re[SEP]d", "a;;;[b", "owl', ")  # options no router input may hold


@st.composite
def render_worlds(draw):
    """One to three datasets of one to six samples, with a record of each
    of two models on every valid query. Renames and article exceptions,
    drawn per dataset, make some renders of different inputs equal;
    options are verbatim or rendered, drawn from a few option lists and
    reordered, so lists repeat across samples; one option may hold a
    reserved marker."""
    world, records = World({}, {}, {}, [], ["alpha", "beta"]), []
    for d in range(draw(st.integers(1, 3))):
        ds = f"ds{d}"
        config = DatasetPromptConfig(
            ds, tuple(map(PromptTemplate, draw(st.lists(st.sampled_from(_QUESTION_FORMS),
                                                         min_size=1, max_size=3)))),
            tuple(map(PromptTemplate, draw(st.lists(st.sampled_from(_OPTION_FORMS), max_size=2)))),
            renames=draw(st.dictionaries(st.sampled_from(_WORDS + ("home", "x1")),
                                         st.sampled_from(_WORDS), max_size=3)),
            context_keys=("shared", "own", "some"),
            article_exceptions=draw(st.dictionaries(st.sampled_from(_WORDS + ("home", "x1")),
                                                    st.sampled_from(["a", "an"]), max_size=3)))
        lists = draw(st.lists(st.lists(st.sampled_from(_WORDS), min_size=2, max_size=3,
                                       unique=True), min_size=1, max_size=3))
        shared = draw(st.sampled_from(["home", "owl"]))
        somes = ["ear", "owl"] + draw(st.sampled_from([[], [None, ""]]))  # None: no such key
        samples = []
        for i in range(draw(st.integers(1, 6))):
            options = draw(st.permutations(draw(st.sampled_from(lists))))
            context = {"shared": shared, "own": f"x{i}"}
            some = draw(st.sampled_from(somes))
            if some is not None:
                context["some"] = some
            samples.append(Sample(f"{ds}s{i}", ds, f"{ds}/img{i % 2}", context, options,
                                  draw(st.integers(0, len(options) - 1))))
        if draw(st.integers(0, 3)) == 0:
            i = draw(st.integers(0, len(samples) - 1))
            options = list(samples[i].response_options)
            options[draw(st.integers(0, len(options) - 1))] = draw(st.sampled_from(_MARKED))
            samples[i] = Sample(samples[i].sample_id, ds, samples[i].image_ref,
                                samples[i].context, options, samples[i].gold_index)
        world.datasets[ds] = DatasetManifest(ds, "recognition", tuple(samples), ds)
        world.prompt_configs[ds] = config
        world.metadata.update((s.sample_id, MetadataSummary((4, 4, 3), (1.0 + i, 2.0, 3.0),
                                                            (1.0, 1.0, 1.0)))
                              for i, s in enumerate(samples))
        valid = valid_variant_ids(config)
        records += [ExecutionRecord(s.sample_id, ds, m, v.variant_id, predicted,
                                          predicted == s.gold_index)
                          for s in samples for v in prompt_variants(config)
                          if v.variant_id in valid for m in world.model_pool
                          for predicted in [draw(st.integers(0, len(s.response_options) - 1))]]
    world.records = Records.of(records)
    return world


class _Recording:
    """Logs every backend call, in order, and makes the ``deterministic``
    promise it is told to."""

    def __init__(self, inner, deterministic=True):
        self._inner = inner
        self.info = replace(inner.info, deterministic=deterministic)
        self.calls = []

    def embed_image(self, image_ref):
        self.calls.append(("img", image_ref))
        return self._inner.embed_image(image_ref)

    def embed_texts(self, prompts):
        self.calls.append(("txt", tuple(prompts)))
        return self._inner.embed_texts(prompts)

    def option_token_logprobs(self, image_ref, prompts):
        self.calls.append(("lp", image_ref, tuple(prompts)))
        return self._inner.option_token_logprobs(image_ref, prompts)


def _raised(make):
    try:
        return make()
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


@given(render_worlds(), st.booleans(), st.sampled_from(["sum", "mean"]))
@settings(max_examples=150, deadline=None)
def test_kept_renders_change_no_outcome_call_or_input(world, deterministic, normalization):
    for ds, manifest in world.datasets.items():
        config = world.prompt_configs[ds]
        queries = [(s, v) for s in manifest.samples for v in prompt_variants(config)]
        for inner, reference in (
                (SeededEmbeddingBackend(seed=1, dim=3), query_by_query_embedding_outcomes),
                (SeededLogprobBackend(seed=2), lambda *args: query_by_query_generative_outcomes(
                    *args, normalization))):
            batched, looped = _Recording(inner, deterministic), _Recording(inner, deterministic)
            run = evaluate(batched, manifest, config, normalization=normalization)
            expected = reference(looped, config, queries)
            assert batched.calls == looped.calls
            assert [(r.sample_id, r.prompt_variant_id, r.predicted_index) for r in run.records] == [
                (s.sample_id, v.variant_id, o.predicted_index)
                for (s, v), o in zip(queries, expected) if not isinstance(o, Exception)]
            assert [(n.sample_id, n.prompt_variant_id, n.error) for n in run.skipped] == [
                (s.sample_id, v.variant_id, str(o))
                for (s, v), o in zip(queries, expected) if isinstance(o, Exception)]
    grid = QueryGrid.build(world)
    rows = np.flatnonzero(grid.covered.any(axis=1))
    for flags in ALL_FLAG_COMBOS:
        assert _raised(lambda: router_inputs(grid, rows, flags)) == _raised(
            lambda: [ex.serialized_input for ex in reference_corpus(grid, flags)])
