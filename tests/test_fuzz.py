"""Fuzzing of the readers of stored lines and files: every input gives a
value or a TaskRouterError, never another exception. Also every line the
serializer writes parses back to its fields, and the batched featurizer
matches the one-line reference row by row."""

import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import line_features, object_records

import taskrouter.router as router_module
from taskrouter import (DatasetManifest, ExecutionRecord, InvalidInputError, MetadataSummary,
                        Sample, TaskRouterError, World, parse_example, serialize_example)
from taskrouter.baselines import voting_accuracy, voting_predict
from taskrouter.core import (QueryGrid, Records, load_world, read_jsonl, save_records,
                             save_world, write_jsonl)
from taskrouter.prompts import DatasetPromptConfig, PromptTemplate, prompt_variants
from taskrouter.router import FeaturizerConfig, RouterModel, featurize, featurize_batch
from taskrouter.routerdata import ALL_FLAG_COMBOS, ParsedExample, load_corpus
from taskrouter.scoring import SeededEmbeddingBackend, SeededLogprobBackend
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
SIDECAR_KEYS = ("line", "sample_id", "dataset_id", "prompt_variant_id", "label_model_id")


@st.composite
def sidecar_entries(draw, line: int):
    """A well-formed entry for ``line`` with some fields dropped or replaced."""
    entry = {"line": line, "sample_id": "s0", "dataset_id": "d", "prompt_variant_id": "q0",
             "label_model_id": draw(st.sampled_from(["alpha", "beta"]))}
    for key in draw(st.lists(st.sampled_from(SIDECAR_KEYS), max_size=2)):
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(JSON_VALUES)
    return entry


@st.composite
def corpus_pairs(draw):
    """(corpus bytes, sidecar bytes or None) with damage in either."""
    lines = draw(st.lists(st.sampled_from(LINES) | damaged_lines(), max_size=4))
    # a drawn surrogate becomes bytes that are not UTF-8, which the reader must reject
    corpus = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        corpus = draw(st.binary(max_size=8)) + corpus
    if draw(st.booleans()):
        return corpus, None
    entries = [draw(sidecar_entries(i)) for i in range(len(lines))]
    sidecar = "".join(json.dumps(e) + "\n" for e in draw(st.permutations(entries)))
    return corpus, sidecar.encode("utf-8") + draw(st.binary(max_size=4))


def _load_corpus(corpus: bytes, sidecar: bytes | None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_bytes(corpus)
        if sidecar is not None:
            Path(tmp, "corpus.txt.index.jsonl").write_bytes(sidecar)
        return load_corpus(path)


def _read_jsonl(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(data)
        return list(read_jsonl(path))


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


@given(corpus_pairs())
@example(((LINES[1] + "\n").encode(), b'{"line": 0, "label_model_id": "beta"}\n'))
@example(((LINES[1] + "\n").encode(), b'{"line": [0], "label_model_id": "beta"}\n'))
@example((b"\xff\n", None))
@settings(max_examples=200, deadline=None)
def test_load_corpus_gives_a_value_or_an_error(pair):
    _value_or_error(_load_corpus, *pair)


@given(st.lists(st.sampled_from([b'{"a": 1}', b"[1]", b"", b"  ", b"{", b"\xff\xfe"])
                | st.binary(max_size=12), max_size=5).map(b"\n".join))
@example(b'{"a": 1}\n{"a": "\xff"}\n')
@settings(max_examples=200, deadline=None)
def test_read_jsonl_gives_a_value_or_an_error(data):
    _value_or_error(_read_jsonl, data)


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


@given(st.lists(st.sampled_from([RECORD_LINE.encode(), b"", b" ", b"\r", b"{", b"[1]"])
                | record_lines() | st.binary(max_size=12), max_size=6).map(b"\n".join))
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
@settings(max_examples=300, deadline=None)
def test_every_batched_row_equals_the_one_line_featurizer(config, texts, chunk_chars):
    with mock.patch.object(router_module, "_FEATURIZE_CHUNK_CHARS", chunk_chars):
        rows = featurize_batch(texts, config)
    assert len(rows) == len(texts)
    for text, (idx, vals) in zip(texts, rows):
        for ref_idx, ref_vals in (featurize(text, config), line_features(text, config)):
            assert (idx.dtype, vals.dtype) == (ref_idx.dtype, ref_vals.dtype) == \
                (np.dtype(np.int64), np.dtype(np.float64))
            assert idx.tobytes() == ref_idx.tobytes()
            assert vals.tobytes() == ref_vals.tobytes()


def test_batched_featurizer_keeps_a_cancelled_bucket():
    (idx, vals), = featurize_batch(["ac"], FeaturizerConfig((1,), 2, lowercase=False))
    assert idx.tolist() == [1] and vals.tolist() == [0.0]


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
