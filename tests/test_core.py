"""Core data model: image summaries, accuracy aggregation, weighted means,
and persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrouter import (
    DatasetManifest,
    ExecutionRecord,
    IntegrityError,
    InvalidInputError,
    MetadataSummary,
    Sample,
    aggregate_accuracy,
    summarize_image,
    weighted_average,
)
from taskrouter.core import (Records, csv_writer, load_manifests, load_metadata, read_json,
                             read_numbered_jsonl, save_manifests, save_metadata, save_records,
                             summarize_images)
from oracles import one_sample_summary


class TestSummarizeImage:
    def test_zero_image(self):
        summary = summarize_image(np.zeros((2, 2, 3), dtype=np.uint8))
        assert summary.dims == (2, 2, 3)
        assert summary.channel_means == (0.0, 0.0, 0.0)
        assert summary.channel_stds == (0.0, 0.0, 0.0)

    def test_constant_image(self):
        summary = summarize_image(np.full((4, 4, 1), 128, dtype=np.uint8))
        assert summary.channel_means == (128.0,)
        assert summary.channel_stds == (0.0,)

    def test_hand_computed_population_stats(self):
        # 2x2x1 with values {0, 0, 100, 100}: mean 50, population std 50.
        pixels = np.array([[[0], [0]], [[100], [100]]])
        summary = summarize_image(pixels)
        assert summary.channel_means == (50.0,)
        assert summary.channel_stds == (50.0,)

    def test_against_reference_implementation(self, rng):
        pixels = rng.integers(0, 256, size=(7, 5, 3))
        summary = summarize_image(pixels)
        for c in range(3):
            values = [int(pixels[i, j, c]) for i in range(7) for j in range(5)]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            assert summary.channel_means[c] == round(mean, 1)
            assert summary.channel_stds[c] == pytest.approx(round(math.sqrt(var), 1))

    def test_permutation_invariance(self, rng):
        pixels = rng.integers(0, 256, size=(6, 4, 2))
        flat = pixels.reshape(-1, 2)
        shuffled = flat[rng.permutation(len(flat))].reshape(6, 4, 2)
        assert summarize_image(pixels) == summarize_image(shuffled)

    def test_empty_and_bad_shape(self):
        with pytest.raises(InvalidInputError):
            summarize_image(np.zeros((0, 2, 3)))
        with pytest.raises(InvalidInputError):
            summarize_image(np.zeros((4, 4)))

    @pytest.mark.parametrize("low, high", [(0, 256), (38, 43), (0, 2), (250, 256)])
    @pytest.mark.parametrize("shape", [(8, 8, 3), (7, 5, 3), (3, 9, 1)])
    def test_stacked_summaries_equal_one_sample_sums_bit_for_bit(self, low, high, shape, rng):
        stack = rng.integers(low, high, size=(400,) + shape).astype(np.uint8)
        summaries = summarize_images(stack)
        assert summaries == [one_sample_summary(img) for img in stack]
        assert [summarize_image(img) for img in stack] == summaries

    def test_stack_empty_and_bad_shape(self):
        with pytest.raises(InvalidInputError, match="empty"):
            summarize_images(np.zeros((0, 2, 2, 3)))
        with pytest.raises(InvalidInputError, match="N x H x W x C"):
            summarize_images(np.zeros((4, 4, 3)))


def _record(model, dataset, variant, correct, sample="s0", predicted=0):
    return ExecutionRecord(sample, dataset, model, variant, predicted, correct)


class TestAggregateAccuracy:
    def test_direct_count(self):
        records = [_record("m", "d", "v", c, sample=f"s{i}")
                   for i, c in enumerate([True, False, True, False])]
        assert aggregate_accuracy(records) == {("m", "d", "v"): (2, 4)}

    def test_counts_per_variant(self):
        records = (
            [_record("m", "d", "v0", c, sample=f"s{i}")
             for i, c in enumerate([True, True, False, False, False])]
            + [_record("m", "d", "v1", c, sample=f"s{i}")
               for i, c in enumerate([True, True, True, True, False])]
        )
        assert aggregate_accuracy(records) == {("m", "d", "v0"): (2, 5),
                                               ("m", "d", "v1"): (4, 5)}

    def test_matches_brute_force_recount(self, rng):
        records = []
        for i in range(500):
            records.append(_record(
                f"m{rng.integers(3)}", f"d{rng.integers(2)}", f"v{rng.integers(2)}",
                bool(rng.integers(2)), sample=f"s{i}",
            ))
        # brute-force recount, written independently of the production path
        expected = {}
        for key in {(r.model_id, r.dataset_id, r.prompt_variant_id) for r in records}:
            matching = [r for r in records
                        if (r.model_id, r.dataset_id, r.prompt_variant_id) == key]
            expected[key] = (sum(r.correct for r in matching), len(matching))
        assert aggregate_accuracy(records) == expected

    def test_unknown_sample_is_integrity_error(self):
        sample = Sample("s0", "d", "img", {}, ("a", "b"), 0)
        records = [_record("m", "d", "v", True, sample="ghost")]
        with pytest.raises(IntegrityError):
            aggregate_accuracy(records, samples={("d", "s0"): sample})

    def test_inconsistent_correct_flag(self):
        sample = Sample("s0", "d", "img", {}, ("a", "b"), 0)
        bad = ExecutionRecord("s0", "d", "m", "v", predicted_index=1, correct=True)
        with pytest.raises(IntegrityError):
            aggregate_accuracy([bad], samples={("d", "s0"): sample})

    def test_empty_records(self):
        with pytest.raises(InvalidInputError):
            aggregate_accuracy([])


class TestWeightedAverage:
    def test_equal_weights(self):
        assert weighted_average({"A": 1.0, "B": 0.0}, {"A": 1, "B": 1}) == 0.5

    def test_unequal_weights(self):
        assert weighted_average({"A": 1.0, "B": 0.0}, {"A": 3, "B": 1}) == 0.75

    def test_matches_independent_dot_product(self, rng):
        keys = [f"d{i}" for i in range(10)]
        values = {k: float(rng.random()) for k in keys}
        sizes = {k: int(rng.integers(1, 1000)) for k in keys}
        got = weighted_average(values, sizes)
        # independent accumulation order: reversed key order, numpy dot
        v = np.array([values[k] for k in reversed(keys)])
        s = np.array([sizes[k] for k in reversed(keys)], dtype=float)
        assert got == pytest.approx(float(v @ s / s.sum()), abs=1e-12)

    def test_key_mismatch(self):
        with pytest.raises(InvalidInputError):
            weighted_average({"A": 1.0}, {"B": 1})

    def test_nonpositive_size(self):
        with pytest.raises(InvalidInputError):
            weighted_average({"A": 1.0}, {"A": 0})

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(0, 1), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_equal_sizes_is_unweighted_mean(self, values):
        sizes = {k: 7 for k in values}
        expected = sum(values.values()) / len(values)
        assert weighted_average(values, sizes) == pytest.approx(expected)


class TestTypes:
    def test_sample_validation(self):
        with pytest.raises(InvalidInputError):
            Sample("s", "d", "img", {}, (), 0)
        with pytest.raises(InvalidInputError):
            Sample("s", "d", "img", {}, ("a",), 1)

    def test_metadata_validation(self):
        with pytest.raises(InvalidInputError):
            MetadataSummary((0, 1, 1), (0.0,), (0.0,))
        with pytest.raises(InvalidInputError):
            MetadataSummary((1, 1, 2), (0.0,), (0.0,))
        with pytest.raises(InvalidInputError):
            MetadataSummary((1, 1, 1), (0.0,), (-1.0,))

    def test_manifest_validation(self):
        s = Sample("s0", "d", "img", {}, ("a", "b"), 0)
        with pytest.raises(IntegrityError):
            DatasetManifest("other", "recognition", (s,), "cfg")
        with pytest.raises(IntegrityError):
            DatasetManifest("d", "recognition", (s, s), "cfg")
        with pytest.raises(InvalidInputError):
            DatasetManifest("d", "weird", (s,), "cfg")

    def test_manifest_size(self):
        s = Sample("s0", "d", "img", {}, ("a", "b"), 0)
        m = DatasetManifest("d", "recognition", (s,), "cfg")
        assert m.size == 1

    def test_record_and_manifest_persistence(self, tmp_path):
        s = Sample("s0", "d", "img", {"note": "x"}, ("a", "b"), 1)
        m = DatasetManifest("d", "reasoning", (s,), "cfg")
        save_manifests([m], tmp_path / "m.jsonl")
        loaded = load_manifests(tmp_path / "m.jsonl")
        assert loaded == [m]

        records = [_record("m", "d", "v", True), _record("m", "d", "v2", False)]
        save_records(records, tmp_path / "r.jsonl")
        assert list(Records.load(tmp_path / "r.jsonl")) == records

    @pytest.mark.parametrize("field, value", [
        ("correct", "False"), ("correct", 0), ("correct", None),
        ("predicted_index", True), ("predicted_index", "1"), ("predicted_index", 1.0),
    ])
    def test_record_from_dict_rejects_wrong_types(self, field, value):
        d = _record("m", "d", "v", False).to_dict()
        ExecutionRecord.from_dict(d)
        with pytest.raises(InvalidInputError):
            ExecutionRecord.from_dict({**d, field: value})

    @pytest.mark.parametrize("gold", [2.9, True, "1", None])
    def test_sample_from_dict_rejects_non_integer_gold_index(self, gold):
        d = Sample("s0", "d", "img", {}, ("a", "b", "c"), 1).to_dict()
        Sample.from_dict(d)
        with pytest.raises(InvalidInputError):
            Sample.from_dict({**d, "gold_index": gold})

    def test_failed_save_keeps_old_bytes_and_no_temp_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        save_records([_record("m", "d", "v", True)], path)
        before = path.read_bytes()

        def records_then_full_disk():
            yield _record("m", "d", "v2", False)
            raise OSError("simulated full disk")

        with pytest.raises(OSError, match="simulated full disk"):
            save_records(records_then_full_disk(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    @pytest.mark.parametrize("bad_line", ['{"a": 2', '[1, 2]'])
    def test_read_numbered_jsonl_skips_blank_lines_and_names_a_bad_line(self, tmp_path,
                                                                         bad_line):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n' + bad_line + "\n")
        rows = read_numbered_jsonl(path)
        assert next(rows) == (1, {"a": 1})
        with pytest.raises(InvalidInputError, match="rows.jsonl:4"):
            next(rows)

    def test_read_numbered_jsonl_numbers_each_line_of_the_file(self, tmp_path):
        # blank lines are skipped but counted, and a CRLF end is not part of the row
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": 1}\r\n\r\n\t\n{"b": "\\r"}\r\n{"c": 3}')
        assert list(read_numbered_jsonl(path)) == [(1, {"a": 1}), (4, {"b": "\r"}),
                                                   (5, {"c": 3})]

    def test_read_numbered_jsonl_names_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
        rows = read_numbered_jsonl(path)
        assert next(rows) == (1, {"a": 1})
        with pytest.raises(InvalidInputError, match="rows.jsonl:2"):
            next(rows)

    @pytest.mark.parametrize("kind, field", [
        ("records", "correct"), ("manifests", "task_kind"), ("manifests", "image_ref"),
        ("metadata", "sample_id"), ("metadata", "channel_stds"),
    ])
    def test_a_row_missing_a_field_names_file_line_and_field(self, tmp_path, kind, field):
        path = tmp_path / f"{kind}.jsonl"
        save, load = {
            "records": (lambda: save_records([_record("m", "d", "v", True),
                                              _record("m", "d", "w", False)], path),
                        Records.load),
            "manifests": (lambda: save_manifests([DatasetManifest("d", "recognition", (
                Sample("s0", "d", "img", {}, ("a", "b"), 0),), "d")] * 2, path),
                load_manifests),
            "metadata": (lambda: save_metadata({f"s{i}": MetadataSummary((1, 1, 1), (0.5,),
                                                                         (0.0,))
                                                for i in range(2)}, path),
                         load_metadata),
        }[kind]
        save()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        (rows[1]["samples"][0] if field == "image_ref" else rows[1]).pop(field)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(IntegrityError, match=f"{kind}.jsonl:2: missing field '{field}'"):
            load(path)

    def test_saved_metadata_loads_without_the_line_by_line_reader(self, tmp_path, monkeypatch):
        # save_metadata writes non-ASCII ids as \uXXXX escapes and each float
        # with a point or an exponent, which the line pattern reads; a block
        # with an integer mean is read line by line, and the mean stays an int
        import taskrouter.core as core

        fallbacks = []
        line_by_line = core._keyed_lines
        monkeypatch.setattr(core, "_keyed_lines",
                            lambda *args: fallbacks.append(args[-2]) or line_by_line(*args))
        metadata = {f'é"{i}\\\U0001f600': MetadataSummary((2 ** 40, 3, 2), (-0.0, 1e300),
                                                            (0.05, 1.5e-7))
                    for i in range(3)}
        path = tmp_path / "metadata.jsonl"
        save_metadata(metadata, path)
        assert b"\\u00e9" in path.read_bytes()
        loaded = load_metadata(path)
        assert loaded == metadata and list(loaded) == list(metadata) and fallbacks == []
        assert math.copysign(1, loaded[next(iter(metadata))].channel_means[0]) == -1
        metadata["s"] = MetadataSummary((1, 1, 1), (5,), (0.0,))
        save_metadata(metadata, path)
        assert type(load_metadata(path)["s"].channel_means[0]) is int and fallbacks == [1]

    def test_a_repeated_sample_id_names_its_line_in_any_block(self, tmp_path, monkeypatch):
        import taskrouter.core as core

        path = tmp_path / "metadata.jsonl"
        save_metadata({f"s{i}": MetadataSummary((1, 1, 1), (0.5,), (0.0,)) for i in range(4)},
                      path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([*lines, lines[1]]))
        for block_bytes in (1, 200, 1 << 20):
            monkeypatch.setattr(core, "_READ_BLOCK_BYTES", block_bytes)
            with pytest.raises(IntegrityError) as refused:
                load_metadata(path)
            assert str(refused.value) == f"{path}:5: repeats sample_id 's1'"

    @pytest.mark.parametrize("sample_id", [5, [1], None], ids=["int", "list", "null"])
    def test_a_mistyped_sample_id_names_its_line(self, tmp_path, sample_id):
        path = tmp_path / "metadata.jsonl"
        row = {"sample_id": sample_id, **MetadataSummary((1, 1, 1), (0.5,), (0.0,)).to_dict()}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(InvalidInputError) as refused:
            load_metadata(path)
        assert str(refused.value) == f"{path}:1: field 'sample_id' must be a string"

    def test_a_mistyped_sample_id_names_its_line_in_any_block(self, tmp_path, monkeypatch):
        # the line pattern does not match a number, so its block is read
        # again line by line, which names the line
        import taskrouter.core as core

        path = tmp_path / "metadata.jsonl"
        save_metadata({f"s{i}": MetadataSummary((1, 1, 1), (0.5,), (0.0,)) for i in range(4)},
                      path)
        path.write_bytes(path.read_bytes().replace(b'"s2"', b"2"))
        for block_bytes in (1, 200, 1 << 20):
            monkeypatch.setattr(core, "_READ_BLOCK_BYTES", block_bytes)
            with pytest.raises(InvalidInputError) as refused:
                load_metadata(path)
            assert str(refused.value) == f"{path}:3: field 'sample_id' must be a string"

    @pytest.mark.parametrize("dataset_id", [5, [1], None], ids=["int", "list", "null"])
    def test_a_mistyped_dataset_id_names_its_line(self, tmp_path, dataset_id):
        path = tmp_path / "manifests.jsonl"
        rows = [DatasetManifest(d, "recognition", (Sample(f"{d}0", d, "img", {}, ("a", "b"), 0),),
                                d).to_dict() for d in ("d", "e")]
        rows[1]["dataset_id"] = dataset_id
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(InvalidInputError) as refused:
            load_manifests(path)
        assert str(refused.value) == f"{path}:2: field 'dataset_id' must be a string"

    def test_a_manifest_names_a_mistyped_size_before_a_mistyped_dataset_id(self, tmp_path):
        path = tmp_path / "manifests.jsonl"
        row = DatasetManifest("d", "recognition", (Sample("s0", "d", "img", {}, ("a", "b"), 0),),
                              "d").to_dict()
        path.write_text(json.dumps({**row, "size": "1", "dataset_id": 5}) + "\n")
        with pytest.raises(InvalidInputError) as refused:
            load_manifests(path)
        assert str(refused.value) == f"{path}:1: field 'size' must be an int"

    @pytest.mark.parametrize("data", [b'{"a": 1', b"[1, 2]", b'{"a": "\xff"}'])
    def test_read_json_names_the_file(self, tmp_path, data):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        with pytest.raises(InvalidInputError, match="spec.json"):
            read_json(path)
        path.write_text('{"a": [1]}')
        assert read_json(path) == {"a": [1]}

    def test_failed_csv_export_keeps_old_bytes(self, tmp_path):
        path = tmp_path / "cells.csv"
        with csv_writer(path) as writer:
            writer.writerow(["m", "d", "v", 0.75])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):  # fails after the first row
            with csv_writer(path) as writer:
                writer.writerow(["m", "d", "v", 1.0])
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cells.csv"]
