"""Featurizer, learner gradients, training, routing, and replay
evaluation."""

import json
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrouter import (
    CoverageError,
    InvalidInputError,
    QueryGrid,
    RouterExample,
    SerializationFlags,
    build_router_dataset,
    evaluate_router,
    featurize,
    split_80_10_10,
    train_router,
)
import taskrouter.router as router_module
from taskrouter.router import (
    FeaturizerConfig,
    RouterModel,
    TrainConfig,
)
from conftest import make_micro_world, train_on_examples
from oracles import (batch_loss, char_ngrams, column_grads, exact_choice, ngram_hash,
                     reference_batches, reference_train, softmax_loss_and_grads)

SMALL = FeaturizerConfig(ngram_orders=(2, 3), hash_dim=1024)


def example(text: str, label: str) -> RouterExample:
    return RouterExample(
        serialized_input=f"[prompt]{text}",
        label_model_id=label,
        provenance=("s", "d", "q0-o0"),
        raw_line=f"[prompt]{text}[SEP]model::{label}[response]"
                 f"correct::True;;;avg_accuracy::1.00000",
    )


class TestFeaturize:
    def test_deterministic(self):
        a = featurize("hello world", SMALL)
        b = featurize("hello world", SMALL)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_bigram_enumeration(self):
        assert char_ngrams("abc", 2) == ["ab", "bc"]
        assert char_ngrams("abc", 3) == ["abc"]
        assert char_ngrams("ab", 3) == []

    def test_vectorized_matches_per_gram_hash(self):
        # brute force: hash each enumerated n-gram separately and histogram
        config = FeaturizerConfig(ngram_orders=(2, 3, 4), hash_dim=512,
                                  lowercase=False)
        text = "The weather is sunny é?"
        expected: dict[int, float] = {}
        for order in config.ngram_orders:
            for gram in char_ngrams(text, order):
                h = ngram_hash(gram)
                sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
                bucket = h % config.hash_dim
                expected[bucket] = expected.get(bucket, 0.0) + sign
        idx, vals = featurize(text, config)
        assert {int(i): float(v) for i, v in zip(idx, vals)} == expected

    def test_lowercase_rule(self):
        low = FeaturizerConfig(ngram_orders=(2,), hash_dim=256, lowercase=True)
        keep = FeaturizerConfig(ngram_orders=(2,), hash_dim=256, lowercase=False)
        a, b = featurize("ABC", low), featurize("abc", low)
        np.testing.assert_array_equal(a[0], b[0])
        c, d = featurize("ABC", keep), featurize("abc", keep)
        assert not (len(c[0]) == len(d[0]) and np.array_equal(c[0], d[0]))

    def test_one_char_substitution_locality(self, rng):
        # substituting one character changes at most n windows per order,
        # each moving one count out of its old bucket and into a new one
        config = FeaturizerConfig(ngram_orders=(2, 3, 4), hash_dim=2 ** 18)
        bound = 2 * sum(config.ngram_orders)
        alphabet = list("abcdefghijklmnop")
        for _ in range(25):
            chars = [alphabet[i] for i in rng.integers(0, 16, size=40)]
            text = "".join(chars)
            pos = int(rng.integers(0, 40))
            changed = chars.copy()
            changed[pos] = "Z".lower() if chars[pos] != "z" else "q"
            other = "".join(changed)
            a = dict(zip(*featurize(text, config)))
            b = dict(zip(*featurize(other, config)))
            differing = {k for k in set(a) | set(b)
                         if a.get(k, 0.0) != b.get(k, 0.0)}
            assert len(differing) <= bound

    def test_empty_string(self):
        with pytest.raises(InvalidInputError):
            featurize("", SMALL)

    def test_short_string_under_all_orders(self):
        idx, vals = featurize("a", SMALL)
        assert len(idx) == 0 and len(vals) == 0

    def test_bad_config(self):
        with pytest.raises(InvalidInputError):
            FeaturizerConfig(ngram_orders=())
        with pytest.raises(InvalidInputError):
            FeaturizerConfig(hash_dim=1)
        with pytest.raises(InvalidInputError, match="between 2 and 2\\^48"):
            FeaturizerConfig(hash_dim=2 ** 48 + 1)


class TestGradients:
    def test_analytic_matches_central_finite_differences(self, rng):
        config = FeaturizerConfig(ngram_orders=(2, 3), hash_dim=512)
        texts = ["alpha route one", "bravo route two", "charlie three",
                 "delta four", "echo five", "foxtrot six"]
        feats = [featurize(t, config) for t in texts]
        k = 3
        eps = 1e-6
        for trial in range(10):
            weights = rng.normal(scale=0.1, size=(k, config.hash_dim))
            bias = rng.normal(scale=0.1, size=k)
            batch_idx = rng.choice(len(feats), size=3, replace=False)
            batch = [feats[i] for i in batch_idx]
            labels = [int(rng.integers(k)) for _ in batch]
            loss, grad_bias, cols, grad_cols = softmax_loss_and_grads(
                weights, bias, batch, labels
            )
            assert loss > 0
            # bias coordinates
            for j in range(k):
                w_hi, w_lo = bias.copy(), bias.copy()
                w_hi[j] += eps
                w_lo[j] -= eps
                fd = (batch_loss(weights, w_hi, batch, labels)
                      - batch_loss(weights, w_lo, batch, labels)) / (2 * eps)
                rel = abs(fd - grad_bias[j]) / max(abs(fd), abs(grad_bias[j]), 1e-10)
                assert rel <= 1e-4
            # a sample of touched weight coordinates
            for pos, col in enumerate(cols[:5].tolist()):
                for j in range(k):
                    hi, lo = weights.copy(), weights.copy()
                    hi[j, col] += eps
                    lo[j, col] -= eps
                    fd = (batch_loss(hi, bias, batch, labels)
                          - batch_loss(lo, bias, batch, labels)) / (2 * eps)
                    a = grad_cols[j, pos]
                    rel = abs(fd - a) / max(abs(fd), abs(a), 1e-10)
                    assert rel <= 1e-4
            # untouched columns have exactly zero gradient
            touched = set(cols.tolist())
            untouched = next(c for c in range(config.hash_dim) if c not in touched)
            hi = weights.copy()
            hi[0, untouched] += eps
            assert batch_loss(hi, bias, batch, labels) == loss

    @pytest.mark.parametrize("texts", [
        ["alpha route one"],
        ["alpha route one", "alpha route two", "alpha route one", "route alpha"],
    ], ids=["batch-of-one", "shared-columns"])
    def test_gathered_columns_equal_per_column_oracle(self, rng, texts):
        config = FeaturizerConfig(ngram_orders=(2, 3), hash_dim=64)
        feats = [featurize(t, config) for t in texts]
        k = 3
        weights = rng.normal(scale=0.1, size=(k, config.hash_dim))
        bias = rng.normal(scale=0.1, size=k)
        labels = [i % k for i in range(len(feats))]
        _, _, cols, grad_cols = softmax_loss_and_grads(weights, bias, feats, labels)
        oracle = column_grads(weights, bias, feats, labels)
        assert cols.tolist() == sorted(oracle)
        assert grad_cols.shape == (k, len(cols))
        for pos, col in enumerate(cols.tolist()):
            assert np.array_equal(grad_cols[:, pos], oracle[col])
        if len(feats) > 1:
            assert sum(len(idx) for idx, _ in feats) > len(cols)

    def test_batch_of_one_equals_the_general_path_bit_for_bit(self, rng):
        # 64 buckets: n-grams collide, so values exceed 1 or cancel to 0.0
        config = FeaturizerConfig(ngram_orders=(2, 3), hash_dim=64)
        k = 3
        for text in ["alpha route one", "alpha route two", "bravo charlie delta echo"]:
            feat = featurize(text, config)
            assert (feat[1] == 0.0).any() and (np.abs(feat[1]) > 1.0).any()
            weights = rng.normal(scale=0.1, size=(k, config.hash_dim))
            bias = rng.normal(scale=0.1, size=k)
            for label in range(k):
                one = softmax_loss_and_grads(weights, bias, [feat], [label])
                # the general path: an example twice over has the same mean,
                # since x + x and 2x * 0.5 are exact
                two = softmax_loss_and_grads(weights, bias, [feat, feat], [label, label])
                assert one[0] == two[0]
                for got, want in zip(one[1:], two[1:]):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


class TestTraining:
    def test_constant_label_predicts_constant(self):
        train = [example(f"text number {i}", "only") for i in range(20)]
        model = train_on_examples(train, train[:2],
                                  config=TrainConfig(max_iterations=50, eval_every=25),
                                  flags=SerializationFlags(False, False),
                                  featurizer=SMALL,
                                  vocabulary=["only", "other"])
        for text in ("[prompt]anything at all", "[prompt]unseen input"):
            assert model.route_text(text) == "only"

    def test_separable_keyword_set_reaches_high_accuracy(self):
        rng = np.random.default_rng(5)
        labels = ["m0", "m1", "m2"]
        fillers = ["the sky is wide", "numbers drift by", "a quiet road"]
        examples = []
        for i in range(600):
            label = labels[int(rng.integers(3))]
            filler = fillers[int(rng.integers(3))]
            examples.append(example(f"token-{label} {filler} #{i}", label))
        train, val, test = split_80_10_10(examples, seed=1)
        model = train_on_examples(train, val, config=TrainConfig(seed=2),
                                  flags=SerializationFlags(False, False), vocabulary=labels,
                                  featurizer=FeaturizerConfig())
        accuracy = sum(
            model.route_text(e.serialized_input) == e.label_model_id for e in test
        ) / len(test)
        assert accuracy >= 0.99

    def test_same_seed_byte_identical(self, tmp_path):
        train = [example(f"t{i} {'x' * (i % 5)}", f"m{i % 2}") for i in range(40)]
        val = train[:6]
        kwargs = dict(config=TrainConfig(max_iterations=300, eval_every=100, seed=7),
                      flags=SerializationFlags(False, False), featurizer=SMALL,
                      vocabulary=["m0", "m1"])
        a = train_on_examples(train, val, **kwargs)
        b = train_on_examples(train, val, **kwargs)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        a.save(tmp_path / "a.bin")
        b.save(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_label_outside_vocabulary(self):
        features = router_module.featurize_batch(["[prompt]x", "[prompt]y"], SMALL)
        for code in (-1, 2):
            with pytest.raises(InvalidInputError, match="outside the model vocabulary"):
                train_router(features, [0, code], [0], [1],
                             flags=SerializationFlags(False, False), vocabulary=["a", "b"])

    def test_empty_train(self):
        with pytest.raises(InvalidInputError):
            train_on_examples([], [], flags=SerializationFlags(False, False), featurizer=SMALL,
                              vocabulary=["m0"])

    @pytest.mark.parametrize("learning_rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, learning_rate):
        with pytest.raises(InvalidInputError):
            TrainConfig(learning_rate=learning_rate)

    def test_empty_validation_warns_and_trains(self, caplog):
        train = [example(f"t{i}", "m0") for i in range(12)]
        with caplog.at_level("WARNING"):
            model = train_on_examples(
                train, [], config=TrainConfig(max_iterations=30, eval_every=10),
                flags=SerializationFlags(False, False), featurizer=SMALL,
                vocabulary=["m0", "m1"],
            )
        assert "no validation examples" in caplog.text
        assert model.route_text("[prompt]t1") == "m0"


class TestBucketMajorTraining:
    """``train_router`` against the class-major reference loop, bit for bit."""

    VOCAB = ("m0", "m1", "m2")
    # 64 buckets: n-grams collide, so values exceed 1 and some cancel to 0.0
    FEATS = FeaturizerConfig(ngram_orders=(2, 3), hash_dim=64)

    def _examples(self, n=60):
        rng = np.random.default_rng(11)
        words = ["alpha", "bravo", "charlie", "delta", "echo"]
        return [example(f"{words[i % 5]} {rng.integers(1000)} {'z' * (i % 7)}",
                        self.VOCAB[int(rng.integers(3))]) for i in range(n)]

    @pytest.mark.parametrize("with_validation", [True, False], ids=["validated", "final"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_weights_and_bias_equal_the_reference_loop(self, batch_size, with_validation):
        examples = self._examples()
        train, validate = examples[:48], examples[48:] if with_validation else []
        config = TrainConfig(learning_rate=0.5, batch_size=batch_size, max_iterations=150,
                             eval_every=25, seed=4)
        rows = router_module.featurize_batch([ex.serialized_input for ex in train], self.FEATS)
        assert (np.abs(rows.values) > 1.0).any() and (rows.values == 0.0).any()
        weights, bias = reference_train(train, validate, config, self.FEATS, self.VOCAB)
        model = train_on_examples(train, validate, config=config,
                                  flags=SerializationFlags(False, False),
                                  featurizer=self.FEATS, vocabulary=self.VOCAB)
        assert model.weights.shape == weights.shape and model.weights.flags.c_contiguous
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_rows_read_by_position_from_a_larger_corpus(self, batch_size):
        # as a LODO fold reads them: one matrix for a shuffled corpus
        examples = self._examples()
        corpus = [examples[i] for i in np.random.default_rng(3).permutation(len(examples))]
        features = router_module.featurize_batch([ex.serialized_input for ex in corpus],
                                                 self.FEATS)
        labels = [self.VOCAB.index(ex.label_model_id) for ex in corpus]
        at = {id(ex): i for i, ex in enumerate(corpus)}
        train, validate = examples[:40], examples[40:50]
        config = TrainConfig(learning_rate=0.5, batch_size=batch_size, max_iterations=90,
                             eval_every=30, seed=2)
        model = train_router(features, labels, [at[id(ex)] for ex in train],
                             [at[id(ex)] for ex in validate], config=config,
                             flags=SerializationFlags(False, False), vocabulary=self.VOCAB)
        weights, bias = reference_train(train, validate, config, self.FEATS, self.VOCAB)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()

    def test_positions_must_match_the_examples(self):
        examples = self._examples(20)
        features = router_module.featurize_batch([ex.serialized_input for ex in examples],
                                                 self.FEATS)
        labels = [self.VOCAB.index(ex.label_model_id) for ex in examples]
        # positions past either end of the rows, and one label short of them
        for codes, train, validate in [(labels, range(10, 20), range(15, 21)),
                                       (labels, range(-1, 9), range(10, 20)),
                                       (labels[:-1], range(10), range(10, 15))]:
            with pytest.raises(InvalidInputError):
                train_router(features, codes, train, validate,
                             flags=SerializationFlags(False, False), vocabulary=self.VOCAB)


class TestReadSchedule:
    """``sgd_batches`` and ``read_positions`` against the loop they replace."""

    @given(n=st.integers(0, 40), batch_size=st.integers(1, 9),
           max_iterations=st.integers(1, 120), seed=st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_batches_and_read_positions_equal_the_reference_loop(self, n, batch_size,
                                                                 max_iterations, seed):
        config = TrainConfig(batch_size=batch_size, max_iterations=max_iterations, seed=seed)
        batches = reference_batches(n, config)
        assert [b.tolist() for b in router_module.sgd_batches(n, config)] == \
            [b.tolist() for b in batches]
        read = router_module.read_positions(n, config)
        assert read.tolist() == sorted(set(np.concatenate(batches).tolist()))

    def test_a_short_budget_reads_part_of_the_split(self):
        # one step per row, and a batch that does not divide the split
        config = TrainConfig(batch_size=3, max_iterations=5, seed=1)
        read = router_module.read_positions(40, config)
        assert len(read) == 15 and len(set(read.tolist())) == 15

    def test_reading_stops_once_every_row_is_read(self, monkeypatch):
        drawn = []
        real = router_module.sgd_batches

        def counting(n, config):
            for batch in real(n, config):
                drawn.append(len(batch))
                yield batch

        monkeypatch.setattr(router_module, "sgd_batches", counting)
        read = router_module.read_positions(12, TrainConfig(batch_size=4, max_iterations=5000))
        assert read.tolist() == list(range(12)) and len(drawn) == 3

    def test_placed_rows_keep_their_buckets_and_leave_the_others_empty(self):
        rows = router_module.featurize_batch(["abc", "de", "fghij"], SMALL)
        placed = rows.placed([1, 4, 5], 7)
        assert len(placed) == 7
        for i in (0, 2, 3, 6):
            assert len(placed.row(i)[0]) == 0 and len(placed.row(i)[1]) == 0
        for i, at in enumerate((1, 4, 5)):
            assert all(np.array_equal(a, b) for a, b in zip(placed.row(at), rows.row(i)))


class TestRoute:
    def _model(self, vocab=("a", "b"), flags=SerializationFlags(False, False)):
        rng = np.random.default_rng(0)
        return RouterModel(
            vocabulary=tuple(vocab),
            featurizer=SMALL,
            flags=flags,
            seed=0,
            weights=rng.normal(size=(len(vocab), SMALL.hash_dim)),
            bias=np.zeros(len(vocab)),
        )

    @pytest.mark.parametrize("shape", [(1,), (4,), (3, 3), ()])
    def test_bias_of_another_shape_raises(self, shape):
        with pytest.raises(InvalidInputError,
                           match=f"bias shape {re.escape(str(shape))} does not match 3 models"):
            RouterModel(vocabulary=("a", "b", "c"), featurizer=SMALL,
                        flags=SerializationFlags(False, False), seed=0,
                        weights=np.zeros((3, SMALL.hash_dim)), bias=np.zeros(shape))

    def test_single_model_vocabulary(self):
        model = self._model(vocab=("solo",))
        assert model.route(None, "whatever", None) == "solo"

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_route_stays_in_vocabulary(self, text):
        model = self._model()
        assert model.route(None, text, None) in model.vocabulary

    def test_ro_off_ignores_option_order(self):
        model = self._model(flags=SerializationFlags(False, False))
        a = model.route(None, "prompt text", ["x", "y", "z"])
        b = model.route(None, "prompt text", ["z", "y", "x"])
        c = model.route(None, "prompt text", None)
        assert a == b == c

    def test_tie_breaks_to_lowest_vocab_index(self):
        model = RouterModel(
            vocabulary=("first", "second"),
            featurizer=SMALL,
            flags=SerializationFlags(False, False),
            seed=0,
            weights=np.zeros((2, SMALL.hash_dim)),
            bias=np.zeros(2),
        )
        assert model.route(None, "anything", None) == "first"

    def test_save_load_round_trip(self, tmp_path):
        model = self._model(vocab=("a", "b", "c"))
        model.save(tmp_path / "r.bin")
        loaded = RouterModel.load(tmp_path / "r.bin")
        assert loaded.vocabulary == model.vocabulary
        assert loaded.flags == model.flags
        assert loaded.featurizer == model.featurizer
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.bias, model.bias)
        assert loaded.route_text("[prompt]abc") == model.route_text("[prompt]abc")

    def test_failed_save_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "router.bin"
        self._model(vocab=("a", "b")).save(path)
        before = path.read_bytes()

        class DiskFullAfterTwoWrites:
            def __init__(self, fh):
                self._fh, self._left = fh, 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, data):
                if not self._left:
                    raise OSError("simulated full disk")
                self._left -= 1
                return self._fh.write(data)

        monkeypatch.setattr("taskrouter.core.open",
                            lambda *a, **kw: DiskFullAfterTwoWrites(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="simulated full disk"):
            self._model(vocab=("a", "b", "c")).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["router.bin"]

    def test_load_rejects_foreign_file(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"not a router")
        with pytest.raises(InvalidInputError):
            RouterModel.load(tmp_path / "junk.bin")

    @pytest.mark.parametrize("section, field, value", [
        ("flags", "include_metadata", "false"),
        ("featurization", "lowercase", "false"),
        ("featurization", "hash_dim", 1024.0),
        ("featurization", "ngram_orders", [2, "3"]),
        (None, "vocabulary", "ab"),  # tuple("ab") would be the vocabulary ('a', 'b')
        (None, "vocabulary", ["a", 2]),
        (None, "seed", "3"),
        (None, "seed", True),
        (None, "weights_shape", [2, 4096.0]),
    ])
    def test_load_rejects_a_mistyped_header_field(self, tmp_path, section, field, value):
        # a header value of the wrong JSON type would load as another router
        def edit(header):
            (header if section is None else header[section])[field] = value
            return header

        path = self._saved_with_header(tmp_path, edit)
        with pytest.raises(InvalidInputError, match=f"bad router header: field '{field}'"):
            RouterModel.load(path)

    @pytest.mark.parametrize("field", ["vocabulary", "featurization", "flags", "seed",
                                       "weights_shape"])
    def test_load_names_a_missing_header_field(self, tmp_path, field):
        path = self._saved_with_header(
            tmp_path, lambda header: {k: v for k, v in header.items() if k != field})
        with pytest.raises(InvalidInputError) as info:
            RouterModel.load(path)
        assert str(info.value) == f"{path}: bad router header: missing field {field!r}"

    def test_load_rejects_a_header_that_is_not_an_object(self, tmp_path):
        path = self._saved_with_header(tmp_path, lambda header: sorted(header.items()))
        with pytest.raises(InvalidInputError) as info:
            RouterModel.load(path)
        assert str(info.value) == f"{path}: bad router header: not a JSON object"

    def _saved_with_header(self, tmp_path, edit):
        """A saved router file whose JSON header is ``edit`` of its own."""
        path = tmp_path / "r.bin"
        self._model().save(path)
        data = path.read_bytes()
        start = len(RouterModel.MAGIC) + 4
        (length,) = struct.unpack_from("<I", data, len(RouterModel.MAGIC))
        blob = json.dumps(edit(json.loads(data[start:start + length]))).encode()
        path.write_bytes(RouterModel.MAGIC + struct.pack("<I", len(blob)) + blob
                         + data[start + length:])
        return path


# characters whose lowercase form is longer (İ) or depends on context (Σ),
# the serialization markers' characters, and any other character that
# UTF-32 can encode (a lone surrogate cannot be featurized; see below)
ROUTE_CHARS = st.sampled_from("aAbB İΣσς[]:;',") | st.characters(exclude_categories=("Cs",))
ROUTE_LINES = st.lists(st.text(ROUTE_CHARS, min_size=1, max_size=24), min_size=1, max_size=10)


@st.composite
def routers(draw):
    """A router whose weights are random, integer-valued (exact ties in
    sums), hold a duplicated or a one-ulp-apart class row (ties and near
    ties), or are all zero."""
    k = draw(st.integers(1, 4))
    orders = tuple(sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=3))))
    config = FeaturizerConfig(ngram_orders=orders,
                              hash_dim=draw(st.sampled_from([2, 3, 16, 256, 1000])),
                              lowercase=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "duplicated", "one_ulp", "zero"]))
    shape = (k, config.hash_dim)
    if kind == "integer":
        weights = rng.integers(-2, 3, size=shape).astype(float)
        bias = rng.integers(-2, 3, size=k).astype(float)
    elif kind == "zero":
        weights, bias = np.zeros(shape), np.zeros(k)
    else:
        weights, bias = rng.normal(size=shape), rng.normal(size=k)
    if kind in ("duplicated", "one_ulp"):
        weights[-1], bias[-1] = weights[0], bias[0]
        if kind == "one_ulp":
            weights[-1] = np.nextafter(weights[0], np.inf)
    return RouterModel(vocabulary=tuple(f"m{i}" for i in range(k)), featurizer=config,
                       flags=SerializationFlags(False, False), seed=0,
                       weights=weights, bias=bias)


class TestRouteBatch:
    @given(routers(), ROUTE_LINES, st.sampled_from([1, 7, 40, 1 << 15]))
    @settings(max_examples=300, deadline=None)
    def test_every_choice_equals_the_per_line_oracle(self, router, texts, chunk_chars):
        with mock.patch.object(router_module, "_CHUNK_CHARS", chunk_chars):
            got = router.route_batch(texts)
            assert [router.route_text(t) for t in texts] == got
        assert got == [router.vocabulary[exact_choice(router, t)] for t in texts]

    @given(routers(), ROUTE_LINES, st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_long_chunks_choose_as_the_oracle(self, router, lines, extra):
        # the lines repeated into one chunk that hashes one order at a time
        lowercase = router.featurizer.lowercase
        codes = sum(len(t.lower() if lowercase else t) for t in lines)
        texts = lines * (-(-router_module._PRODUCTS_MIN_CODES // codes) + extra)
        assert router_module._PRODUCTS_MIN_CODES <= codes * (len(texts) // len(lines)) \
            <= router_module._CHUNK_CHARS
        choices = {t: router.vocabulary[exact_choice(router, t)] for t in lines}
        assert router.route_batch(texts) == [choices[t] for t in texts]

    @given(routers(), ROUTE_LINES, st.sampled_from(["products", "own chunk"]))
    @settings(max_examples=60, deadline=None)
    def test_long_single_lines_choose_as_the_oracle(self, router, lines, length):
        # one line that hashes one order at a time, or that is longer than
        # a scoring chunk and so a chunk of its own
        target = router_module._PRODUCTS_MIN_CODES if length == "products" \
            else router_module._CHUNK_CHARS + 1
        unit = " ".join(lines)
        line = unit * -(-target // len(unit))
        assert len(line.lower() if router.featurizer.lowercase else line) >= target
        want = router.vocabulary[exact_choice(router, line)]
        assert router.route_text(line) == want
        assert router.route_batch([line]) == [want]

    @given(routers(), ROUTE_LINES, st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_scored_from_features_equal_the_text_path_and_oracle(self, router, texts,
                                                                     data):
        # the same rows in any order, repeated or left out, and from
        # bucket-major weights, as training validates with
        features = router_module.featurize_batch(texts, router.featurizer)
        positions = data.draw(st.lists(st.integers(0, len(texts) - 1), max_size=12))
        got = router.route_features(features, positions)
        lines = [texts[i] for i in positions]
        assert got == router.route_batch(lines)
        assert got == [router.vocabulary[exact_choice(router, t)] for t in lines]
        bucket_major = np.ascontiguousarray(router.weights.T)
        assert [router.vocabulary[i] for i in router_module._choose_rows(
            bucket_major.T, router.bias, features, positions).tolist()] == got

    def test_rows_choose_as_the_reference_product_on_ties_and_near_ties(self):
        texts = ["[prompt]one", "[prompt]two", "x"]
        features = router_module.featurize_batch(texts, SMALL)
        # every score ties on an all-zero router, the empty row "x" too
        zero = RouterModel(vocabulary=("a", "b"), featurizer=SMALL,
                           flags=SerializationFlags(False, False), seed=0,
                           weights=np.zeros((2, SMALL.hash_dim)), bias=np.zeros(2))
        assert zero.route_features(features, [0, 1, 2]) == ["a", "a", "a"]
        # class 1 is class 0 raised by one ulp
        for seed in range(30):
            rng = np.random.default_rng(seed)
            weights, bias = rng.normal(size=(2, SMALL.hash_dim)), rng.normal(size=2)
            weights[1], bias[1] = np.nextafter(weights[0], np.inf), bias[0]
            router = RouterModel(vocabulary=("a", "b"), featurizer=SMALL,
                                 flags=SerializationFlags(False, False), seed=0,
                                 weights=weights, bias=bias)
            assert router.route_features(features, [0, 1, 2]) == \
                [router.vocabulary[exact_choice(router, t)] for t in texts]

    def test_positions_outside_the_rows_raise(self):
        router = constant_router("b", ("a", "b"))
        features = router_module.featurize_batch(["[prompt]one", "[prompt]two", "x"], SMALL)
        n = len(features)
        assert router.route_features(features, []) == []
        assert router.route_features(features, [0, n - 1]) == ["b", "b"]
        for positions in ([-1], [0, -n - 1], [n], [1, n, 0]):
            with pytest.raises(InvalidInputError, match="positions outside the 3 feature rows"):
                router.route_features(features, positions)

    def test_batch_longer_than_a_chunk(self):
        router = RouterModel(vocabulary=("a", "b", "c"), featurizer=FeaturizerConfig(),
                             flags=SerializationFlags(False, False), seed=0,
                             weights=np.random.default_rng(4).normal(size=(3, 2 ** 18)),
                             bias=np.zeros(3))
        # lines of at least 40 characters, over two chunks' worth of them
        texts = [f"[prompt]line {i:05d} of a batch, {'x' * (10 + i % 50)}"
                 for i in range(router_module._CHUNK_CHARS // 20 + 1)]
        assert router.route_batch(texts) == [router.vocabulary[exact_choice(router, t)]
                                             for t in texts]

    def test_line_shorter_than_every_order_routes_by_bias(self):
        router = RouterModel(vocabulary=("a", "b", "c"), featurizer=SMALL,
                             flags=SerializationFlags(False, False), seed=0,
                             weights=np.random.default_rng(2).normal(size=(3, SMALL.hash_dim)),
                             bias=np.array([0.0, 3.0, 1.0]))
        assert router.route_batch(["X", "a longer line", "Y"])[::2] == ["b", "b"]
        assert router.route_text("X") == "b"

    def test_lowercase_that_changes_length(self):
        assert len("İ".lower()) == 2
        router = RouterModel(vocabulary=("a", "b", "c"), featurizer=SMALL,
                             flags=SerializationFlags(False, False), seed=0,
                             weights=np.random.default_rng(3).normal(size=(3, SMALL.hash_dim)),
                             bias=np.zeros(3))
        texts = ["İ", "İstanbul İİ", "ΣΑΣ ΟΔΟΣ", "İ"]
        assert router.route_batch(texts) == [router.vocabulary[exact_choice(router, t)]
                                             for t in texts]

    def test_one_ulp_near_ties_follow_the_oracle(self):
        # class 1 is class 0 raised by one ulp, so their scores differ only in
        # rounding, where the batched sum and the oracle's may disagree
        config = FeaturizerConfig(ngram_orders=(2, 3), hash_dim=16)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            weights, bias = rng.normal(size=(2, 16)), rng.normal(size=2)
            weights[1], bias[1] = np.nextafter(weights[0], np.inf), bias[0]
            router = RouterModel(vocabulary=("a", "b"), featurizer=config,
                                 flags=SerializationFlags(False, False), seed=0,
                                 weights=weights, bias=bias)
            texts = ["".join(rng.choice(list("abcdefgh "), size=int(rng.integers(2, 12))))
                     for _ in range(4)]
            assert router.route_batch(texts) == [router.vocabulary[exact_choice(router, t)]
                                                 for t in texts]

    def test_empty_line_raises(self):
        router = constant_router("b", ("a", "b"))
        with pytest.raises(InvalidInputError):
            router.route_batch(["fine", ""])
        with pytest.raises(InvalidInputError):
            router.route_text("")

    def test_lone_surrogate_raises_as_featurize_does(self):
        router = constant_router("b", ("a", "b"))
        with pytest.raises(UnicodeEncodeError):
            featurize("x\ud800", SMALL)
        with pytest.raises(UnicodeEncodeError):
            router.route_batch(["fine", "x\ud800"])

    def test_rescoring_only_where_the_gap_is_within_the_bound(self, monkeypatch):
        calls = []
        featurize_batch = router_module.featurize_batch

        def counting_featurize_batch(texts, config):
            calls.append(list(texts))
            return featurize_batch(texts, config)

        monkeypatch.setattr(router_module, "featurize_batch", counting_featurize_batch)
        texts = ["[prompt]one", "[prompt]two", "x"]
        # every score ties on an all-zero router, so every line is rescored,
        # all in one call
        zero = RouterModel(vocabulary=("a", "b"), featurizer=SMALL,
                           flags=SerializationFlags(False, False), seed=0,
                           weights=np.zeros((2, SMALL.hash_dim)), bias=np.zeros(2))
        assert zero.route_batch(texts) == ["a", "a", "a"]
        assert calls == [texts]
        calls.clear()
        assert constant_router("b", ("a", "b")).route_batch(texts) == ["b", "b", "b"]
        assert calls == []
        # one line at a time: each tie is rescored alone, and a certified
        # line is never featurized
        assert [zero.route_text(t) for t in texts] == ["a", "a", "a"]
        assert calls == [[t] for t in texts]
        calls.clear()
        assert [constant_router("b", ("a", "b")).route_text(t) for t in texts] == ["b", "b", "b"]
        assert calls == []


def constant_router(model_id: str, vocab, flags=SerializationFlags(True, True)):
    vocab = tuple(vocab)
    bias = np.zeros(len(vocab))
    bias[vocab.index(model_id)] = 10.0
    return RouterModel(
        vocabulary=vocab, featurizer=SMALL, flags=flags, seed=0,
        weights=np.zeros((len(vocab), SMALL.hash_dim)), bias=bias,
    )


class TestEvaluateRouter:
    def test_constant_router_equals_model_marginal(self, small_keyword_world):
        world = small_keyword_world
        router = constant_router("m1", world.model_pool)
        grid = QueryGrid.build(world)
        replay = {ds: evaluate_router(router, grid, ds) for ds in world.datasets}
        from oracles import accuracy_table, filter_valid_prompts, sample_index

        table = accuracy_table(
            filter_valid_prompts(world.records, world.prompt_configs),
            sample_index(world),
        )
        for ds, acc in replay.items():
            assert acc == pytest.approx(table.marginal("m1", ds))

    def test_perfect_labels_hit_upper_bound(self):
        correctness = {
            ("alpha", 0, "q1-o0"): True,
            ("beta", 1, "q1-o0"): True,
            ("gamma", 2, "q1-o0"): False,
        }
        world = make_micro_world(n_samples=3, correctness=correctness)
        corpus = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
        # a lookup router that answers with the corpus label per input text
        class LabelLookupRouter:
            vocabulary = tuple(sorted(world.model_pool))
            flags = SerializationFlags(True, True)

            def __init__(self):
                self.by_input = dict(zip(corpus.inputs,
                                         map(corpus.grid.models.__getitem__, corpus.labels)))

            def route_batch(self, texts):
                return [self.by_input[text] for text in texts]

        replay = evaluate_router(LabelLookupRouter(), QueryGrid.build(world), "micro")
        from taskrouter.baselines import upper_bound_accuracy

        assert replay == pytest.approx(
            upper_bound_accuracy(
                QueryGrid.build(
                    world, [r for r in world.records if r.prompt_variant_id == "q1-o0"]),
                "micro",
            )
        )

    def test_matches_independent_replay_script(self, small_keyword_world):
        world = small_keyword_world
        rng = np.random.default_rng(3)
        router = RouterModel(
            vocabulary=tuple(sorted(world.model_pool)),
            featurizer=SMALL,
            flags=SerializationFlags(True, False),
            seed=0,
            weights=rng.normal(size=(len(world.model_pool), SMALL.hash_dim)),
            bias=np.zeros(len(world.model_pool)),
        )
        grid = QueryGrid.build(world)
        replay = {ds: evaluate_router(router, grid, ds) for ds in world.datasets}

        # independent replay: walk raw records, re-deriving prompts inline
        from taskrouter.prompts import (
            prompt_variants, render, rendered_options, valid_variant_ids,
        )
        outcomes = {
            (r.dataset_id, r.sample_id, r.prompt_variant_id, r.model_id): r.correct
            for r in world.records
        }
        for ds_id, manifest in world.datasets.items():
            config = world.prompt_configs[ds_id]
            per_variant = {}
            for v in prompt_variants(config):
                if v.variant_id not in valid_variant_ids(config):
                    continue
                hits = []
                for s in manifest.samples:
                    choice = router.route(
                        world.metadata[s.sample_id],
                        render(v.question, s, config),
                        rendered_options(s, config, v),
                    )
                    hits.append(outcomes[(ds_id, s.sample_id, v.variant_id, choice)])
                per_variant[v.variant_id] = sum(hits) / len(hits)
            expected = sum(per_variant.values()) / len(per_variant)
            assert replay[ds_id] == pytest.approx(expected)

    def test_missing_outcome_is_coverage_error(self):
        world = make_micro_world(n_samples=2)
        router = constant_router("alpha", world.model_pool)
        partial = [r for r in world.records if r.model_id != "alpha"]
        with pytest.raises(CoverageError):
            evaluate_router(router, QueryGrid.build(world, partial), "micro")

    def test_replay_never_exceeds_upper_bound(self, small_keyword_world):
        from taskrouter.baselines import upper_bound_accuracy

        world = small_keyword_world
        rng = np.random.default_rng(17)
        for trial in range(3):
            router = RouterModel(
                vocabulary=tuple(sorted(world.model_pool)),
                featurizer=SMALL,
                flags=SerializationFlags(True, True),
                seed=trial,
                weights=rng.normal(size=(len(world.model_pool), SMALL.hash_dim)),
                bias=rng.normal(size=len(world.model_pool)),
            )
            grid = QueryGrid.build(world)
            replay = {ds: evaluate_router(router, grid, ds) for ds in world.datasets}
            for ds, acc in replay.items():
                from oracles import filter_valid_prompts

                valid = filter_valid_prompts(world.records, world.prompt_configs)
                ub = upper_bound_accuracy(
                    QueryGrid.build(world, [r for r in valid if r.dataset_id == ds]), ds
                )
                assert acc <= ub + 1e-12
