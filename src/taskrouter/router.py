"""Trainable text-to-model router.

The learner is a multinomial logistic regression over signed hashed
character n-grams: dependency-free, deterministic, and fast enough to
train at desk scale.

Serialized inputs are featurized as character n-grams (orders 2-4 by
default) hashed into 2^18 signed buckets. Hashing uses a fixed polynomial
over the character code points, so feature vectors are stable across
processes and platforms.
"""

from __future__ import annotations

import functools
import json
import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import MetadataSummary, QueryGrid, atomic_open
from .errors import InvalidInputError
from .routerdata import RouterExample, SerializationFlags, router_inputs, serialize_input

logger = logging.getLogger(__name__)

# Fixed hashing constants: featurization must agree across runs and hosts.
_HASH_SEED = 0x7461736B726F7574


@dataclass(frozen=True)
class FeaturizerConfig:
    ngram_orders: tuple[int, ...] = (2, 3, 4)
    hash_dim: int = 2 ** 18
    lowercase: bool = True

    def __post_init__(self):
        object.__setattr__(self, "ngram_orders", tuple(self.ngram_orders))
        if not self.ngram_orders or any(n < 1 for n in self.ngram_orders):
            raise InvalidInputError(f"bad n-gram orders {self.ngram_orders}")
        if self.hash_dim < 2:
            raise InvalidInputError("hash_dim must be at least 2")

    def to_dict(self) -> dict:
        return {
            "ngram_orders": list(self.ngram_orders),
            "hash_dim": self.hash_dim,
            "lowercase": self.lowercase,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeaturizerConfig":
        return cls(
            ngram_orders=tuple(d["ngram_orders"]),
            hash_dim=int(d["hash_dim"]),
            lowercase=bool(d["lowercase"]),
        )


Features = tuple[np.ndarray, np.ndarray]


@functools.cache
def _atoms(order: int) -> np.ndarray:
    rng = np.random.default_rng(_HASH_SEED + order)
    # odd multipliers keep the low bits well mixed under mod-2^64 products
    return (rng.integers(0, 2 ** 62, size=order, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)


def featurize(text: str, config: FeaturizerConfig = FeaturizerConfig()):
    """Signed hashed n-gram counts of a serialized input.

    Returns (indices, values): sorted unique bucket indices and the signed
    counts that landed in them. It is row 0 of ``featurize_batch([text])``.
    """
    return featurize_batch([text], config)[0]


# Lines are scored in chunks of at most this many characters (a longer line
# is a chunk of its own), so scoring memory does not grow with the input.
_CHUNK_CHARS = 1 << 15
# Featurized rows outlive their chunk, and the chunk's temporaries leave heap
# holes between them; smaller chunks measured a lower peak RSS, no slower.
_FEATURIZE_CHUNK_CHARS = 1 << 13
_EPS = float(np.finfo(np.float64).eps)  # 2^-52, twice the unit roundoff
_TINY = float(np.finfo(np.float64).smallest_subnormal)


@functools.cache
def _atom_table(orders: tuple[int, ...]) -> np.ndarray:
    """(max order, len(orders)) uint64 matrix whose column j holds the atoms
    of ``orders[j]``, zero below them: a window of codes times this table
    is every order's n-gram hash at once."""
    table = np.zeros((max(orders), len(orders)), dtype=np.uint64)
    for j, order in enumerate(orders):
        table[:order, j] = _atoms(order)
    return table


def _exact_choice(weights, bias, config: FeaturizerConfig, text: str) -> int:
    """The reference choice: featurize, one matrix-vector product, and the
    argmax, whose ties go to the lowest index."""
    idx, vals = featurize(text, config)
    return int(np.argmax(weights[:, idx] @ vals + bias))


def _chunks(texts: Sequence[str], limit: int) -> Iterable[tuple[int, int]]:
    """(start, stop) spans of ``texts`` holding at most ``limit``
    characters each; a longer line is a span of its own."""
    start = 0
    while start < len(texts):
        stop, size = start + 1, len(texts[start])
        while stop < len(texts) and size + len(texts[stop]) <= limit:
            size += len(texts[stop])
            stop += 1
        yield start, stop
        start = stop


def _hash_chunk(config: FeaturizerConfig, texts: Sequence[str]):
    """Every n-gram of a chunk of lines, hashed in one pass.

    Each position of the chunk's joined code points hashes one n-gram of
    each order, as a uint64 product of a strided window view with
    ``_atom_table``. Returns (lengths, ends, buckets, signs): each line's
    code point count and end offset in the chunk, and the (position, order)
    buckets and signs, where an n-gram that runs past the end of its line
    gets sign 0.
    """
    if not all(texts):
        raise InvalidInputError("cannot featurize an empty string")
    lines = [t.lower() for t in texts] if config.lowercase else texts
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    codes = np.frombuffer("".join(lines).encode("utf-32-le"), dtype=np.uint32)
    orders = config.ngram_orders
    span = max(orders)
    padded = np.zeros(len(codes) + span - 1, dtype=np.uint64)
    padded[:len(codes)] = codes
    windows = np.ndarray((len(codes), span), dtype=np.uint64, buffer=padded,
                         strides=(8, 8))
    # the hash of the n-gram at i: sum_k codes[i + k] * atoms[k] mod 2^64
    hashes = windows @ _atom_table(orders)
    ends = np.cumsum(lengths)
    fits = (np.repeat(ends, lengths) - np.arange(len(codes)))[:, None] >= np.array(orders)
    # a hash's top bit sets its sign, and so does the sign of its int64 view
    signs = np.copysign(fits, hashes.view(np.int64))
    buckets = (hashes % np.uint64(config.hash_dim)).astype(np.int64)
    return lengths, ends, buckets, signs


def featurize_batch(texts: Sequence[str],
                    config: FeaturizerConfig = FeaturizerConfig()) -> list[Features]:
    """``featurize`` of each of ``texts``, hashed a chunk of lines at a time.

    A chunk becomes one compressed sparse row (CSR) matrix: one
    ``np.unique`` of ``row * hash_dim + bucket`` over its fitting n-grams
    gives each row's sorted unique buckets, and one ``np.bincount`` sums
    their signs. Sums of +-1.0 are exact in any order, so every row equals
    the one-line result bit for bit, a bucket whose signs cancel keeps its
    0.0, and a line shorter than every order gets an empty row. Row i is
    a view ``(indices[indptr[i]:indptr[i + 1]], values[...])`` of its
    chunk's arrays. A chunk of more than one line has fewer rows than
    ``_FEATURIZE_CHUNK_CHARS``, so keys stay below that times ``hash_dim``:
    far inside int64 for any ``hash_dim`` a weight matrix can hold.
    """
    rows: list[Features] = []
    dim = config.hash_dim
    for start, stop in _chunks(texts, _FEATURIZE_CHUNK_CHARS):
        lengths, _, buckets, signs = _hash_chunk(config, texts[start:stop])
        fits = signs != 0
        keys = (np.repeat(np.arange(stop - start, dtype=np.int64), lengths)[:, None] * dim
                + buckets)[fits]
        keys, inverse = np.unique(keys, return_inverse=True)
        # astype: a bincount of no items is int64 even with float weights
        values = np.bincount(inverse, weights=signs[fits], minlength=len(keys)).astype(np.float64)
        row_ends = np.cumsum(np.bincount(keys // dim, minlength=stop - start))
        rows += zip(np.split(keys % dim, row_ends[:-1]), np.split(values, row_ends[:-1]))
    return rows


def _choose(weights: np.ndarray, bias: np.ndarray, config: FeaturizerConfig,
            texts: Sequence[str]) -> np.ndarray:
    """The index of the highest-scoring class for each of ``texts``; equal
    to ``_exact_choice`` on every line (see ``_choose_chunk``)."""
    choices = np.empty(len(texts), dtype=np.intp)
    for start, stop in _chunks(texts, _CHUNK_CHARS):
        choices[start:stop] = _choose_chunk(weights, bias, config, texts[start:stop])
    return choices


def _choose_chunk(weights, bias, config: FeaturizerConfig, texts) -> np.ndarray:
    """Score a chunk of lines without building their feature vectors.

    ``_hash_chunk`` gives every n-gram's bucket and sign, as ``featurize``
    would. Each line's score is then the sum of its gathered
    ``weights[c, bucket] * sign`` terms plus the bias.

    The sum is rounded in another order than the reference
    ``weights[:, idx] @ vals + bias``, so the two scores may differ in the
    last bits. Let u = 2^-53, n the line's term count, A_c the sum of its
    |weights[c, bucket] * sign| and S_c = A_c + |bias[c]|. Any order of
    summing n terms errs by at most gamma_{n-1} * A_c, with gamma_k =
    k*u / (1 - k*u), and the bias add rounds once more, so this score lies
    within gamma_n * S_c of the true one. The reference's products fold the
    same terms bucket by bucket (|vals[j]| is at most the number of terms
    in bucket j, so its absolute terms also sum to at most A_c) and it sums
    at most n of them, so it lies within gamma_{n+1} * S_c. The two scores
    of a class thus differ by at most 2 * gamma_{n+1} * S_c, and if the
    top score here beats the runner-up by more than 4 * gamma_{n+1} *
    max_c S_c, the reference has the same unique argmax. Since gamma_{n+1}
    <= 1.01 * (n + 1) * u, ``bound`` below (with eps = 2u) is twice that
    margin, which also covers the rounding of the bound and the gap
    themselves; the subnormal term covers underflow in the reference's
    products. A line whose gap is not above its bound (a tie, a near tie, a
    NaN) is rescored by ``_exact_choice``.
    """
    lengths, ends, buckets, signs = _hash_chunk(config, texts)
    terms = weights.take(buckets.ravel(), axis=1)
    terms *= signs.ravel()
    n_orders = len(config.ngram_orders)
    starts = (ends - lengths) * n_orders
    scores = np.add.reduceat(terms, starts, axis=1)
    scores += bias[:, None]
    best = scores.argmax(axis=0)
    if len(bias) > 1:
        scale = np.add.reduceat(np.abs(terms, out=terms), starts, axis=1)
        scale += np.abs(bias)[:, None]
        bound = 4.0 * (lengths * n_orders + 2) * (_EPS * scale.max(axis=0) + _TINY)
        top2 = np.sort(scores, axis=0)[-2:]
        for i in np.flatnonzero(~(top2[1] - top2[0] > bound)).tolist():
            best[i] = _exact_choice(weights, bias, config, texts[i])
    return best


@dataclass(frozen=True)
class TrainConfig:
    """Training defaults mirror the reference configuration: lr 2e-4,
    batch size 1, 5000 iterations, evaluation every 1000 with
    best-checkpoint selection."""

    learning_rate: float = 2e-4
    batch_size: int = 1
    max_iterations: int = 5000
    eval_every: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or \
                self.max_iterations < 1 or self.eval_every < 1:
            raise InvalidInputError("all training parameters must be positive")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "max_iterations": self.max_iterations,
            "eval_every": self.eval_every,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrainConfig":
        return cls(**{k: d[k] for k in
                      ("learning_rate", "batch_size", "max_iterations",
                       "eval_every", "seed") if k in d})


def softmax_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    feats: Sequence[Features],
    labels: Sequence[int],
):
    """Mean cross-entropy over a mini-batch plus its analytic gradients.

    Returns (loss, grad_bias, cols, grad_cols): ``cols`` is the sorted union
    of the batch's feature columns and ``grad_cols`` the (n_classes,
    len(cols)) weight gradient over them. Every other column's gradient is
    identically zero. Each column sums its examples' ``delta * value`` terms
    in batch order, then scales by 1/n. A batch of one takes its example's
    columns and terms as they are, which gives the same bits.
    """
    n = len(feats)
    if n == 0:
        raise InvalidInputError("empty mini-batch")
    k = weights.shape[0]
    loss = 0.0
    grad_bias = np.zeros(k)
    terms = []
    for (idx, vals), label in zip(feats, labels):
        scores = weights[:, idx] @ vals + bias
        scores -= scores.max()
        exp = np.exp(scores)
        delta = exp / exp.sum()
        loss -= float(np.log(max(delta[label], 1e-300)))
        delta[label] -= 1.0
        grad_bias += delta
        terms.append(np.outer(delta, vals))
    if n == 1:
        # one example's columns are sorted and unique already, and 1/n is 1;
        # adding 0.0 turns a -0.0 term into the 0.0 the general path sums to
        terms[0] += 0.0
        return loss, grad_bias, feats[0][0], terms[0]
    cols, where = np.unique(np.concatenate([idx for idx, _ in feats]), return_inverse=True)
    grad_cols = np.zeros((k, len(cols)))
    # unbuffered, so a column shared by several examples adds them in batch order
    np.add.at(grad_cols, (slice(None), where), np.concatenate(terms, axis=1))
    inv = 1.0 / n
    grad_cols *= inv
    return loss * inv, grad_bias * inv, cols, grad_cols


@dataclass
class RouterModel:
    """A trained router: model vocabulary, featurization config, the
    serialization flags it was trained with, and the learner parameters.
    Inference is deterministic; ties break to the lowest vocabulary index."""

    vocabulary: tuple[str, ...]
    featurizer: FeaturizerConfig
    flags: SerializationFlags
    seed: int
    weights: np.ndarray  # (n_models, hash_dim)
    bias: np.ndarray  # (n_models,)

    def __post_init__(self):
        if not self.vocabulary:
            raise InvalidInputError("empty model vocabulary")
        if self.weights.shape != (len(self.vocabulary), self.featurizer.hash_dim):
            raise InvalidInputError(
                f"weights shape {self.weights.shape} does not match "
                f"{len(self.vocabulary)} models x {self.featurizer.hash_dim} buckets"
            )

    def route_batch(self, texts: Sequence[str]) -> list[str]:
        """The model picked for each serialized input line: every line
        scored in one batched pass, with near ties rescored exactly."""
        return [self.vocabulary[i]
                for i in _choose(self.weights, self.bias, self.featurizer, texts).tolist()]

    def route_text(self, serialized_input: str) -> str:
        return self.route_batch([serialized_input])[0]

    def route(
        self,
        metadata: MetadataSummary | None,
        prompt_text: str,
        options: Sequence[str] | None,
    ) -> str:
        """Route one query: serialize the input portion with the train-time
        flags and return the argmax-probability model."""
        return self.route_text(serialize_input(metadata, prompt_text, options, self.flags))

    # -- persistence --------------------------------------------------------

    MAGIC = b"TROUTER\x01"
    LEARNER_KIND = "linear_hashed_ngram"

    def save(self, path: str | Path) -> None:
        """Write the router file atomically: into a temporary file in the
        same directory, which then replaces ``path``. A failed write leaves
        any earlier file at ``path`` as it was."""
        header = {
            "format_version": 1,
            "learner_kind": self.LEARNER_KIND,
            "vocabulary": list(self.vocabulary),
            "flags": self.flags.to_dict(),
            "featurization": self.featurizer.to_dict(),
            "seed": self.seed,
            "weights_shape": list(self.weights.shape),
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with atomic_open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(np.ascontiguousarray(self.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.bias, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "RouterModel":
        """Read a router file, checking the magic, the header fields, the
        exact parameter byte length and that every parameter is finite."""
        data = Path(path).read_bytes()
        start = len(cls.MAGIC) + 4
        if len(data) < start or not data.startswith(cls.MAGIC):
            raise InvalidInputError(f"{path} is not a router file")
        (hlen,) = struct.unpack_from("<I", data, len(cls.MAGIC))
        try:
            header = json.loads(data[start:start + hlen].decode("utf-8"))
            kind = (header.get("format_version"), header.get("learner_kind"))
            if kind != (1, cls.LEARNER_KIND):
                raise InvalidInputError(f"unsupported router file version/learner {kind}")
            vocabulary = tuple(header["vocabulary"])
            featurizer = FeaturizerConfig.from_dict(header["featurization"])
            flags = SerializationFlags.from_dict(header["flags"])
            seed = int(header["seed"])
            shape = header["weights_shape"]
        except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError,
                RecursionError) as exc:
            raise InvalidInputError(f"{path}: bad router header: {exc}") from exc
        k, dim = len(vocabulary), featurizer.hash_dim
        if shape != [k, dim]:
            raise InvalidInputError(
                f"{path}: weights_shape {shape} does not match {k} models x {dim} buckets"
            )
        body = data[start + hlen:]
        if len(body) != 8 * k * (dim + 1):
            raise InvalidInputError(
                f"{path}: expected {8 * k * (dim + 1)} parameter bytes after the "
                f"header, found {len(body)}"
            )
        params = np.frombuffer(body, dtype="<f8")
        if not np.isfinite(params).all():
            raise InvalidInputError(f"{path}: non-finite router parameters")
        return cls(
            vocabulary=vocabulary,
            featurizer=featurizer,
            flags=flags,
            seed=seed,
            weights=params[:k * dim].reshape(k, dim).copy(),
            bias=params[k * dim:].copy(),
        )


def train_router(
    train: Sequence[RouterExample],
    validate: Sequence[RouterExample],
    config: TrainConfig = TrainConfig(),
    flags: SerializationFlags | None = None,
    featurizer: FeaturizerConfig = FeaturizerConfig(),
    vocabulary: Sequence[str] | None = None,
    features: Sequence[Features] | None = None,
) -> RouterModel:
    """Fit the default learner with seeded SGD over the training examples.

    ``features`` holds each training example's ``featurize`` row, for a
    caller that featurized a larger corpus once; without it the training
    set is featurized in one ``featurize_batch`` call. Every ``eval_every``
    steps (and at the final step) the validation label accuracy is
    measured and the best checkpoint kept. With no validation examples the
    final parameters are returned with a warning.
    """
    if not train:
        raise InvalidInputError("empty training set")
    vocab = tuple(vocabulary) if vocabulary is not None else tuple(
        sorted({ex.label_model_id for ex in train})
    )
    vocab_index = {m: i for i, m in enumerate(vocab)}
    for ex in list(train) + list(validate):
        if ex.label_model_id not in vocab_index:
            raise InvalidInputError(
                f"label {ex.label_model_id!r} outside the model vocabulary {vocab}"
            )
    if flags is None:
        flags = _infer_flags(train[0])

    if features is None:
        features = featurize_batch([ex.serialized_input for ex in train], featurizer)
    elif len(features) != len(train):
        raise InvalidInputError(
            f"{len(features)} feature rows for {len(train)} training examples")
    labels = [vocab_index[ex.label_model_id] for ex in train]
    val_texts = [ex.serialized_input for ex in validate]
    val_labels = np.array([vocab_index[ex.label_model_id] for ex in validate], dtype=np.intp)

    k = len(vocab)
    weights = np.zeros((k, featurizer.hash_dim))
    bias = np.zeros(k)
    rng = np.random.default_rng(config.seed)

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    order = np.arange(len(train))
    pos = len(train)  # force a shuffle before the first step
    lr = config.learning_rate

    for step in range(1, config.max_iterations + 1):
        if pos + config.batch_size > len(order):
            rng.shuffle(order)
            pos = 0
        batch = order[pos:pos + config.batch_size]
        pos += config.batch_size
        batch_feats = [features[i] for i in batch]
        batch_labels = [labels[i] for i in batch]
        _, grad_bias, cols, grad_cols = softmax_loss_and_grads(
            weights, bias, batch_feats, batch_labels
        )
        bias -= lr * grad_bias
        weights[:, cols] -= lr * grad_cols

        if step % config.eval_every == 0 or step == config.max_iterations:
            if val_texts:
                hits = int((_choose(weights, bias, featurizer, val_texts) == val_labels).sum())
                acc = hits / len(val_texts)
                logger.info("step %d: validation label accuracy %.4f", step, acc)
                if best is None or acc > best[0]:
                    best = (acc, weights.copy(), bias.copy())

    if best is not None:
        _, weights, bias = best
    else:
        logger.warning("no validation examples; keeping final-iteration parameters")

    return RouterModel(
        vocabulary=vocab,
        featurizer=featurizer,
        flags=flags,
        seed=config.seed,
        weights=weights,
        bias=bias,
    )


def _infer_flags(example: RouterExample) -> SerializationFlags:
    from .routerdata import IMG_MARK, OPTIONS_MARK

    return SerializationFlags(
        include_metadata=example.serialized_input.startswith(IMG_MARK),
        include_response_options=OPTIONS_MARK in example.serialized_input,
    )


def route_rows(router, grid: QueryGrid, rows: Iterable[int]) -> list[str]:
    """The model ``router.route_batch`` picks for each of the grid's
    ``rows``, from their ``router_inputs`` under the router's flags."""
    return router.route_batch(router_inputs(grid, rows, router.flags))


def evaluate_router(router: RouterModel, grid: QueryGrid, dataset_id: str) -> float:
    """Recorded-outcome replay on one dataset: per recorded query, ask the
    router for a model and score the query by that model's stored
    correctness. No model is executed. Returns the accuracy averaged
    across prompt variants."""
    rows = grid.rows(dataset_id)
    return grid.variant_mean(rows, grid.outcome(rows, route_rows(router, grid, rows)))
