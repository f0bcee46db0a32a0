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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import MetadataSummary, QueryGrid, atomic_open, typed_field
from .errors import InvalidInputError
from .routerdata import SerializationFlags, router_inputs, serialize_input

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
        # featurize_batch's int64 keys hold a row, a bucket and a sign bit
        if not 2 <= self.hash_dim <= 2 ** 48:
            raise InvalidInputError("hash_dim must be between 2 and 2^48")

    def to_dict(self) -> dict:
        return {
            "ngram_orders": list(self.ngram_orders),
            "hash_dim": self.hash_dim,
            "lowercase": self.lowercase,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeaturizerConfig":
        return cls(
            ngram_orders=tuple(typed_field(d, "ngram_orders", list, int)),
            hash_dim=typed_field(d, "hash_dim", int),
            lowercase=typed_field(d, "lowercase", bool),
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
    counts that landed in them. It is row 0 of ``featurize_batch([text])``,
    with int64 indices.
    """
    idx, vals = featurize_batch([text], config).row(0)
    return idx.astype(np.int64), vals


# Lines are scored in chunks of at most this many characters (a longer line
# is a chunk of its own), so scoring memory does not grow with the input.
_CHUNK_CHARS = 1 << 15
# A chunk's hashing temporaries are several times the size of its rows;
# smaller chunks measured a lower peak RSS, no slower.
_FEATURIZE_CHUNK_CHARS = 1 << 13
# A chunk of at least this many code points hashes one order at a time; a
# shorter one in one matrix product, whose fewer numpy calls cost less
# there. The two crossed between 1,000 and 1,900 code points for orders
# (2, 3, 4), (1, ..., 5) and (3,) on one 2.1 GHz Xeon vCPU. A shorter chunk
# of one line also takes its fit mask from ``_line_end_fits``. Since a
# one-line chunk is scored by BLAS products, hashing it one order at a
# time makes a routed line of about 160 characters 38% slower at the p50
# on one 2.0 GHz Xeon vCPU, and 60% slower with its fit mask built too;
# when one line was scored like a batch, that cost about a quarter.
_PRODUCTS_MIN_CODES = 1 << 11
_EPS = float(np.finfo(np.float64).eps)  # 2^-52, twice the unit roundoff
_TINY = float(np.finfo(np.float64).smallest_subnormal)


@functools.cache
def _atom_table(orders: tuple[int, ...]) -> np.ndarray:
    """(len(orders), max order) uint64 matrix whose row j holds the atoms
    of ``orders[j]``, zero past them: this table times the transposed
    windows of a chunk's codes is every order's n-gram hash at once."""
    table = np.zeros((len(orders), max(orders)), dtype=np.uint64)
    for j, order in enumerate(orders):
        table[j, :order] = _atoms(order)
    return table


@functools.cache
def _line_end_fits(orders: tuple[int, ...]) -> np.ndarray:
    """(len(orders), _PRODUCTS_MIN_CODES) float matrix of 1.0 where the
    n-gram of ``orders[j]`` starting at that column fits before the last
    column's end, 0.0 where it runs past: its last n columns are the fit
    mask of a line of n code points."""
    remaining = np.arange(_PRODUCTS_MIN_CODES, 0, -1)
    fits = (remaining >= np.array(orders)[:, None]).astype(np.float64)
    fits.flags.writeable = False  # shared by every caller
    return fits


def _chunks(sizes: Sequence[int], limit: int) -> Iterable[tuple[int, int]]:
    """(start, stop) spans of items of these ``sizes`` holding at most
    ``limit`` in all; a larger item is a span of its own."""
    start = 0
    while start < len(sizes):
        stop, size = start + 1, sizes[start]
        while stop < len(sizes) and size + sizes[stop] <= limit:
            size += sizes[stop]
            stop += 1
        yield start, stop
        start = stop


def _hash_chunk(config: FeaturizerConfig, texts: Sequence[str]):
    """Every n-gram of a chunk of lines, hashed in one pass.

    Each position i of the chunk's joined code points hashes one n-gram of
    each order, sum_k codes[i + k] * atoms[k] mod 2^64. A chunk of at least
    ``_PRODUCTS_MIN_CODES`` code points sums each order's in-place products
    of shifted code views; a shorter one takes the uint64 product of
    ``_atom_table`` with a strided window view. Both sums are exact mod
    2^64, so the two give the same bits. Returns (lengths, ends, buckets,
    signs): each line's code point count and end offset in the chunk, and
    the buckets and signs laid out order-major, (len(orders), positions),
    where an n-gram that runs past the end of its line gets sign 0. A
    shorter chunk of one line takes that fit mask from ``_line_end_fits``
    instead of building it.
    """
    if not all(texts):
        raise InvalidInputError("cannot featurize an empty string")
    lines = [t.lower() for t in texts] if config.lowercase else texts
    orders, joined = config.ngram_orders, "".join(lines)
    n = len(joined)
    # the code points, then max(orders) - 1 zeros for the last windows
    padded = np.frombuffer((joined + "\0" * (max(orders) - 1)).encode("utf-32-le"),
                           dtype=np.uint32).astype(np.uint64)
    if n >= _PRODUCTS_MIN_CODES:
        hashes = np.empty((len(orders), n), dtype=np.uint64)
        product = np.empty(n, dtype=np.uint64)
        for row, order in zip(hashes, orders):
            atoms = _atoms(order)
            np.multiply(padded[:n], atoms[0], out=row)
            for k in range(1, order):
                np.multiply(padded[k:k + n], atoms[k], out=product)
                row += product
    else:
        windows = np.ndarray((max(orders), n), dtype=np.uint64, buffer=padded,
                             strides=(8, 8))
        hashes = _atom_table(orders) @ windows
    if len(lines) == 1 and n < _PRODUCTS_MIN_CODES:
        lengths = ends = np.array([n], dtype=np.intp)
        fits = _line_end_fits(orders)[:, -n:]
    else:
        lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
        ends = np.cumsum(lengths)
        fits = np.repeat(ends, lengths) - np.arange(n) >= np.array(orders)[:, None]
    # a hash's top bit is the sign bit of its float64 view, which copysign
    # reads without converting the hash
    signs = np.copysign(fits, hashes.view(np.float64))
    # every bucket is below hash_dim <= 2^63, so its int64 view is its
    # value; a mask is much cheaper than a uint64 remainder
    dim = config.hash_dim
    if dim & (dim - 1):
        np.remainder(hashes, np.uint64(dim), out=hashes)
    else:
        np.bitwise_and(hashes, np.uint64(dim - 1), out=hashes)
    return lengths, ends, hashes.view(np.int64), signs


@dataclass(frozen=True)
class FeatureRows:
    """Featurized lines as one compressed sparse row (CSR) matrix: row i's
    sorted unique buckets are ``indices[indptr[i]:indptr[i + 1]]`` and its
    signed counts the same slice of ``values``. ``config`` hashed them."""

    indptr: np.ndarray  # (n_rows + 1,) int64
    indices: np.ndarray  # int32, or int64 for a hash_dim past int32
    values: np.ndarray  # float64
    config: FeaturizerConfig

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, i) -> Features:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def placed(self, positions: Sequence[int], n: int) -> "FeatureRows":
        """These rows at the increasing ``positions`` of ``n`` rows, every
        other row empty (zero-length); the bucket and value arrays are
        shared."""
        sizes = np.zeros(n, dtype=np.int64)
        sizes[positions] = np.diff(self.indptr)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return FeatureRows(indptr, self.indices, self.values, self.config)


def featurize_batch(texts: Sequence[str],
                    config: FeaturizerConfig = FeaturizerConfig()) -> FeatureRows:
    """``featurize`` of each of ``texts`` as the rows of one CSR matrix,
    hashed a chunk of lines at a time.

    In each chunk, every fitting n-gram packs its row, bucket and sign into
    one key, ``(row * hash_dim + bucket) * 2 + (sign < 0)``, and one
    ``np.sort`` of the keys groups them: each run of keys equal but for the
    low bit is one of a row's sorted unique buckets, and its value is its
    count minus twice its negatives. That is the exact sum of its +-1.0
    signs, so every row equals the one-line result bit for bit, a bucket
    whose signs cancel keeps its 0.0, and a line shorter than every order
    gets an empty row. A chunk of more than one line has fewer rows than
    ``_FEATURIZE_CHUNK_CHARS``, so keys stay below that times ``hash_dim *
    2``, at most 2^62 for the largest ``hash_dim`` a config allows: inside
    int64.

    Each chunk's rows are written straight into the matrix's arrays, sized
    for one bucket per n-gram of the lines as given (grown if lowercasing
    lengthens them) and cut to the buckets found at the end, in place: the
    unwritten tail is never touched, and no second copy of the matrix is
    made.
    """
    dim = config.hash_dim
    index_dtype = np.int32 if dim <= 1 << 31 else np.int64
    capacity = len(config.ngram_orders) * sum(map(len, texts))
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    indices, values = np.empty(capacity, dtype=index_dtype), np.empty(capacity)
    nnz = 0
    for start, stop in _chunks(list(map(len, texts)), _FEATURIZE_CHUNK_CHARS):
        lengths, _, keys, signs = _hash_chunk(config, texts[start:stop])
        keys <<= 1
        keys += np.repeat(np.arange(stop - start, dtype=np.int64) * (2 * dim), lengths)
        keys += signs < 0
        keys = keys[signs != 0]
        keys.sort()
        firsts = np.flatnonzero(np.diff(keys >> 1, prepend=-1))
        pairs = keys[firsts] >> 1
        end = nnz + len(pairs)
        if end > len(indices):
            indices.resize(2 * end, refcheck=False)
            values.resize(2 * end, refcheck=False)
        indices[nnz:end] = pairs % dim
        values[nnz:end] = (np.diff(firsts, append=len(keys))
                           - 2 * np.add.reduceat(keys & 1, firsts))
        indptr[start + 1:stop + 1] = nnz + np.cumsum(np.bincount(pairs // dim,
                                                                 minlength=stop - start))
        nnz = end
    indices.resize(nnz, refcheck=False)
    values.resize(nnz, refcheck=False)
    return FeatureRows(indptr, indices, values, config)


def _choose(weights: np.ndarray, bias: np.ndarray, config: FeaturizerConfig,
            texts: Sequence[str]) -> list[int]:
    """The index of the highest-scoring class for each of ``texts``; equal
    to the reference argmax on every line (see ``_choose_chunk``)."""
    choices = []
    for start, stop in _chunks(list(map(len, texts)), _CHUNK_CHARS):
        choices += _choose_chunk(weights, bias, config, texts[start:stop]).tolist()
    return choices


def _choose_chunk(weights, bias, config: FeaturizerConfig, texts) -> np.ndarray:
    """Score a chunk of lines without building their feature vectors.

    ``_hash_chunk`` gives every n-gram's bucket and sign, as ``featurize``
    would. Each line's score is then the sum of its gathered
    ``weights[c, bucket] * sign`` terms plus the bias. A chunk of one line
    (a routed query) takes that sum, and the sum of the terms' absolute
    values, as two BLAS products of the gathered weights with the signs
    and their absolute values; a chunk of more lines sums each line's
    terms in each order with one ``np.add.reduceat``. The lines that fail
    ``_gap_test`` are featurized in one ``featurize_batch`` call and
    rescored from their rows by ``_choose_rows``.
    """
    lengths, ends, buckets, signs = _hash_chunk(config, texts)
    terms = weights.take(buckets.ravel(), axis=1)
    signs = signs.ravel()
    if len(texts) == 1:
        scores = terms @ signs
        scores += bias
        scale = np.abs(terms, out=terms) @ np.abs(signs)
        scale += np.abs(bias)
        counts = len(signs)
    else:
        terms *= signs
        terms = terms.reshape(len(bias), *buckets.shape)
        starts = ends - lengths
        scores = np.add.reduceat(terms, starts, axis=2).sum(axis=1)
        scores += bias[:, None]
        scale = np.add.reduceat(np.abs(terms, out=terms), starts, axis=2).sum(axis=1)
        scale += np.abs(bias)[:, None]
        counts = lengths * len(config.ngram_orders)
    best, unsure = _gap_test(scores, scale, counts)
    if len(unsure):
        rows = featurize_batch([texts[i] for i in unsure.tolist()], config)
        best[unsure] = _choose_rows(weights, bias, rows, range(len(unsure)))
    return best


def _gap_test(scores: np.ndarray, scale: np.ndarray,
              counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each line's best class from its scores, and the lines whose choice
    may differ from the reference's.

    ``scores`` is (n_classes, lines), or (n_classes,) for a chunk of one
    line: each line's terms summed in any order, plus the bias. ``scale``
    is the same sums of the terms' and the bias's absolute values, and
    ``counts`` each line's number of terms, above 0 (an int for one line).
    Returns the argmax of each line's scores and the lines to rescore
    exactly.

    The sum is rounded in another order than the reference ``weights[:,
    idx] @ vals + bias``, so the two scores may differ in the last bits.
    Let u = 2^-53, n the line's term count, A_c the sum of its |terms| and
    S_c = A_c + |bias[c]|. Any order of summing n terms, this one too, errs
    by at most gamma_{n-1} * A_c, with gamma_k = k*u / (1 - k*u), and the
    bias add rounds once more, so this score lies within gamma_n * S_c of
    the true one. Each term is a weight times a sign of +-1 or +-0, which
    is exact, so a fused multiply-add changes none of this. The reference's
    products fold the same terms bucket by bucket (|vals[j]| is at most the
    number of terms in bucket j, so its absolute terms also sum to at most
    A_c) and it sums at most n of them, so it lies within gamma_{n+1} *
    S_c. The two scores of a class thus differ by at most 2 * gamma_{n+1} *
    S_c, and if the top score here beats the runner-up by more than 4 *
    gamma_{n+1} * max_c S_c, the reference has the same unique argmax.
    Since gamma_{n+1} <= 1.01 * (n + 1) * u, ``bound`` below (with eps =
    2u) is twice that margin, which also covers the rounding of ``scale``,
    the bound and the gap themselves; the subnormal term covers underflow
    in the products. A line whose gap is not above its bound (a tie, a
    near tie, a NaN) is to be rescored.
    """
    bound = 4.0 * (counts + 2) * (_EPS * np.maximum.reduce(scale) + _TINY)
    if scores.ndim == 1:
        # one line: the top two of its n_classes scores as Python floats
        values = scores.tolist()
        top2 = sorted(values)[-2:]
        rescore = 0 if len(top2) == 1 or top2[1] - top2[0] > bound else 1
        return np.array([values.index(top2[-1])]), np.arange(rescore, dtype=np.intp)
    if len(scores) == 1:
        return np.zeros(len(counts), dtype=np.intp), np.empty(0, dtype=np.intp)
    top2 = np.sort(scores, axis=0)[-2:]
    return scores.argmax(axis=0), np.flatnonzero(~(top2[1] - top2[0] > bound))


def _choose_rows(weights: np.ndarray, bias: np.ndarray, features: FeatureRows,
                 positions) -> np.ndarray:
    """The reference choice for each row of ``features`` at ``positions``:
    the argmax of ``weights[:, idx] @ vals + bias``, ties to the lowest
    index. ``weights`` is (n_classes, hash_dim) in any memory layout."""
    return np.array([np.argmax(weights[:, idx] @ vals + bias)
                     for idx, vals in map(features.row, positions)], dtype=np.intp)


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
        if not 0 < self.learning_rate < float("inf") or self.batch_size < 1 or \
                self.max_iterations < 1 or self.eval_every < 1:
            raise InvalidInputError("all training parameters must be positive and finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrainConfig":
        kinds = {"learning_rate": float, "batch_size": int, "max_iterations": int,
                 "eval_every": int, "seed": int}
        return cls(**{k: typed_field(d, k, kind) for k, kind in kinds.items() if k in d})


def sgd_batches(n: int, config: TrainConfig) -> Iterator[np.ndarray]:
    """The positions in a training split of ``n`` rows that each of the
    ``config.max_iterations`` SGD steps reads, in step order: a shuffle
    seeded by ``config.seed`` read ``batch_size`` at a time, and a new
    shuffle whenever the rest of the current one cannot fill a batch (a
    batch larger than the split is the whole shuffle). Each batch views the
    shuffle, so it holds only until the next is drawn."""
    rng = np.random.default_rng(config.seed)
    order = np.arange(n)
    pos = n  # force a shuffle before the first step
    for _ in range(config.max_iterations):
        if pos + config.batch_size > n:
            rng.shuffle(order)
            pos = 0
        yield order[pos:pos + config.batch_size]
        pos += config.batch_size


def read_positions(n: int, config: TrainConfig) -> np.ndarray:
    """The sorted positions in a training split of ``n`` rows that
    ``train_router`` reads under ``config``; steps are drawn only until
    every row has been read."""
    read = np.zeros(n, dtype=bool)
    unread = n
    for batch in sgd_batches(n, config):
        unread -= len(batch) - np.count_nonzero(read[batch])
        read[batch] = True
        if not unread:
            break
    return np.flatnonzero(read)


def _delta(block: np.ndarray, vals: np.ndarray, bias: np.ndarray, label) -> np.ndarray:
    """One example's softmax probabilities minus its one-hot label: the
    cross-entropy gradient of its scores. ``block`` is its buckets'
    gathered (n, n_classes) weight rows; ``block.T`` is F-ordered, like
    ``weights[:, idx]``, so the product has the reference's bits."""
    scores = block.T @ vals + bias
    scores -= scores.max()
    exp = np.exp(scores)
    delta = exp / exp.sum()
    delta[label] -= 1.0
    return delta


def _sgd_step(rows: np.ndarray, items: np.ndarray, bias: np.ndarray,
              features: FeatureRows, batch: np.ndarray, labels: np.ndarray,
              lr: float) -> None:
    """One SGD step on the mean cross-entropy of the ``features`` rows in
    ``batch``, in place on the bucket-major ``rows`` (hash_dim, n_classes)
    and on ``bias``. ``items`` views each row of ``rows`` as one item.

    The weight gradient is nonzero only on the rows of the batch's buckets:
    they are gathered once, updated as a block and put back once. Each
    bucket sums its examples' ``delta * value`` terms in batch order from
    0.0, then scales by 1/n. A batch of one takes its example's sorted
    unique buckets and terms as they are: 1/n is 1, and a -0.0 term where
    the sum gives +0.0 leaves the same bits, because the parameters start
    at +0.0 and ``x - y`` is -0.0 only when ``x`` already is.
    """
    k = len(bias)
    if len(batch) == 1:
        cols, vals = features.row(batch[0])
        block = rows.take(cols, axis=0)
        grad_bias = _delta(block, vals, bias, labels[0])
        grad = np.multiply.outer(grad_bias, vals).T
    else:
        grad_bias = np.zeros(k)
        terms = []
        for i, label in zip(batch.tolist(), labels.tolist()):
            idx, vals = features.row(i)
            delta = _delta(rows.take(idx, axis=0), vals, bias, label)
            grad_bias += delta
            terms.append(np.multiply.outer(delta, vals).T)
        cols, where = np.unique(np.concatenate([features.row(i)[0] for i in batch.tolist()]),
                                return_inverse=True)
        grad = np.zeros((len(cols), k))
        # unbuffered, so a bucket shared by several examples adds them in batch order
        np.add.at(grad, where, np.concatenate(terms))
        inv = 1.0 / len(batch)
        grad *= inv
        grad_bias *= inv
        block = rows.take(cols, axis=0)
    bias -= lr * grad_bias
    grad *= lr
    block -= grad
    items.put(cols, block.view(items.dtype).reshape(-1))


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
        if self.bias.shape != (len(self.vocabulary),):
            raise InvalidInputError(
                f"bias shape {self.bias.shape} does not match {len(self.vocabulary)} models")

    def route_batch(self, texts: Sequence[str]) -> list[str]:
        """The model picked for each serialized input line: every line
        hashed and scored in one batched pass, with near ties rescored
        exactly. Lines already featurized go through ``route_features``."""
        return [self.vocabulary[i]
                for i in _choose(self.weights, self.bias, self.featurizer, texts)]

    def route_features(self, features: FeatureRows, positions) -> list[str]:
        """The model picked for each row of ``features`` at ``positions``,
        by the reference product on the stored rows; the same choice
        ``route_batch`` makes on the rows' lines."""
        positions = np.asarray(positions, dtype=np.intp)
        if len(positions) and not 0 <= positions.min() <= positions.max() < len(features):
            raise InvalidInputError(f"positions outside the {len(features)} feature rows")
        return [self.vocabulary[i]
                for i in _choose_rows(self.weights, self.bias, features, positions).tolist()]

    def route_text(self, serialized_input: str) -> str:
        """The model picked for one serialized input line: ``route_batch``
        of that line alone, which scores it as a chunk of one line (see
        ``_choose_chunk``) and makes the same choice as ``route_batch``
        makes on the line in any batch."""
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
            for params in (self.weights, self.bias):  # each buffer as it is, when C-ordered <f8
                fh.write(np.ascontiguousarray(params, dtype="<f8").data)

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
            if type(header) is not dict:
                raise InvalidInputError("not a JSON object")
            kind = (header.get("format_version"), header.get("learner_kind"))
            if kind != (1, cls.LEARNER_KIND):
                raise InvalidInputError(f"unsupported router file version/learner {kind}")
            vocabulary = tuple(typed_field(header, "vocabulary", list, str))
            featurizer = FeaturizerConfig.from_dict(typed_field(header, "featurization", dict))
            flags = SerializationFlags.from_dict(typed_field(header, "flags", dict))
            seed = typed_field(header, "seed", int)
            shape = typed_field(header, "weights_shape", list, int)
        except KeyError as exc:
            raise InvalidInputError(f"{path}: bad router header: missing field {exc}") from exc
        except (ValueError, RecursionError) as exc:  # malformed JSON or a mistyped field
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
    features: FeatureRows,
    labels: np.ndarray,
    train: Sequence[int],
    validate: Sequence[int],
    *,
    config: TrainConfig = TrainConfig(),
    flags: SerializationFlags,
    vocabulary: Sequence[str],
) -> RouterModel:
    """Fit the default learner with seeded SGD on the rows of ``features``
    at positions ``train``. ``labels`` holds each row's label as a code into
    ``vocabulary``; ``flags`` serialized the rows' lines, and the model
    records them and ``features.config``, which hashed the rows.

    Step i reads the rows at ``train[b]`` for the i-th batch ``b`` of
    ``sgd_batches(len(train), config)``. No step reads a training row
    outside ``read_positions(len(train), config)``, so a caller may leave
    those rows empty: ``router train`` hashes only the lines SGD reads.

    The weights are trained bucket-major, one (n_classes,) row per bucket,
    and transposed once at the end. Every ``eval_every`` steps (and at the
    final step) the label accuracy on the rows at positions ``validate`` is
    measured and the best checkpoint kept. With no validation rows the
    final parameters are returned with a warning.
    """
    vocab = tuple(vocabulary)
    labels, train_rows, val_rows = (np.asarray(x, dtype=np.intp)
                                    for x in (labels, train, validate))
    if not len(train_rows):
        raise InvalidInputError("empty training set")
    if ((labels < 0) | (labels >= len(vocab))).any():
        raise InvalidInputError(f"label codes outside the model vocabulary {vocab}")
    if len(labels) != len(features) or any(
            len(p) and not 0 <= p.min() <= p.max() < len(features)
            for p in (train_rows, val_rows)):
        raise InvalidInputError(
            f"{len(labels)} labels, {len(train_rows)} training and {len(val_rows)} "
            f"validation positions for {len(features)} feature rows")
    train_labels, val_labels = labels[train_rows], labels[val_rows]

    k = len(vocab)
    rows = np.zeros((features.config.hash_dim, k))
    items = rows.view(np.dtype((np.void, rows.itemsize * k))).reshape(-1)
    bias = np.zeros(k)

    best: tuple[float, np.ndarray] | None = None
    best_rows = None
    lr = config.learning_rate

    for step, batch in enumerate(sgd_batches(len(train_rows), config), start=1):
        _sgd_step(rows, items, bias, features, train_rows[batch], train_labels[batch], lr)

        if step % config.eval_every == 0 or step == config.max_iterations:
            if len(val_rows):
                hits = int((_choose_rows(rows.T, bias, features, val_rows) == val_labels).sum())
                acc = hits / len(val_rows)
                logger.info("step %d: validation label accuracy %.4f", step, acc)
                if best is None or acc > best[0]:
                    # one checkpoint buffer, refilled: at most two weight-sized arrays
                    if best_rows is None:
                        best_rows = rows.copy()
                    else:
                        np.copyto(best_rows, rows)
                    best = (acc, bias.copy())

    if best is not None:
        # drop the live rows (``items`` views them) before the transpose copies
        rows, items, bias = best_rows, None, best[1]
    else:
        logger.warning("no validation examples; keeping final-iteration parameters")

    return RouterModel(
        vocabulary=vocab,
        featurizer=features.config,
        flags=flags,
        seed=config.seed,
        weights=rows.T.copy(),
        bias=bias,
    )


def evaluate_router(router: RouterModel, grid: QueryGrid, dataset_id: str) -> float:
    """Recorded-outcome replay on one dataset: per recorded query, ask the
    router for a model and score the query by that model's stored
    correctness. No model is executed. Returns the accuracy averaged
    across prompt variants."""
    rows = grid.rows(dataset_id)
    choices = router.route_batch(router_inputs(grid, rows, router.flags))
    return grid.variant_mean(rows, grid.outcome(rows, choices))
