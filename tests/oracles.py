"""Plain reference implementations the tests check the package against,
and a backend wrapper that injects failures."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from taskrouter import BackendError, IntegrityError, InvalidInputError
from taskrouter.core import (ExecutionRecord, MetadataSummary, Records, _check_block,
                             aggregate_accuracy, group_records, read_numbered_jsonl)
from taskrouter.prompts import (DatasetPromptConfig, closed_prompt_set, prompt_variants, render,
                                rendered_options, valid_variant_ids)
from taskrouter.router import _atoms, _choose, featurize, featurize_batch, train_router
from taskrouter.routerdata import RouterExample, select_best_model, serialize_input
from taskrouter.scoring import predict_contrastive, predict_generative


def char_ngrams(text: str, order: int) -> list[str]:
    """Plain enumeration of the character n-grams of one order; the
    reference the vectorized hasher is checked against."""
    return [text[i:i + order] for i in range(len(text) - order + 1)]


def ngram_hash(gram: str) -> int:
    """Hash of one n-gram under the same polynomial the vectorized path uses."""
    atoms = _atoms(len(gram))
    h = 0
    for code, a in zip((ord(c) for c in gram), atoms.tolist()):
        h = (h + code * a) % (2 ** 64)
    return h


def line_features(text: str, config) -> tuple[np.ndarray, np.ndarray]:
    """One line's signed hashed n-gram counts, hashed order by order from
    slices of its code points and summed per bucket; the reference the
    batched featurizer is checked against."""
    if not text:
        raise InvalidInputError("cannot featurize an empty string")
    if config.lowercase:
        text = text.lower()
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    all_buckets = []
    all_signs = []
    for order in config.ngram_orders:
        n = len(codes) - order + 1
        if n < 1:
            continue
        # hash of the n-gram starting at i: sum_k codes[i + k] * atoms[k] mod 2^64
        atoms = _atoms(order)
        hashes = codes[:n] * atoms[0]
        for k in range(1, order):
            hashes += codes[k:k + n] * atoms[k]
        all_buckets.append((hashes % np.uint64(config.hash_dim)).astype(np.int64))
        all_signs.append(1.0 - 2.0 * (hashes >> np.uint64(63)).astype(np.float64))
    if not all_buckets:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    uniq, inverse = np.unique(np.concatenate(all_buckets), return_inverse=True)
    return uniq, np.bincount(inverse, weights=np.concatenate(all_signs), minlength=len(uniq))


def matmul_hash_chunk(config, texts):
    """Every n-gram of a chunk of lines hashed as one uint64 product of a
    strided (positions, max order) window view of the joined code points
    with a (max order, orders) table of each order's atoms, zero below
    them. Returns (lengths, buckets, signs) with the last two transposed to
    the order-major (orders, positions) layout of ``router._hash_chunk``,
    which is checked against it bit for bit; an n-gram that runs past the
    end of its line gets sign 0."""
    if not all(texts):
        raise InvalidInputError("cannot featurize an empty string")
    lines = [t.lower() for t in texts] if config.lowercase else texts
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    codes = np.frombuffer("".join(lines).encode("utf-32-le"), dtype=np.uint32)
    orders = config.ngram_orders
    span = max(orders)
    table = np.zeros((span, len(orders)), dtype=np.uint64)
    for j, order in enumerate(orders):
        table[:order, j] = _atoms(order)
    padded = np.zeros(len(codes) + span - 1, dtype=np.uint64)
    padded[:len(codes)] = codes
    windows = np.ndarray((len(codes), span), dtype=np.uint64, buffer=padded,
                         strides=(8, 8))
    hashes = windows @ table
    fits = (np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes)))[:, None] \
        >= np.array(orders)
    signs = np.copysign(fits, hashes.view(np.int64))
    buckets = (hashes % np.uint64(config.hash_dim)).astype(np.int64)
    return lengths, buckets.T.copy(), signs.T.copy()


def unique_feature_rows(texts, config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (indptr, indices, values) CSR arrays of ``texts`` hashed as one
    chunk by ``matmul_hash_chunk``: one ``np.unique`` of ``row * hash_dim +
    bucket`` over the fitting n-grams gives each row's sorted unique
    buckets and one ``np.bincount`` sums their signs. The reference
    ``featurize_batch`` is checked against bit for bit."""
    dim = config.hash_dim
    lengths, buckets, signs = matmul_hash_chunk(config, texts)
    fits = signs != 0
    keys = (np.repeat(np.arange(len(texts), dtype=np.int64), lengths) * dim + buckets)[fits]
    keys, inverse = np.unique(keys, return_inverse=True)
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(keys // dim, minlength=len(texts)))
    # float64 even when no n-gram fits, where bincount gives int64
    values = np.bincount(inverse, weights=signs[fits], minlength=len(keys)).astype(np.float64)
    return indptr, (keys % dim).astype(np.int32 if dim <= 1 << 31 else np.int64), values


def exact_choice(router, text: str) -> int:
    """The vocabulary index one line routes to when scored on its own: its
    feature vector, one matrix-vector product with the weights plus the
    bias, and the first maximum, so that ties go to the lowest index."""
    idx, vals = featurize(text, router.featurizer)
    return int(np.argmax(router.weights[:, idx] @ vals + router.bias))


def softmax_loss_and_grads(weights, bias, feats, labels):
    """Mean cross-entropy over a mini-batch plus its analytic gradients, on
    class-major (n_classes, hash_dim) weights.

    Returns (loss, grad_bias, cols, grad_cols): ``cols`` is the sorted union
    of the batch's feature columns and ``grad_cols`` the (n_classes,
    len(cols)) weight gradient over them. Every other column's gradient is
    identically zero. Each column sums its examples' ``delta * value`` terms
    in batch order, then scales by 1/n. A batch of one takes its example's
    columns and terms as they are, which gives the same bits. The reference
    for the package's bucket-major SGD step.
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


def reference_batches(n: int, config) -> list[np.ndarray]:
    """The positions in a training split of ``n`` rows that each SGD step
    reads, as ``train_router`` once drew them in its own loop: a seeded
    shuffle read ``batch_size`` at a time, shuffled again whenever its rest
    cannot fill a batch."""
    rng = np.random.default_rng(config.seed)
    order = np.arange(n)
    pos = n
    batches = []
    for _ in range(config.max_iterations):
        if pos + config.batch_size > len(order):
            rng.shuffle(order)
            pos = 0
        batches.append(order[pos:pos + config.batch_size].copy())
        pos += config.batch_size
    return batches


def reference_router_train(corpus, train, validate, config, featurizer, flags):
    """``router train``'s model from its split of ``corpus``, as it was
    trained when every training and validation line was hashed: all of
    them featurized in one batch."""
    kept = train + validate
    return train_router(
        featurize_batch([corpus.inputs[p] for p in kept], featurizer),
        corpus.labels[kept], range(len(train)), range(len(train), len(kept)),
        config=config, flags=flags, vocabulary=corpus.grid.models,
    )


def reference_train(train, validate, config, featurizer, vocabulary):
    """Seeded SGD on class-major weights, as one loop over
    ``reference_batches``: each example featurized on its own line, each
    step's gradient from ``softmax_loss_and_grads`` applied to the weight
    columns, and the validation lines scored from their text by ``_choose``
    every ``eval_every`` steps, keeping the best checkpoint. Returns
    (weights, bias); the reference ``train_router`` is checked against bit
    for bit."""
    index = {m: i for i, m in enumerate(vocabulary)}
    features = [featurize(ex.serialized_input, featurizer) for ex in train]
    labels = [index[ex.label_model_id] for ex in train]
    val_texts = [ex.serialized_input for ex in validate]
    val_labels = np.array([index[ex.label_model_id] for ex in validate], dtype=np.intp)
    weights = np.zeros((len(vocabulary), featurizer.hash_dim))
    bias = np.zeros(len(vocabulary))
    best = None
    lr = config.learning_rate
    for step, batch in enumerate(reference_batches(len(train), config), start=1):
        _, grad_bias, cols, grad_cols = softmax_loss_and_grads(
            weights, bias, [features[i] for i in batch], [labels[i] for i in batch])
        bias -= lr * grad_bias
        weights[:, cols] -= lr * grad_cols
        if (step % config.eval_every == 0 or step == config.max_iterations) and val_texts:
            acc = int((_choose(weights, bias, featurizer, val_texts) == val_labels).sum()) \
                / len(val_texts)
            if best is None or acc > best[0]:
                best = (acc, weights.copy(), bias.copy())
    return (weights, bias) if best is None else best[1:]


class AccuracyTable:
    """Accuracy per (model, dataset, prompt variant) cell plus the
    (model, dataset) marginal, an unweighted mean over the prompt variants
    present for that pair, kept as (correct, total) counts. The reference
    the query grid's ``counts`` and ``marginals`` are checked against.
    """

    def __init__(self, counts: Mapping[tuple[str, str, str], tuple[int, int]] | None = None):
        self._counts: dict[tuple[str, str, str], tuple[int, int]] = dict(counts or {})
        # (model, dataset) -> [(variant, correct, total)], sorted: marginals ignore cell order
        self._by_pair: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
        for (m, d, v), (c, t) in sorted(self._counts.items()):
            self._by_pair.setdefault((m, d), []).append((v, c, t))

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

    def variants(self, model_id: str, dataset_id: str) -> list[str]:
        return [v for v, _, _ in self._by_pair.get((model_id, dataset_id), ())]


def sample_index(world) -> dict:
    """``{(dataset_id, sample_id): Sample}`` over every manifest of ``world``."""
    return {(ds_id, s.sample_id): s
            for ds_id, manifest in world.datasets.items() for s in manifest.samples}


def accuracy_table(records, samples=None) -> AccuracyTable:
    """The AccuracyTable of ``aggregate_accuracy``'s counts of ``records``,
    checked against ``samples`` when given."""
    return AccuracyTable(aggregate_accuracy(records, samples))


def table_average(table: AccuracyTable, dataset_id: str) -> float:
    """The average baseline read from a table: the unweighted mean of the
    marginals of the models with records on the dataset."""
    models = [m for m in table.models() if table.variants(m, dataset_id)]
    if not models:
        raise InvalidInputError(f"no models cover dataset {dataset_id!r}")
    return sum(table.marginal(m, dataset_id) for m in models) / len(models)


def table_oracle(table: AccuracyTable, dataset_id: str) -> float:
    """The oracle baseline read from a table: the best of those marginals."""
    models = [m for m in table.models() if table.variants(m, dataset_id)]
    if not models:
        raise InvalidInputError(f"table does not cover dataset {dataset_id!r}")
    return max(table.marginal(m, dataset_id) for m in models)


def grid_table(grid) -> AccuracyTable:
    """The AccuracyTable of a query grid's records, counted one covered
    cell at a time."""
    counts: dict[tuple[str, str, str], tuple[int, int]] = {}
    for i, (ds, _, variant) in enumerate(grid.queries(range(len(grid.variant_index)))):
        for j, model in enumerate(grid.models):
            if grid.covered[i, j]:
                key = (model, ds, variant.variant_id)
                correct, total = counts.get(key, (0, 0))
                counts[key] = (correct + bool(grid.correct[i, j]), total + 1)
    return AccuracyTable(counts)


def reference_inputs(grid, rows, flags) -> list[str]:
    """The router input of each of the grid's ``rows``, each rendered and
    serialized on its own by ``serialize_input``; the reference for
    ``router_inputs``. Of several faults in one row, the first raised is
    the one ``router_inputs`` raises: the options' render, the question's,
    then the checks of the prompt and of the options."""
    texts = []
    for ds, sample, variant in grid.queries(rows):
        config = grid.world.prompt_configs[ds]
        options = (rendered_options(sample, config, variant)
                   if flags.include_response_options else None)
        texts.append(serialize_input(grid.world.metadata.get(sample.sample_id),
                                     render(variant.question, sample, config), options, flags))
    return texts


def reference_corpus(grid, flags) -> list[RouterExample]:
    """The corpus as one object per covered grid row, in row order: the
    row's router input by ``reference_inputs``, its label by
    ``select_best_model`` over the row's correct flags and cell averages,
    its provenance and its full line. The reference the columnar corpus is
    checked against."""
    grid.require_coverage()
    table = grid_table(grid)
    rows = np.flatnonzero(grid.covered.any(axis=1)).tolist()
    examples = []
    for i, (ds, sample, variant), text in zip(rows, grid.queries(rows),
                                              reference_inputs(grid, rows, flags)):
        correct = dict(zip(grid.models, grid.correct[i].tolist()))
        label = select_best_model(correct, {m: table.cell(m, ds, variant.variant_id)
                                            for m in grid.models})
        examples.append(RouterExample(
            serialized_input=text,
            label_model_id=label,
            provenance=(sample.sample_id, sample.dataset_id, variant.variant_id),
            raw_line=(f"{text}[SEP]model::{label}[response]correct::{correct[label]};;;"
                      f"avg_accuracy::{table.marginal(label, ds):.5f}"),
        ))
    return examples


def reference_save_corpus(examples: Iterable[RouterExample], path) -> None:
    """Write example objects as a corpus file and its sidecar, one
    ``json.dumps(entry, sort_keys=True)`` per sidecar line; the reference
    for ``save_corpus``."""
    path, lines, entries = Path(path), [], []
    for line, ex in enumerate(examples):
        sample_id, dataset_id, variant_id = ex.provenance
        lines.append(ex.raw_line + "\n")
        entries.append(json.dumps({"line": line, "sample_id": sample_id,
                                   "dataset_id": dataset_id, "prompt_variant_id": variant_id,
                                   "label_model_id": ex.label_model_id}, sort_keys=True) + "\n")
    path.write_bytes("".join(lines).encode())
    path.with_name(path.name + ".index.jsonl").write_bytes("".join(entries).encode())


def batch_loss(weights, bias, feats, labels) -> float:
    loss, *_ = softmax_loss_and_grads(weights, bias, feats, labels)
    return loss


def column_grads(weights, bias, feats, labels) -> dict[int, np.ndarray]:
    """Mini-batch weight gradient as one (n_classes,) vector per touched
    column, accumulated column by column in example order and scaled by
    1/n; the reference for the gathered ``grad_cols`` matrix."""
    k = weights.shape[0]
    grad_cols: dict[int, np.ndarray] = {}
    for (idx, vals), label in zip(feats, labels):
        scores = weights[:, idx] @ vals + bias
        scores -= scores.max()
        exp = np.exp(scores)
        delta = exp / exp.sum()
        delta[label] -= 1.0
        for col, val in zip(idx.tolist(), vals.tolist()):
            acc = grad_cols.get(col)
            if acc is None:
                acc = np.zeros(k)
                grad_cols[col] = acc
            acc += delta * val
    inv = 1.0 / len(feats)
    for col in grad_cols:
        grad_cols[col] *= inv
    return grad_cols


def filter_valid_prompts(
    records: Iterable[ExecutionRecord],
    configs: Mapping[str, DatasetPromptConfig],
) -> list[ExecutionRecord]:
    """Drop records whose prompt variant has an empty question form; those
    variants cannot be issued to every model family, so they are removed
    for all models. A record on a dataset without a prompt config, then one
    on a variant its dataset does not define, is an IntegrityError. The
    reference for the variant filter inside ``QueryGrid.build``."""
    records = list(records)
    for rec in records:
        if rec.dataset_id not in configs:
            raise IntegrityError(
                f"record references dataset {rec.dataset_id!r} with no prompt config"
            )
    defined = {ds: {v.variant_id for v in prompt_variants(cfg)} for ds, cfg in configs.items()}
    for rec in records:
        if rec.prompt_variant_id not in defined[rec.dataset_id]:
            raise IntegrityError(f"record references prompt variant {rec.prompt_variant_id!r} "
                                 f"that dataset {rec.dataset_id!r} does not define")
    valid_by_ds = {ds: valid_variant_ids(cfg) for ds, cfg in configs.items()}
    return [rec for rec in records if rec.prompt_variant_id in valid_by_ds[rec.dataset_id]]


def object_records(path) -> list[ExecutionRecord]:
    """``records.jsonl`` read one ``ExecutionRecord.from_dict`` row at a
    time; the reference the block-wise columnar reader is checked against."""
    rows = []
    for lineno, row in read_numbered_jsonl(path):
        try:
            rows.append(ExecutionRecord.from_dict(row))
        except KeyError as exc:
            raise IntegrityError(f"{path}:{lineno}: missing field {exc}") from exc
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    return rows


def line_by_line_records(path) -> Records:
    """``records.jsonl`` read as one block by the line-by-line reader,
    ``core._check_block``; the reference the pattern-read blocks are
    checked against."""
    with open(path, "rb") as fh:
        return _check_block(path, 1, fh.readlines())


def keyed_metadata(path) -> dict[str, MetadataSummary]:
    """``metadata.jsonl`` read one ``MetadataSummary.from_dict`` row at a
    time, keyed by its sample id, which must be a string; the reference the
    block-wise reader is checked against."""
    rows = {}
    for lineno, row in read_numbered_jsonl(path):
        try:
            value, key = MetadataSummary.from_dict(row), row["sample_id"]
        except KeyError as exc:
            raise IntegrityError(f"{path}:{lineno}: missing field {exc}") from exc
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
        if type(key) is not str:
            raise InvalidInputError(f"{path}:{lineno}: field 'sample_id' must be a string")
        if key in rows:
            raise IntegrityError(f"{path}:{lineno}: repeats sample_id {key!r}")
        rows[key] = value
    return rows


def img_segment(metadata: MetadataSummary) -> str:
    """A sample's ``[img]`` segment, formatted by f-strings; the reference
    the cached ``%`` templates are checked against."""
    h, w, c = metadata.dims
    means = ",".join(f"{v:.1f}" for v in metadata.channel_means)
    stds = ",".join(f"{v:.1f}" for v in metadata.channel_stds)
    return f"[img]dim::({h},{w},{c})ave::({means})std::({stds})"


def _check_record(rec, sample) -> None:
    if sample is None:
        raise IntegrityError(
            f"record references unknown sample {rec.dataset_id}/{rec.sample_id}"
        )
    if not 0 <= rec.predicted_index < len(sample.response_options):
        raise IntegrityError(
            f"record for {rec.sample_id}: predicted_index "
            f"{rec.predicted_index} outside option range"
        )
    if rec.correct != (rec.predicted_index == sample.gold_index):
        raise IntegrityError(
            f"record for {rec.sample_id}: correct flag inconsistent "
            f"with predicted_index"
        )


def object_grid(world, records=None) -> dict:
    """The query grid as record objects build it: keep the valid variants,
    group the records by (dataset, sample, variant), then walk the rows and
    place each group's records, checking each. The reference the columnar
    ``QueryGrid.build`` is checked against; returns its fields by name, and
    as ``counts`` each dataset's (variant x model) correct and total record
    counts."""
    groups = group_records(filter_valid_prompts(
        world.records if records is None else records, world.prompt_configs
    ))
    models = tuple(sorted(world.model_pool))
    column = {m: j for j, m in enumerate(models)}
    queries, spans, sample_index, variant_index, placed, counts = [], {}, [], [], [], {}
    for ds_id, manifest in world.datasets.items():
        config = world.prompt_configs[ds_id]
        valid = valid_variant_ids(config)
        variants = [v for v in prompt_variants(config) if v.variant_id in valid]
        rights = np.zeros((len(variants), len(models)), dtype=np.int64)
        totals = np.zeros((len(variants), len(models)), dtype=np.int64)
        start = len(queries)
        for k, sample in enumerate(manifest.samples):
            for v, variant in enumerate(variants):
                for model, rec in groups.pop((ds_id, sample.sample_id, variant.variant_id),
                                             {}).items():
                    if model not in column:
                        raise IntegrityError(f"record of model {model!r} outside the "
                                             f"pool {list(models)}")
                    _check_record(rec, sample)
                    placed.append((len(queries), column[model], rec))
                    rights[v, column[model]] += rec.correct
                    totals[v, column[model]] += 1
                queries.append((ds_id, sample.sample_id, variant.variant_id))
                sample_index.append(k)
                variant_index.append(v)
        spans[ds_id] = range(start, len(queries))
        counts[ds_id] = (rights, totals)
    for ds_id, sample_id, _ in groups:
        raise IntegrityError(f"record references unknown sample {ds_id}/{sample_id}")
    shape = (len(queries), len(models))
    covered, correct = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    predicted = np.full(shape, -1, dtype=np.int64)
    for i, j, rec in placed:
        covered[i, j], correct[i, j], predicted[i, j] = True, rec.correct, rec.predicted_index
    return {"models": models, "queries": queries, "spans": spans,
            "sample_index": np.array(sample_index, dtype=np.int64),
            "variant_index": np.array(variant_index, dtype=np.int64), "covered": covered,
            "correct": correct, "predicted": predicted, "counts": counts}


class FlakyBackend:
    """Wraps another backend and fails on a fixed set of sample refs; used
    to exercise the skip path."""

    def __init__(self, inner, failing_refs: Iterable[str]):
        self._inner = inner
        self._failing = set(failing_refs)
        self.info = inner.info

    def _check(self, image_ref: str):
        if image_ref in self._failing:
            raise BackendError(f"simulated failure for {image_ref}")

    def embed_image(self, image_ref: str):
        self._check(image_ref)
        return self._inner.embed_image(image_ref)

    def embed_texts(self, prompts):
        return self._inner.embed_texts(prompts)

    def option_token_logprobs(self, image_ref, prompts):
        self._check(image_ref)
        return self._inner.option_token_logprobs(image_ref, prompts)


class RowCountBackend:
    """Wraps an embedding backend and answers every prompt list with
    ``rows`` embedding rows: the inner backend's rows for the prompts and
    made-up ones, cut to ``rows``."""

    def __init__(self, inner, rows: int):
        self._inner = inner
        self._rows = rows
        self.info = inner.info

    def embed_image(self, image_ref: str):
        return self._inner.embed_image(image_ref)

    def embed_texts(self, prompts):
        extra = [f"extra option {i}" for i in range(self._rows - len(prompts))]
        return self._inner.embed_texts([*prompts, *extra])[:self._rows]


def query_by_query_embedding_outcomes(backend, config, queries) -> list:
    """The prediction, or the exception that stopped it, of each (sample,
    variant) query, with each query's backend calls made as it is reached:
    its prompts rendered, then its image and its prompt list embedded. A
    ``deterministic`` backend's results (never its failures) are kept for
    the rest of the call; another number of embedding rows than prompts is
    a ``BackendError``. The reference for the call sequence and the
    outcomes of the batched, stacked embedding path in ``scoring.evaluate``."""
    memo = {} if backend.info.deterministic else None

    def reuse(key, call, arg):
        if memo is None:
            return call(arg)
        if key not in memo:
            memo[key] = call(arg)
        return memo[key]

    outcomes = []
    for sample, variant in queries:
        try:
            prompts = closed_prompt_set(sample, config, variant)
            v = reuse(("img", sample.image_ref), backend.embed_image, sample.image_ref)
            m = reuse(("txt", tuple(prompts)), backend.embed_texts, prompts)
            prediction = predict_contrastive(v, m)
            rows = len(prediction.per_option_scores)
            if rows != len(prompts):
                raise BackendError(f"backend {backend.info.name} returned {rows} embedding "
                                   f"rows for {len(prompts)} prompts")
            outcomes.append(prediction)
        except Exception as exc:  # noqa: BLE001
            outcomes.append(exc)
    return outcomes


def query_by_query_generative_outcomes(backend, config, queries, normalization="sum") -> list:
    """The prediction, or the exception that stopped it, of each (sample,
    variant) query, with each query's prompts rendered and its one
    ``option_token_logprobs`` call made as it is reached; another number
    of logprob lists than prompts is a ``BackendError``. The reference for
    the call sequence and the outcomes of generative ``scoring.evaluate``
    on finite answers."""
    outcomes = []
    for sample, variant in queries:
        try:
            prompts = closed_prompt_set(sample, config, variant)
            rows = backend.option_token_logprobs(sample.image_ref, prompts)
            if len(rows) != len(prompts):
                raise BackendError(f"backend {backend.info.name} returned {len(rows)} logprob "
                                   f"lists for {len(prompts)} prompts")
            outcomes.append(predict_generative(rows, normalization))
        except Exception as exc:  # noqa: BLE001
            outcomes.append(exc)
    return outcomes


def one_sample_summary(pixels) -> MetadataSummary:
    """Resolution and per-channel population mean/std, rounded to one
    decimal place, of one H x W x C array summed on its own; the reference
    the stacked ``summarize_images`` is checked against bit for bit."""
    h, w, c = pixels.shape
    flat = pixels.reshape(h * w, c).astype(np.float64)
    return MetadataSummary(
        dims=(h, w, c),
        channel_means=tuple(float(x) for x in np.round(flat.mean(axis=0), 1)),
        channel_stds=tuple(float(x) for x in np.round(flat.std(axis=0), 1)),
    )
