"""Plain reference implementations the tests check the package against,
and a backend wrapper that injects failures."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from taskrouter import BackendError, IntegrityError, InvalidInputError
from taskrouter.core import ExecutionRecord, MetadataSummary, group_records, read_numbered_jsonl
from taskrouter.prompts import (DatasetPromptConfig, closed_prompt_set, prompt_variants,
                                valid_variant_ids)
from taskrouter.router import _atoms, featurize, softmax_loss_and_grads
from taskrouter.scoring import predict_contrastive


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


def exact_choice(router, text: str) -> int:
    """The vocabulary index one line routes to when scored on its own: its
    feature vector, one matrix-vector product with the weights plus the
    bias, and the first maximum, so that ties go to the lowest index."""
    idx, vals = featurize(text, router.featurizer)
    return int(np.argmax(router.weights[:, idx] @ vals + router.bias))


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
    return rows


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
    ``QueryGrid.build`` is checked against; returns its fields by name."""
    groups = group_records(filter_valid_prompts(
        world.records if records is None else records, world.prompt_configs
    ))
    models = tuple(sorted(world.model_pool))
    column = {m: j for j, m in enumerate(models)}
    queries, spans, variant_index, placed, counts = [], {}, [], [], {}
    for ds_id, manifest in world.datasets.items():
        config = world.prompt_configs[ds_id]
        valid = valid_variant_ids(config)
        variants = [v for v in prompt_variants(config) if v.variant_id in valid]
        start = len(queries)
        for sample in manifest.samples:
            for v, variant in enumerate(variants):
                for model, rec in groups.pop((ds_id, sample.sample_id, variant.variant_id),
                                             {}).items():
                    if model not in column:
                        raise IntegrityError(f"record of model {model!r} outside the "
                                             f"pool {list(models)}")
                    _check_record(rec, sample)
                    placed.append((len(queries), column[model], rec))
                    cell = counts.setdefault((model, ds_id, variant.variant_id), [0, 0])
                    cell[0] += rec.correct
                    cell[1] += 1
                queries.append((ds_id, sample.sample_id, variant.variant_id))
                variant_index.append(v)
        spans[ds_id] = range(start, len(queries))
    for ds_id, sample_id, _ in groups:
        raise IntegrityError(f"record references unknown sample {ds_id}/{sample_id}")
    shape = (len(queries), len(models))
    covered, correct = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    predicted = np.full(shape, -1, dtype=np.int64)
    for i, j, rec in placed:
        covered[i, j], correct[i, j], predicted[i, j] = True, rec.correct, rec.predicted_index
    return {"models": models, "queries": queries, "spans": spans,
            "variant_index": np.array(variant_index, dtype=np.int64), "covered": covered,
            "correct": correct, "predicted": predicted,
            "counts": {k: (c, t) for k, (c, t) in counts.items()}}


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
    the rest of the call. The reference for the call sequence of the
    batched embedding path in ``scoring.evaluate``."""
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
            outcomes.append(predict_contrastive(v, m))
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
