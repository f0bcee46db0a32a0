"""Plain reference implementations the tests check the package against,
and a backend wrapper that injects failures."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from taskrouter import BackendError
from taskrouter.router import _atoms, featurize, softmax_loss_and_grads


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
