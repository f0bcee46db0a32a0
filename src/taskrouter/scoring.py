"""Closed-ended prediction for both model families, plus batch evaluation
over an abstract backend protocol.

Contrastive backends expose image/text encoders; the prediction is the
option whose text embedding has the largest dot product with the image
embedding. Generative backends expose per-token log-probabilities for each
prompt; the prediction is the option whose prompt scores highest under the
chosen normalization (sum of log-probs, or mean per token). Ties always
break to the lowest option index.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from .core import DatasetManifest, Records
from .errors import BackendError, InvalidInputError
from .prompts import (DatasetPromptConfig, PromptVariant, options_key, prompt_variants,
                      question_key, render, rendered_options)

logger = logging.getLogger(__name__)

EMBEDDING = "embedding"
GENERATIVE = "generative"
NORMALIZATIONS = ("sum", "mean")


@dataclass(frozen=True)
class BackendInfo:
    """Capability descriptor a backend must expose."""

    name: str
    family: str
    deterministic: bool = True
    """A promise that ``embed_image`` is a function of its image ref and
    ``embed_texts`` of its whole prompt list (a row may depend on the other
    prompts and on its position). ``evaluate`` then reuses each embedding
    for the rest of its call instead of asking again; it never merges
    generative jobs."""

    def __post_init__(self):
        if self.family not in (EMBEDDING, GENERATIVE):
            raise InvalidInputError(f"unknown backend family {self.family!r}")


@runtime_checkable
class EmbeddingBackend(Protocol):
    info: BackendInfo

    def embed_image(self, image_ref: str) -> np.ndarray: ...

    def embed_texts(self, prompts: Sequence[str]) -> np.ndarray: ...


@runtime_checkable
class GenerativeBackend(Protocol):
    info: BackendInfo

    def option_token_logprobs(
        self, image_ref: str, prompts: Sequence[str]
    ) -> list[list[float]]: ...


@dataclass(frozen=True)
class Prediction:
    predicted_index: int
    per_option_scores: tuple[float, ...]


def predict_contrastive(image_embedding, option_embeddings) -> Prediction:
    """Dot-product alignment: score option o as dot(v_image, row o)."""
    v = np.asarray(image_embedding, dtype=np.float64)
    m = np.asarray(option_embeddings, dtype=np.float64)
    if v.ndim != 1 or m.ndim != 2:
        raise InvalidInputError(
            f"expected a vector and a matrix, got shapes {v.shape} and {m.shape}"
        )
    if m.shape[0] < 1:
        raise InvalidInputError("at least one option embedding required")
    if m.shape[1] != v.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: image {v.shape[0]} vs options {m.shape[1]}"
        )
    scores = m @ v
    return Prediction(int(np.argmax(scores)), tuple(float(s) for s in scores))


def predict_generative(
    token_logprobs: Sequence[Sequence[float]], normalization: str = "sum"
) -> Prediction:
    """Score each option's prompt by summed (or per-token mean) log-probability."""
    _check_normalization(normalization)
    if not token_logprobs:
        raise InvalidInputError("at least one option required")
    scores = []
    for i, lps in enumerate(token_logprobs):
        if len(lps) == 0:
            raise InvalidInputError(f"option {i} has an empty token list")
        total = 0.0
        for lp in lps:  # left to right: sum() compensates since Python 3.12
            total += lp
        total = float(total)
        scores.append(total if normalization == "sum" else total / len(lps))
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    return Prediction(best, tuple(scores))


def _check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATIONS:
        raise InvalidInputError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )


@dataclass
class SkipNote:
    sample_id: str
    prompt_variant_id: str
    error: str


@dataclass
class EvaluationRun:
    """The records table of an evaluate() call plus its skip summary."""

    records: Records
    skipped: list[SkipNote] = field(default_factory=list)

    @property
    def skip_count(self) -> int:
        return len(self.skipped)


def evaluate(
    backend,
    manifest: DatasetManifest,
    config: DatasetPromptConfig,
    variants: Sequence[PromptVariant] | None = None,
    normalization: str = "sum",
    max_workers: int = 1,
) -> EvaluationRun:
    """Run one backend over every (sample, variant) of a dataset, in sample
    order and, per sample, variant order. The run's records are a
    ``Records`` table with one row per scored query.

    Prompts are built as closed_prompt_set builds them, so option order
    aligns with gold_index; a variant of another config and an unknown
    ``normalization`` are refused once, before any query is rendered. A
    backend failure on a sample skips that record and logs the sample id;
    so does an answer holding a value that is not finite, with the error
    the wire client gives it. The returned run reports the skip count.
    ``max_workers`` must be 1: scoring is serial.

    Every query's prompts are built before any backend call, from renders
    kept for the rest of the call (see ``_outcomes``). Each query becomes
    scoring jobs named by their wire op (see ``run_job``), and the backend
    gets the call's jobs at once when it takes batches (the wire client's
    ``run_many``), else one call at a time in job order. For a
    ``deterministic`` embedding backend, each image ref and each distinct
    prompt list is embedded once per call; only results are kept, so a
    failed embedding is asked again for the next variant that needs it.
    Generative jobs are never merged.
    """
    if max_workers != 1:
        raise InvalidInputError(f"scoring is serial: max_workers must be 1, got {max_workers!r}")
    _check_normalization(normalization)
    info: BackendInfo = backend.info
    if info.family == EMBEDDING and not isinstance(backend, EmbeddingBackend):
        raise InvalidInputError(f"backend {info.name} does not implement embedding ops")
    if info.family == GENERATIVE and not isinstance(backend, GenerativeBackend):
        raise InvalidInputError(f"backend {info.name} does not implement generative ops")

    own = prompt_variants(config)
    chosen = own if variants is None else list(variants)
    for variant in chosen:
        if variant not in own:
            raise InvalidInputError(f"variant {variant.variant_id} does not belong to config "
                                    f"{config.dataset_id}")
    queries = [(sample, variant) for sample in manifest.samples for variant in chosen]
    rows, skipped = [], []  # rows: one RECORD_FIELDS tuple per scored query
    for (sample, variant), outcome in zip(
            queries, _outcomes(backend, info, config, queries, normalization)):
        if isinstance(outcome, Exception):  # backend failures are data
            logger.warning(
                "backend %s failed on sample %s (%s): %s",
                info.name, sample.sample_id, variant.variant_id, outcome,
            )
            skipped.append(SkipNote(sample.sample_id, variant.variant_id, str(outcome)))
            continue
        rows.append((sample.sample_id, manifest.dataset_id, info.name, variant.variant_id,
                     outcome, outcome == sample.gold_index))
    run = EvaluationRun(Records.from_columns(*zip(*rows)), skipped)
    if run.skipped:
        logger.warning(
            "backend %s on %s: %d of %d evaluations skipped",
            info.name, manifest.dataset_id, run.skip_count, len(queries),
        )
    return run


def _outcomes(backend, info: BackendInfo, config, queries, normalization):
    """The predicted index, or the exception that stopped it, of each query.

    Every query's prompts are built and its jobs collected first: an
    embedding query's image, then its prompt list (each distinct one once
    for a ``deterministic`` backend), or a generative query's one
    ``logprobs`` job. The prompts come from a memo that lives for this
    call, keyed by ``question_key`` and ``options_key``: each question form
    is rendered once per distinct context its template reads, each option
    form once per distinct context and response options, and each distinct
    pair of those is joined into a prompt tuple once, which also keeps its
    ``embed_texts`` job position for a ``deterministic`` backend. A render
    that raises is not kept, so each query it fails fails with its own
    error.

    All jobs go to the backend in one ``_call_many`` call. The embedding
    queries whose answers both fit are scored together by
    ``_stacked_picks``; every other query takes its answers through
    ``_take``, in query order, and is scored on its own. An answer with
    another number of embedding rows or logprob lists than the query has
    prompts is a ``BackendError``, and so is one holding a value that is not
    finite, with the text the wire client's decoders give it."""
    embedding = info.family == EMBEDDING
    slots = {} if embedding and info.deterministic else None  # job -> its position in ``jobs``
    jobs, needs = [], []  # needs: per query, its prompts and job positions, or its render error
    questions, options, prompt_sets = {}, {}, {}  # the memo, by render key

    def place(job) -> int:
        j = len(jobs) if slots is None else slots.setdefault(job, len(jobs))
        if j == len(jobs):
            jobs.append(job)
        return j

    for sample, variant in queries:  # evaluate checked the variants
        key = question, option = question_key(sample, variant), options_key(sample, variant)
        known = prompt_sets.get(key)
        if known is None:
            try:
                text = questions.get(question)
                if text is None:
                    text = questions[question] = render(variant.question, sample, config)
                opts = options.get(option)
                if opts is None:
                    opts = options[option] = rendered_options(sample, config, variant)
            except Exception as exc:  # noqa: BLE001
                needs.append(exc)
                continue
            known = prompt_sets[key] = (tuple([text + opt for opt in opts]), None)
        prompts, t = known
        if not embedding:
            needs.append((prompts, [place(("logprobs", sample.image_ref, list(prompts)))]))
            continue
        i = place(("embed_image", sample.image_ref))
        if t is None:
            t = place(("embed_texts", prompts))
            if slots is not None:
                prompt_sets[key] = (prompts, t)
        needs.append((prompts, [i, t]))
    answers = _call_many(backend, jobs)
    picks = _stacked_picks(answers, needs) if embedding else {}
    for q, need in enumerate(needs):
        if q in picks:
            yield picks[q]
            continue
        if isinstance(need, Exception):
            yield need
            continue
        prompts, positions = need
        try:
            if embedding:
                prediction = predict_contrastive(*(
                    _finite_reals(jobs[j][0], _take(backend, jobs, answers, j))
                    for j in positions))
                count, unit = len(prediction.per_option_scores), "embedding rows"
            else:
                rows = _finite_token_rows(_take(backend, jobs, answers, positions[0]))
                count, unit = len(rows), "logprob lists"
            if count != len(prompts):
                raise BackendError(f"backend {info.name} returned {count} {unit} "
                                   f"for {len(prompts)} prompts")
            yield (prediction if embedding
                   else predict_generative(rows, normalization)).predicted_index
        except Exception as exc:  # noqa: BLE001
            yield exc


def _finite_reals(op: str, answer):
    """``answer``, unless it reads as an array of reals that holds a value
    that is not finite: then a ``BackendError`` naming the ``op`` and the
    first such value, as the wire client's decoder raises it. An answer
    that is no such array is left to its predictor."""
    try:
        array = np.asarray(answer, dtype=np.float64)
    except Exception:  # noqa: BLE001
        return answer
    finite = np.isfinite(array)
    if not finite.all():
        raise BackendError(f"{op} result must hold finite reals, "
                           f"got {float(array[~finite][0])!r}")
    return answer


def _finite_token_rows(rows):
    """``rows``, unless a row of token log-probabilities holds a value that
    is not finite: then the ``BackendError`` the wire client raises for it
    (``wire._token_rows``). Values that are not reals are left to
    ``predict_generative``."""
    try:
        if all(map(math.isfinite, itertools.chain.from_iterable(rows))):
            return rows
    except (TypeError, ValueError, OverflowError):  # not rows of reals
        return rows
    for i, row in enumerate(rows):
        for x in row:
            if not math.isfinite(x):
                raise BackendError(f"logprobs result row {i} must hold finite reals, "
                                   f"got {float(x)!r} in a row of {len(row)}")
    return rows


_STACK_FLOATS = 1 << 18  # option-embedding floats per stacked product, to bound its copy


def _stacked_picks(answers: list, needs: list) -> dict:
    """The predicted index, by query position, of each embedding query
    whose image answer is a ``(d,)`` array and whose prompt-list answer is
    a ``(k, d)`` array, ``k`` its prompt count, both C-contiguous once read
    as float64. Each distinct answer is read once. The queries of one
    shape are scored together: ``np.matmul`` of their stacked option
    embeddings and image vectors runs, for each query, the BLAS product
    that ``m @ v`` runs in ``predict_contrastive`` on the same layout, so
    every pick is that query's own, ties to the lowest index included.
    Each stacked chunk is checked to be finite once; a chunk that is not
    is left to the per-query path, which names the value."""
    arrays = [None if isinstance(answer, Exception) else _c_float64(answer)
              for answer in answers]
    groups = {}  # (k, d) -> (query position, image job, prompt-list job) of each query
    for q, need in enumerate(needs):
        if isinstance(need, Exception):
            continue
        prompts, (i, t) = need
        v, m = arrays[i], arrays[t]
        if (v is not None and m is not None and v.ndim == 1 and prompts
                and m.shape == (len(prompts), len(v))):
            groups.setdefault(m.shape, []).append((q, i, t))
    picks = {}
    for (k, d), members in groups.items():
        step = max(1, _STACK_FLOATS // max(1, k * d))
        for lo in range(0, len(members), step):
            qs, images, texts = zip(*members[lo:lo + step])
            stacked = np.stack([arrays[t] for t in texts])
            vectors = np.stack([arrays[i] for i in images])
            if not (np.isfinite(stacked).all() and np.isfinite(vectors).all()):
                continue
            try:
                scores = np.matmul(stacked, vectors[:, :, None])
            except Exception:  # noqa: BLE001 - a float warning made an error
                continue  # each of these queries meets its own in predict_contrastive
            picks.update(zip(qs, scores.argmax(axis=1)[:, 0].tolist()))
    return picks


def _c_float64(answer):
    """An answer as a C-contiguous float64 array, else None: the query
    then takes the path of ``predict_contrastive``, which raises its error
    or reads its layout."""
    try:
        array = np.asarray(answer, dtype=np.float64)
    except Exception:  # noqa: BLE001
        return None
    return array if array.flags.c_contiguous else None


_ASK_AGAIN = object()  # the answer slot of a job whose failure has been taken


def _take(backend, jobs: list, answers: list, j: int):
    """The answer to job ``j``. A failure is raised to the first taker
    only: a later taker asks again with one plain call, and a result of
    that call is kept."""
    answer = answers[j]
    if answer is _ASK_AGAIN:
        answer = answers[j] = run_job(backend, jobs[j])
    elif isinstance(answer, Exception):
        answers[j] = _ASK_AGAIN
        raise answer
    return answer


def run_job(backend, job: tuple):
    """The backend's answer to one scoring job ``(op, *args)``, named by its
    wire op: ``("embed_image", image_ref)``, ``("embed_texts", prompts)`` or
    ``("logprobs", image_ref, prompts)``."""
    op = job[0]
    if op == "embed_image":
        return backend.embed_image(job[1])
    if op == "embed_texts":
        return backend.embed_texts(list(job[1]))
    if op == "logprobs":
        return backend.option_token_logprobs(job[1], job[2])
    raise BackendError(f"unknown op {op!r}")


def _call_many(backend, jobs: list) -> list:
    """``run_job`` of each job, or the exception it raised, in job order:
    through the backend's ``run_many`` when it has one (the wire client),
    else job by job."""
    many = getattr(backend, "run_many", None)
    if many is not None:
        return many(jobs)
    out = []
    for job in jobs:
        try:
            out.append(run_job(backend, job))
        except Exception as exc:  # noqa: BLE001
            out.append(exc)
    return out


# ---------------------------------------------------------------------------
# In-process mock backends. They implement the same contract as real model
# servers and exist so the whole pipeline runs at desk scale.

def _stable_seed(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "big")


class GoldEmbeddingBackend:
    """Embeds option i as basis vector e_i and the image as the basis
    vector of its gold option: accuracy 1.0 by construction."""

    def __init__(self, gold_by_ref: Mapping[str, int], dim: int, name: str = "gold-embed"):
        self._gold = dict(gold_by_ref)
        self._dim = dim
        self.info = BackendInfo(name=name, family=EMBEDDING)

    def embed_image(self, image_ref: str) -> np.ndarray:
        v = np.zeros(self._dim)
        v[self._gold[image_ref]] = 1.0
        return v

    def embed_texts(self, prompts: Sequence[str]) -> np.ndarray:
        if len(prompts) > self._dim:
            raise BackendError(f"{len(prompts)} prompts exceed dim {self._dim}")
        return np.eye(len(prompts), self._dim)


class ConstantEmbeddingBackend:
    """All embeddings are the all-ones vector: every option scores the
    same, so the tie rule always predicts index 0."""

    def __init__(self, dim: int = 4, name: str = "constant-embed"):
        self._dim = dim
        self.info = BackendInfo(name=name, family=EMBEDDING)

    def embed_image(self, image_ref: str) -> np.ndarray:
        return np.ones(self._dim)

    def embed_texts(self, prompts: Sequence[str]) -> np.ndarray:
        return np.ones((len(prompts), self._dim))


class SeededEmbeddingBackend:
    """Deterministic pseudo-random embeddings keyed by input content."""

    def __init__(self, seed: int = 0, dim: int = 16, name: str = "seeded-embed"):
        self._seed = seed
        self._dim = dim
        self.info = BackendInfo(name=name, family=EMBEDDING)

    def embed_image(self, image_ref: str) -> np.ndarray:
        rng = np.random.default_rng(_stable_seed(self._seed, "img", image_ref))
        return rng.normal(size=self._dim)

    def embed_texts(self, prompts: Sequence[str]) -> np.ndarray:
        rows = []
        for p in prompts:
            rng = np.random.default_rng(_stable_seed(self._seed, "txt", p))
            rows.append(rng.normal(size=self._dim))
        return np.stack(rows)


class GoldLogprobBackend:
    """Generative mock: the gold option's prompt gets the least-negative
    token log-probabilities."""

    def __init__(self, gold_by_ref: Mapping[str, int], name: str = "gold-gen"):
        self._gold = dict(gold_by_ref)
        self.info = BackendInfo(name=name, family=GENERATIVE)

    def option_token_logprobs(self, image_ref, prompts):
        gold = self._gold[image_ref]
        return [
            [-0.05] * 3 if i == gold else [-1.5] * 3 for i in range(len(prompts))
        ]


class SeededLogprobBackend:
    """Deterministic pseudo-random log-probabilities of four tokens per
    prompt."""

    def __init__(self, seed: int = 0, name: str = "seeded-gen"):
        self._seed = seed
        self.info = BackendInfo(name=name, family=GENERATIVE)

    def option_token_logprobs(self, image_ref, prompts):
        out = []
        for p in prompts:
            rng = np.random.default_rng(_stable_seed(self._seed, "lp", image_ref, p))
            out.append(list(-rng.uniform(0.01, 3.0, size=4)))
        return out


def gold_index_by_ref(manifests: Iterable[DatasetManifest]) -> dict[str, int]:
    """Image-ref -> gold option index lookup used by the gold mocks."""
    return {
        s.image_ref: s.gold_index for m in manifests for s in m.samples
    }


def make_mock_backend(kind: str, family: str, *, name: str | None = None,
                      seed: int = 0, manifests=None, dim: int = 128):
    """Factory for the builtin mocks: kind in {gold, constant, seeded}."""
    if kind == "gold":
        if manifests is None:
            raise InvalidInputError("gold backend needs manifests to look up answers")
        gold = gold_index_by_ref(manifests)
        if family == EMBEDDING:
            return GoldEmbeddingBackend(gold, dim=dim, name=name or "gold-embed")
        return GoldLogprobBackend(gold, name=name or "gold-gen")
    if kind == "constant":
        if family != EMBEDDING:
            raise InvalidInputError("constant mock is embedding-only")
        return ConstantEmbeddingBackend(dim=dim, name=name or "constant-embed")
    if kind == "seeded":
        if family == EMBEDDING:
            return SeededEmbeddingBackend(seed=seed, dim=dim, name=name or "seeded-embed")
        return SeededLogprobBackend(seed=seed, name=name or "seeded-gen")
    raise InvalidInputError(f"unknown mock backend kind {kind!r}")
