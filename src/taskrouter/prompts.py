"""Prompt grammar: tag parsing, class renames, a/an insertion, and the
question x option cartesian product that defines a dataset's prompt
variants.

Tag micro-syntax: ``{arg[,arg]|key}``. Valid args are ``a_an`` and
``rename_classes``; the ``|`` may be omitted when no args are given. The
key is either ``class_name`` (filled from the response option under
consideration) or one of the dataset's declared context keys (filled from
the sample). Whitespace around args and key is ignored, so
``{a_an, rename_classes | class_name}`` and ``{a_an,rename_classes|class_name}``
are the same tag.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import Sample, typed_field
from .errors import InvalidInputError, RenderError

VALID_ARGS = frozenset({"a_an", "rename_classes"})
CLASS_NAME_KEY = "class_name"
VOWELS = frozenset("aeiou")

_TAG_RE = re.compile(r"\{([^{}]*)\}")


@dataclass(frozen=True)
class Tag:
    args: tuple[str, ...]
    key: str


@dataclass(frozen=True)
class PromptTemplate:
    """A template string with embedded ``{args|key}`` tags.

    Parsed eagerly so that invalid templates fail at construction, not at
    render time.
    """

    template_text: str
    segments: tuple = field(init=False, repr=False, compare=False)
    _context_keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", _parse_template(self.template_text))
        object.__setattr__(self, "_context_keys",
                           tuple(t.key for t in self.tags if t.key != CLASS_NAME_KEY))

    @property
    def tags(self) -> tuple[Tag, ...]:
        return tuple(s for s in self.segments if isinstance(s, Tag))

    def context_keys(self) -> tuple[str, ...]:
        return self._context_keys


def _parse_template(text: str):
    segments: list = []
    pos = 0
    for m in _TAG_RE.finditer(text):
        if m.start() > pos:
            segments.append(text[pos:m.start()])
        body = m.group(1)
        if "|" in body:
            args_str, key = body.split("|", 1)
            args = tuple(a.strip() for a in args_str.split(",") if a.strip())
        else:
            args, key = (), body
        key = key.strip()
        if not key:
            raise InvalidInputError(f"tag {m.group(0)!r} has an empty key")
        bad = [a for a in args if a not in VALID_ARGS]
        if bad:
            raise InvalidInputError(
                f"tag {m.group(0)!r} has unknown args {bad}; "
                f"valid args are {sorted(VALID_ARGS)}"
            )
        segments.append(Tag(args=args, key=key))
        pos = m.end()
    remainder = text[pos:]
    if "{" in remainder or "}" in remainder:
        raise InvalidInputError(f"unbalanced braces in template {text!r}")
    if remainder:
        segments.append(remainder)
    return tuple(segments)


@dataclass(frozen=True)
class DatasetPromptConfig:
    """The prompt grammar for one dataset: question forms, option forms
    (empty means options come verbatim from each sample), class renames,
    the class list for class_name-keyed datasets, and the declared context
    key set."""

    dataset_id: str
    question_forms: tuple[PromptTemplate, ...]
    option_forms: tuple[PromptTemplate, ...] = ()
    renames: Mapping[str, str] = field(default_factory=dict)
    class_names: tuple[str, ...] = ()
    context_keys: tuple[str, ...] = ()
    article_exceptions: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "question_forms", tuple(self.question_forms))
        object.__setattr__(self, "option_forms", tuple(self.option_forms))
        object.__setattr__(self, "renames", dict(self.renames))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "context_keys", tuple(self.context_keys))
        object.__setattr__(self, "article_exceptions", dict(self.article_exceptions))
        if not self.question_forms:
            raise InvalidInputError(f"{self.dataset_id}: at least one question form required")
        for orig, replacement in self.renames.items():
            if not replacement:
                raise InvalidInputError(
                    f"{self.dataset_id}: empty rename for {orig!r}"
                )
        declared = set(self.context_keys)
        for tpl in self.question_forms + self.option_forms:
            for key in tpl.context_keys():
                if key not in declared:
                    raise InvalidInputError(
                        f"{self.dataset_id}: template {tpl.template_text!r} uses "
                        f"undeclared context key {key!r}"
                    )

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "question_forms": [t.template_text for t in self.question_forms],
            "option_forms": [t.template_text for t in self.option_forms],
            "renames": dict(self.renames),
            "class_names": list(self.class_names),
            "context_keys": list(self.context_keys),
            "article_exceptions": dict(self.article_exceptions),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "DatasetPromptConfig":
        return cls(
            dataset_id=typed_field(d, "dataset_id", str),
            question_forms=tuple(map(PromptTemplate, typed_field(d, "question_forms", list, str))),
            option_forms=tuple(map(PromptTemplate,
                                   typed_field(d, "option_forms", list, str, default=()))),
            renames=typed_field(d, "renames", dict, str, default={}),
            class_names=typed_field(d, "class_names", list, str, default=()),
            context_keys=typed_field(d, "context_keys", list, str, default=()),
            article_exceptions=typed_field(d, "article_exceptions", dict, str, default={}),
        )


@dataclass(frozen=True)
class PromptVariant:
    """One (question form, option form) pair from the cartesian product."""

    variant_id: str
    question_index: int
    option_index: int
    question: PromptTemplate
    option: PromptTemplate | None  # None: options come verbatim from the sample


def apply_rename(name: str, renames: Mapping[str, str]) -> str:
    """Swap a class name for its defined substitution; identity otherwise."""
    return renames.get(name, name)


def article_for(noun_phrase: str, exceptions: Mapping[str, str] | None = None) -> str:
    """Pick "a" or "an" for a noun phrase.

    "an" when the first alphabetic character is a vowel (case-insensitive),
    "a" otherwise; exact-phrase exceptions override the heuristic.
    """
    if not noun_phrase:
        raise InvalidInputError("cannot pick an article for an empty phrase")
    if exceptions and noun_phrase in exceptions:
        return exceptions[noun_phrase]
    for ch in noun_phrase:
        if ch.isalpha():
            return "an" if ch.lower() in VOWELS else "a"
    return "a"


def render(
    template: PromptTemplate,
    sample: Sample,
    config: DatasetPromptConfig,
    class_value: str | None = None,
) -> str:
    """Substitute tags left to right. Renames apply before article
    selection when a tag carries both args. A context key the sample lacks,
    or an article tag on an empty value, is a RenderError naming the
    sample."""
    parts: list[str] = []
    for seg in template.segments:
        if isinstance(seg, str):
            parts.append(seg)
            continue
        if seg.key == CLASS_NAME_KEY:
            if class_value is None:
                raise InvalidInputError(
                    f"template {template.template_text!r} uses class_name but "
                    f"no class value was supplied"
                )
            value = class_value
        else:
            if seg.key not in sample.context:
                raise RenderError(
                    f"sample {sample.sample_id} has no context key {seg.key!r}",
                    key=seg.key,
                )
            value = sample.context[seg.key]
        if "rename_classes" in seg.args:
            value = apply_rename(value, config.renames)
        if "a_an" in seg.args:
            try:
                value = f"{article_for(value, config.article_exceptions)} {value}"
            except InvalidInputError as exc:
                raise RenderError(f"sample {sample.sample_id}, template "
                                  f"{template.template_text!r}, key {seg.key!r}: {exc}",
                                  key=seg.key) from exc
        parts.append(value)
    return "".join(parts)


def question_key(sample: Sample, variant: PromptVariant):
    """What rendering the variant's question form reads of the sample, as a
    key under which a caller may keep the render for the rest of one call:
    the form's index, with the sample's values of the context keys its
    template reads (the index alone when it reads none). Within one config,
    renders under equal keys are equal. A context key the sample lacks
    reads as None: its render raises naming the sample, and a render that
    raises must not be kept."""
    reads = variant.question.context_keys()
    if not reads:
        return variant.question_index
    return (variant.question_index, *map(sample.context.get, reads))


def options_key(sample: Sample, variant: PromptVariant):
    """What ``rendered_options`` reads of the sample, as ``question_key``
    keys the question: the option form's index, the response options and
    the form's context values, or the response options alone when they
    come verbatim."""
    if variant.option is None:
        return sample.response_options
    return (variant.option_index, sample.response_options,
            *map(sample.context.get, variant.option.context_keys()))


def prompt_variants(config: DatasetPromptConfig) -> list[PromptVariant]:
    """The full cartesian product of question and option forms, with
    deterministic variant ids ``q<i>-o<j>``."""
    variants: list[PromptVariant] = []
    option_forms: Sequence[PromptTemplate | None] = config.option_forms or (None,)
    for qi, question in enumerate(config.question_forms):
        for oi, option in enumerate(option_forms):
            variants.append(
                PromptVariant(
                    variant_id=f"q{qi}-o{oi}",
                    question_index=qi,
                    option_index=oi,
                    question=question,
                    option=option,
                )
            )
    return variants


def variant_by_id(config: DatasetPromptConfig, variant_id: str) -> PromptVariant:
    for v in prompt_variants(config):
        if v.variant_id == variant_id:
            return v
    raise InvalidInputError(
        f"{config.dataset_id} has no prompt variant {variant_id!r}"
    )


def valid_variant_ids(config: DatasetPromptConfig) -> set[str]:
    """Variants usable across all model families: those whose question form
    is non-empty. Empty-question variants cannot be issued to models that
    require a question, so they are excluded from router corpora."""
    return {
        v.variant_id
        for v in prompt_variants(config)
        if v.question.template_text != ""
    }


def rendered_options(
    sample: Sample, config: DatasetPromptConfig, variant: PromptVariant
) -> list[str]:
    """The per-option strings for a variant, in response-option order."""
    if variant.option is None:
        return list(sample.response_options)
    return [
        render(variant.option, sample, config, class_value=opt)
        for opt in sample.response_options
    ]


def closed_prompt_set(
    sample: Sample, config: DatasetPromptConfig, variant: PromptVariant
) -> list[str]:
    """One prompt per response option: the rendered question concatenated
    with the rendered option. Element i corresponds to option i, so
    prediction indices align with gold_index. A variant of another config
    is refused."""
    _check_variant(config, variant)
    question_text = render(variant.question, sample, config)
    return [question_text + opt for opt in rendered_options(sample, config, variant)]


def _check_variant(config: DatasetPromptConfig, variant: PromptVariant) -> None:
    qi, oi = variant.question_index, variant.option_index
    option_forms = config.option_forms or (None,)
    if not (0 <= qi < len(config.question_forms) and 0 <= oi < len(option_forms)
            and config.question_forms[qi] == variant.question
            and option_forms[oi] == variant.option):
        raise InvalidInputError(
            f"variant {variant.variant_id} does not belong to config "
            f"{config.dataset_id}"
        )
