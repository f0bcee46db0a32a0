"""Shipped prompt configurations for the ten-benchmark suite.

The exact question/option formulations and class renames shipped for
the ten-benchmark suite; they double as golden fixtures for the grammar
tests. Datasets whose option forms are empty provide response
options per sample.
"""

from __future__ import annotations

from .prompts import DatasetPromptConfig, PromptTemplate

CIFAR100_CLASSES = (
    "apple", "aquarium_fish", "baby", "bear", "beaver", "bed", "bee",
    "beetle", "bicycle", "bottle", "bowl", "boy", "bridge", "bus",
    "butterfly", "camel", "can", "castle", "caterpillar", "cattle", "chair",
    "chimpanzee", "clock", "cloud", "cockroach", "couch", "crab",
    "crocodile", "cup", "dinosaur", "dolphin", "elephant", "flatfish",
    "forest", "fox", "girl", "hamster", "house", "kangaroo", "keyboard",
    "lamp", "lawn_mower", "leopard", "lion", "lizard", "lobster", "man",
    "maple_tree", "motorcycle", "mountain", "mouse", "mushroom", "oak_tree",
    "orange", "orchid", "otter", "palm_tree", "pear", "pickup_truck",
    "pine_tree", "plain", "plate", "poppy", "porcupine", "possum", "rabbit",
    "raccoon", "ray", "road", "rocket", "rose", "sea", "seal", "shark",
    "shrew", "skunk", "skyscraper", "snail", "snake", "spider", "squirrel",
    "streetcar", "sunflower", "sweet_pepper", "table", "tank", "telephone",
    "television", "tiger", "tractor", "train", "trout", "tulip", "turtle",
    "wardrobe", "whale", "willow_tree", "wolf", "woman", "worm",
)

OODCV_CLASSES = (
    "aeroplane", "bicycle", "boat", "bus", "car", "chair", "diningtable",
    "motorbike", "sofa", "train",
)

WEATHER_CLASSES = ("Sunrise", "Shine", "Rain", "Cloudy")

SKIN_CANCER_CLASSES = ("melanoma", "notmelanoma")

HATEFUL_MEMES_CLASSES = ("not mean", "mean")

_OBJECT_QUESTIONS = ("", "This is ", "What is this? This is ")
_OBJECT_OPTIONS = (
    "{class_name}",
    "{rename_classes|class_name}",
    "{a_an,rename_classes|class_name}",
)


def _config(dataset_id, questions, options=(), renames=None, class_names=(),
            context_keys=()):
    return DatasetPromptConfig(
        dataset_id=dataset_id,
        question_forms=tuple(PromptTemplate(q) for q in questions),
        option_forms=tuple(PromptTemplate(o) for o in options),
        renames=renames or {},
        class_names=tuple(class_names),
        context_keys=tuple(context_keys),
    )


def builtin_prompt_configs() -> dict[str, DatasetPromptConfig]:
    """All shipped dataset prompt configurations, keyed by dataset id."""
    configs = [
        _config(
            "cifar100",
            questions=_OBJECT_QUESTIONS,
            options=_OBJECT_OPTIONS,
            renames={
                "aquarium_fish": "aquarium fish",
                "pickup_truck": "pickup truck",
                "lawn_mower": "lawn mower",
                "sweet_pepper": "pepper",
                "maple_tree": "maple",
                "oak_tree": "oak",
                "palm_tree": "palm",
                "pine_tree": "pine",
                "willow_tree": "willow",
            },
            class_names=CIFAR100_CLASSES,
        ),
        _config(
            "oodcv",
            questions=_OBJECT_QUESTIONS,
            options=_OBJECT_OPTIONS,
            renames={"aeroplane": "plane", "diningtable": "table"},
            class_names=OODCV_CLASSES,
        ),
        _config(
            "weather",
            questions=("", "It is ", "The weather is "),
            options=("{class_name}", "{rename_classes|class_name}"),
            renames={
                "Sunrise": "sunrise",
                "Cloudy": "cloudy",
                "Shine": "sunny",
                "Rain": "rainy",
            },
            class_names=WEATHER_CLASSES,
        ),
        _config(
            "skin_cancer",
            questions=("", "This is ", "This skin is "),
            options=("{class_name}", "{rename_classes|class_name}"),
            renames={"melanoma": "cancerous", "notmelanoma": "healthy"},
            class_names=SKIN_CANCER_CLASSES,
        ),
        _config(
            "hateful_memes",
            questions=(
                "",
                "{text}. ",
                "{text}. This meme is ",
                "This is an image of a meme. It contains the text: {text}. "
                "The meme is ",
            ),
            options=("{class_name}", "{rename_classes|class_name}"),
            renames={"not mean": "nice", "mean": "mean"},
            class_names=HATEFUL_MEMES_CLASSES,
            context_keys=("text",),
        ),
        _config(
            "scienceqa",
            questions=(
                "",
                "{class_question} ",
                "{class_hint} {class_question} ",
                "Question: {class_hint} {class_question} ",
                "{class_hint} Question: {class_question} ",
            ),
            context_keys=("class_question", "class_hint"),
        ),
        _config(
            "vg_attribution",
            questions=("", "{class_question} ", "This best describes the image: "),
            context_keys=("class_question",),
        ),
        _config(
            "vg_relation",
            questions=("", "{class_question} ", "This best describes the image: "),
            context_keys=("class_question",),
        ),
        _config(
            "abstract_scenes_vqa",
            questions=(
                "",
                "Question: {class_question} Answer: ",
                "Using the image, the answer to {class_question} is most likely ",
            ),
            context_keys=("class_question",),
        ),
        _config(
            "binary_abstract_scenes",
            questions=(
                "",
                "Question: {class_question} Answer: ",
                "Using the image, the answer to {class_question} is most likely ",
            ),
            context_keys=("class_question",),
        ),
    ]
    return {c.dataset_id: c for c in configs}

