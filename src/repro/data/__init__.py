"""Datasets and loaders."""

from repro.data.dataset import ArrayDataset, ClassificationData
from repro.data.loader import DataLoader
from repro.data.synthetic import (
    cifar10_like,
    cifar100_like,
    imagenet_like,
    make_image_classification,
)
from repro.data.graphs import (
    LinkPredictionData,
    ia_email_like,
    make_link_prediction_data,
    normalized_adjacency,
    wiki_talk_like,
)
from repro.data.text import (
    ALPHABET,
    CharVocab,
    LMData,
    generate_corpus,
    make_char_lm_data,
)

__all__ = [
    "ArrayDataset",
    "ClassificationData",
    "DataLoader",
    "make_image_classification",
    "cifar10_like",
    "cifar100_like",
    "imagenet_like",
    "LinkPredictionData",
    "make_link_prediction_data",
    "normalized_adjacency",
    "wiki_talk_like",
    "ia_email_like",
    "ALPHABET",
    "CharVocab",
    "LMData",
    "generate_corpus",
    "make_char_lm_data",
]
