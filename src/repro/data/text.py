"""Dependency-free char-level language-modelling corpus and windowing.

No downloads: :func:`generate_corpus` synthesizes a tiny-shakespeare-like
stream of English-looking prose from a seeded word-level Markov chain, so
every byte of the dataset is reproducible from ``(n_chars, seed)``.  The
chain's successor distributions are Zipf-skewed per word, which gives the
stream real structure at two scales — within-word character transitions
and between-word bigram statistics — enough that model capacity measurably
moves validation perplexity (the LM benchmarks rely on this).

The alphabet is engineered to **exactly 32 symbols** (id 0 is a NUL pad
character that never appears in generated text) so vocabulary-sized
embedding/head matrices tile cleanly under 4x4 block masks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = ["ALPHABET", "CharVocab", "LMData", "generate_corpus", "make_char_lm_data"]

# 1 pad + 26 letters + space + period + comma + apostrophe + newline = 32.
ALPHABET = "\x00abcdefghijklmnopqrstuvwxyz .,'\n"

_WORDS = (
    "the", "and", "of", "to", "a", "in", "that", "is", "was", "he",
    "for", "it", "with", "as", "his", "on", "be", "at", "by", "had",
    "not", "are", "but", "from", "or", "have", "an", "they", "which", "one",
    "you", "were", "her", "all", "she", "there", "would", "their", "we", "him",
    "been", "has", "when", "who", "will", "more", "no", "if", "out", "so",
    "said", "what", "up", "its", "about", "into", "than", "them", "can", "only",
)


class CharVocab:
    """Bidirectional char/id mapping over the fixed 32-symbol alphabet."""

    def __init__(self, alphabet: str = ALPHABET):
        self.alphabet = alphabet
        self.pad_id = 0
        # Latin-1 code -> id, -1 outside the alphabet.
        codes = np.frombuffer(alphabet.encode("latin-1"), dtype=np.uint8)
        self._ids = np.full(256, -1, dtype=np.int64)
        self._ids[codes] = np.arange(len(alphabet))

    def __len__(self) -> int:
        return len(self.alphabet)

    def encode(self, text: str) -> np.ndarray:
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        ids = np.where(codes < 256, self._ids[codes & 255], -1)
        if ids.min(initial=0) < 0:
            bad = text[int(np.argmax(ids < 0))]
            raise ValueError(f"character {bad!r} not in the alphabet")
        return ids

    def decode(self, ids) -> str:
        ids = np.asarray(ids).reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.alphabet)):
            raise ValueError(f"ids outside [0, {len(self.alphabet)})")
        return "".join(self.alphabet[int(i)] for i in ids)


@dataclass
class LMData:
    """Train/val split of a char-LM task.

    ``train``/``val`` hold non-overlapping fixed windows: inputs are
    ``(N, block_len)`` int64 char ids and targets the same ids shifted by
    one position — the next-token-prediction framing.
    """

    train: ArrayDataset
    val: ArrayDataset
    vocab: CharVocab
    block_len: int
    name: str = "markov-prose"

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def generate_corpus(n_chars: int = 65536, seed: int = 0) -> str:
    """Synthesize ``n_chars`` characters of seeded Markov prose."""
    if n_chars <= 0:
        raise ValueError(f"n_chars must be positive, got {n_chars}")
    rng = np.random.default_rng(seed)
    n_words = len(_WORDS)
    # Per-word successor distribution: a seeded permutation ranks the
    # successors, and probability falls off as 1/(rank+1) (Zipf-like), so
    # bigram statistics are strongly skewed but never degenerate.
    weights = 1.0 / (np.arange(n_words) + 1.0)
    transition = np.empty((n_words, n_words))
    for i in range(n_words):
        order = rng.permutation(n_words)
        transition[i, order] = weights
    transition /= transition.sum(axis=1, keepdims=True)
    # Each row's CDF as ``Generator.choice(n, p=row)`` builds it, so one
    # uniform draw and a right-sided search pick the same successor from
    # the same random stream, without choice's per-call overhead.
    cdf = transition.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    cdf_rows = cdf.tolist()

    pieces: list[str] = []
    total = 0
    word = int(rng.integers(n_words))
    length = int(rng.integers(4, 10))
    while total < n_chars:
        # Per word, a comma/newline uniform then a successor uniform; the last
        # successor is drawn after the next sentence's length.
        draws = rng.random(2 * length - 1).tolist()
        for i in range(length - 1):
            token = _WORDS[word] + (", " if draws[2 * i] < 0.08 else " ")
            pieces.append(token)
            total += len(token)
            word = bisect_right(cdf_rows[word], draws[2 * i + 1])
        token = _WORDS[word] + "." + ("\n" if draws[-1] < 0.25 else " ")
        pieces.append(token)
        total += len(token)
        length = int(rng.integers(4, 10))
        word = bisect_right(cdf_rows[word], rng.random())
    return "".join(pieces)[:n_chars]


def _windows(ids: np.ndarray, block_len: int) -> ArrayDataset:
    n = (ids.size - 1) // block_len
    if n <= 0:
        raise ValueError(
            f"segment of {ids.size} chars yields no window of length {block_len}"
        )
    x = ids[: n * block_len].reshape(n, block_len).copy()
    y = ids[1 : n * block_len + 1].reshape(n, block_len).copy()
    return ArrayDataset(x, y)


def make_char_lm_data(
    n_chars: int = 65536,
    block_len: int = 32,
    val_fraction: float = 0.1,
    seed: int = 0,
) -> LMData:
    """Generate a corpus and window it into train/val next-token datasets.

    The raw stream is split *before* windowing (train prefix, val suffix)
    so no validation character is ever seen as a training input or
    target.  Windows are non-overlapping; shuffling happens in the
    `DataLoader`, driven by its own seeded generator.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    vocab = CharVocab()
    ids = vocab.encode(generate_corpus(n_chars, seed=seed))
    split = int(round(ids.size * (1.0 - val_fraction)))
    return LMData(
        train=_windows(ids[:split], block_len),
        val=_windows(ids[split:], block_len),
        vocab=vocab,
        block_len=int(block_len),
    )
