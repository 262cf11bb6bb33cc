"""Char-LM corpus: determinism, alphabet contract, and windowing."""

import numpy as np
import pytest

from repro.data.text import (
    _WORDS,
    ALPHABET,
    CharVocab,
    _windows,
    generate_corpus,
    make_char_lm_data,
)


def _corpus_oracle(n_chars, seed):
    """The per-word ``Generator.choice`` loop the generator must reproduce."""
    rng = np.random.default_rng(seed)
    n_words = len(_WORDS)
    weights = 1.0 / (np.arange(n_words) + 1.0)
    transition = np.empty((n_words, n_words))
    for i in range(n_words):
        transition[i, rng.permutation(n_words)] = weights
    transition /= transition.sum(axis=1, keepdims=True)
    pieces, total = [], 0
    word = int(rng.integers(n_words))
    sentence_left = int(rng.integers(4, 10))
    while total < n_chars:
        token = _WORDS[word]
        sentence_left -= 1
        if sentence_left == 0:
            token += "." + ("\n" if rng.random() < 0.25 else " ")
            sentence_left = int(rng.integers(4, 10))
        elif rng.random() < 0.08:
            token += ", "
        else:
            token += " "
        pieces.append(token)
        total += len(token)
        word = int(rng.choice(n_words, p=transition[word]))
    return "".join(pieces)[:n_chars]


class TestCorpusDeterminism:
    def test_same_args_same_bytes(self):
        assert generate_corpus(4096, seed=0) == generate_corpus(4096, seed=0)

    def test_seed_changes_stream(self):
        assert generate_corpus(2048, seed=0) != generate_corpus(2048, seed=1)

    def test_prefix_property_not_required_but_length_exact(self):
        assert len(generate_corpus(1234, seed=7)) == 1234

    def test_only_alphabet_characters(self):
        assert set(generate_corpus(8192, seed=3)) <= set(ALPHABET)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="positive"):
            generate_corpus(0)

    @pytest.mark.parametrize("n_chars", [1, 777, 8192])
    @pytest.mark.parametrize("seed", [0, 1, 2, 13])
    def test_matches_per_word_choice_loop(self, n_chars, seed):
        assert generate_corpus(n_chars, seed=seed) == _corpus_oracle(n_chars, seed)


class TestCharVocab:
    def test_exactly_32_symbols_with_nul_pad(self):
        vocab = CharVocab()
        assert len(vocab) == 32
        assert vocab.pad_id == 0
        assert ALPHABET[0] == "\x00"

    def test_pad_char_never_generated(self):
        assert "\x00" not in generate_corpus(8192, seed=0)

    def test_encode_decode_round_trip(self):
        vocab = CharVocab()
        text = "the cat sat.\n"
        assert vocab.decode(vocab.encode(text)) == text

    def test_unknown_character_rejected(self):
        with pytest.raises(ValueError, match="not in the alphabet"):
            CharVocab().encode("Qx7")

    def test_decode_range_checked(self):
        with pytest.raises(ValueError, match="ids outside"):
            CharVocab().decode(np.array([40]))


class TestWindows:
    def test_shapes_and_shift_by_one(self):
        data = make_char_lm_data(n_chars=2048, block_len=16, seed=0)
        x, y = data.train[0]
        assert x.shape == (16,) and y.shape == (16,)
        # Targets are inputs shifted by one within the raw stream.
        x1, _ = data.train[1]
        assert y[-1] == x1[0]
        np.testing.assert_array_equal(y[:-1], x[1:])

    def test_split_is_deterministic_and_disjoint(self):
        a = make_char_lm_data(n_chars=2048, block_len=16, seed=0)
        b = make_char_lm_data(n_chars=2048, block_len=16, seed=0)
        np.testing.assert_array_equal(a.train.inputs, b.train.inputs)
        np.testing.assert_array_equal(a.val.inputs, b.val.inputs)
        # val windows come from the held-out suffix: roughly val_fraction
        # of the windows, never zero.
        assert 0 < len(a.val) < len(a.train)

    def test_vocab_size_exposed_for_model_construction(self):
        data = make_char_lm_data(n_chars=1024, block_len=8)
        assert data.vocab_size == 32

    def test_bad_val_fraction_rejected(self):
        with pytest.raises(ValueError, match="val_fraction"):
            make_char_lm_data(n_chars=1024, val_fraction=0.0)

    @pytest.mark.parametrize("size,block_len", [(33, 32), (100, 7), (1000, 16), (64, 1)])
    def test_matches_window_loop(self, size, block_len):
        ids = np.random.default_rng(size).integers(0, 32, size=size)
        n = (size - 1) // block_len
        x = np.stack([ids[i * block_len : (i + 1) * block_len] for i in range(n)])
        y = np.stack([ids[i * block_len + 1 : (i + 1) * block_len + 1] for i in range(n)])
        windows = _windows(ids, block_len)
        np.testing.assert_array_equal(windows.inputs, x)
        np.testing.assert_array_equal(windows.targets, y)
        assert windows.inputs.flags.owndata and windows.targets.flags.owndata

    def test_too_short_segment_is_loud(self):
        with pytest.raises(ValueError, match="no window"):
            make_char_lm_data(n_chars=64, block_len=128)
