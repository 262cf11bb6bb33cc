"""Char-LM corpus: determinism, alphabet contract, and windowing."""

import hashlib

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


# sha256 of the UTF-8 corpus, pinned from the word-by-word generator.
CORPUS_SHA256 = {
    (0, 65536): "9684ba62f5948ab595f4f14ba828d977faa4ab05fd836db2d46bf2771505dffa",
    (0, 1000): "07e735cfbc02ba5ade0a8040d61b54e9bf97ddfb7d2404bfe373c3264f13a9c8",
    (0, 7): "e0473485806d9c0cc35087f581efe3c98970d3942650ee09e18be796364884ac",
    (1, 65536): "f1b2a2f6e2537cd2f7c5ac767a90c6e4fd4f6e2e7fe06baeea0c9ce08c50cd9f",
    (1, 1000): "ea4da8ba90dbaf17ff33ab2bdee33309f8a636c229bf305b285fc9666121408e",
    (1, 7): "55c17c9e8fc594d7b75f5919682c1a7a91a465b14c62d296b22018b0f776b9ca",
    (2, 65536): "935571ceb84bff4847a49c7baeac645089eed03d107322a9f20494e0770431f0",
    (2, 1000): "7df76efbf73ec84120a67f9ad0b673170b3fe42aed095df5ddde20c7fe1a5aba",
    (2, 7): "7b0c1bdc3f7960940208a1501b5dcf81747d3a408b394a9f8100d732ab7487d1",
    (3, 65536): "aa9958b9c6cafa600fe07557d3346403a12f5709cdbcf97955c6788e7af64ff6",
    (3, 1000): "7f7ffa3cfe154bd2688f3e612d31bac597911217fc8bf2a5db5b7599c69edeb1",
    (3, 7): "f9187a7ce37a94bf2c52fcbc017ee9298189b3bcad54a9f095b8ba7d304daa46",
}


@pytest.mark.parametrize("seed,n_chars", sorted(CORPUS_SHA256))
def test_corpus_bytes_pinned(seed, n_chars):
    corpus = generate_corpus(n_chars, seed=seed)
    assert hashlib.sha256(corpus.encode()).hexdigest() == CORPUS_SHA256[seed, n_chars]


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

    @pytest.mark.parametrize("bad", ["Q", "\xe9", "\u2014", "\U0001f600"])
    def test_unknown_character_named(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            CharVocab().encode(f"ab {bad} c")

    def test_encode_matches_alphabet_positions(self):
        text = generate_corpus(2048, seed=5)
        ids = CharVocab().encode(text)
        assert ids.dtype == np.int64
        assert ids.tolist() == [ALPHABET.index(ch) for ch in text]
        assert CharVocab().encode("").shape == (0,)

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
