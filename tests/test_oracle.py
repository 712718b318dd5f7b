import numpy as np
import pytest

from fastpolar.bch import bch_encode
from fastpolar.construction import construct_fast_polar, construct_polar
from fastpolar.core import CodeSpec, PatternTag, info_count
from fastpolar.decoder import decode_node, g_bit
from fastpolar.oracle import NodeCodebook, enumerate_codebook, ml_decode, sc_decode_baseline


def test_codebook_rejects_duplicates():
    words = np.array([[0, 0], [0, 0]], dtype=np.uint8)
    with pytest.raises(ValueError):
        NodeCodebook(PatternTag.RATE1, 2, words)


def test_rep_codebook():
    book = enumerate_codebook(PatternTag.REP, 4)
    assert sorted(tuple(w) for w in book.codewords) == [(0, 0, 0, 0), (1, 1, 1, 1)]


def test_spc_codebook_is_even_weight():
    book = enumerate_codebook(PatternTag.SPC, 4)
    assert len(book.codewords) == 8
    assert not (book.codewords.sum(axis=1) & 1).any()


def test_rate_extremes():
    assert len(enumerate_codebook(PatternTag.RATE0, 8).codewords) == 1
    assert len(enumerate_codebook(PatternTag.RATE1, 4).codewords) == 16


def test_rpc_codebook_group_parities_agree():
    book = enumerate_codebook(PatternTag.RPC, 8)
    assert len(book.codewords) == 32
    groups = book.codewords.reshape(-1, 2, 4)
    parities = groups.sum(axis=1) & 1
    assert (parities == parities[:, :1]).all()


def test_bch_codebooks_match_encoder():
    for tag in (PatternTag.BCH_T2, PatternTag.BCH_T1):
        book = enumerate_codebook(tag, 16)
        k = info_count(tag)
        assert len(book.codewords) == 2 ** k
        encoded = {tuple(w) for w in bch_encode(
            ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(np.uint8), tag)}
        assert {tuple(w) for w in book.codewords} == encoded


def test_codebook_size_guard():
    with pytest.raises(ValueError):
        enumerate_codebook(PatternTag.RATE1, 32)
    with pytest.raises(ValueError):
        enumerate_codebook(PatternTag.BCH_T2, 8)


def test_ml_decode_recovers_noiseless_word():
    book = enumerate_codebook(PatternTag.SPC2, 8)
    rng = np.random.default_rng(14)
    word = book.codewords[rng.integers(len(book.codewords))]
    alpha = (1.0 - 2.0 * word) * 5.0
    assert np.array_equal(ml_decode(book, alpha), word)


def test_ml_decode_examples():
    spc = enumerate_codebook(PatternTag.SPC, 4)
    assert list(ml_decode(spc, np.array([1.0, -2.0, 3.0, 4.0]))) == [1, 1, 0, 0]
    rep = enumerate_codebook(PatternTag.REP, 4)
    assert list(ml_decode(rep, np.array([1.0, 1.0, -3.0, 0.0]))) == [1, 1, 1, 1]


def test_ml_decode_tie_breaks_lexicographically():
    book = enumerate_codebook(PatternTag.RATE1, 4)
    assert not ml_decode(book, np.zeros(4)).any()
    # only position 0 informative; ties on the rest resolve to zeros
    assert list(ml_decode(book, np.array([-1.0, 0.0, 0.0, 0.0]))) == [1, 0, 0, 0]


def test_ml_decode_batched():
    book = enumerate_codebook(PatternTag.PCR, 8)
    rng = np.random.default_rng(15)
    alpha = rng.normal(size=(40, 8))
    batch = ml_decode(book, alpha)
    assert batch.shape == (40, 8)
    for row_alpha, row_word in zip(alpha, batch):
        assert np.array_equal(ml_decode(book, row_alpha), row_word)


def test_baseline_sc_length_two():
    spec = CodeSpec(N=2, K=1, info_set=frozenset({1}))
    # frozen u0 = 0, so u1 decides on b + a
    assert sc_decode_baseline(spec, np.array([2.0, 1.0])) == [0]
    assert sc_decode_baseline(spec, np.array([-3.0, 1.0])) == [1]
    assert g_bit(2.0, 1.0, 0) > 0 and g_bit(-3.0, 1.0, 0) < 0


def test_baseline_sc_rate_one_codeword_is_hard_decision():
    from fastpolar.encoder import polar_transform

    spec = CodeSpec(N=8, K=8, info_set=frozenset(range(8)))
    rng = np.random.default_rng(16)
    for _ in range(50):
        alpha = rng.normal(size=8)
        u = sc_decode_baseline(spec, alpha)
        assert np.array_equal(polar_transform(u),
                              decode_node(PatternTag.RATE1, alpha))


def test_baseline_sc_batch_and_validation():
    spec = construct_polar(32, 16, "ga")
    rng = np.random.default_rng(18)
    alpha = rng.normal(size=(12, 32))
    batch = sc_decode_baseline(spec, alpha)
    assert batch.shape == (12, 16)
    for row_alpha, row_bits in zip(alpha, batch):
        assert np.array_equal(sc_decode_baseline(spec, row_alpha), row_bits)
    with pytest.raises(ValueError):
        sc_decode_baseline(spec, np.zeros(16))


def test_baseline_sc_rejects_bch_layouts():
    code = construct_fast_polar(1024, 896, "ga")
    assert code.bch_segments
    with pytest.raises(ValueError):
        sc_decode_baseline(code, np.zeros(1024))


def test_baseline_sc_accepts_plain_fast_layout():
    code = construct_fast_polar(64, 61, "ga")
    assert not code.bch_segments
    rng = np.random.default_rng(19)
    alpha = rng.normal(size=64)
    assert sc_decode_baseline(code, alpha).shape == (61,)
