"""Synthetic generator contracts and .prvc round trips."""

import dataclasses
import hashlib

import numpy as np
import pytest

from prvr.corpus import CorpusSpec, FeatureCorpus, generate_synthetic, read_corpus, write_corpus
from prvr.errors import ConfigError, FormatError


def make_spec(**kw):
    base = dict(n_q=10, n_v=5, l_q=3, l_v=6, d_t=8, d_v=9, seed=11,
                segments_per_video=3, ambiguity_rate=0.5, noise_scale=0.1)
    base.update(kw)
    return CorpusSpec(**base)


def test_rate_zero_has_no_planted_pairs():
    corpus = generate_synthetic(make_spec(ambiguity_rate=0.0))
    assert corpus.planted_ambiguity == set()


def test_rate_one_single_segment_plants_all_other_videos():
    corpus = generate_synthetic(make_spec(n_q=9, n_v=3, segments_per_video=1,
                                          ambiguity_rate=1.0, l_v=4))
    for i in range(corpus.n_q):
        others = {(i, j) for j in range(3) if j != corpus.pairing[i]}
        assert {(q, v) for q, v in corpus.planted_ambiguity if q == i} == others


# sha256 of generate_synthetic's arrays (text, video, pairing, sorted
# planted pairs) per split, as the per-(video, segment) and per-query
# loop generator produced them; the generator must keep every byte.
GENERATOR_DIGESTS = {
    "accept": ({"n_q": 200, "n_v": 100, "l_q": 6, "l_v": 16, "d_t": 32, "d_v": 32, "seed": 1,
                "segments_per_video": 4, "ambiguity_rate": 0.3, "noise_scale": 0.35},
               "4bbaf2d053293d9014ac04d58e29f3152e8d1a7dff870aa3d434b7084b4b6707",
               "167ea53143728dd3b6c904282c82a97a846cc28560b815e4686559a55d98253c"),
    "uneven segments": ({"l_v": 7, "segments_per_video": 3},
                        "1ce61247b10c065013d5c3c886506f4371f11405a9252881d748ed7e4569c3ae",
                        "8779f9edbc5f16fff2a89b2235bddfd66a59017d040527b8543671a60599c96f"),
    "noiseless, all reused": ({"noise_scale": 0.0, "ambiguity_rate": 1.0},
                              "2994297338d59c25697e646464009386999c00071af1616d6a490c03b2b1d31e",
                              "aed852ed7f9310b763368024719bb7413ee0ab161bc80248fdd373add8d24ff0"),
}


@pytest.mark.parametrize("name", GENERATOR_DIGESTS)
def test_generator_bytes_are_pinned(name):
    kw, *digests = GENERATOR_DIGESTS[name]
    for split, want in zip(("train", "test"), digests):
        corpus = generate_synthetic(make_spec(**kw), split=split)
        h = hashlib.sha256()
        for a in (corpus.text_features, corpus.video_features, corpus.pairing,
                  np.array(sorted(corpus.planted_ambiguity), dtype=np.int64)):
            h.update(a.tobytes())
        assert h.hexdigest() == want, split


def test_same_spec_bit_identical():
    a = generate_synthetic(make_spec(seed=7))
    b = generate_synthetic(make_spec(seed=7))
    assert a == b
    assert a.text_features.tobytes() == b.text_features.tobytes()


def test_different_seed_differs():
    a = generate_synthetic(make_spec(seed=7))
    b = generate_synthetic(make_spec(seed=8))
    assert a != b


def test_splits_share_projections_but_not_content():
    a = generate_synthetic(make_spec(seed=7), split="train")
    b = generate_synthetic(make_spec(seed=7), split="test")
    assert b.split == "test"
    assert not np.array_equal(a.text_features, b.text_features)


def test_pairing_total_and_in_range():
    corpus = generate_synthetic(make_spec(n_q=13, n_v=4))
    assert corpus.pairing.shape == (13,)
    assert set(corpus.pairing) <= set(range(4))


def test_planted_never_contains_positive_pair():
    corpus = generate_synthetic(make_spec(ambiguity_rate=0.9))
    for (qi, vj) in corpus.planted_ambiguity:
        assert corpus.pairing[qi] != vj


def test_features_finite_and_float32():
    corpus = generate_synthetic(make_spec())
    assert corpus.text_features.dtype == np.float32
    assert corpus.video_features.dtype == np.float32
    assert np.all(np.isfinite(corpus.text_features))
    assert np.all(np.isfinite(corpus.video_features))


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError):
        make_spec(n_q=0).validate()
    with pytest.raises(ConfigError):
        make_spec(ambiguity_rate=1.5).validate()
    with pytest.raises(ConfigError):
        make_spec(noise_scale=-0.1).validate()
    with pytest.raises(ConfigError):
        make_spec(l_v=2, segments_per_video=3).validate()
    with pytest.raises(ConfigError):
        generate_synthetic(make_spec(), split="validation")


def test_round_trip_exact(tmp_path):
    corpus = generate_synthetic(make_spec(ambiguity_rate=0.6))
    path = tmp_path / "corpus.prvc"
    write_corpus(corpus, path)
    loaded = read_corpus(path)
    assert loaded == corpus


def test_round_trip_test_split_and_empty_planted(tmp_path):
    corpus = generate_synthetic(make_spec(ambiguity_rate=0.0), split="test")
    path = tmp_path / "corpus.prvc"
    write_corpus(corpus, path)
    loaded = read_corpus(path)
    assert loaded.split == "test"
    assert loaded.planted_ambiguity == set()
    assert loaded == corpus


def test_round_trip_without_planted(tmp_path):
    corpus = generate_synthetic(make_spec())
    corpus = FeatureCorpus(corpus.text_features, corpus.video_features,
                           corpus.pairing, split="train", planted_ambiguity=None)
    path = tmp_path / "corpus.prvc"
    write_corpus(corpus, path)
    assert read_corpus(path).planted_ambiguity is None


def test_truncated_text_payload_names_field(tmp_path):
    corpus = generate_synthetic(make_spec())
    path = tmp_path / "corpus.prvc"
    write_corpus(corpus, path)
    data = path.read_bytes()
    # keep the header plus half a query row
    path.write_bytes(data[:36 + 2 * corpus.l_q * corpus.d_t])
    with pytest.raises(FormatError, match="text_features"):
        read_corpus(path)


def test_truncated_pairing_names_field(tmp_path):
    corpus = generate_synthetic(make_spec())
    path = tmp_path / "corpus.prvc"
    write_corpus(corpus, path)
    data = path.read_bytes()
    n_feat = 36 + 4 * (corpus.text_features.size + corpus.video_features.size)
    path.write_bytes(data[:n_feat + 2])
    with pytest.raises(FormatError, match="pairing"):
        read_corpus(path)


def test_empty_file_is_format_error(tmp_path):
    path = tmp_path / "corpus.prvc"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="header"):
        read_corpus(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "corpus.prvc"
    path.write_bytes(b"XXXX" + b"\x00" * 36)
    with pytest.raises(FormatError, match="magic"):
        read_corpus(path)


def test_trailing_bytes_rejected(tmp_path):
    corpus = generate_synthetic(make_spec())
    path = tmp_path / "corpus.prvc"
    write_corpus(corpus, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_corpus(path)


def test_planted_pairs_share_a_concept_geometrically():
    # with zero noise, frames of a segment equal the projected concept, so
    # a planted pair's two videos must contain bit-identical frame rows
    spec = make_spec(noise_scale=0.0, ambiguity_rate=0.7, n_q=12, n_v=6)
    corpus = generate_synthetic(spec)
    assert corpus.planted_ambiguity
    for (qi, vj) in corpus.planted_ambiguity:
        frames = {f.tobytes() for f in corpus.video_features[vj]}
        paired = {f.tobytes() for f in corpus.video_features[corpus.pairing[qi]]}
        assert frames & paired, f"pair {(qi, vj)} shares no identical segment"
