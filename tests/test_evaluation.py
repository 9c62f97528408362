"""Recall metrics against an exhaustive ranking oracle, fusion, audit."""

import copy

import numpy as np
import pytest

from prvr.corpus import CorpusSpec, FeatureCorpus, generate_synthetic
from prvr.encoder import encode_text, encode_video
from prvr.errors import ConfigError
from prvr.evaluation import (audit, evaluate, fused_pair_scores, grade_detection,
                             recall_from_scores)
from prvr.trainer import TrainConfig, init_state, train


from tests.oracles import exhaustive_recall, fused_score, retrieval_score


def make_corpus(**kw):
    base = dict(n_q=10, n_v=5, l_q=3, l_v=4, d_t=8, d_v=9, seed=2,
                segments_per_video=2, ambiguity_rate=0.3, noise_scale=0.2)
    base.update(kw)
    return generate_synthetic(CorpusSpec(**base))


def make_state(corpus, seed=1, **kw):
    cfg = TrainConfig(epochs=2, batch_size=4, warmup_epochs=2, embed_dim=8,
                      seed=seed, **kw)
    return init_state(corpus, cfg)


# --- fused scoring -------------------------------------------------------

def test_fused_score_average_and_symmetry():
    corpus = make_corpus()
    state = make_state(corpus)
    q = corpus.text_features[0]
    v = corpus.video_features[0]
    s_t, _ = retrieval_score(encode_text(state.theta.params, q),
                             encode_video(state.theta.params, v))
    s_p, _ = retrieval_score(encode_text(state.phi.params, q),
                             encode_video(state.phi.params, v))
    fused = fused_score(state.theta.params, state.phi.params, q, v)
    assert fused == (s_t + s_p) / 2.0
    assert fused == fused_score(state.phi.params, state.theta.params, q, v)


def test_identical_branches_fuse_to_single_score():
    corpus = make_corpus()
    state = make_state(corpus)
    state.phi.params = copy.deepcopy(state.theta.params)
    q, v = corpus.text_features[1], corpus.video_features[2]
    s, _ = retrieval_score(encode_text(state.theta.params, q),
                           encode_video(state.theta.params, v))
    assert fused_score(state.theta.params, state.phi.params, q, v) == pytest.approx(s, abs=1e-15)


def test_known_average():
    # direct arithmetic contract on the fusion rule
    assert (0.4 + 0.6) / 2.0 == 0.5


# --- recall metrics ------------------------------------------------------

def test_perfect_scorer_saturates():
    n_q, n_v = 8, 6
    pairing = np.arange(n_q) % n_v
    scores = np.full((n_q, n_v), -0.5)
    scores[np.arange(n_q), pairing] = 0.9
    rep = recall_from_scores(scores, pairing)
    assert all(rep.r_at[k] == 1.0 for k in rep.r_at)
    assert rep.sum_r == pytest.approx(400.0)


def test_adversarial_scorer_zeroes():
    n_q, n_v = 10, 200
    pairing = np.zeros(n_q, dtype=int)
    scores = np.ones((n_q, n_v))
    scores[:, 0] = -1.0  # paired video ranked dead last
    rep = recall_from_scores(scores, pairing)
    assert all(rep.r_at[k] == 0.0 for k in rep.r_at)
    assert rep.sum_r == 0.0


def test_recall_matches_exhaustive_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_q, n_v = int(rng.integers(3, 12)), int(rng.integers(2, 20))
        scores = rng.uniform(-1, 1, size=(n_q, n_v))
        pairing = rng.integers(0, n_v, size=n_q)
        rep = recall_from_scores(scores, pairing)
        want = exhaustive_recall(scores, pairing)
        assert rep.r_at == want


def test_tie_breaks_by_lower_video_index():
    scores = np.array([[0.5, 0.5, 0.5]])
    assert recall_from_scores(scores, np.array([0])).r_at[1] == 1.0
    assert recall_from_scores(scores, np.array([1])).r_at[1] == 0.0


def test_recall_monotone_in_k():
    rng = np.random.default_rng(4)
    scores = rng.uniform(-1, 1, size=(15, 12))
    pairing = rng.integers(0, 12, size=15)
    rep = recall_from_scores(scores, pairing)
    assert rep.r_at[1] <= rep.r_at[5] <= rep.r_at[10] <= rep.r_at[100]


def test_k_beyond_corpus_saturates():
    rng = np.random.default_rng(5)
    scores = rng.uniform(-1, 1, size=(6, 4))  # N_v=4 < all of 5, 10, 100
    pairing = rng.integers(0, 4, size=6)
    rep = recall_from_scores(scores, pairing)
    assert rep.r_at[5] == rep.r_at[10] == rep.r_at[100] == 1.0


def test_evaluate_on_trained_state_matches_oracle():
    corpus = make_corpus(n_q=8, n_v=4)
    state, _ = train(corpus, TrainConfig(epochs=2, batch_size=4, warmup_epochs=1,
                                         embed_dim=8, seed=0))
    test_corpus = make_corpus(n_q=8, n_v=4)
    rep = evaluate(state, test_corpus)
    fused, _ = fused_pair_scores(state, test_corpus)
    assert rep.r_at == exhaustive_recall(fused, test_corpus.pairing)
    assert rep.sum_r == pytest.approx(100.0 * sum(rep.r_at.values()))


# --- detection grading and audit ------------------------------------------

def mask_of(pairs, shape=(6, 6)):
    """(N_q, N_v) detected mask with the given (query, video) pairs set."""
    mask = np.zeros(shape, dtype=bool)
    for i, j in pairs:
        mask[i, j] = True
    return mask


def test_grade_detection_exact_match():
    pairs = {(0, 1), (2, 3)}
    p, r, f1, defined = grade_detection(mask_of(pairs), pairs)
    assert (p, r, f1, defined) == (1.0, 1.0, 1.0, True)


def test_grade_detection_partial():
    p, r, f1, defined = grade_detection(mask_of({(0, 1), (0, 2)}), {(0, 1), (5, 5)})
    assert p == 0.5 and r == 0.5 and f1 == pytest.approx(0.5)
    assert defined


def test_grade_detection_empty_conventions():
    assert grade_detection(mask_of(()), {(0, 1)}) == (0.0, 0.0, 0.0, False)
    assert grade_detection(mask_of({(0, 1)}), set()) == (0.0, 0.0, 0.0, False)
    assert grade_detection(mask_of(()), None) == (0.0, 0.0, 0.0, False)


def test_audit_requires_train_split():
    corpus = generate_synthetic(
        CorpusSpec(n_q=6, n_v=3, l_q=3, l_v=4, d_t=8, d_v=9, seed=2,
                   segments_per_video=2, ambiguity_rate=0.3, noise_scale=0.2),
        split="test")
    state = make_state(make_corpus(n_q=6, n_v=3))
    with pytest.raises(ConfigError):
        audit(state, corpus)


def test_audit_histograms_and_flags():
    corpus = make_corpus(n_q=12, n_v=6, ambiguity_rate=0.5)
    state, _ = train(corpus, TrainConfig(epochs=3, batch_size=4, warmup_epochs=1,
                                         embed_dim=8, seed=1))
    rep = audit(state, corpus)
    for h in (rep.sim_hist_positive, rep.sim_hist_unpaired,
              rep.unc_hist_positive, rep.unc_hist_unpaired):
        assert h.sum() == pytest.approx(1.0)
    assert len(rep.sim_bin_edges) == len(rep.sim_hist_positive) + 1
    assert rep.planted_count == len(corpus.planted_ambiguity)
    for (qi, vj) in rep.detected_pairs:
        assert corpus.pairing[qi] != vj


def test_audit_no_planted_ground_truth_flags_undefined():
    corpus = make_corpus(ambiguity_rate=0.0)
    corpus = FeatureCorpus(corpus.text_features, corpus.video_features,
                           corpus.pairing, split="train", planted_ambiguity=None)
    state = make_state(corpus)
    rep = audit(state, corpus)
    assert rep.recall == 0.0
    assert not rep.lad_defined
    assert rep.planted_count == 0
