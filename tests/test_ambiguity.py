"""Uncertainty tables, thresholds, and detection vs literal brute force."""

import numpy as np
import pytest

from prvr.ambiguity import (Thresholds, UncertaintyTables, compute_thresholds,
                            compute_uncertainty, detect_frame_ambiguity,
                            detect_video_ambiguity)
from prvr.corpus import CorpusSpec, generate_synthetic
from prvr.encoder import EncoderDims, EncoderParams
from prvr.errors import ConfigError
from prvr.similarity import build_corpus_map

from tests.oracles import frame_uncertainty


# --- uncertainty -------------------------------------------------------

def test_constant_map_returns_constant():
    m = np.full((4, 3, 2), 0.5)
    t = compute_uncertainty(m)
    np.testing.assert_array_equal(t.u_q, np.full(4, 0.5))
    np.testing.assert_array_equal(t.u_v, np.full((3, 2), 0.5))


def test_direct_average_example():
    m = np.array([[[0.1], [0.5]]])  # N_q=1, N_v=2, L_v=1
    t = compute_uncertainty(m)
    np.testing.assert_allclose(t.u_q, [0.3])
    np.testing.assert_allclose(t.u_v, [[0.1], [0.5]])


def test_duplicated_queries_leave_video_uncertainty_unchanged():
    rng = np.random.default_rng(0)
    m = rng.uniform(-1, 1, size=(5, 4, 3))
    doubled = np.concatenate([m, m], axis=0)
    a = compute_uncertainty(m)
    b = compute_uncertainty(doubled)
    np.testing.assert_allclose(a.u_v, b.u_v, atol=1e-15)


def test_uncertainty_matches_loop_oracle():
    rng = np.random.default_rng(1)
    m = rng.uniform(-1, 1, size=(6, 5, 4))
    t = compute_uncertainty(m)
    n_q, n_v, l_v = m.shape
    for x in range(n_q):
        want = sum(m[x, y, z] for y in range(n_v) for z in range(l_v)) / (n_v * l_v)
        assert abs(t.u_q[x] - want) < 1e-12
    for y in range(n_v):
        for z in range(l_v):
            want = sum(m[x, y, z] for x in range(n_q)) / n_q
            assert abs(t.u_v[y, z] - want) < 1e-12


def test_pair_and_frame_uncertainty_arithmetic():
    t = UncertaintyTables(u_q=np.array([0.4, 0.0]),
                          u_v=np.array([[0.2, 0.6], [0.4, -0.2]]))
    # a pair's uncertainty is the frame uncertainty at its best frame
    assert frame_uncertainty(t, 0, 0, 0) == pytest.approx(0.3)
    assert frame_uncertainty(t, 1, 1, 0) == pytest.approx(0.2)
    # u_q == u_v entry -> result equals that value
    assert frame_uncertainty(t, 0, 1, 0) == pytest.approx(0.4)
    with pytest.raises(IndexError):
        frame_uncertainty(t, 5, 0, 0)
    with pytest.raises(IndexError):
        frame_uncertainty(t, 0, 0, 9)


# --- thresholds --------------------------------------------------------

def test_tau_s_is_mean_of_positive_scores():
    # two queries, two videos; scores arranged for known positives
    m = np.zeros((2, 2, 1))
    m[0, 0, 0], m[0, 1, 0] = 0.4, -0.5
    m[1, 1, 0], m[1, 0, 0] = 0.6, -0.1
    pairing = np.array([0, 1])
    tables = compute_uncertainty(m)
    thr = compute_thresholds(m, pairing, tables)
    assert thr.tau_s == pytest.approx(0.5)


def test_tau_u_constant_case():
    m = np.full((3, 2, 2), 0.25)
    tables = compute_uncertainty(m)
    thr = compute_thresholds(m, np.array([0, 1, 0]), tables)
    assert thr.tau_u == pytest.approx(0.25)


def test_tau_u_matches_loop_oracle():
    rng = np.random.default_rng(2)
    m = rng.uniform(-1, 1, size=(5, 4, 3))
    pairing = rng.integers(0, 4, size=5)
    tables = compute_uncertainty(m)
    thr = compute_thresholds(m, pairing, tables)
    total = 0.0
    for i in range(5):
        for j in range(4):
            k_hat = int(np.argmax(m[i, j]))
            total += (tables.u_q[i] + tables.u_v[j, k_hat]) / 2.0
    assert thr.tau_u == pytest.approx(total / 20.0, abs=1e-12)


def test_thresholds_change_when_params_change():
    spec = CorpusSpec(n_q=6, n_v=3, l_q=2, l_v=4, d_t=6, d_v=7, seed=1,
                      segments_per_video=2, ambiguity_rate=0.3, noise_scale=0.2)
    corpus = generate_synthetic(spec)
    dims = EncoderDims(corpus.d_t, corpus.d_v, corpus.l_q, corpus.l_v, 8)
    p1 = EncoderParams.initialize(dims, seed=1)
    p2 = EncoderParams.initialize(dims, seed=2)
    thrs = []
    for p in (p1, p2):
        sim_map = build_corpus_map(p, corpus)
        tables = compute_uncertainty(sim_map)
        thrs.append(compute_thresholds(sim_map, corpus.pairing, tables))
    assert thrs[0].tau_s != thrs[1].tau_s
    assert thrs[0].tau_u != thrs[1].tau_u


def test_empty_train_set_rejected():
    m = np.zeros((1, 1, 1))
    tables = compute_uncertainty(m)
    with pytest.raises(ConfigError):
        compute_thresholds(m, np.array([], dtype=np.int64), tables)


# --- detection ---------------------------------------------------------

from tests.oracles import brute_force_video_sets


def random_batch(rng, b, l_v, n_q=None, n_v=None):
    n_q = n_q or b
    n_v = n_v or b
    videos = rng.choice(n_v, size=b, replace=True)
    batch = [(int(rng.integers(n_q)), int(v)) for v in videos]
    scores = rng.uniform(-1, 1, size=(b, b))
    best = rng.integers(0, l_v, size=(b, b))
    tables = UncertaintyTables(u_q=rng.uniform(-1, 1, size=n_q),
                               u_v=rng.uniform(-1, 1, size=(n_v, l_v)))
    thr = Thresholds(tau_s=float(rng.uniform(-0.5, 0.5)),
                     tau_u=float(rng.uniform(-0.5, 0.5)))
    return batch, scores, best, tables, thr


def test_video_detection_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(60):
        b = int(rng.integers(2, 9))
        batch, scores, best, tables, thr = random_batch(rng, b, l_v=5, n_q=20, n_v=10)
        sets = detect_video_ambiguity(batch, scores, best, tables, thr)
        want = brute_force_video_sets(batch, scores, best, tables, thr)
        got = {(i, j) for i in range(b) for j in np.nonzero(sets.amb[i])[0]}
        assert got == want
        got_cols = {(i, j) for j in range(b) for i in np.nonzero(sets.amb[:, j])[0]}
        assert got_cols == want


def test_detection_partition_and_exclusions():
    rng = np.random.default_rng(4)
    for _ in range(30):
        b = int(rng.integers(2, 8))
        batch, scores, best, tables, thr = random_batch(rng, b, l_v=4, n_q=16, n_v=5)
        sets = detect_video_ambiguity(batch, scores, best, tables, thr)
        v_idx = [v for _, v in batch]
        for i in range(b):
            amb = set(np.nonzero(sets.amb[i])[0])
            neg = set(np.nonzero(sets.neg[i])[0])
            pos = {j for j in range(b) if v_idx[j] == v_idx[i]}
            assert amb & neg == set()
            assert amb & pos == set()
            assert neg & pos == set()
            assert amb | neg | pos == set(range(b))


def test_threshold_saturation_empties_ambiguous_sets():
    rng = np.random.default_rng(5)
    batch, scores, best, tables, _ = random_batch(rng, 5, l_v=3)
    thr = Thresholds(tau_s=2.0, tau_u=2.0)  # above every possible value
    sets = detect_video_ambiguity(batch, scores, best, tables, thr)
    assert not sets.amb.any()
    v_idx = [v for _, v in batch]
    for i in range(5):
        unpaired = {j for j in range(5) if v_idx[j] != v_idx[i]}
        assert set(np.nonzero(sets.neg[i])[0]) == unpaired


def test_specific_threshold_scan_example():
    # pairs (s, u) = (0.9, 0.5), (0.9, 0.1), (0.3, 0.5) vs thresholds (0.5, 0.3):
    # only the first passes both
    batch = [(0, 0), (1, 1), (2, 2), (3, 3)]
    scores = np.full((4, 4), -1.0)
    best = np.zeros((4, 4), dtype=int)
    u_q = np.zeros(4)
    u_v = np.zeros((4, 1))
    scores[0, 1] = 0.9
    u_q[0], u_v[1, 0] = 0.5, 0.5      # u = 0.5
    scores[0, 2] = 0.9
    u_v[2, 0] = 0.2                    # u = 0.35... adjust below
    scores[0, 3] = 0.3
    u_v[3, 0] = 0.5                    # u = 0.5
    tables = UncertaintyTables(u_q=u_q, u_v=u_v)
    # make pair 2's u exactly 0.1: u_q[0]=0.5 -> u_v must be -0.3
    u_v[2, 0] = -0.3
    thr = Thresholds(tau_s=0.5, tau_u=0.3)
    sets = detect_video_ambiguity(batch, scores, best, tables, thr)
    assert np.nonzero(sets.amb[0])[0].tolist() == [1]
    assert np.nonzero(sets.neg[0])[0].tolist() == [2, 3]


def test_positive_pair_never_ambiguous_even_above_thresholds():
    batch = [(0, 0), (1, 1)]
    scores = np.full((2, 2), 0.99)
    best = np.zeros((2, 2), dtype=int)
    tables = UncertaintyTables(u_q=np.full(2, 0.9), u_v=np.full((2, 1), 0.9))
    thr = Thresholds(tau_s=0.0, tau_u=0.0)
    sets = detect_video_ambiguity(batch, scores, best, tables, thr)
    assert 0 not in np.nonzero(sets.amb[0])[0]
    assert 1 in np.nonzero(sets.amb[0])[0]


def test_raising_thresholds_is_monotone():
    rng = np.random.default_rng(6)
    for _ in range(20):
        batch, scores, best, tables, thr = random_batch(rng, 6, l_v=4)
        sets_lo = detect_video_ambiguity(batch, scores, best, tables, thr)
        thr_hi = Thresholds(tau_s=thr.tau_s + 0.2, tau_u=thr.tau_u + 0.2)
        sets_hi = detect_video_ambiguity(batch, scores, best, tables, thr_hi)
        for i in range(6):
            assert set(np.nonzero(sets_hi.amb[i])[0]) <= set(np.nonzero(sets_lo.amb[i])[0])


# --- frame-level detection ----------------------------------------------

from tests.oracles import brute_force_frame_sets


def test_frame_detection_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        b = int(rng.integers(2, 7))
        l_v = int(rng.integers(1, 6))
        batch = [(i, int(rng.integers(0, 4))) for i in range(b)]
        frame_sims = rng.uniform(-1, 1, size=(b, b, l_v))
        tables = UncertaintyTables(u_q=rng.uniform(-1, 1, size=b),
                                   u_v=rng.uniform(-1, 1, size=(4, l_v)))
        thr = Thresholds(tau_s=float(rng.uniform(-0.5, 0.5)),
                         tau_u=float(rng.uniform(-0.5, 0.5)))
        fsets = detect_frame_ambiguity(batch, frame_sims, tables, thr)
        want = brute_force_frame_sets(batch, frame_sims, tables, thr)
        for p in range(b):
            k_hat, amb, amb_q = want[p]
            assert fsets.best_frame[p] == k_hat
            amb_f = set(np.nonzero(fsets.amb_frame_mask[p])[0])
            neg_f = set(np.nonzero(fsets.neg_frame_mask[p])[0])
            assert amb_f == amb
            assert set(np.nonzero(fsets.amb_query_mask[p])[0]) == amb_q
            assert k_hat not in amb_f
            assert k_hat not in neg_f
            assert amb_f | neg_f | {k_hat} == set(range(l_v))


def test_single_frame_video_has_empty_frame_sets():
    batch = [(0, 0), (1, 1)]
    frame_sims = np.random.default_rng(8).uniform(-1, 1, size=(2, 2, 1))
    tables = UncertaintyTables(u_q=np.zeros(2), u_v=np.zeros((2, 1)))
    thr = Thresholds(tau_s=-2.0, tau_u=-2.0)
    fsets = detect_frame_ambiguity(batch, frame_sims, tables, thr)
    assert fsets.amb_frame_mask.shape == fsets.neg_frame_mask.shape == (2, 1)
    assert not fsets.amb_frame_mask.any() and not fsets.neg_frame_mask.any()


def test_all_frames_equal_best_become_ambiguous_under_low_thresholds():
    batch = [(0, 0)]
    frame_sims = np.full((1, 1, 4), 0.8)
    tables = UncertaintyTables(u_q=np.array([0.5]), u_v=np.full((1, 4), 0.5))
    thr = Thresholds(tau_s=0.1, tau_u=0.1)
    fsets = detect_frame_ambiguity(batch, frame_sims, tables, thr)
    assert fsets.best_frame[0] == 0
    assert np.nonzero(fsets.amb_frame_mask[0])[0].tolist() == [1, 2, 3]


def test_high_thresholds_make_all_nonbest_frames_negative():
    batch = [(0, 0)]
    frame_sims = np.random.default_rng(9).uniform(-1, 1, size=(1, 1, 5))
    tables = UncertaintyTables(u_q=np.zeros(1), u_v=np.zeros((1, 5)))
    thr = Thresholds(tau_s=2.0, tau_u=2.0)
    fsets = detect_frame_ambiguity(batch, frame_sims, tables, thr)
    k_hat = int(fsets.best_frame[0])
    assert np.nonzero(fsets.amb_frame_mask[0])[0].tolist() == []
    assert set(np.nonzero(fsets.neg_frame_mask[0])[0]) == set(range(5)) - {k_hat}
