"""Streamed corpus scoring and the cosine kernel against the oracles.

similarity.score_corpus walks the queries in chunks and the one cosine
kernel, which the training forward shares, walks (query, video) tiles,
both sized by the one byte budget _TILE_BYTES; the budget is patched
here to reach every chunk and tile edge. Cosines, scores, best frames
(exact ties included), tau_s and detected pairs match the oracle at
tolerance 0; the closed-form uncertainty tables, and what is computed
from them, within U_TOL.
"""

import tracemalloc

import numpy as np
import pytest

from prvr import autodiff as ad
from prvr import encoder, similarity
from prvr.ambiguity import compute_thresholds, compute_uncertainty, corpus_thresholds
from prvr.corpus import CorpusSpec, generate_synthetic
from prvr.errors import NumericalError
from prvr.evaluation import audit, fused_pair_scores
from prvr.similarity import (build_corpus_map, cosine_pairs, map_retrieval_scores,
                             score_corpus)
from prvr.trainer import TrainConfig, init_state

from tests.oracles import cosine_rows, map_branch_scores, map_corpus_scores, map_thresholds


def make_corpus(n_q=37, n_v=6, l_v=4, ambiguity_rate=0.3, seed=2):
    spec = CorpusSpec(n_q=n_q, n_v=n_v, l_q=3, l_v=l_v, d_t=8, d_v=9, seed=seed,
                      segments_per_video=1, ambiguity_rate=ambiguity_rate,
                      noise_scale=0.3)
    return generate_synthetic(spec)


def make_state(corpus, seed=1):
    cfg = TrainConfig(epochs=1, batch_size=2, warmup_epochs=1, embed_dim=8, seed=seed)
    return init_state(corpus, cfg)


# ACCEPT-04's tolerance against the map's direct means
U_TOL = 1e-12


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= U_TOL


# The byte budget from one (query, video) pair's product bytes and N_v.
# A map row takes N_v * L_v * 8 bytes, less than 3 pairs at d = 8, and
# the corpora have N_q = 37, so over the shapes below: budget 1 gives
# one-row chunks and width-1 tiles; 3 pairs a ragged last chunk; 4 pairs
# ragged video tiles (N_v = 6); 2 * N_v pairs multi-row query tiles in
# multi-row chunks; 2^30 one chunk of one tile.
SIZES = {
    "one-row chunks": lambda pair, n_v: 1,
    "ragged last chunk": lambda pair, n_v: 3 * pair,
    "ragged video tiles": lambda pair, n_v: 4 * pair,
    "query tiles": lambda pair, n_v: 2 * n_v * pair,
    "single chunk": lambda pair, n_v: 1 << 30,
}


def patch_sizes(monkeypatch, sizes, state, corpus):
    pair = corpus.l_v * state.theta.params.dims.d * 8
    monkeypatch.setattr(similarity, "_TILE_BYTES", SIZES[sizes](pair, corpus.n_v))


def tie_frames(monkeypatch):
    """Make frame 2k + 1 of every video encode exactly as frame 2k.

    Patched where score_corpus and the oracle look the encoder up; equal
    input frames would not do, as the positional term tells them apart.
    """
    encode = encoder.encode_video

    def tied(params, features, *args):
        emb = encode(params, features, *args).copy()
        emb[:, 1::2] = emb[:, 0::2]
        return emb
    for module in (encoder, similarity):
        monkeypatch.setattr(module, "encode_video", tied)


SHAPES = {"base": (6, 4), "l_v=1": (6, 1), "n_v=1": (1, 4), "n_v=l_v=1": (1, 1),
          "tied frames": (6, 4)}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sizes", SIZES)
def test_streamed_scoring_matches_map_oracle(monkeypatch, sizes, shape):
    n_v, l_v = SHAPES[shape]
    corpus = make_corpus(n_v=n_v, l_v=l_v, ambiguity_rate=0.3 if n_v > 1 else 0.0)
    state = make_state(corpus)
    patch_sizes(monkeypatch, sizes, state, corpus)
    if shape == "tied frames":
        tie_frames(monkeypatch)

    params = state.theta.params
    scores, best, u_q, u_v = map_corpus_scores(params, corpus)
    got_scores, got_best, got_tables = score_corpus(params, corpus)
    assert_bitwise(got_scores, scores)
    assert_bitwise(got_best, best)
    if shape == "tied frames":
        # every maximum is tied between frames 2k and 2k + 1
        assert not (got_best % 2).any()
    assert_close(got_tables.u_q, u_q)
    assert_close(got_tables.u_v, u_v)

    tau_s, tau_u = map_thresholds(scores, best, u_q, u_v, corpus.pairing)
    tables, thr = corpus_thresholds(params, corpus)
    assert thr.tau_s == tau_s and abs(thr.tau_u - tau_u) <= U_TOL
    assert_close(tables.u_q, u_q)
    assert_close(tables.u_v, u_v)

    # the map-form wrappers run the same kernel and reducer, and average
    # the map directly
    sim_map = build_corpus_map(params, corpus)
    map_scores, map_best = map_retrieval_scores(sim_map)
    assert_bitwise(map_scores, scores)
    assert_bitwise(map_best, best)
    map_tables = compute_uncertainty(sim_map)
    assert_bitwise(map_tables.u_q, u_q)
    assert_bitwise(map_tables.u_v, u_v)
    map_thr = compute_thresholds(sim_map, corpus.pairing, map_tables)
    assert (map_thr.tau_s, map_thr.tau_u) == (tau_s, tau_u)


@pytest.mark.parametrize("sizes", ("one-row chunks", "ragged video tiles"))
def test_fused_scores_and_audit_match_map_oracle(monkeypatch, sizes):
    corpus = make_corpus(n_v=6, ambiguity_rate=0.5)
    state = make_state(corpus)
    patch_sizes(monkeypatch, sizes, state, corpus)

    (s_t, _, u_t), (s_p, _, u_p) = map_branch_scores(state, corpus)
    want_s, want_u = (s_t + s_p) / 2.0, (u_t + u_p) / 2.0
    fused_s, fused_u = fused_pair_scores(state, corpus)
    assert_bitwise(fused_s, want_s)
    assert_close(fused_u, want_u)
    scores_only, none = fused_pair_scores(state, corpus, uncertainty=False)
    assert_bitwise(scores_only, want_s)
    assert none is None

    rep = audit(state, corpus)
    pos = np.zeros(want_s.shape, dtype=bool)
    pos[np.arange(corpus.n_q), corpus.pairing] = True
    tau_s, tau_u = float(want_s[pos].mean()), float(want_u.mean())
    assert rep.tau_s == tau_s and abs(rep.tau_u - tau_u) <= U_TOL
    want = ~pos & (want_s > tau_s) & (want_u > tau_u)
    assert want.any() and rep.detected_pairs.dtype.kind == "i"
    assert rep.detected_pairs.tolist() == np.argwhere(want).tolist()


@pytest.mark.parametrize("side", ("encode_text", "encode_video"))
def test_zero_norm_embedding_raises(monkeypatch, side):
    corpus = make_corpus()
    state = make_state(corpus)
    encode = getattr(similarity, side)

    def with_zero_row(params, features, *args):
        emb = encode(params, features, *args).copy()
        emb[1] = 0.0
        return emb
    monkeypatch.setattr(similarity, side, with_zero_row)
    with pytest.raises(NumericalError):
        score_corpus(state.theta.params, corpus)
    with pytest.raises(NumericalError):
        build_corpus_map(state.theta.params, corpus)
    with pytest.raises(NumericalError):
        fused_pair_scores(state, corpus)


def test_scoring_memory_stays_below_the_map():
    # the dense map of this corpus would take n_q * n_v * l_v * 8 = 36 MiB
    n_q, n_v, l_v = 2048, 48, 48
    corpus = make_corpus(n_q=n_q, n_v=n_v, l_v=l_v, seed=4)
    state = make_state(corpus, seed=3)
    map_bytes = n_q * n_v * l_v * 8
    for run in (lambda: fused_pair_scores(state, corpus), lambda: audit(state, corpus)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < map_bytes / 3, (peak, map_bytes)


@pytest.mark.parametrize("sizes", SIZES)
def test_cosine_pairs_matches_rows_oracle(monkeypatch, sizes):
    # the training forward runs the same tiles as corpus scoring
    rng = np.random.default_rng(6)
    q, f = rng.normal(size=(37, 8)), rng.normal(size=(6, 4, 8))
    n_v, l_v, d = f.shape
    monkeypatch.setattr(similarity, "_TILE_BYTES", SIZES[sizes](l_v * d * 8, n_v))
    want = np.stack([cosine_rows(row, f) for row in q])
    assert_bitwise(cosine_pairs(q, f), want)
    assert_bitwise(ad.val(cosine_pairs(ad.Var(q), ad.Var(f))), want)


@pytest.mark.parametrize("traced", (False, True))
def test_cosine_pairs_memory_stays_below_the_product(traced):
    # a training batch: the (b, b, L_v, d) product would take 6.3 MB
    b, l_v, d = 32, 16, 48
    rng = np.random.default_rng(7)
    q, f = rng.normal(size=(b, d)), rng.normal(size=(b, l_v, d))
    if traced:
        q, f = ad.Var(q), ad.Var(f)
    product_bytes = b * b * l_v * d * 8
    tracemalloc.start()
    try:
        cosine_pairs(q, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < product_bytes / 3, (peak, product_bytes)
