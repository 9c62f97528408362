"""Streamed corpus scoring and the cosine kernel against the oracles.

similarity.score_corpus encodes in chunks and walks (query, video) tiles,
picking candidate frames with one GEMM per tile. Both are sized by the one
byte budget _TILE_BYTES, which is patched here to reach every chunk and
tile edge. Scores, best frames (exact ties and near-ties included), map
cosines, tau_s and detected pairs match the oracle at tolerance 0; the
closed-form uncertainty tables, and what is computed from them, within
U_TOL. The training kernel, one GEMM that the budget does not reach,
matches the oracle within the GEMM rounding bound.
"""

import tracemalloc
from types import SimpleNamespace

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


# The byte budget from one (query, video) pair's bytes L_v * d * 8 and
# N_v. The corpora have N_q = 37 and d = 8. score_corpus's tiles take
# (L_v + d) * 8 bytes a pair and its encode chunks L * max(d, d_in, L) * 8
# bytes a row: budget 1 gives 1 x 1 tiles (a GEMV) and one-row encode
# chunks; 3, 4 and 2 * N_v pairs ragged query tiles and ragged query
# chunks; 4 * N_v pairs tiles ragged in queries and in videos. 2^30 gives
# one tile and one chunk.
SIZES = {
    "one-row chunks": lambda pair, n_v: 1,
    "ragged last chunk": lambda pair, n_v: 3 * pair,
    "ragged video tiles": lambda pair, n_v: 4 * pair,
    "query tiles": lambda pair, n_v: 2 * n_v * pair,
    "ragged score tiles": lambda pair, n_v: 4 * n_v * pair,
    "single chunk": lambda pair, n_v: 1 << 30,
}


def patch_sizes(monkeypatch, sizes, state, corpus):
    pair = corpus.l_v * state.theta.params.dims.d * 8
    monkeypatch.setattr(similarity, "_TILE_BYTES", SIZES[sizes](pair, corpus.n_v))


def tie_frames(monkeypatch, near=False):
    """Make frame 2k + 1 of every video encode as frame 2k: exactly, or
    with near, plus a few ulps.

    Patched where score_corpus and the oracle look the encoder up; equal
    input frames would not do, as the positional term tells them apart.
    Near-tied cosines differ by a few eps, inside the GEMM's rounding, so
    the GEMM may rank the two frames the other way round from the pairwise
    sums. The ulps depend only on the position in the video, so chunked
    and whole encodes agree.
    """
    encode = encoder.encode_video

    def tied(params, features, *args):
        emb = encode(params, features, *args).copy()
        twin = emb[:, 0::2]
        if near:
            ulps = np.arange(twin[0].size).reshape(twin.shape[1:]) % 7 - 3
            twin = twin + ulps * np.spacing(twin)
        emb[:, 1::2] = twin
        return emb
    for module in (encoder, similarity):
        monkeypatch.setattr(module, "encode_video", tied)


def count_rescored(monkeypatch):
    """A list that grows by the pairs of each autodiff.reduce_max call."""
    rescored, reduce_max = [], ad.reduce_max

    def counting(dots, axis):
        rescored.append(len(dots))
        return reduce_max(dots, axis)
    monkeypatch.setattr(ad, "reduce_max", counting)
    return rescored


SHAPES = {"base": (6, 4), "l_v=1": (6, 1), "n_v=1": (1, 4), "n_v=l_v=1": (1, 1),
          "tied frames": (6, 4), "near-tied frames": (6, 4)}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sizes", SIZES)
def test_streamed_scoring_matches_map_oracle(monkeypatch, sizes, shape):
    n_v, l_v = SHAPES[shape]
    corpus = make_corpus(n_v=n_v, l_v=l_v, ambiguity_rate=0.3 if n_v > 1 else 0.0)
    state = make_state(corpus)
    patch_sizes(monkeypatch, sizes, state, corpus)
    tied = shape.endswith("tied frames")
    if tied:
        tie_frames(monkeypatch, near=shape == "near-tied frames")
        rescored = count_rescored(monkeypatch)

    params = state.theta.params
    scores, best, u_q, u_v = map_corpus_scores(params, corpus)
    got_scores, got_best, got_tables = score_corpus(params, corpus)
    assert_bitwise(got_scores, scores)
    assert_bitwise(got_best, best)
    if tied:
        # every pair's best frame has a tied or near-tied twin, so every
        # pair has several candidates and is rescored frame by frame
        assert sum(rescored) == corpus.n_q * corpus.n_v
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


@pytest.mark.parametrize("d", (1, 2, 7, 8, 9, 48, 64))
def test_gemm_error_stays_inside_half_the_candidate_tolerance(d):
    # score_corpus's tol = 4 (d + 2) eps assumes a GEMM dot and a pairwise
    # sum of unit vectors differ by at most 2 gamma_d ~ d eps, half of tol
    rng = np.random.default_rng(d)
    unit = lambda x: x / np.sqrt((x * x).sum(axis=-1, keepdims=True))
    q, f = unit(rng.normal(size=(40, d))), unit(rng.normal(size=(64, d)))
    pairwise = (q[:, None, :] * f).sum(axis=-1)
    tol = 4 * (d + 2) * np.finfo(np.float64).eps
    gemv = np.stack([f @ row for row in q])
    for gemm in ((f @ q.T).T, q @ f.T, gemv):
        assert np.abs(gemm - pairwise).max() < tol / 2


def test_scoring_working_set_stays_within_two_tile_budgets(monkeypatch):
    # ACCEPT shapes with precomputed embeddings, so only scoring allocates;
    # the corpus's features are row indices into them, and params carries
    # only the width that sizes the encode chunks
    n_q, n_v, l_v, d = 200, 100, 16, 48
    rng = np.random.default_rng(8)
    emb_q, emb_v = rng.normal(size=(n_q, d)), rng.normal(size=(n_v, l_v, d))
    monkeypatch.setattr(similarity, "encode_text", lambda params, rows: emb_q[rows[:, 0, 0]])
    monkeypatch.setattr(similarity, "encode_video", lambda params, rows: emb_v[rows[:, 0, 0]])
    corpus = SimpleNamespace(text_features=np.arange(n_q).reshape(n_q, 1, 1),
                             video_features=np.arange(n_v).reshape(n_v, 1, 1))
    tracemalloc.start()
    try:
        scores, best, _ = score_corpus(SimpleNamespace(dims=SimpleNamespace(d=d)), corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == best.shape == (n_q, n_v)
    outputs = scores.nbytes + best.nbytes
    encodes = emb_q.nbytes + emb_v.nbytes
    assert peak - outputs - encodes < 2 * similarity._TILE_BYTES, (peak, outputs, encodes)


@pytest.mark.parametrize("side", ("encode_text", "encode_video"))
def test_unit_encode_peak_stays_within_a_few_tile_budgets(monkeypatch, side):
    # encode chunks are sized by their widest float64 intermediate, about
    # _TILE_BYTES; one chunk's encoder holds about eight intermediates that
    # wide, and the chunks' list and their concatenation hold the output
    # twice. Chunks sized by float32 feature bytes took 15-23 budgets more.
    monkeypatch.setattr(similarity, "_TILE_BYTES", 1 << 16)
    corpus = generate_synthetic(CorpusSpec(n_q=200, n_v=100, l_q=6, l_v=16, d_t=32, d_v=32,
                                           seed=1, segments_per_video=4, ambiguity_rate=0.3,
                                           noise_scale=0.35))
    params = encoder.EncoderParams.initialize(encoder.EncoderDims(32, 32, 6, 16, 48), seed=3)
    features = corpus.text_features if side == "encode_text" else corpus.video_features
    tracemalloc.start()
    try:
        out = similarity._unit_encode(getattr(encoder, side), params, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape[0] == len(features)
    assert peak - 2 * out.nbytes < 10 * similarity._TILE_BYTES, (peak, out.nbytes)


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
    # the training kernel is one GEMM under every byte budget, so its bits
    # do not move with _TILE_BYTES; each cosine lies within 2 (d + 2) eps
    # of the oracle's pairwise sum, the GEMM bound score_corpus's tol derives
    rng = np.random.default_rng(6)
    q, f = rng.normal(size=(37, 8)), rng.normal(size=(6, 4, 8))
    n_v, l_v, d = f.shape
    default = cosine_pairs(q, f)
    monkeypatch.setattr(similarity, "_TILE_BYTES", SIZES[sizes](l_v * d * 8, n_v))
    got = cosine_pairs(q, f)
    assert_bitwise(got, default)
    assert_bitwise(ad.val(cosine_pairs(ad.Var(q), ad.Var(f))), got)
    want = np.stack([cosine_rows(row, f) for row in q])
    assert np.abs(got - want).max() <= 2 * (d + 2) * np.finfo(np.float64).eps


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
