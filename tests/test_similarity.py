"""Cosine ops and the corpus similarity map, checked against per-entry oracles."""

import numpy as np
import pytest

from prvr import autodiff as ad
from prvr import similarity
from prvr.corpus import CorpusSpec, generate_synthetic
from prvr.encoder import EncoderDims, EncoderParams, encode_text, encode_video
from prvr.errors import NumericalError
from prvr.similarity import build_corpus_map, cosine_pairs

from tests.oracles import cosine_rows, retrieval_score


def cosine(q, v):
    """cosine_pairs of one query (d,) and one frame (d,), as 1 x 1 x d shapes."""
    return float(cosine_pairs(np.asarray(q)[None], np.asarray(v)[None, None])[0, 0, 0])


def test_identical_unit_vectors():
    v = np.array([0.6, 0.8])
    assert cosine(v, v) == pytest.approx(1.0)


def test_orthogonal_vectors():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == pytest.approx(0.0)


def test_analytic_45_degree_value():
    q = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert cosine(q, v) == pytest.approx(0.70710678, abs=1e-8)


def test_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.normal(size=5), rng.normal(size=5)
        s = cosine(a, b)
        assert s == cosine(b, a)
        assert -1.0 <= s <= 1.0


def test_zero_vector_rejected():
    with pytest.raises(NumericalError):
        cosine(np.zeros(3), np.ones(3))
    with pytest.raises(NumericalError):
        retrieval_score(np.ones(3), np.zeros((2, 3)))


def test_retrieval_score_max_and_argmax():
    q = np.array([1.0, 0.0])
    frames = np.array([[0.2, 1.0], [0.9, 0.1], [0.5, 0.5]])
    score, k = retrieval_score(q, frames)
    sims = [float(cosine_rows(q, f)) for f in frames]
    assert score == max(sims)
    assert k == int(np.argmax(sims)) == 1


def test_retrieval_score_tie_breaks_low_index():
    q = np.array([1.0, 1.0])
    frames = np.tile([2.0, 2.0], (3, 1))  # identical frames -> exact ties
    score, k = retrieval_score(q, frames)
    assert score == pytest.approx(1.0)
    assert k == 0


def test_retrieval_score_single_frame():
    q = np.array([0.3, -0.7, 0.2])
    frames = np.array([[1.0, 0.5, -0.2]])
    score, k = retrieval_score(q, frames)
    assert k == 0
    assert score == cosine_rows(q, frames[0])


def test_exhaustive_max_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        l_v = int(rng.integers(1, 6))
        q = rng.normal(size=4)
        frames = rng.normal(size=(l_v, 4))
        score, k = retrieval_score(q, frames)
        sims = [float(cosine_rows(q, frames[z])) for z in range(l_v)]
        assert score == max(sims)
        assert k == sims.index(max(sims))


def make_tiny_corpus(n_q=3, n_v=2, l_q=2, l_v=3):
    spec = CorpusSpec(n_q=n_q, n_v=n_v, l_q=l_q, l_v=l_v, d_t=6, d_v=7, seed=3,
                      segments_per_video=1, ambiguity_rate=0.0, noise_scale=0.3)
    return generate_synthetic(spec)


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("side", ("query", "frame"))
def test_cosine_pairs_rejects_zero_embedding(side, traced):
    rng = np.random.default_rng(3)
    q, f = rng.normal(size=(3, 4)), rng.normal(size=(2, 5, 4))
    if side == "query":
        q[1] = 0.0
    else:
        f[1, 2] = 0.0
    if traced:
        q, f = ad.Var(q), ad.Var(f)
    with pytest.raises(NumericalError):
        cosine_pairs(q, f)


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("side", ("query", "frame"))
def test_cosine_pairs_rejects_overflowing_norm(side, traced):
    # every entry is finite but the squares overflow, so the norm is inf
    # and the unit row would be all zeros
    rng = np.random.default_rng(3)
    q, f = rng.normal(size=(3, 4)), rng.normal(size=(2, 5, 4))
    if side == "query":
        q[1] *= 1e300
    else:
        f[1, 2] *= 1e300
    assert np.isfinite(q).all() and np.isfinite(f).all()
    if traced:
        q, f = ad.Var(q), ad.Var(f)
    with pytest.raises(NumericalError, match="non-finite embedding norm"):
        cosine_pairs(q, f)


def test_corpus_map_matches_per_entry_oracle_exactly():
    corpus = make_tiny_corpus()
    dims = EncoderDims(d_t=corpus.d_t, d_v=corpus.d_v, l_q=corpus.l_q,
                       l_v=corpus.l_v, d=8)
    params = EncoderParams.initialize(dims, seed=77)
    sim_map = build_corpus_map(params, corpus)
    assert sim_map.m.shape == (corpus.n_q, corpus.n_v, corpus.l_v)
    # literal brute-force loop through the public per-instance ops
    for x in range(corpus.n_q):
        q = encode_text(params, corpus.text_features[x])
        for y in range(corpus.n_v):
            v = encode_video(params, corpus.video_features[y])
            for z in range(corpus.l_v):
                assert sim_map.m[x, y, z] == cosine_rows(q, v[z]), (x, y, z)


def test_corpus_map_deterministic_and_bounded():
    corpus = make_tiny_corpus(n_q=4, n_v=3)
    dims = EncoderDims(corpus.d_t, corpus.d_v, corpus.l_q, corpus.l_v, 8)
    params = EncoderParams.initialize(dims, seed=1)
    m1 = build_corpus_map(params, corpus).m
    m2 = build_corpus_map(params, corpus).m
    np.testing.assert_array_equal(m1, m2)
    assert np.all(m1 <= 1.0) and np.all(m1 >= -1.0)


def test_cosine_pairs_traced_matches_untraced_and_scalar():
    # traced and untraced are one GEMM with the same bits; against the
    # per-entry pairwise sum a GEMM dot of unit vectors is off by at most
    # 2 gamma_d ~ d eps (score_corpus's tol comment), inside 2 (d + 2) eps
    rng = np.random.default_rng(9)
    q = rng.normal(size=(3, 5))
    f = rng.normal(size=(2, 4, 5))
    raw = cosine_pairs(q, f)
    traced = cosine_pairs(ad.Var(q), ad.Var(f))
    np.testing.assert_array_equal(raw, ad.val(traced))
    bound = 2 * (q.shape[1] + 2) * np.finfo(np.float64).eps
    for x in range(3):
        for y in range(2):
            for z in range(4):
                assert abs(raw[x, y, z] - cosine_rows(q[x], f[y, z])) <= bound


def test_cosine_pairs_gradient():
    rng = np.random.default_rng(11)
    q = rng.normal(size=(2, 4))
    f = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(2, 2, 3))

    def build(qv):
        return ad.reduce_sum(ad.mul(cosine_pairs(qv, f), w))

    v = ad.Var(q)
    grads = ad.backward(build(v))
    got = grads[id(v)]

    h = 1e-6
    want = np.zeros_like(q)
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            qp, qm = q.copy(), q.copy()
            qp[i, j] += h
            qm[i, j] -= h
            want[i, j] = (float(build(qp)) - float(build(qm))) / (2 * h)
    np.testing.assert_allclose(got, want, atol=1e-7)


def test_cosine_pairs_frame_gradient():
    rng = np.random.default_rng(12)
    q = rng.normal(size=(3, 4))
    f = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(3, 2, 3))

    def build(fv, qv=q):
        return ad.reduce_sum(ad.mul(cosine_pairs(qv, fv), w))

    qv, fv = ad.Var(q), ad.Var(f)
    grads = ad.backward(build(fv, qv))
    got = grads[id(fv)]

    h = 1e-6
    want = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        fp, fm = f.copy(), f.copy()
        fp[idx] += h
        fm[idx] -= h
        want[idx] = (float(build(fp)) - float(build(fm))) / (2 * h)
    np.testing.assert_allclose(got, want, atol=1e-7)
    assert id(qv) in grads


@pytest.mark.parametrize("tile_bytes", (1, None))
@pytest.mark.parametrize("q_lead, f_lead", (((3,), ()), ((), (2,)), ((2, 1), (1, 3))))
def test_unit_dots_on_leading_axes_equal_per_slice_calls(monkeypatch, tile_bytes, q_lead,
                                                         f_lead):
    # tolerance 0: leading axes on either operand broadcast through
    # np.matmul, one GEMM of the same shape per leading index, and the
    # byte budget (1 or the default) does not reach the kernel
    if tile_bytes is not None:
        monkeypatch.setattr(similarity, "_TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(31)
    qu = rng.normal(size=q_lead + (5, 6))
    fu = rng.normal(size=f_lead + (4, 3, 6))
    lead = np.broadcast_shapes(q_lead, f_lead)
    got = similarity._unit_dots(qu, fu)
    assert got.shape == lead + (5, 4, 3)
    qs, fs = np.broadcast_to(qu, lead + (5, 6)), np.broadcast_to(fu, lead + (4, 3, 6))
    g = rng.normal(size=got.shape)
    want = [np.zeros_like(qu), np.zeros_like(fu)]
    for pos in np.ndindex(*lead):
        np.testing.assert_array_equal(got[pos], similarity._unit_dots(qs[pos], fs[pos]))
        # each slice's gradient lands on the operand cell it was broadcast from
        vs = [ad.Var(qs[pos]), ad.Var(fs[pos])]
        grads = ad.backward(ad.reduce_sum(ad.mul(similarity._unit_dots(*vs), g[pos])))
        for w, v, own in zip(want, vs, (q_lead, f_lead)):
            at = tuple(p if n > 1 else 0 for p, n in zip(pos[len(lead) - len(own):], own))
            w[at] += grads[id(v)]
    vs = [ad.Var(qu), ad.Var(fu)]
    grads = ad.backward(ad.reduce_sum(ad.mul(similarity._unit_dots(*vs), g)))
    for w, v in zip(want, vs):
        np.testing.assert_allclose(grads[id(v)], w, rtol=1e-12, atol=1e-14)
