"""Encoder forward contracts, the parameter layout and the gradient tape."""

import hashlib
import struct

import numpy as np
import pytest

from prvr import autodiff as ad
from prvr.encoder import (VIDEO_ATTN_RADIUS, EncoderDims, EncoderParams, collect_tape,
                          encode_text, encode_video, wrap_params)
from prvr.errors import DimensionError, NumericalError
from prvr.trainer import TrainConfig, checkpoint, init_state, resume


def test_forward_deterministic(tiny_params, tiny_dims):
    rng = np.random.default_rng(0)
    words = rng.normal(size=(tiny_dims.l_q, tiny_dims.d_t))
    q1 = encode_text(tiny_params, words)
    q2 = encode_text(tiny_params, words)
    np.testing.assert_array_equal(q1, q2)
    frames = rng.normal(size=(tiny_dims.l_v, tiny_dims.d_v))
    np.testing.assert_array_equal(encode_video(tiny_params, frames),
                                  encode_video(tiny_params, frames))


def test_zero_input_reproducible(tiny_params, tiny_dims):
    words = np.zeros((tiny_dims.l_q, tiny_dims.d_t))
    q1 = encode_text(tiny_params, words)
    q2 = encode_text(tiny_params, words)
    np.testing.assert_array_equal(q1, q2)
    assert q1.shape == (tiny_dims.d,)
    assert np.all(np.isfinite(q1))


def test_video_output_shape_and_identical_rows(tiny_dims):
    params = EncoderParams.initialize(tiny_dims, seed=5)
    # make positional rows identical so equal frames stay equal
    params.tensors["pos_video"][:] = params.tensors["pos_video"][0]
    frames = np.tile(np.linspace(0.1, 1.0, tiny_dims.d_v), (tiny_dims.l_v, 1))
    out = encode_video(params, frames)
    assert out.shape == (tiny_dims.l_v, tiny_dims.d)
    for k in range(1, tiny_dims.l_v):
        np.testing.assert_allclose(out[k], out[0], atol=1e-12)


def test_shared_footage_encodes_alike_whatever_surrounds_it():
    """A frame sees only frames within VIDEO_ATTN_RADIUS, so a run of
    footage two videos share encodes identically wherever the rest of
    each video cannot reach it, and differently at its edges."""
    r = VIDEO_ATTN_RADIUS
    start, stop = r + 1, 3 * r + 3           # shared run of 2r + 2 frames
    dims = EncoderDims(d_t=5, d_v=6, l_q=3, l_v=stop + r + 1, d=7)
    params = EncoderParams.initialize(dims, seed=8)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(dims.l_v, dims.d_v))
    b = rng.normal(size=(dims.l_v, dims.d_v))
    b[start:stop] = a[start:stop]
    ea, eb = encode_video(params, a), encode_video(params, b)
    np.testing.assert_allclose(ea[start + r:stop - r], eb[start + r:stop - r], atol=1e-12)
    for k in (start, stop - 1):
        assert not np.allclose(ea[k], eb[k], atol=1e-6)


def test_video_tokens_are_linear_projections_without_position(tiny_dims):
    """With the attention output silenced a frame embedding is the affine
    projection of its features: no ReLU, no positional term."""
    params = EncoderParams.initialize(tiny_dims, seed=5)
    params.tensors["attn_video_wo"][:] = 0.0
    frames = np.random.default_rng(6).normal(size=(tiny_dims.l_v, tiny_dims.d_v))
    out = encode_video(params, frames)
    np.testing.assert_allclose(
        out, frames @ params.tensors["video_proj_w"] + params.tensors["video_proj_b"],
        atol=1e-12)
    assert np.any(out < 0)


def test_word_order_invariant_iff_pos_rows_equal(tiny_dims):
    rng = np.random.default_rng(3)
    words = rng.normal(size=(tiny_dims.l_q, tiny_dims.d_t))
    perm = np.array([2, 0, 1])

    params = EncoderParams.initialize(tiny_dims, seed=5)
    params.tensors["pos_text"][:] = params.tensors["pos_text"][0]
    q_base = encode_text(params, words)
    q_perm = encode_text(params, words[perm])
    np.testing.assert_allclose(q_base, q_perm, atol=1e-12)

    params2 = EncoderParams.initialize(tiny_dims, seed=5)
    assert not np.allclose(params2.tensors["pos_text"][0], params2.tensors["pos_text"][1])
    q2_base = encode_text(params2, words)
    q2_perm = encode_text(params2, words[perm])
    assert not np.allclose(q2_base, q2_perm, atol=1e-9)


def test_single_word_pooling_weight_is_one():
    dims = EncoderDims(d_t=5, d_v=6, l_q=1, l_v=4, d=7)
    params = EncoderParams.initialize(dims, seed=9)
    words = np.random.default_rng(1).normal(size=(1, 5))
    # pooling over one word must return that word's post-attention vector
    from prvr.encoder import _encode_tokens
    h = _encode_tokens(params.tensors, words.astype(np.float64), "text", dims)
    q = encode_text(params, words)
    np.testing.assert_array_equal(q, h[0])


def test_shape_mismatch_raises(tiny_params, tiny_dims):
    with pytest.raises(DimensionError):
        encode_text(tiny_params, np.zeros((tiny_dims.l_q + 1, tiny_dims.d_t)))
    with pytest.raises(DimensionError):
        encode_video(tiny_params, np.zeros((tiny_dims.l_v, tiny_dims.d_v + 2)))


def test_linear_path_gradient_matches_outer_product_form(tiny_dims):
    """With attention and pooling silenced and ReLU held in its linear
    region, d(sum q)/d(text_proj_w[t, d]) = mean_l words[l, t]."""
    params = EncoderParams.initialize(tiny_dims, seed=5)
    t = params.tensors
    for name in ("attn_text_wq", "attn_text_wk", "attn_text_wv", "attn_text_wo", "pool_w"):
        t[name][:] = 0.0
    t["pool_b"] = np.zeros(())
    t["text_proj_w"][:] = np.abs(t["text_proj_w"])
    t["text_proj_b"][:] = 1.0  # keeps every preactivation positive

    rng = np.random.default_rng(2)
    words = np.abs(rng.normal(size=(tiny_dims.l_q, tiny_dims.d_t)))

    wrapped = wrap_params(params)
    q = encode_text(wrapped, words)
    tape = collect_tape(wrapped, ad.reduce_sum(q))

    expected = np.tile(words.mean(axis=0)[:, None], (1, tiny_dims.d))
    np.testing.assert_allclose(tape["text_proj_w"], expected, atol=1e-12)


def test_constant_loss_gives_zero_gradients(tiny_params):
    wrapped = wrap_params(tiny_params)
    const = ad.Var(np.asarray(3.0))
    tape = collect_tape(wrapped, const)
    assert all(np.all(g == 0.0) for g in tape.values())


def test_nonfinite_gradient_names_tensor(tiny_params, tiny_dims):
    wrapped = wrap_params(tiny_params)
    words = np.random.default_rng(0).normal(size=(tiny_dims.l_q, tiny_dims.d_t))
    q = encode_text(wrapped, words)
    bad = ad.mul(ad.reduce_sum(q), np.inf)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="text_proj_w|pos_text|attn|pool"):
            collect_tape(wrapped, bad)


def test_initialization_seeded_and_bounded(tiny_dims):
    a = EncoderParams.initialize(tiny_dims, seed=4)
    b = EncoderParams.initialize(tiny_dims, seed=4)
    c = EncoderParams.initialize(tiny_dims, seed=5)
    for name in a.names():
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
    assert any(not np.array_equal(a.tensors[name], c.tensors[name]) for name in a.names())
    bound = 1.0 / np.sqrt(tiny_dims.d_t)
    assert np.all(np.abs(a.tensors["text_proj_w"]) <= bound)
    np.testing.assert_array_equal(a.tensors["attn_text_ln_g"], np.ones(tiny_dims.d))
    np.testing.assert_array_equal(a.tensors["attn_text_ln_b"], np.zeros(tiny_dims.d))


def test_end_to_end_gradcheck_small():
    from prvr.gradcheck import check_instance
    assert check_instance(321) < 1e-4


BATCH_DIMS = (EncoderDims(d_t=5, d_v=6, l_q=3, l_v=4, d=7),
              EncoderDims(d_t=32, d_v=32, l_q=6, l_v=16, d=48),
              EncoderDims(d_t=3, d_v=2, l_q=1, l_v=1, d=4))


@pytest.mark.parametrize("dims", BATCH_DIMS)
@pytest.mark.parametrize("b", (1, 3))
def test_batched_forward_bitwise_equals_per_instance(dims, b):
    params = EncoderParams.initialize(dims, seed=21)
    rng = np.random.default_rng(b)
    words = rng.normal(size=(b, dims.l_q, dims.d_t)).astype(np.float32)
    frames = rng.normal(size=(b, dims.l_v, dims.d_v)).astype(np.float32)
    q = encode_text(params, words)
    v = encode_video(params, frames)
    assert q.shape == (b, dims.d) and v.shape == (b, dims.l_v, dims.d)
    np.testing.assert_array_equal(q, np.stack([encode_text(params, w) for w in words]))
    np.testing.assert_array_equal(v, np.stack([encode_video(params, f) for f in frames]))


def test_batched_shape_errors(tiny_params, tiny_dims):
    d = tiny_dims
    for bad in ((2, d.l_q, d.d_t + 1), (2, d.l_q + 1, d.d_t), (d.d_t,), (1, 2, d.l_q, d.d_t)):
        with pytest.raises(DimensionError):
            encode_text(tiny_params, np.zeros(bad))
    for bad in ((2, d.l_v, d.d_v - 1), (2, d.l_v - 1, d.d_v), (d.d_v,), (1, 1, d.l_v, d.d_v)):
        with pytest.raises(DimensionError):
            encode_video(tiny_params, np.zeros(bad))


def test_batched_gradients_equal_summed_per_instance_gradients(tiny_params, tiny_dims):
    rng = np.random.default_rng(7)
    b = 3
    words = rng.normal(size=(b, tiny_dims.l_q, tiny_dims.d_t))
    frames = rng.normal(size=(b, tiny_dims.l_v, tiny_dims.d_v))
    w_q = rng.normal(size=(b, tiny_dims.d))
    w_v = rng.normal(size=(b, tiny_dims.l_v, tiny_dims.d))

    def objective(q, v, i=slice(None)):
        return ad.add(ad.reduce_sum(ad.mul(q, w_q[i])), ad.reduce_sum(ad.mul(v, w_v[i])))

    wrapped = wrap_params(tiny_params)
    batched = collect_tape(wrapped, objective(encode_text(wrapped, words),
                                              encode_video(wrapped, frames)))
    summed = {name: np.zeros_like(g) for name, g in batched.items()}
    for i in range(b):
        wrapped = wrap_params(tiny_params)
        tape = collect_tape(wrapped, objective(encode_text(wrapped, words[i]),
                                               encode_video(wrapped, frames[i]), i))
        for name, g in tape.items():
            summed[name] += g
    for name, g in batched.items():
        assert np.abs(g).max() > 0, name
        np.testing.assert_allclose(g, summed[name], rtol=0, atol=1e-12, err_msg=name)


# The parameter layout as recorded constants, so that a change to any name,
# shape, init draw or checkpoint byte fails here: names in canonical order,
# then per EncoderDims the shapes in that order and the sha256 of
# EncoderParams.initialize(dims, seed=2024)'s bytes in that order.
LAYOUT_NAMES = (
    "text_proj_w", "text_proj_b", "video_proj_w", "video_proj_b", "pos_text", "pos_video",
    "attn_text_wq", "attn_text_wk", "attn_text_wv", "attn_text_wo",
    "attn_text_ln_g", "attn_text_ln_b",
    "attn_video_wq", "attn_video_wk", "attn_video_wv", "attn_video_wo",
    "attn_video_ln_g", "attn_video_ln_b",
    "pool_w", "pool_b",
)
LAYOUTS = (
    (EncoderDims(d_t=5, d_v=6, l_q=3, l_v=4, d=7),
     ((5, 7), (7,), (6, 7), (7,), (3, 7), (4, 7)) + ((7, 7),) * 4 + ((7,),) * 2
     + ((7, 7),) * 4 + ((7,),) * 3 + ((),),
     "0ff1aa2e4f7b325aa54f7c3508ea46c8d72d06c39ca6cb4c3eae90c2b364421d"),
    (EncoderDims(d_t=32, d_v=32, l_q=6, l_v=16, d=48),
     ((32, 48), (48,), (32, 48), (48,), (6, 48), (16, 48)) + ((48, 48),) * 4 + ((48,),) * 2
     + ((48, 48),) * 4 + ((48,),) * 3 + ((),),
     "294b048fbaf0842db14be9cb55985bf93bbad31a539f34a37b34e8cb60dd178a"),
)
# sha256 of the checkpoint bytes after the config block (dims, epoch, both
# branches' parameters and Adam moments) of init_state(small_corpus,
# TrainConfig(embed_dim=9, seed=7)).
INIT_CKPT_PAYLOAD_SHA256 = "eccb39dc978a31501d6ba564e1b29f48cf6a1c2a10248e490aad57973762d977"


@pytest.mark.parametrize("dims, shapes, digest", LAYOUTS)
def test_parameter_layout_and_init_draws_are_pinned(dims, shapes, digest):
    params = EncoderParams.initialize(dims, seed=2024)
    assert params.names() == LAYOUT_NAMES
    assert tuple(params.tensors) == LAYOUT_NAMES
    assert tuple(params.tensors[n].shape for n in params.names()) == shapes
    assert all(t.dtype == np.float64 for t in params.tensors.values())
    blob = b"".join(params.tensors[n].tobytes() for n in params.names())
    assert hashlib.sha256(blob).hexdigest() == digest


def test_checkpoint_payload_layout_is_pinned(small_corpus, tmp_path):
    state = init_state(small_corpus, TrainConfig(embed_dim=9, seed=7))
    path, again = tmp_path / "init.ckpt", tmp_path / "again.ckpt"
    checkpoint(state, path)
    data = path.read_bytes()
    (cfg_len,) = struct.unpack("<I", data[8:12])
    assert hashlib.sha256(data[12 + cfg_len:]).hexdigest() == INIT_CKPT_PAYLOAD_SHA256
    # resume reads the same layout back: rewriting what it read is byte-equal
    checkpoint(resume(path), again)
    assert again.read_bytes() == data
