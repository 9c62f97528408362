"""Text and video encoders with learnable parameters, and their gradients.

Both sides project their features linearly into the embedding space and
apply one pre-norm single-head self-attention layer with a residual
connection. Text adds its positional encoding to the word tokens, attends
over all words and pools them by softmax attention. Video frames attend
only to frames within VIDEO_ATTN_RADIUS of themselves, and the video
positional encoding enters the attention queries and keys, never the
frame tokens. So a frame's embedding depends on its own neighbourhood of
footage and not on the rest of the video: footage shared by two videos
encodes alike in both, which is what max-over-frames scoring and the
ambiguity detection compare. Everything runs in float64. Forward
functions take an EncoderParams, whose tensors are arrays or, inside a
training step, autodiff Vars (wrap_params), and features of one instance
or a stack of them along a leading batch axis. Every op works on the last
two axes (batched matmul, per-row reductions), so an instance's output is
bitwise the same alone or inside any batch. For the same reason a tensor
may carry extra leading axes (grad-check's probe axis): they broadcast to
the left of every activation axis and reach the outputs. One table,
_param_specs, declares every tensor's name, shape and init rule.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, NumericalError

LN_EPS = 1e-5

# Frames a video frame attends to on each side of itself. Segments of
# shared content span several frames, so a frame's neighbours mostly show
# the same content and attending to them averages out per-frame noise.
VIDEO_ATTN_RADIUS = 1


@dataclass(frozen=True)
class EncoderDims:
    d_t: int
    d_v: int
    l_q: int
    l_v: int
    d: int


def _param_specs(dims: EncoderDims):
    """(name, shape, init) of every tensor, in the canonical order that
    drives the init draws, the checkpoint layout and the gradient tape. Do
    not reorder. init is the fan-in of a uniform ±1/sqrt(fan-in) draw, or
    np.ones / np.zeros for the layer-norm gain and bias."""
    d = dims.d
    specs = [("text_proj_w", (dims.d_t, d), dims.d_t), ("text_proj_b", (d,), dims.d_t),
             ("video_proj_w", (dims.d_v, d), dims.d_v), ("video_proj_b", (d,), dims.d_v),
             ("pos_text", (dims.l_q, d), d), ("pos_video", (dims.l_v, d), d)]
    for side in ("text", "video"):
        specs += [(f"attn_{side}_{m}", (d, d), d) for m in ("wq", "wk", "wv", "wo")]
        specs += [(f"attn_{side}_ln_g", (d,), np.ones), (f"attn_{side}_ln_b", (d,), np.zeros)]
    return specs + [("pool_w", (d,), d), ("pool_b", (), d)]


@dataclass(eq=False)
class EncoderParams:
    """All learnable weights of one branch: its dims and a name -> tensor
    dict in canonical order. The tensors are float64 arrays, or autodiff
    Vars of them inside a training step (wrap_params)."""

    dims: EncoderDims
    tensors: dict

    @classmethod
    def initialize(cls, dims: EncoderDims, seed: int) -> "EncoderParams":
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF]))
        tensors = {}
        for name, shape, init in _param_specs(dims):
            if callable(init):
                tensors[name] = init(shape)
            else:
                bound = 1.0 / np.sqrt(init)
                tensors[name] = rng.uniform(-bound, bound, size=shape)
        return cls(dims, tensors)

    def names(self):
        return tuple(name for name, _, _ in _param_specs(self.dims))


def wrap_params(params: EncoderParams) -> EncoderParams:
    """Wrap every parameter tensor in an autodiff Var for one training step."""
    return EncoderParams(params.dims, {name: ad.Var(t) for name, t in params.tensors.items()})


def _layernorm(x, g, b):
    mu = ad.reduce_mean(x, axis=-1, keepdims=True)
    xc = ad.sub(x, mu)
    var = ad.reduce_mean(ad.mul(xc, xc), axis=-1, keepdims=True)
    return ad.add(ad.mul(ad.div(xc, ad.sqrt(ad.add(var, LN_EPS))), g), b)


@functools.lru_cache(maxsize=None)
def _band_mask(length, radius):
    """Additive attention mask: 0 within `radius` of the diagonal, -inf elsewhere.

    Cached per shape (one entry per video length in use) and read-only,
    since every call shares it.
    """
    idx = np.arange(length)
    mask = np.where(np.abs(idx[:, None] - idx[None, :]) <= radius, 0.0, -np.inf)
    mask.flags.writeable = False
    return mask


def _swap_last(x):
    nd = np.ndim(ad.val(x))
    return ad.transpose(x, tuple(range(nd - 2)) + (nd - 1, nd - 2))


def _attention(tensors, x, prefix, d, qk_pos=None, mask=None):
    n = _layernorm(x, tensors[f"{prefix}_ln_g"], tensors[f"{prefix}_ln_b"])
    qk = n if qk_pos is None else ad.add(n, qk_pos)
    q = ad.matmul(qk, tensors[f"{prefix}_wq"])
    k = ad.matmul(qk, tensors[f"{prefix}_wk"])
    v = ad.matmul(n, tensors[f"{prefix}_wv"])
    scores = ad.div(ad.matmul(q, _swap_last(k)), np.sqrt(float(d)))
    if mask is not None:
        scores = ad.add(scores, mask)
    attn = ad.softmax(scores, axis=-1)
    out = ad.matmul(ad.matmul(attn, v), tensors[f"{prefix}_wo"])
    return ad.add(x, out)


def _encode_tokens(tensors, x, side, dims):
    h = ad.add(ad.matmul(x, tensors[f"{side}_proj_w"]), tensors[f"{side}_proj_b"])
    if side == "text":
        return _attention(tensors, ad.add(h, tensors["pos_text"]), "attn_text", dims.d)
    return _attention(tensors, h, "attn_video", dims.d, qk_pos=tensors["pos_video"],
                      mask=_band_mask(dims.l_v, VIDEO_ATTN_RADIUS))


def _as_input(x, tokens, what):
    """float64 input of shape (tokens) or (b, *tokens); other shapes raise."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2:] != tokens:
        raise DimensionError(f"{what}: expected shape {tokens} or (b, *{tokens}), got {x.shape}")
    return x


def encode_text(params: EncoderParams, word_features):
    """Encode word features (L_q, d_t) into a vector (d,), or a batch
    (b, L_q, d_t) into (b, d)."""
    tensors, dims = params.tensors, params.dims
    x = _as_input(word_features, (dims.l_q, dims.d_t), "word_features")
    h = _encode_tokens(tensors, x, "text", dims)
    scores = ad.add(ad.reduce_sum(ad.mul(h, tensors["pool_w"]), axis=-1), tensors["pool_b"])
    alpha = ad.softmax(scores, axis=-1)
    alpha = ad.reshape(alpha, np.shape(ad.val(alpha)) + (1,))
    return ad.reduce_sum(ad.mul(alpha, h), axis=-2)


def encode_video(params: EncoderParams, frame_features):
    """Encode frame features (L_v, d_v) into (L_v, d), or a batch
    (b, L_v, d_v) into (b, L_v, d)."""
    dims = params.dims
    x = _as_input(frame_features, (dims.l_v, dims.d_v), "frame_features")
    return _encode_tokens(params.tensors, x, "video", dims)


def collect_tape(wrapped: EncoderParams, loss) -> dict:
    """Run backprop from a scalar loss Var and gather per-parameter grads,
    {name: gradient} with the shapes of wrapped's tensors.

    Parameters not reached by the loss get zero gradients. Non-finite
    gradients abort with the offending tensor's name.
    """
    grads = ad.backward(loss)
    tape = {}
    for name, var in wrapped.tensors.items():
        g = np.asarray(grads.get(id(var), np.zeros_like(var.value)), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"gradient for {name} is non-finite")
        tape[name] = g
    return tape
