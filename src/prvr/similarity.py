"""Cosine similarity between queries and video frames, and corpus scoring.

The retrieval score of a (query, video) pair is the maximum frame cosine;
the dataset-wide map M holds every query x frame cosine.

Every cosine that reaches an output is an elementwise multiply +
pairwise sum over the last axis (`_mul_sum`). numpy's pairwise reduction
over the contiguous last axis is bitwise shape-independent, so every
tiling and chunk gives the same bits as a per-entry loop. GEMM does not
have that property, and its bits also depend on the BLAS thread count,
so no GEMM value reaches an output. The training and grad-check forward
(`cosine_pairs`) is the one exception: its kernel `_unit_dots` is one
GEMM, as are its two VJPs. Its values only feed losses and the batch's
detection, and a training batch is never split. Its operands are
(..., n, d) and (..., m, L, d): leading axes on either side (grad-check's
probe axis) broadcast to (..., n, m, L) through np.matmul.

Corpus scoring never holds the whole map and computes almost no cosine
elementwise. `score_corpus` encodes each side in chunks and walks
(query, video) tiles, sized by the one byte budget _TILE_BYTES. In each
tile one BLAS product gives every dot to within a few eps; it only picks
candidates, the frames within a rounding bound of their pair's GEMM max.
A pair's score is the pairwise sum of its one candidate; a pair with
several candidates (near-ties) gets every frame by pairwise sums, the
others masked, and `autodiff.reduce_max` picks the lowest-indexed max.
So scores and best frames are bitwise equal to reducing the whole map,
as `map_retrieval_scores` does with the same reducer. Memory is
O(N_q * N_v) plus two tile buffers.

The UncertaintyTables are the map's means over each query's row and
over the queries. The map is linear in each unit embedding, so they are
u_q = qu . mean(fu) and u_v = fu . mean(qu), O((N_q + N_v * L_v) * d)
work beside the map. They differ from the map's direct means only by
rounding: to first order each form lies within (d + log2 N) * eps of the
exact mean for N averaged terms, far inside ACCEPT-04's 1e-12.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import encode_text, encode_video
from .errors import NumericalError

# The one byte budget: of each of score_corpus's two tile buffers and of
# the widest intermediate of its encode chunks; row and tile counts derive
# from it.
_TILE_BYTES = 1 << 20


@dataclass
class CorpusSimilarityMap:
    """m[x, y, z] = cosine(query x, frame z of video y); perfbench's map hook reads `.m`."""

    m: np.ndarray


@dataclass
class UncertaintyTables:
    """The map's means over each query's row and over the queries."""

    u_q: np.ndarray          # (N_q,)
    u_v: np.ndarray          # (N_v, L_v)


def _unit(x):
    """x over its norm along the last axis, for a Var or an array.

    Aborts on a zero row (zero outputs are measure-zero under the init
    scheme; no epsilon is added so gradient checks stay exact), and on a
    non-finite norm, as when a finite row's squares overflow to inf.
    """
    n = ad.sqrt(ad.reduce_sum(ad.mul(x, x), axis=-1, keepdims=True))
    if np.any(ad.val(n) == 0.0):
        raise NumericalError("zero-norm embedding encountered in cosine kernel")
    if not np.all(np.isfinite(ad.val(n))):
        raise NumericalError("non-finite embedding norm encountered in cosine kernel")
    return ad.div(x, n)


def _mul_sum(a, b, prod, out):
    """out = (a * b).sum(-1), the product formed in prod (which may be b).

    numpy sums each row of the contiguous last axis pairwise, the same way
    whatever the leading shape, so every caller gets the same bits for the
    same two rows.
    """
    np.multiply(a, b, out=prod)
    return prod.sum(axis=-1, out=out)


def _unit_dots(qu, fu):
    """Dots (..., n, m, L) between unit queries (..., n, d) and unit frames
    (..., m, L, d), whose leading axes broadcast (grad-check's probes).

    One GEMM of the queries against the m * L frames, and one GEMM per
    VJP. The values carry GEMM bits, so only the training and grad-check
    forward runs it; every output cosine is a `_mul_sum`.
    """
    qv, fv = ad.val(qu), ad.val(fu)
    m, l_v, d = fv.shape[-3:]
    frames = fv.reshape(fv.shape[:-3] + (m * l_v, d))
    flat = lambda g: g.reshape(g.shape[:-2] + (m * l_v,))
    out = qv @ np.swapaxes(frames, -1, -2)
    return ad.node(out.reshape(out.shape[:-1] + (m, l_v)), (qu, lambda g: flat(g) @ frames),
                   (fu, lambda g: (np.swapaxes(flat(g), -1, -2) @ qv).reshape(
                       g.shape[:-3] + (m, l_v, d))))


def cosine_pairs(q_emb, frame_emb):
    """All-pairs cosine tensor between queries (..., n, d) and frames
    (..., m, L, d).

    Returns (..., n, m, L); differentiable when inputs are Vars. Aborts on
    a zero embedding.
    """
    return _unit_dots(_unit(q_emb), _unit(frame_emb))


def _unit_encode(encode, params, features):
    """Unit embeddings of every row of features, encoded in chunks whose
    widest float64 intermediate (L x max(d, d_in, L) a row) takes about
    _TILE_BYTES; the encoders and _unit work row by row, so the bits do
    not depend on the chunk."""
    l, d_in = features.shape[1:]
    rows = max(1, _TILE_BYTES // (l * max(params.dims.d, d_in, l) * 8))
    return np.concatenate([_unit(encode(params, features[x0:x0 + rows]))
                           for x0 in range(0, len(features), rows)])


def score_corpus(params, corpus):
    """(scores, best, UncertaintyTables), streamed over (query, video) tiles.

    scores[x, y] is the max frame cosine of query x in video y and
    best[x, y] its frame (ties -> lowest index), both (N_q, N_v); they
    are bitwise equal to reducing build_corpus_map.
    """
    qu = _unit_encode(encode_text, params, corpus.text_features)
    fu = _unit_encode(encode_video, params, corpus.video_features)
    (n_q, d), (n_v, l_v, _) = qu.shape, fu.shape
    frames = fu.reshape(-1, d)
    tables = UncertaintyTables(u_q=(qu * frames.mean(axis=0)).sum(axis=-1),
                               u_v=(fu * qu.mean(axis=0)).sum(axis=-1))
    # A computed dot of unit vectors lies within gamma_d * sum|q_i f_i| <=
    # gamma_d * (1 + O(eps)) of the exact one in any summation order, with
    # gamma_d = d * u / (1 - d * u) and u = eps / 2, so a pair's GEMM dot
    # and pairwise sum differ by at most 2 * gamma_d ~ d * eps. A frame
    # whose pairwise sum is its pair's max (or ties it) therefore lies
    # within 4 * gamma_d ~ 2 * d * eps of the pair's GEMM max. tol is about
    # twice that; a looser tol only adds candidates.
    tol = 4 * (d + 2) * np.finfo(np.float64).eps
    # A pair takes l_v cells of the GEMM block and one gathered frame of d;
    # tv * l_v frames by tq queries keeps the GEMM block about square.
    pairs = max(1, _TILE_BYTES // ((l_v + d) * 8))
    tv = max(1, min(n_v, math.isqrt(pairs // l_v)))
    tq = max(1, min(n_q, pairs // tv))
    gemm = np.empty(tv * l_v * tq)
    gather = np.empty(max(tq * tv, l_v) * d)
    per = len(gather) // (l_v * d)  # pairs per rescore block
    scores = np.empty((n_q, n_v))
    best = np.empty((n_q, n_v), dtype=np.intp)
    for x0 in range(0, n_q, tq):
        q = qu[x0:x0 + tq]
        for y0 in range(0, n_v, tv):
            f = frames[y0 * l_v:(y0 + tv) * l_v]
            span = (slice(x0, x0 + tq), slice(y0, y0 + tv))
            # g[y, z, x]: the GEMM's dot of frame z of video y0 + y with
            # query x0 + x. far marks the frames more than tol below their
            # pair's GEMM max, the non-candidates; a NaN pair has none.
            g = np.matmul(f, q.T, out=gemm[:len(f) * len(q)].reshape(len(f), len(q)))
            g = g.reshape(-1, l_v, len(q))
            far = g < g.max(axis=1, keepdims=True) - tol
            # GEMM bits only pick frames: each pair's value is the pairwise
            # sum of its first candidate, the max when it is the only one.
            # mode="clip" gathers straight into out (the rows are in range).
            top = far.argmin(axis=1).T
            at = np.take(frames, top + l_v * np.arange(y0, y0 + len(g)), axis=0, mode="clip",
                         out=gather[:top.size * d].reshape(*top.shape, d))
            _mul_sum(q[:, None], at, at, scores[span])
            best[span] = top
            # pairs with several candidates: every frame by pairwise sums,
            # far frames masked, ties to the lowest index
            ys, xs = np.nonzero(far.sum(axis=1) < l_v - 1)
            for k0 in range(0, len(xs), per):
                x, y = xs[k0:k0 + per], ys[k0:k0 + per]
                at = np.take(fu, y0 + y, axis=0, mode="clip",
                             out=gather[:len(y) * l_v * d].reshape(len(y), l_v, d))
                dots = _mul_sum(q[x, None], at, at, None)
                dots[far[y, :, x]] = -np.inf
                scores[x0 + x, y0 + y], best[x0 + x, y0 + y] = ad.reduce_max(dots, axis=1)
    return scores, best, tables


def build_corpus_map(params, corpus) -> CorpusSimilarityMap:
    """The whole N_q x N_v x L_v cosine map, for tests and tools.

    `_mul_sum` on the unit encodes score_corpus scores: every entry is the
    pairwise sum that score_corpus returns for a pair's best frame, so
    reducing the map gives score_corpus's bits.
    """
    qu = _unit_encode(encode_text, params, corpus.text_features)
    fu = _unit_encode(encode_video, params, corpus.video_features)
    return CorpusSimilarityMap(m=np.stack([_mul_sum(q, fu, np.empty_like(fu), None) for q in qu]))


def map_retrieval_scores(sim_map: CorpusSimilarityMap):
    """Per-pair retrieval scores and best-frame indices from the map."""
    return ad.reduce_max(sim_map.m, axis=2)
