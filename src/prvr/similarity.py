"""Cosine similarity between queries and video frames, and corpus scoring.

The retrieval score of a (query, video) pair is the maximum frame cosine.
No CLI path builds the map, the (N_q, N_v, L_v) array of every query x
frame cosine; its two functions stay for the tests and perfbench.

Every cosine value that reaches an output is an elementwise multiply +
pairwise sum over the last axis (`_mul_sum`). numpy's pairwise reduction
over the contiguous last axis is bitwise shape-independent, so every
tiling and chunk gives the same bits as a per-entry loop. GEMM does not
have that property, and its bits also depend on the BLAS thread count,
so no GEMM value reaches an output; a GEMM value only picks candidates
or decides a comparison with a margin of gemm_tol, beyond its rounding.
The training and grad-check forward (`cosine_pairs`) is the one
exception: its kernel `_unit_dots` is one GEMM, as are its two VJPs. Its
values only feed losses and the batch's detection, and a training batch
is never split. Its operands are (..., n, d) and (..., m, L, d): leading
axes on either side (grad-check's probe axis) broadcast to (..., n, m, L)
through np.matmul.

Corpus scoring never holds the whole map. One tile walker (`_walk`)
encodes each side in chunks and yields the GEMM block of each (query,
video) tile, sized by the one byte budget _TILE_BYTES. Its three
consumers compute exact cosines only where their outputs read them:
- `score_corpus` (the audit): every pair's score and best frame. A
  pair's candidates are its frames within gemm_tol of its GEMM max; a
  pair with one candidate takes it, scored by one pairwise sum, and a
  pair with several (near-ties) gets every frame by pairwise sums, the
  others masked, and `autodiff.reduce_max` picks the lowest-indexed max.
  So scores and best frames are bitwise equal to reducing the whole map,
  as `map_retrieval_scores` does with the same reducer;
- `best_frames` (the per-epoch thresholds): the same best frames, with
  no pairwise sum for a pair of one candidate, and the N_q positive
  scores;
- `gemm_maxes` (evaluate's ranks): each pair's GEMM max over frames,
  within gemm_tol / 2 of its score; `exact_scores` rescores the pairs
  that evaluate cannot decide from it.
Memory is O(N_q * N_v) plus two tile buffers.

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

# The one byte budget: of each of the walker's two tile buffers (the GEMM
# block and the gathered frames) and of the widest intermediate of its
# encode chunks; row, tile and rescore block counts derive from it.
_TILE_BYTES = 1 << 20


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
    _TILE_BYTES, each written into one preallocated output; the encoders
    and _unit work row by row, so the bits do not depend on the chunk."""
    l, d_in = features.shape[1:]
    rows = max(1, _TILE_BYTES // (l * max(params.dims.d, d_in, l) * 8))
    out = None
    for x0 in range(0, len(features), rows):
        chunk = _unit(encode(params, features[x0:x0 + rows]))
        if out is None:
            out = np.empty((len(features),) + chunk.shape[1:])
        out[x0:x0 + len(chunk)] = chunk
    return out


def gemm_tol(d):
    """The candidate tolerance for unit embeddings of width d.

    A computed dot of unit vectors lies within gamma_d * sum|q_i f_i| <=
    gamma_d * (1 + O(eps)) of the exact one in any summation order, with
    gamma_d = d * u / (1 - d * u) and u = eps / 2, so a pair's GEMM dot
    and pairwise sum differ by at most 2 * gamma_d ~ d * eps, and so do a
    pair's GEMM max and exact max over frames. A frame whose pairwise sum
    is its pair's max (or ties it) therefore lies within 4 * gamma_d ~
    2 * d * eps of the pair's GEMM max. tol is about twice that; a looser
    tol only adds candidates and rescored pairs.
    """
    return 4 * (d + 2) * np.finfo(np.float64).eps


def _tile_shape(n_q, n_v, l_v, d):
    """(tq, tv): queries and videos of a tile. A pair takes l_v cells of
    the GEMM block and one gathered frame of d; tv * l_v frames by tq
    queries keeps the GEMM block about square."""
    pairs = max(1, _TILE_BYTES // ((l_v + d) * 8))
    tv = max(1, min(n_v, math.isqrt(pairs // l_v)))
    return max(1, min(n_q, pairs // tv)), tv


def _walk(params, corpus):
    """The one tile walker: (qu, fu, tiles) of one branch.

    qu (N_q, d) and fu (N_v, L_v, d) are the unit encodes, made in chunks.
    tiles yields (x0, y0, g) for each (query, video) tile, g[y, z, x] the
    GEMM's dot of frame z of video y0 + y with query x0 + x, in one reused
    buffer of about _TILE_BYTES.
    """
    qu = _unit_encode(encode_text, params, corpus.text_features)
    fu = _unit_encode(encode_video, params, corpus.video_features)
    return qu, fu, _tiles(qu, fu)


def _tiles(qu, fu):
    (n_q, d), (n_v, l_v, _) = qu.shape, fu.shape
    tq, tv = _tile_shape(n_q, n_v, l_v, d)
    frames = fu.reshape(-1, d)
    gemm = np.empty(tv * l_v * tq)
    for x0 in range(0, n_q, tq):
        q = qu[x0:x0 + tq]
        for y0 in range(0, n_v, tv):
            f = frames[y0 * l_v:(y0 + tv) * l_v]
            g = np.matmul(f, q.T, out=gemm[:len(f) * len(q)].reshape(len(f), len(q)))
            yield x0, y0, g.reshape(-1, l_v, len(q))


def _frame_dots(q, fu, y, buf):
    """(len(y), L_v) pairwise-sum cosines of query rows q against every
    frame of videos y, the frames gathered into buf (mode="clip" gathers
    straight into it; the rows are in range)."""
    l_v, d = fu.shape[1:]
    at = np.take(fu, y, axis=0, mode="clip", out=buf[:len(y) * l_v * d].reshape(len(y), l_v, d))
    return _mul_sum(q[:, None], at, at, None)


def _best_frames(qu, fu, tiles, scores=None):
    """Each pair's best frame (ties -> lowest index), (N_q, N_v), and with
    scores, each pair's max frame cosine written into it.

    The candidates of a pair are its frames within gemm_tol of its GEMM
    max. A pair with one candidate takes it as its best frame, the exact
    argmax; its score is that frame's pairwise sum. A pair with several
    candidates (near-ties) gets every frame by pairwise sums, the others
    masked, and autodiff.reduce_max picks the lowest-indexed max. So both
    are bitwise equal to reducing the whole map.
    """
    (n_q, d), (n_v, l_v, _) = qu.shape, fu.shape
    tol = gemm_tol(d)
    tq, tv = _tile_shape(n_q, n_v, l_v, d)
    frames = fu.reshape(-1, d)
    gather = np.empty(max(tq * tv, l_v) * d)
    per = len(gather) // (l_v * d)  # pairs per rescore block
    best = np.empty((n_q, n_v), dtype=np.intp)
    for x0, y0, g in tiles:
        q = qu[x0:x0 + g.shape[2]]
        span = (slice(x0, x0 + g.shape[2]), slice(y0, y0 + len(g)))
        # far marks the non-candidates; a NaN pair has none
        far = g < g.max(axis=1, keepdims=True) - tol
        top = far.argmin(axis=1).T
        best[span] = top
        if scores is not None:
            at = np.take(frames, top + l_v * np.arange(y0, y0 + len(g)), axis=0, mode="clip",
                         out=gather[:top.size * d].reshape(*top.shape, d))
            _mul_sum(q[:, None], at, at, scores[span])
        ys, xs = np.nonzero(far.sum(axis=1) < l_v - 1)
        for k0 in range(0, len(xs), per):
            x, y = xs[k0:k0 + per], ys[k0:k0 + per]
            dots = _frame_dots(q[x], fu, y0 + y, gather)
            dots[far[y, :, x]] = -np.inf
            top_s, best[x0 + x, y0 + y] = ad.reduce_max(dots, axis=1)
            if scores is not None:
                scores[x0 + x, y0 + y] = top_s
    return best


def exact_scores(qu, fu, xs, ys):
    """Max frame cosine of each pair (xs[k], ys[k]) by pairwise sums over
    every frame, in blocks of about _TILE_BYTES: score_corpus's bits."""
    l_v, d = fu.shape[1:]
    per = max(1, _TILE_BYTES // (l_v * d * 8))
    buf = np.empty(min(per, len(xs)) * l_v * d)
    out = np.empty(len(xs))
    for k0 in range(0, len(xs), per):
        x, y = xs[k0:k0 + per], ys[k0:k0 + per]
        out[k0:k0 + per] = ad.reduce_max(_frame_dots(qu[x], fu, y, buf), axis=1)[0]
    return out


def _tables(qu, fu):
    frames = fu.reshape(-1, fu.shape[-1])
    return UncertaintyTables(u_q=(qu * frames.mean(axis=0)).sum(axis=-1),
                             u_v=(fu * qu.mean(axis=0)).sum(axis=-1))


def score_corpus(params, corpus):
    """(scores, best, UncertaintyTables), streamed over (query, video) tiles.

    scores[x, y] is the max frame cosine of query x in video y and
    best[x, y] its frame (ties -> lowest index), both (N_q, N_v); they
    are bitwise equal to reducing build_corpus_map. The audit's pass.
    """
    qu, fu, tiles = _walk(params, corpus)
    scores = np.empty((len(qu), len(fu)))
    return scores, _best_frames(qu, fu, tiles, scores), _tables(qu, fu)


def best_frames(params, corpus):
    """(best, positive scores, UncertaintyTables), streamed: the per-epoch
    thresholds' pass.

    best is score_corpus's; the N_q positive scores, the pairs (x,
    pairing[x]), have score_corpus's bits. Pairs with one candidate are
    not rescored.
    """
    qu, fu, tiles = _walk(params, corpus)
    best = _best_frames(qu, fu, tiles)
    positives = exact_scores(qu, fu, np.arange(len(qu)), np.asarray(corpus.pairing))
    return best, positives, _tables(qu, fu)


def gemm_maxes(params, corpus):
    """(qu, fu, gmax): the unit encodes and each pair's GEMM max over
    frames, (N_q, N_v), within gemm_tol(d) / 2 of its exact score: the
    ranking pass, which rescores pairs through exact_scores."""
    qu, fu, tiles = _walk(params, corpus)
    gmax = np.empty((len(qu), len(fu)))
    for x0, y0, g in tiles:
        np.max(g, axis=1, out=gmax[x0:x0 + g.shape[2], y0:y0 + len(g)].T)
    return qu, fu, gmax


def build_corpus_map(params, corpus):
    """The whole map m, m[x, y, z] = cosine(query x, frame z of video y).

    Kept because perfbench wraps it; the wrapper's `.m` hook never fires
    (no workload builds a map) and goes with ROADMAP item 8. Every entry
    is the `_mul_sum` that score_corpus returns for a pair's best frame,
    so reducing the map gives score_corpus's bits.
    """
    qu, fu, _ = _walk(params, corpus)
    return np.stack([_mul_sum(q, fu, np.empty_like(fu), None) for q in qu])


def map_retrieval_scores(m):
    """Per-pair retrieval scores and best-frame indices of the map m; kept
    because perfbench wraps it."""
    return ad.reduce_max(m, axis=2)
