"""Cosine similarity between queries and video frames, and corpus scoring.

The retrieval score of a (query, video) pair is the maximum frame cosine;
the dataset-wide map M holds every query x frame cosine.

Every cosine goes through one kernel, `_unit_dots`: an elementwise
multiply + sum over (query, video) tiles (never BLAS matmul). numpy's
pairwise reduction over the contiguous last axis is bitwise
shape-independent, so every tiling, batch and chunk gives the same bits
as a per-entry loop. GEMM does not have that property. The training and
grad-check forward (`cosine_pairs`), `score_corpus` and
`build_corpus_map` all run it.

Corpus scoring never holds the whole map. `score_corpus` encodes each
side once and walks the queries in chunks of about _TILE_BYTES, the one
byte budget that also sizes the kernel's product buffer: the kernel
fills one (chunk, N_v, L_v) block, and `autodiff.reduce_max` folds it
into per-pair scores and best frames. Memory is O(N_q * N_v) plus one
chunk. `build_corpus_map` keeps the map form for tests and tools, and
`map_retrieval_scores` runs the same reducer, so scores and best frames
are bitwise equal in both forms.

The UncertaintyTables are the map's means over each query's row and
over the queries. The map is linear in each unit embedding, so they are
u_q = qu . mean(fu) and u_v = fu . mean(qu), O((N_q + N_v * L_v) * d)
work beside the map. They differ from the map's direct means only by
rounding: to first order each form lies within (d + log2 N) * eps of the
exact mean for N averaged terms, far inside ACCEPT-04's 1e-12.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import encode_text, encode_video
from .errors import NumericalError

# The one byte budget: of a query chunk of the map, and of the product
# buffer of one (query, video) tile; row and tile counts derive from it.
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
    scheme; no epsilon is added so gradient checks stay exact).
    """
    n = ad.sqrt(ad.reduce_sum(ad.mul(x, x), axis=-1, keepdims=True))
    if np.any(ad.val(n) == 0.0):
        raise NumericalError("zero-norm embedding encountered in cosine kernel")
    return ad.div(x, n)


def _unit_dots(qu, fu):
    """Dots (n, m, L) between unit queries (n, d) and unit frames (m, L, d).

    The forward runs over (query, video) tiles through one reused buffer
    of about _TILE_BYTES. Each dot is the same pairwise sum over d as in
    the whole product, so every tiling gives the same bits. The backward
    contracts the output gradient against the other operand with einsum
    instead of materializing the (n, m, L, d) product.
    """
    qv, fv = ad.val(qu), ad.val(fu)
    n_q = len(qv)
    n_v, l_v, d = fv.shape
    pair = l_v * d * 8              # product bytes of one (query, video) pair
    tv = max(1, min(n_v, _TILE_BYTES // pair))
    tq = max(1, min(n_q, _TILE_BYTES // (tv * pair)))
    buf = np.empty(tq * tv * l_v * d)
    out = np.empty((n_q, n_v, l_v))
    for x0 in range(0, n_q, tq):
        q = qv[x0:x0 + tq, None, None, :]
        for y0 in range(0, n_v, tv):
            f = fv[y0:y0 + tv]
            prod = buf[:len(q) * f.size].reshape(len(q), *f.shape)
            np.multiply(q, f, out=prod)
            prod.sum(axis=-1, out=out[x0:x0 + tq, y0:y0 + tv])
    return ad.node(out, (qu, lambda g: np.einsum("xyk,ykd->xd", g, fv, optimize=False)),
                   (fu, lambda g: np.einsum("xyk,xd->ykd", g, qv, optimize=False)))


def cosine_pairs(q_emb, frame_emb):
    """All-pairs cosine tensor between queries (n, d) and frames (m, L, d).

    Returns (n, m, L); differentiable when inputs are Vars. Aborts on a
    zero embedding.
    """
    return _unit_dots(_unit(q_emb), _unit(frame_emb))


def score_corpus(params, corpus):
    """(scores, best, UncertaintyTables), streamed over query chunks.

    scores[x, y] is the max frame cosine of query x in video y and
    best[x, y] its frame (ties -> lowest index), both (N_q, N_v); they
    are bitwise equal to reducing build_corpus_map.
    """
    qu = _unit(encode_text(params, corpus.text_features))
    fu = _unit(encode_video(params, corpus.video_features))
    (n_q, d), (n_v, l_v, _) = qu.shape, fu.shape
    scores = np.empty((n_q, n_v))
    best = np.empty((n_q, n_v), dtype=np.intp)
    rows = max(1, min(n_q, _TILE_BYTES // (n_v * l_v * 8)))
    for x0 in range(0, n_q, rows):
        span = slice(x0, x0 + rows)
        scores[span], best[span] = ad.reduce_max(_unit_dots(qu[span], fu), axis=2)
    u_q = (qu * fu.reshape(-1, d).mean(axis=0)).sum(axis=-1)
    u_v = (fu * qu.mean(axis=0)).sum(axis=-1)
    return scores, best, UncertaintyTables(u_q=u_q, u_v=u_v)


def build_corpus_map(params, corpus) -> CorpusSimilarityMap:
    """The whole N_q x N_v x L_v cosine map, for tests and tools.

    cosine_pairs of the same two encodes as score_corpus, so it runs the
    same kernel and gives the same bits.
    """
    return CorpusSimilarityMap(m=cosine_pairs(encode_text(params, corpus.text_features),
                                              encode_video(params, corpus.video_features)))


def map_retrieval_scores(sim_map: CorpusSimilarityMap):
    """Per-pair retrieval scores and best-frame indices from the map."""
    return ad.reduce_max(sim_map.m, axis=2)
