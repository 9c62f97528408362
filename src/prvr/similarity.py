"""Cosine similarity between queries and video frames, and the corpus map.

The retrieval score of a (query, video) pair is the maximum frame cosine;
the dataset-wide map M holds every query x frame cosine and is rebuilt
from scratch each epoch.

All cosine paths go through one elementwise-multiply + sum kernel
(never BLAS matmul): numpy's pairwise reduction over the contiguous last
axis is bitwise shape-independent, so the batched map equals per-entry
scalar calls exactly. GEMM does not have that property.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import encode_text, encode_video
from .errors import NumericalError


@dataclass
class CorpusSimilarityMap:
    """m[x, y, z] = cosine(query x, frame z of video y) at `epoch`."""

    m: np.ndarray
    epoch: int


def _norms(x, axis):
    return ad.sqrt(ad.reduce_sum(ad.mul(x, x), axis=axis, keepdims=True))


def frame_similarity(q, v) -> float:
    """Cosine between one query embedding and one frame embedding."""
    q = np.asarray(ad.val(q), dtype=np.float64)
    v = np.asarray(ad.val(v), dtype=np.float64)
    qn = np.sqrt((q * q).sum())
    vn = np.sqrt((v * v).sum())
    if qn == 0.0 or vn == 0.0:
        raise NumericalError("cosine similarity of a zero vector is undefined")
    return float(((q / qn) * (v / vn)).sum())


def retrieval_score(q, v_frames):
    """Max frame cosine and its frame index (ties -> lowest index)."""
    sims = cosine_rows(q, v_frames)
    k = int(np.argmax(sims))
    return float(sims[k]), k


def cosine_rows(q, v_frames):
    """Cosines between one query (d,) and a stack of frames (..., d)."""
    q = np.asarray(ad.val(q), dtype=np.float64)
    f = np.asarray(ad.val(v_frames), dtype=np.float64)
    qn = np.sqrt((q * q).sum())
    fn = np.sqrt((f * f).sum(axis=-1, keepdims=True))
    if qn == 0.0 or np.any(fn == 0.0):
        raise NumericalError("cosine similarity of a zero vector is undefined")
    return ((q / qn) * (f / fn)).sum(axis=-1)


def _unit_dots(qu, fu):
    """Dots (n, m, L) between unit queries (n, d) and unit frames (m, L, d).

    The forward is the elementwise multiply-and-sum kernel; the backward
    contracts the output gradient against the other operand with einsum
    instead of materializing the (n, m, L, d) product.
    """
    qv, fv = ad.val(qu), ad.val(fu)
    out = (qv[:, None, None, :] * fv[None]).sum(axis=-1)
    parents = []
    if isinstance(qu, ad.Var):
        parents.append((qu, lambda g: np.einsum("xyk,ykd->xd", g, fv, optimize=False)))
    if isinstance(fu, ad.Var):
        parents.append((fu, lambda g: np.einsum("xyk,xd->ykd", g, qv, optimize=False)))
    return ad.Var(out, tuple(parents)) if parents else out


def cosine_pairs(q_emb, frame_emb):
    """All-pairs cosine tensor between queries (n, d) and frames (m, L, d).

    Returns (n, m, L); differentiable when inputs are Vars. Aborts on a
    zero embedding (zero outputs are measure-zero under the init scheme;
    no epsilon is added so gradient checks stay exact).
    """
    qn = _norms(q_emb, axis=-1)
    fn = _norms(frame_emb, axis=-1)
    if np.any(ad.val(qn) == 0.0) or np.any(ad.val(fn) == 0.0):
        raise NumericalError("zero-norm embedding encountered in cosine kernel")
    return _unit_dots(ad.div(q_emb, qn), ad.div(frame_emb, fn))


def build_corpus_map(params, corpus, epoch: int = 0) -> CorpusSimilarityMap:
    """Recompute the full N_q x N_v x L_v cosine map for given params.

    Each modality is encoded in one batched call, which is bitwise equal
    to per-instance encoding, and the cosine kernel matches
    frame_similarity entry for entry (tolerance 0).
    """
    q_emb = encode_text(params, corpus.text_features)
    f_emb = encode_video(params, corpus.video_features)
    fn = np.sqrt((f_emb * f_emb).sum(axis=-1, keepdims=True))
    qn = np.sqrt((q_emb * q_emb).sum(axis=-1, keepdims=True))
    if np.any(fn == 0.0) or np.any(qn == 0.0):
        raise NumericalError("zero-norm embedding while building the corpus map")
    fu = f_emb / fn
    qu = q_emb / qn
    m = np.empty((corpus.n_q, corpus.n_v, corpus.l_v), dtype=np.float64)
    for x in range(corpus.n_q):
        m[x] = (qu[x] * fu).sum(axis=-1)
    return CorpusSimilarityMap(m=m, epoch=epoch)


def map_retrieval_scores(sim_map: CorpusSimilarityMap):
    """Per-pair retrieval scores and best-frame indices from the map."""
    best = np.argmax(sim_map.m, axis=2)
    scores = np.take_along_axis(sim_map.m, best[..., None], axis=2)[..., 0]
    return scores, best
