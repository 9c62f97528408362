"""Uncertainty estimation, per-epoch thresholds, and ambiguity detection.

An unpaired (query, video) pair is ambiguous when its retrieval score
exceeds tau_s AND its pair uncertainty exceeds tau_u (strict
inequalities; ties fall to negative). The same rule applies between a
query and the individual frames of its paired video, and between a
selected frame and the other queries of the batch.

Uncertainty of an instance is its average cosine to the whole other
modality over the train set; a pair's uncertainty is the mean of its two
instance values at the pair's best frame. Thresholds are recomputed every
epoch: tau_s as the mean positive-pair retrieval score, tau_u as the mean
pair uncertainty over all train pairs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .similarity import CorpusSimilarityMap, map_retrieval_scores, reduce_map, score_corpus


@dataclass
class UncertaintyTables:
    u_q: np.ndarray          # (N_q,)
    u_v: np.ndarray          # (N_v, L_v)
    epoch: int


@dataclass
class Thresholds:
    tau_s: float
    tau_u: float
    epoch: int


def _mask_rows(mask):
    """Per-row index lists of a boolean matrix."""
    return [list(np.nonzero(row)[0]) for row in mask]


def _rows_mask(rows, width):
    mask = np.zeros((len(rows), width), dtype=bool)
    for r, cols in enumerate(rows):
        mask[r, list(cols)] = True
    return mask


@dataclass
class FrameSets:
    """Frame-level ambiguity for each positive pair of a batch.

    best_frame[p] is the positive frame of pair p; amb/neg frames
    partition the remaining frames of the paired video. amb/neg queries
    partition the non-positive batch slots relative to the selected
    frame.

    The losses read the same sets as boolean masks: frame masks are
    (b, L_v) with [p, k] for frame k of pair p's video, query masks are
    (b, b) with [p, x] for query slot x against pair p's selected frame.
    Sets built from lists alone get their masks derived from the lists.
    """

    best_frame: np.ndarray
    amb_frames: list
    neg_frames: list
    amb_queries: list
    neg_queries: list
    amb_frame_mask: np.ndarray = field(default=None, repr=False)
    neg_frame_mask: np.ndarray = field(default=None, repr=False)
    amb_query_mask: np.ndarray = field(default=None, repr=False)
    neg_query_mask: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.amb_frame_mask is None:
            b = len(self.best_frame)
            # amb, neg and the best frame partition the video's frames
            l_v = 1 + len(self.amb_frames[0]) + len(self.neg_frames[0]) if b else 1
            self.amb_frame_mask = _rows_mask(self.amb_frames, l_v)
            self.neg_frame_mask = _rows_mask(self.neg_frames, l_v)
            self.amb_query_mask = _rows_mask(self.amb_queries, b)
            self.neg_query_mask = _rows_mask(self.neg_queries, b)


@dataclass
class AmbiguitySets:
    """Per-slot ambiguous/negative index sets for one mini-batch.

    Slots are batch positions; batch[p] = (query index, video index).
    pos/amb are boolean slot matrices (pos by video identity, so
    duplicate captions of one video are never negatives of each other).
    """

    batch: list
    video_sets: list                 # A_i^q, slots of ambiguous videos per query slot
    query_sets: list                 # A_j^v, slots of ambiguous queries per video slot
    negative_video_sets: list
    negative_query_sets: list
    pos: np.ndarray = field(repr=False)
    amb: np.ndarray = field(repr=False)
    frames: FrameSets | None = None


def compute_uncertainty(sim_map: CorpusSimilarityMap) -> UncertaintyTables:
    """Average the similarity map into per-query and per-frame tables."""
    r = reduce_map(sim_map, uncertainty=True)
    return UncertaintyTables(u_q=r.u_q, u_v=r.u_v, epoch=r.epoch)


def _check_index(n, i, what):
    if not 0 <= i < n:
        raise IndexError(f"{what} index {i} out of range [0, {n})")


def pair_uncertainty(tables: UncertaintyTables, i: int, j: int, k_hat: int) -> float:
    """Uncertainty of pair (query i, video j) at its best frame k_hat."""
    return frame_uncertainty(tables, i, j, k_hat)


def frame_uncertainty(tables: UncertaintyTables, i: int, j: int, k: int) -> float:
    _check_index(tables.u_q.shape[0], i, "query")
    _check_index(tables.u_v.shape[0], j, "video")
    _check_index(tables.u_v.shape[1], k, "frame")
    return (tables.u_q[i] + tables.u_v[j, k]) / 2.0


def pair_uncertainties(u_q, u_v, best):
    """(N_q, N_v) uncertainty of every pair at its best frame."""
    u = u_v[np.arange(best.shape[1])[None, :], best]
    u += u_q[:, None]
    u /= 2.0
    return u


def _thresholds(scores, best, pairing, tables: UncertaintyTables, epoch) -> Thresholds:
    if len(pairing) == 0:
        raise ConfigError("cannot compute thresholds on an empty train set")
    tau_s = float(scores[np.arange(scores.shape[0]), pairing].mean())
    tau_u = float(pair_uncertainties(tables.u_q, tables.u_v, best).mean())
    return Thresholds(tau_s=tau_s, tau_u=tau_u, epoch=epoch)


def compute_thresholds(sim_map: CorpusSimilarityMap, pairing: np.ndarray,
                       tables: UncertaintyTables) -> Thresholds:
    """Per-epoch thresholds from the current map and tables."""
    scores, best = map_retrieval_scores(sim_map)
    return _thresholds(scores, best, pairing, tables, sim_map.epoch)


def corpus_thresholds(params, corpus, epoch: int):
    """One branch's per-epoch (UncertaintyTables, Thresholds), streamed.

    Bitwise equal to compute_uncertainty and compute_thresholds on
    build_corpus_map's map, without holding the map.
    """
    r = score_corpus(params, corpus, epoch=epoch, uncertainty=True)
    tables = UncertaintyTables(u_q=r.u_q, u_v=r.u_v, epoch=epoch)
    return tables, _thresholds(r.scores, r.best, corpus.pairing, tables, epoch)


def detect_video_ambiguity(batch, scores, best_frames,
                           tables: UncertaintyTables,
                           thresholds: Thresholds) -> AmbiguitySets:
    """Split each slot's non-positive batch members into ambiguous/negative.

    batch: list of (query, video) global index pairs (the positives).
    scores/best_frames: (b, b) retrieval scores and best-frame indices,
    rows = query slots, columns = video slots.
    """
    scores = np.asarray(scores, dtype=np.float64)
    best_frames = np.asarray(best_frames)
    q_idx = np.asarray([q for q, _ in batch])
    v_idx = np.asarray([v for _, v in batch])

    pos = v_idx[:, None] == v_idx[None, :]
    u = (tables.u_q[q_idx][:, None] + tables.u_v[v_idx[None, :], best_frames]) / 2.0
    amb = (~pos) & (scores > thresholds.tau_s) & (u > thresholds.tau_u)
    neg = (~pos) & (~amb)

    return AmbiguitySets(
        batch=list(batch),
        video_sets=[list(np.nonzero(amb[i])[0]) for i in range(len(batch))],
        query_sets=[list(np.nonzero(amb[:, j])[0]) for j in range(len(batch))],
        negative_video_sets=[list(np.nonzero(neg[i])[0]) for i in range(len(batch))],
        negative_query_sets=[list(np.nonzero(neg[:, j])[0]) for j in range(len(batch))],
        pos=pos,
        amb=amb,
    )


def detect_frame_ambiguity(batch, frame_sims, tables: UncertaintyTables,
                           thresholds: Thresholds) -> FrameSets:
    """Frame-level detection for each positive pair of the batch.

    frame_sims[x, p, k] = cosine(query slot x, frame k of pair p's video).
    For pair p the best frame is positive; other frames of that video are
    ambiguous when both thresholds pass. Query-side sets mirror the video
    rule across batch slots against the selected frame.
    """
    frame_sims = np.asarray(frame_sims, dtype=np.float64)
    b = frame_sims.shape[0]
    slots = np.arange(b)
    q_idx = np.asarray([q for q, _ in batch])
    v_idx = np.asarray([v for _, v in batch])

    own = frame_sims[slots, slots]                       # (b, L_v): pair p's own video
    best = np.argmax(own, axis=1)
    u_f = (tables.u_q[q_idx][:, None] + tables.u_v[v_idx]) / 2.0
    amb_f = (own > thresholds.tau_s) & (u_f > thresholds.tau_u)
    amb_f[slots, best] = False
    neg_f = ~amb_f
    neg_f[slots, best] = False

    sel = frame_sims[:, slots, best].T                   # [p, x]: query x at p's best frame
    u_sel = (tables.u_q[q_idx][None, :] + tables.u_v[v_idx, best][:, None]) / 2.0
    unpaired = v_idx[:, None] != v_idx[None, :]
    amb_q = unpaired & (sel > thresholds.tau_s) & (u_sel > thresholds.tau_u)
    neg_q = unpaired & ~amb_q

    return FrameSets(best_frame=best,
                     amb_frames=_mask_rows(amb_f), neg_frames=_mask_rows(neg_f),
                     amb_queries=_mask_rows(amb_q), neg_queries=_mask_rows(neg_q),
                     amb_frame_mask=amb_f, neg_frame_mask=neg_f,
                     amb_query_mask=amb_q, neg_query_mask=neg_q)
