"""Uncertainty estimation, per-epoch thresholds, and ambiguity detection.

An unpaired (query, video) pair is ambiguous when its retrieval score
exceeds tau_s AND its pair uncertainty exceeds tau_u (strict
inequalities; ties fall to negative). The same rule applies between a
query and the individual frames of its paired video, and between a
selected frame and the other queries of the batch. is_ambiguous is that
rule and threshold_schedule its thresholds; training, detection and the
audit all call these two.

Uncertainty of an instance is its average cosine to the whole other
modality over the train set; a pair's uncertainty is the mean of its two
instance values at the pair's best frame. Thresholds are recomputed every
epoch: tau_s as the mean positive-pair retrieval score, tau_u as the mean
pair uncertainty over all train pairs.

Training (corpus_thresholds) and the audit read the tables
(similarity.UncertaintyTables, re-exported here) in closed form off
similarity's tile walker: training through similarity.best_frames, which
reads only every pair's best frame and the positive scores, and the
audit through similarity.score_corpus. The map forms compute_uncertainty and
compute_thresholds, which no CLI path runs, average a whole map array
directly: the definition the closed form is tested against.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .similarity import UncertaintyTables, best_frames, map_retrieval_scores


@dataclass
class Thresholds:
    tau_s: float
    tau_u: float


@dataclass
class FrameSets:
    """Frame-level ambiguity for each positive pair of a batch, as masks.

    best_frame[p] is the positive frame of pair p. Frame masks are
    (b, L_v), [p, k] for frame k of pair p's video: amb and neg partition
    the frames other than the best one. Query masks are (b, b), [p, x]
    for query slot x against pair p's selected frame: amb and neg
    partition the slots of other videos.
    """

    best_frame: np.ndarray
    amb_frame_mask: np.ndarray
    neg_frame_mask: np.ndarray
    amb_query_mask: np.ndarray
    neg_query_mask: np.ndarray

    @property
    def amb_frames(self):
        """Per-pair ambiguous frame indices; kept because perfbench's tracer
        counts them, until it reads amb_frame_mask (ROADMAP item 8)."""
        return [np.flatnonzero(row) for row in self.amb_frame_mask]


@dataclass
class AmbiguitySets:
    """Video-level ambiguity for one mini-batch, as (b, b) slot masks.

    Slots are batch positions, b = len(pos). Rows are query slots,
    columns video slots. pos marks pairs of one video (so duplicate
    captions of a video are never negatives of each other), amb the
    ambiguous pairs, and neg the rest.
    """

    pos: np.ndarray = field(repr=False)
    amb: np.ndarray = field(repr=False)

    @property
    def neg(self):
        return (~self.pos) & (~self.amb)


def compute_uncertainty(m) -> UncertaintyTables:
    """Average the (N_q, N_v, L_v) map m into per-query and per-frame tables;
    kept as the definition ACCEPT-04 pins, and perfbench wraps it."""
    return UncertaintyTables(u_q=m.mean(axis=(1, 2)), u_v=m.mean(axis=0))


def pair_uncertainties(u_q, u_v, best):
    """(N_q, N_v) uncertainty of every pair at its best frame."""
    u = u_v[np.arange(best.shape[1])[None, :], best]
    u += u_q[:, None]
    u /= 2.0
    return u


def threshold_schedule(positives, pair_u) -> Thresholds:
    """The per-epoch thresholds: tau_s the mean of the N_q positive-pair
    scores `positives`, tau_u the mean of the (N_q, N_v) pair
    uncertainties `pair_u`."""
    if len(positives) == 0:
        raise ConfigError("cannot compute thresholds on an empty train set")
    return Thresholds(tau_s=float(positives.mean()), tau_u=float(pair_u.mean()))


def is_ambiguous(scores, pair_u, thr: Thresholds):
    """The two-criteria rule, strict on both thresholds; callers mask out
    the positives."""
    return (scores > thr.tau_s) & (pair_u > thr.tau_u)


def compute_thresholds(m, pairing: np.ndarray, tables: UncertaintyTables) -> Thresholds:
    """Per-epoch thresholds from the map m and its tables; kept as the map
    form ACCEPT-05 checks, and perfbench wraps it."""
    scores, best = map_retrieval_scores(m)
    return threshold_schedule(scores[np.arange(len(pairing)), pairing],
                              pair_uncertainties(tables.u_q, tables.u_v, best))


def corpus_thresholds(params, corpus):
    """One branch's per-epoch (UncertaintyTables, Thresholds), streamed.

    Reads only what the thresholds need (similarity.best_frames): every
    pair's best frame and the N_q positive scores. Matches
    compute_uncertainty and compute_thresholds on build_corpus_map's map
    without holding it: tau_s bitwise, the tables and tau_u up to the
    closed form's rounding.
    """
    best, positives, tables = best_frames(params, corpus)
    return tables, threshold_schedule(positives,
                                      pair_uncertainties(tables.u_q, tables.u_v, best))


def batch_slots(batch):
    """(q_idx, v_idx, same_video) of a list of (query, video) index pairs:
    each slot's query and video, and the (b, b) mask of one-video slots."""
    q_idx = np.asarray([q for q, _ in batch])
    v_idx = np.asarray([v for _, v in batch])
    return q_idx, v_idx, v_idx[:, None] == v_idx[None, :]


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
    q_idx, v_idx, pos = batch_slots(batch)
    u = pair_uncertainties(tables.u_q[q_idx], tables.u_v[v_idx], best_frames)
    amb = (~pos) & is_ambiguous(scores, u, thresholds)
    return AmbiguitySets(pos=pos, amb=amb)


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
    q_idx, v_idx, same_video = batch_slots(batch)

    own = frame_sims[slots, slots]                       # (b, L_v): pair p's own video
    best = np.argmax(own, axis=1)
    u_f = (tables.u_q[q_idx][:, None] + tables.u_v[v_idx]) / 2.0
    amb_f = is_ambiguous(own, u_f, thresholds)
    amb_f[slots, best] = False
    neg_f = ~amb_f
    neg_f[slots, best] = False

    sel = frame_sims[:, slots, best].T                   # [p, x]: query x at p's best frame
    u_sel = (tables.u_q[q_idx][None, :] + tables.u_v[v_idx, best][:, None]) / 2.0
    amb_q = ~same_video & is_ambiguous(sel, u_sel, thresholds)
    neg_q = ~(same_video | amb_q)

    return FrameSets(best_frame=best, amb_frame_mask=amb_f, neg_frame_mask=neg_f,
                     amb_query_mask=amb_q, neg_query_mask=neg_q)
