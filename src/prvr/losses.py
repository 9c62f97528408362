"""Training objectives: multi-positive contrastive and dual-margin triplets.

Video level: for each positive pair, the contrastive numerator keeps the
pair plus its ambiguous set (ambiguous members are not pushed down as
negatives, but not all are forced positive either); the denominator adds
the negative set. Two triplet losses use the hardest member of the
ambiguous set (small margin) and of the negative set (full margin).

Frame level applies the same functional form inside the paired video
(frames vs the best frame) and across batch queries against the selected
frame. The warmup objective is the video objective with ambiguous sets
forced empty.

Exponentials use raw cosine scores. Empty contrast sets contribute exact
zeros.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .ambiguity import AmbiguitySets, FrameSets
from .errors import ConfigError

__all__ = [
    "LossConfig", "LossBreakdown",
    "loss_nce_t2v", "loss_nce_v2t", "loss_nce",
    "loss_triplet", "loss_video", "loss_frame", "loss_warmup",
    "forced_negative_sets", "grand_total",
]


@dataclass(frozen=True)
class LossConfig:
    margin_m: float = 0.2
    margin_ma: float = 0.1
    lambda_nce: float = 0.02

    def validate(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.margin_m < 0 or self.margin_ma < 0:
            raise ConfigError("margins must be nonnegative")
        if not self.margin_ma < self.margin_m:
            raise ConfigError(
                f"margin_ma ({self.margin_ma}) must be smaller than margin_m ({self.margin_m})")
        if self.lambda_nce <= 0:
            raise ConfigError("lambda_nce must be positive")


@dataclass
class LossBreakdown:
    nce_t2v: float
    nce_v2t: float
    trip_a: float
    trip_n: float
    video_total: float
    frame_total: float
    grand_total: float


def _scalar(x):
    """Extract a python float from a Var/ndarray scalar."""
    return float(np.asarray(ad.val(x)))


def _contrast(e_pos, e, amb, neg, axis):
    """log(den) - log(num) per anchor: num keeps the positive plus the
    ambiguous members of `e` along `axis`, den adds the negatives."""
    num = ad.add(e_pos, ad.reduce_sum(ad.mul(e, amb), axis=axis))
    den = ad.add(num, ad.reduce_sum(ad.mul(e, neg), axis=axis))
    return ad.sub(ad.log(den), ad.log(num))


def _nce_vectors(scores, sets: AmbiguitySets):
    """Per-slot contrastive losses for both directions, as (b,) vectors."""
    b = len(sets.pos)
    e = ad.exp(scores)
    flat = ad.reshape(e, (b * b,))
    diag = ad.take(flat, np.arange(b) * (b + 1))
    amb_mask = sets.amb.astype(np.float64)
    neg_mask = sets.neg.astype(np.float64)
    return (_contrast(diag, e, amb_mask, neg_mask, axis=1),
            _contrast(diag, e, amb_mask, neg_mask, axis=0))


def loss_nce_t2v(pair_slot, scores, sets: AmbiguitySets):
    """Contrastive loss of one positive pair, query anchored over videos."""
    t2v, _ = _nce_vectors(scores, sets)
    return _scalar(ad.val(t2v)[pair_slot]) if not isinstance(t2v, ad.Var) \
        else ad.reshape(ad.take(t2v, [pair_slot]), ())


def loss_nce_v2t(pair_slot, scores, sets: AmbiguitySets):
    """Contrastive loss of one positive pair, video anchored over queries."""
    _, v2t = _nce_vectors(scores, sets)
    return _scalar(ad.val(v2t)[pair_slot]) if not isinstance(v2t, ad.Var) \
        else ad.reshape(ad.take(v2t, [pair_slot]), ())


def loss_nce(scores, sets: AmbiguitySets):
    """Batch means of the two contrastive directions."""
    t2v, v2t = _nce_vectors(scores, sets)
    return ad.reduce_mean(t2v), ad.reduce_mean(v2t)


def _hardest(values, mask):
    """Per row, the column of the largest masked entry (lowest on ties)
    and whether the row has any masked entry."""
    return np.argmax(np.where(mask, values, -np.inf), axis=1), mask.any(axis=1)


def _hinge_mean(flat, hard_idx, anchor_idx, margin, b):
    """sum(relu(flat[hard] - flat[anchor] + margin)) / b over index pairs;
    no pairs give an exact zero."""
    if len(hard_idx) == 0:
        return 0.0
    gap = ad.sub(ad.take(flat, hard_idx), ad.take(flat, anchor_idx))
    return ad.div(ad.reduce_sum(ad.relu(ad.add(gap, float(margin)))), float(b))


def loss_triplet(scores, sets: AmbiguitySets, margin, mode):
    """Hinge loss against the hardest member of the given contrast sets.

    mode "ambiguous" draws from the ambiguous sets, "negative" from the
    negative sets; per pair, both directions (contrast video for the
    query, contrast query for the video) contribute, empty sets
    contribute zero, and the sum is averaged over the batch.
    """
    if mode == "ambiguous":
        mask = sets.amb
    elif mode == "negative":
        mask = sets.neg
    else:
        raise ConfigError(f"unknown triplet mode {mode!r}")
    b = len(sets.pos)
    sv = np.asarray(ad.val(scores), dtype=np.float64)
    slots = np.arange(b)
    video, row_ok = _hardest(sv, mask)          # hardest contrast video per query slot
    query, col_ok = _hardest(sv.T, mask.T)      # hardest contrast query per video slot
    valid = np.concatenate([row_ok, col_ok])
    hard = np.concatenate([slots * b + video, query * b + slots])[valid]
    anchor = np.tile(slots * (b + 1), 2)[valid]
    return _hinge_mean(ad.reshape(scores, (b * b,)), hard, anchor, margin, b)


def loss_video(scores, sets: AmbiguitySets, cfg: LossConfig):
    """Combined video-level objective; returns a dict of components."""
    nce_t2v, nce_v2t = loss_nce(scores, sets)
    trip_a = loss_triplet(scores, sets, cfg.margin_ma, "ambiguous")
    trip_n = loss_triplet(scores, sets, cfg.margin_m, "negative")
    total = ad.add(ad.add(ad.mul(ad.add(nce_t2v, nce_v2t), cfg.lambda_nce), trip_a), trip_n)
    return {"nce_t2v": nce_t2v, "nce_v2t": nce_v2t,
            "trip_a": trip_a, "trip_n": trip_n, "total": total}


def loss_frame(frame_sims, frames: FrameSets, cfg: LossConfig):
    """Frame-level objective over a (b, b, L_v) cosine tensor.

    Per pair p the anchor is its best frame k^; the frames of p's video
    contrast against it (text -> frames) and so do the batch queries at
    frame k^ (frame -> text). Returns zeros when L_v == 1: a single frame
    is the whole video, so the frame level would only duplicate the video
    objective.
    """
    b, _, l_v = np.shape(ad.val(frame_sims))
    if l_v == 1:
        return {"nce": 0.0, "trip_a": 0.0, "trip_n": 0.0, "total": 0.0}

    slots = np.arange(b)
    k_hat = np.asarray(frames.best_frame)
    flat = ad.reshape(frame_sims, (b * b * l_v,))
    # flat positions of own[p, k] = sims[p, p, k], sel[p, x] = sims[x, p, k^_p]
    # and the anchor sims[p, p, k^_p]
    own_idx = (slots * (b + 1) * l_v)[:, None] + np.arange(l_v)
    sel_idx = (slots[None, :] * b + slots[:, None]) * l_v + k_hat[:, None]
    anchor_idx = slots * (b + 1) * l_v + k_hat

    def exp_at(idx):
        return ad.exp(ad.take(flat, idx))

    amb_f, neg_f = frames.amb_frame_mask, frames.neg_frame_mask
    amb_q, neg_q = frames.amb_query_mask, frames.neg_query_mask
    e_anchor = exp_at(anchor_idx)
    nce = ad.add(
        _contrast(e_anchor, exp_at(own_idx), amb_f.astype(np.float64), neg_f.astype(np.float64), 1),
        _contrast(e_anchor, exp_at(sel_idx), amb_q.astype(np.float64), neg_q.astype(np.float64), 1))
    nce = ad.div(ad.reduce_sum(nce), float(b))

    fv = np.asarray(ad.val(frame_sims), dtype=np.float64).reshape(-1)
    own_v, sel_v = fv[own_idx], fv[sel_idx]

    def triplet(mask_f, mask_q, margin):
        k_star, f_ok = _hardest(own_v, mask_f)
        x_star, q_ok = _hardest(sel_v, mask_q)
        valid = np.concatenate([f_ok, q_ok])
        hard = np.concatenate([own_idx[slots, k_star], sel_idx[slots, x_star]])[valid]
        return _hinge_mean(flat, hard, np.tile(anchor_idx, 2)[valid], margin, b)

    trip_a = triplet(amb_f, amb_q, cfg.margin_ma)
    trip_n = triplet(neg_f, neg_q, cfg.margin_m)
    total = ad.add(ad.add(ad.mul(nce, cfg.lambda_nce), trip_a), trip_n)
    return {"nce": nce, "trip_a": trip_a, "trip_n": trip_n, "total": total}


def forced_negative_sets(batch) -> AmbiguitySets:
    """Video-level sets with every non-positive slot treated as negative."""
    v_idx = np.asarray([v for _, v in batch])
    pos = v_idx[:, None] == v_idx[None, :]
    return AmbiguitySets(pos=pos, amb=np.zeros_like(pos))


def loss_warmup(scores, batch, cfg: LossConfig):
    """Warmup objective: the video objective with ambiguity forced empty."""
    return loss_video(scores, forced_negative_sets(batch), cfg)


def grand_total(video_parts, frame_parts):
    return ad.add(video_parts["total"], frame_parts["total"])


def breakdown(video_parts, frame_parts) -> LossBreakdown:
    return LossBreakdown(
        nce_t2v=_scalar(video_parts["nce_t2v"]),
        nce_v2t=_scalar(video_parts["nce_v2t"]),
        trip_a=_scalar(video_parts["trip_a"]),
        trip_n=_scalar(video_parts["trip_n"]),
        video_total=_scalar(video_parts["total"]),
        frame_total=_scalar(frame_parts["total"]),
        grand_total=_scalar(video_parts["total"]) + _scalar(frame_parts["total"]),
    )
