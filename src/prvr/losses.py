"""Training objectives: multi-positive contrastive and dual-margin triplets.

ARL runs one objective, `_objective`, at two levels. A level is a flat
score vector, the flat positions of its b anchors (the positive scores)
and a list of gathers: index arrays into the flat scores, each with the
directions that reduce it, an (ambiguous mask, negative mask, axis)
triple each. Per direction the contrastive numerator keeps the anchor
plus the ambiguous members (not pushed down as negatives, but not all
forced positive either) and the denominator adds the negatives; the two
triplet hinges take the hardest ambiguous (margin_ma) and the hardest
negative (margin_m) member over all directions. The video level is one
identity gather of the (b, b) scores, reduced per query and per video;
the frame level gathers each pair's own frames and the batch queries at
its best frame. `branch_loss` adds the two levels on one branch's sets;
it is the objective that training and grad-check differentiate. Warmup
is the video objective with ambiguous sets forced empty. Exponentials use
raw cosine scores; empty sets add exact zeros. The margins and lambda_nce
are TrainConfig fields, checked by its validate.

Scores may carry leading probe axes, (*probes, b, b) and (*probes, b, b,
L_v), as grad-check's probe-batched forward gives them; training passes
none. Every axis is counted from the end. A level flattens its whole
score tensor and offsets each probe's positions by its block, so every
gather is one flat take and every reduction (over members, then over
anchors) keeps the probe axes: each loss comes out (*probes,), and the
hardest member is picked per probe. The sets and masks are shared by all
probes.
"""

import math

import numpy as np

from . import autodiff as ad
from .ambiguity import AmbiguitySets, FrameSets, batch_slots
from .config import TrainConfig

__all__ = [
    "loss_nce_slots", "loss_triplet", "loss_video", "loss_frame", "branch_loss",
    "loss_warmup", "forced_negative_sets",
]


def _contrast(e_pos, e, amb, neg, axis):
    """log(den) - log(num) per anchor: num keeps the positive plus the
    ambiguous members of `e` along `axis`, den adds the negatives."""
    num = ad.add(e_pos, ad.reduce_sum(ad.mul(e, amb), axis=axis))
    den = ad.add(num, ad.reduce_sum(ad.mul(e, neg), axis=axis))
    return ad.sub(ad.log(den), ad.log(num))


def _flat_level(x, ndim):
    """x flattened whole, and the flat offset of each block of its last
    `ndim` axes, one block per probe, shaped (*probes, 1) so that it
    broadcasts against positions within a block ((1,) without probes)."""
    shape = np.shape(ad.val(x))
    probes, block = shape[:-ndim], math.prod(shape[-ndim:])
    offsets = np.arange(math.prod(probes)).reshape(probes + (1,)) * block
    return ad.reshape(x, (-1,)), offsets


def _objective(flat, offsets, anchors, gathers, cfg: TrainConfig):
    """The one ARL body over a level's flat score vector: the (*probes, b)
    contrastive losses of every direction, in order (`_nce`), and the
    (*probes,) ambiguous (margin_ma) and negative (margin_m) triplet hinges
    over all directions (`_hinge`).

    Positions are flat positions within one probe's block, which
    `offsets` (*probes, 1) shift to each probe's. anchors (b,) are the
    positions of the positive scores. Each gather is (idx, directions):
    idx a 2-D integer array of positions, each direction an (amb, neg,
    axis) triple of boolean masks shaped like idx that reduce along
    `axis` (-1 for a (b, n) idx, -2 for an (n, b) one) to one value per
    anchor.
    """
    return (_nce(flat, offsets, anchors, gathers),
            _hinge(flat, offsets, anchors, gathers, 0, cfg.margin_ma),
            _hinge(flat, offsets, anchors, gathers, 1, cfg.margin_m))


def _nce(flat, offsets, anchors, gathers):
    """The (*probes, b) contrastive losses of every direction; exp is taken
    once of the anchors and once per gather."""
    e_anchor = ad.exp(ad.take(flat, offsets + anchors))
    nce = []
    for idx, directions in gathers:
        e = ad.exp(ad.take(flat, offsets[..., None] + idx))
        nce += [_contrast(e_anchor, e, amb.astype(np.float64), neg.astype(np.float64), axis)
                for amb, neg, axis in directions]
    return nce


def _hinge(flat, offsets, anchors, gathers, which, margin):
    """sum(relu(hardest - anchor + margin)) / b over every direction, per
    probe. Each probe's hardest member (lowest position on ties) is drawn
    from each direction's mask `which` (0 ambiguous, 1 negative) by its
    own scores; empty sets add nothing, and no members at all give an
    exact zero."""
    fv = np.asarray(ad.val(flat))
    slots = np.arange(len(anchors))
    hard, ok = [], []
    for idx, directions in gathers:
        values = fv[offsets[..., None] + idx]
        for *masks, axis in directions:
            mask = masks[which]
            k = np.argmax(np.where(mask, values, -np.inf), axis=axis)
            hard.append(idx[slots, k] if axis == -1 else idx[k, slots])
            ok.append(mask.any(axis=axis))
    valid = np.concatenate(ok)
    if not valid.any():
        return 0.0
    gap = ad.sub(ad.take(flat, offsets + np.concatenate(hard, axis=-1)[..., valid]),
                 ad.take(flat, offsets + np.concatenate([anchors] * len(ok))[valid]))
    return ad.div(ad.reduce_sum(ad.relu(ad.add(gap, float(margin))), axis=-1),
                  float(len(anchors)))


def _video_level(scores, amb, neg):
    """Flat (*probes, b, b) scores and their offsets, the diagonal anchors,
    and one identity gather reduced over videos per query (axis -1) and
    over queries per video (axis -2)."""
    b = len(amb)
    idx = np.arange(b * b).reshape(b, b)
    return (*_flat_level(scores, 2), np.diagonal(idx),
            [(idx, [(amb, neg, -1), (amb, neg, -2)])])


def loss_nce_slots(scores, sets: AmbiguitySets):
    """Per-slot contrastive losses of the video level, query over videos
    and video over queries, as two (*probes, b) arrays."""
    return tuple(_nce(*_video_level(scores, sets.amb, sets.neg)))


def loss_triplet(scores, mask, margin):
    """Video-level hinge against the hardest member of `mask` (b, b), per
    query over videos and per video over queries, summed over slots and
    divided by b (one value per probe)."""
    return _hinge(*_video_level(scores, mask, mask), 0, margin)


def loss_video(scores, sets: AmbiguitySets, cfg: TrainConfig):
    """Combined video-level objective; returns a dict of components."""
    (t2v, v2t), trip_a, trip_n = _objective(*_video_level(scores, sets.amb, sets.neg), cfg)
    nce_t2v, nce_v2t = ad.reduce_mean(t2v, axis=-1), ad.reduce_mean(v2t, axis=-1)
    total = ad.add(ad.add(ad.mul(ad.add(nce_t2v, nce_v2t), cfg.lambda_nce), trip_a), trip_n)
    return {"nce_t2v": nce_t2v, "nce_v2t": nce_v2t,
            "trip_a": trip_a, "trip_n": trip_n, "total": total}


def loss_frame(frame_sims, frames: FrameSets, cfg: TrainConfig):
    """Frame-level objective over a (*probes, b, b, L_v) cosine tensor.

    Per pair p the anchor is its best frame k^; the frames of p's video
    contrast against it (text -> frames) and so do the batch queries at
    frame k^ (frame -> text). Returns zeros when L_v == 1: a single frame
    is the whole video, so the frame level would only duplicate the video
    objective.
    """
    b, _, l_v = np.shape(ad.val(frame_sims))[-3:]
    if l_v == 1:
        return {"nce": 0.0, "trip_a": 0.0, "trip_n": 0.0, "total": 0.0}
    slots = np.arange(b)
    k_hat = np.asarray(frames.best_frame)
    # own[p, k] = sims[p, p, k], sel[p, x] = sims[x, p, k^_p], anchor sims[p, p, k^_p]
    own_idx = (slots * (b + 1) * l_v)[:, None] + np.arange(l_v)
    sel_idx = (slots[None, :] * b + slots[:, None]) * l_v + k_hat[:, None]
    (own, sel), trip_a, trip_n = _objective(
        *_flat_level(frame_sims, 3), slots * (b + 1) * l_v + k_hat,
        [(own_idx, [(frames.amb_frame_mask, frames.neg_frame_mask, -1)]),
         (sel_idx, [(frames.amb_query_mask, frames.neg_query_mask, -1)])], cfg)
    nce = ad.div(ad.reduce_sum(ad.add(own, sel), axis=-1), float(b))
    total = ad.add(ad.add(ad.mul(nce, cfg.lambda_nce), trip_a), trip_n)
    return {"nce": nce, "trip_a": trip_a, "trip_n": trip_n, "total": total}


def branch_loss(frame_sims, scores, sets, cfg: TrainConfig):
    """One branch's objective on `sets`, (video sets, frame sets or None):
    the video level plus, given frame sets, the frame level. Returns
    (total, video parts, frame parts); without frame sets the frame parts
    are {"total": 0.0}. Training and grad-check differentiate this total.
    """
    video_sets, frame_sets = sets
    video = loss_video(scores, video_sets, cfg)
    frame = (loss_frame(frame_sims, frame_sets, cfg) if frame_sets is not None
             else {"total": 0.0})
    return ad.add(video["total"], frame["total"]), video, frame


def forced_negative_sets(batch) -> AmbiguitySets:
    """Video-level sets with every non-positive slot treated as negative."""
    pos = batch_slots(batch)[2]
    return AmbiguitySets(pos=pos, amb=np.zeros_like(pos))


def loss_warmup(scores, batch, cfg: TrainConfig):
    """Warmup objective: the video objective with ambiguity forced empty."""
    return loss_video(scores, forced_negative_sets(batch), cfg)
