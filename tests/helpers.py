"""Test-only views and comparisons that no CLI path needs.

Unlike oracles.py, these call the library: the two video-level loss
views read `prvr.losses`' private body, and `same_corpus` compares two
corpora field by field.
"""

import numpy as np

from prvr.losses import _hinge, _nce, _video_level


def loss_nce_slots(scores, sets):
    """Per-slot contrastive losses of the video level, query over videos
    and video over queries, as two (*probes, b) arrays."""
    return tuple(_nce(*_video_level(scores, sets.amb, sets.neg)))


def loss_triplet(scores, mask, margin):
    """Video-level hinge against the hardest member of `mask` (b, b), per
    query over videos and per video over queries, summed over slots and
    divided by b (one value per probe)."""
    return _hinge(*_video_level(scores, mask, mask), 0, margin)


def same_corpus(a, b):
    """Same split, planted set, features and pairing."""
    return (a.split == b.split and a.planted_ambiguity == b.planted_ambiguity
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("text_features", "video_features", "pairing")))
