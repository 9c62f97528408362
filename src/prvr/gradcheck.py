"""Central finite-difference verification of the end-to-end gradients.

Each instance builds a small random batch, detects ambiguity sets once at
the base parameters (set membership is discrete and held fixed, exactly
as within one training step), then compares the backprop gradient of the
combined video+frame objective against central differences for every
parameter element.
"""

import numpy as np

from . import autodiff as ad
from .ambiguity import (Thresholds, UncertaintyTables, detect_frame_ambiguity,
                        detect_video_ambiguity, pair_uncertainties)
from .config import TrainConfig
from .encoder import EncoderDims, EncoderParams, collect_tape, wrap_params
from .losses import grand_total, loss_frame, loss_video
from .trainer import _forward_batch

FD_STEP = 1e-4
REL_TOL = 1e-4


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    dims = EncoderDims(
        d_t=int(rng.integers(3, 7)),
        d_v=int(rng.integers(3, 7)),
        l_q=int(rng.integers(2, 5)),
        l_v=int(rng.integers(2, 5)),
        d=int(rng.integers(4, 9)),
    )
    b = int(rng.integers(2, 5))
    params = EncoderParams.initialize(dims, int(rng.integers(0, 2**31)))
    text = rng.normal(size=(b, dims.l_q, dims.d_t))
    video = rng.normal(size=(b, dims.l_v, dims.d_v))
    pairs = [(i, i) for i in range(b)]

    tables = UncertaintyTables(
        u_q=rng.uniform(-0.2, 0.6, size=b),
        u_v=rng.uniform(-0.2, 0.6, size=(b, dims.l_v)),
    )
    # thresholds at the medians so ambiguous, negative, and frame sets
    # are all usually non-empty and every loss path carries gradient
    frame_sims, scores, best = _forward_batch(params, text, video, pairs)
    off = ~np.eye(b, dtype=bool)
    u = pair_uncertainties(tables.u_q, tables.u_v, best)
    thr = Thresholds(tau_s=float(np.median(scores[off])),
                     tau_u=float(np.median(u[off])))
    vsets = detect_video_ambiguity(pairs, scores, best, tables, thr)
    fsets = detect_frame_ambiguity(pairs, frame_sims, tables, thr)
    cfg = TrainConfig()

    def build_loss(p):
        f, s, _ = _forward_batch(p, text, video, pairs)
        return grand_total(loss_video(s, vsets, cfg), loss_frame(f, fsets, cfg))

    return params, build_loss


def check_instance(seed) -> float:
    """Max relative gradient error of one random instance."""
    params, build_loss = _random_instance(seed)
    wrapped = wrap_params(params)
    tape = collect_tape(wrapped, build_loss(wrapped))

    max_rel = 0.0
    base = EncoderParams(params.dims, {k: v.copy() for k, v in params.tensors.items()})
    for name in params.names():
        flat = base.tensors[name].reshape(-1)
        g_flat = tape[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            f_plus = float(ad.val(build_loss(base)))
            flat[idx] = orig - FD_STEP
            f_minus = float(ad.val(build_loss(base)))
            flat[idx] = orig
            g_fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            rel = abs(g_flat[idx] - g_fd) / max(1.0, abs(g_fd))
            if rel > max_rel:
                max_rel = rel
    return max_rel


def run_suite(seed=1, instances=20):
    """Max relative error across a batch of random instances."""
    errors = [check_instance(seed * 1000 + k) for k in range(instances)]
    return max(errors), errors
