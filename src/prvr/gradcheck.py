"""Central finite-difference verification of the end-to-end gradients.

Each instance builds a small random batch, detects ambiguity sets once at
the base parameters (set membership is discrete and held fixed, exactly
as within one training step), then compares the backprop gradient of the
objective that training differentiates, `losses.branch_loss` on the video
and frame sets, against central differences for every parameter element.

The differences are probe-batched: for a tensor of n elements, all 2n
perturbed copies of it (+FD_STEP and -FD_STEP per element) are stacked on
a leading probe axis, shaped (2n, 1, 1, 1, *shape) so that it broadcasts
to the left of every activation axis, and run in one untraced forward;
every other tensor stays as it is. The encoders, the cosine kernel and the
losses work on negative axes and reduce per probe, so each probe's loss
has the bits of a forward with that one element moved. A non-finite
difference raises NumericalError naming its tensor.
"""

import numpy as np

from . import autodiff as ad
from .ambiguity import (Thresholds, UncertaintyTables, detect_frame_ambiguity,
                        detect_video_ambiguity, pair_uncertainties)
from .config import TrainConfig
from .encoder import EncoderDims, EncoderParams, collect_tape, wrap_params
from .errors import NumericalError
from .losses import branch_loss
from .trainer import _forward_batch

FD_STEP = 1e-4
REL_TOL = 1e-4
# Unit axes between the probe axis and a tensor's own axes. An activation
# has at most three axes ((b, L, L) attention, (b, b, L_v) cosines), so
# the probe axis lands left of every axis a tensor meets.
_PROBE_PAD = (1, 1, 1)


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
        return branch_loss(f, s, (vsets, fsets), cfg)[0]

    return params, build_loss


def probe_losses(params: EncoderParams, build_loss, name):
    """(2, n) losses: row 0 with each of the n elements of tensor `name`
    moved by +FD_STEP, row 1 by -FD_STEP, every other tensor as it is.

    All 2n perturbed copies of the tensor run in one forward, stacked on a
    leading probe axis shaped (2n, *_PROBE_PAD, *shape).
    """
    t = params.tensors[name]
    flat = t.reshape(-1)
    n = flat.size
    probes = np.tile(flat, (2, n, 1))
    i = np.arange(n)
    probes[0, i, i] = flat + FD_STEP
    probes[1, i, i] = flat - FD_STEP
    tensors = {**params.tensors, name: probes.reshape((2 * n,) + _PROBE_PAD + t.shape)}
    return np.reshape(ad.val(build_loss(EncoderParams(params.dims, tensors))), (2, n))


def check_instance(seed) -> float:
    """Max relative gradient error of one random instance.

    Raises NumericalError, naming the tensor, when a finite difference is
    not finite.
    """
    params, build_loss = _random_instance(seed)
    wrapped = wrap_params(params)
    tape = collect_tape(wrapped, build_loss(wrapped))

    max_rel = 0.0
    for name in params.names():
        f_plus, f_minus = probe_losses(params, build_loss, name)
        g_fd = (f_plus - f_minus) / (2.0 * FD_STEP)
        if not np.all(np.isfinite(g_fd)):
            raise NumericalError(f"finite difference for {name} is non-finite")
        rel = np.abs(tape[name].reshape(-1) - g_fd) / np.maximum(1.0, np.abs(g_fd))
        max_rel = max(max_rel, float(rel.max()))
    return max_rel


def run_suite(seed=1, instances=20):
    """Max relative error across a batch of random instances."""
    errors = [check_instance(seed * 1000 + k) for k in range(instances)]
    return max(errors), errors
