"""Dual-branch training loop with per-epoch ambiguity refresh.

Two architecturally identical branches (different init seeds, identical
data order) train side by side. After the warmup epochs, each branch
rescores the corpus into uncertainty tables and thresholds at the start
of every epoch from its own parameters; per batch each branch
detects ambiguity sets with its own live scores, and with cross_model
enabled the branches swap sets before computing their losses. The
swapped frame sets carry the frame anchor k^, the peer's best frame, so
each branch's frame objective raises the frame its peer ranks best.
Each branch's loss is `losses.branch_loss` on the sets it uses. Updates
are simultaneous within a batch.

All randomness is derived statelessly from (seed, purpose, epoch), so a
checkpoint needs only the config, epoch counter, parameters, and
optimizer moments to reproduce the remaining trajectory exactly.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .ambiguity import corpus_thresholds, detect_frame_ambiguity, detect_video_ambiguity
from .config import TrainConfig, resolved_lines, train_config_from_text
from .corpus import FeatureCorpus, _atomic_open, _read_exact
from .encoder import (EncoderDims, EncoderParams, _param_specs, collect_tape, encode_text,
                      encode_video, wrap_params)
from .errors import ConfigError, DimensionError, FormatError, NumericalError
from .losses import branch_loss, forced_negative_sets
from .similarity import cosine_pairs

CKPT_MAGIC = b"PRVK"
CKPT_VERSION = 2
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Logged per branch as means over an epoch's batches: the loss components,
# then the detected-set sizes per pair.
_SUM_COLUMNS = ("nce_t2v", "nce_v2t", "trip_a", "trip_n", "video_total", "frame_total",
                "grand_total", "amb_videos", "neg_videos", "amb_frames")
LOG_COLUMNS = ("epoch", "branch", "phase", "tau_s", "tau_u") + _SUM_COLUMNS


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def zeros(cls, params: EncoderParams):
        return cls(m={k: np.zeros_like(v) for k, v in params.tensors.items()},
                   v={k: np.zeros_like(v) for k, v in params.tensors.items()})


@dataclass
class BranchState:
    params: EncoderParams
    adam: AdamState


@dataclass
class DualBranchState:
    theta: BranchState
    phi: BranchState
    epoch: int              # completed epochs
    cfg: TrainConfig


def _branch_seed(base_seed: int, which: int) -> int:
    ss = np.random.SeedSequence([base_seed & _SEED_MASK, which])
    return int(ss.generate_state(1, np.uint64)[0])


def _epoch_rng(base_seed: int, epoch: int):
    return np.random.default_rng(np.random.SeedSequence([base_seed & _SEED_MASK, 2, epoch]))


def init_state(corpus: FeatureCorpus, cfg: TrainConfig) -> DualBranchState:
    cfg.validate()
    dims = EncoderDims(d_t=corpus.d_t, d_v=corpus.d_v,
                       l_q=corpus.l_q, l_v=corpus.l_v, d=cfg.embed_dim)
    branches = []
    for which in (0, 1):
        params = EncoderParams.initialize(dims, _branch_seed(cfg.seed, which))
        branches.append(BranchState(params=params, adam=AdamState.zeros(params)))
    return DualBranchState(theta=branches[0], phi=branches[1], epoch=0, cfg=cfg)


def check_corpus_dims(state: DualBranchState, corpus: FeatureCorpus) -> None:
    """Raise DimensionError unless the corpus has the encoders' input shapes."""
    dims = state.theta.params.dims
    want = (dims.d_t, dims.d_v, dims.l_q, dims.l_v)
    got = (corpus.d_t, corpus.d_v, corpus.l_q, corpus.l_v)
    if got != want:
        raise DimensionError(f"corpus (d_t, d_v, l_q, l_v) = {got} does not match "
                             f"the encoders' {want}")


def _forward_batch(params: EncoderParams, text, video, pairs):
    """Batch forward: returns (frame cosine tensor, scores, best frames).

    params holds arrays, or Vars from wrap_params when a tape follows.
    text/video are whole feature arrays; only the rows of the batch are
    gathered (the encoders cast them to float64), and each side is
    encoded in one call. Tensors with leading (probe) axes give outputs
    with those axes first; the frame axis is always the last.
    """
    q = encode_text(params, text[[i for i, _ in pairs]])
    v = encode_video(params, video[[j for _, j in pairs]])
    frame_sims = cosine_pairs(q, v)
    scores, best = ad.reduce_max(frame_sims, axis=-1)
    return frame_sims, scores, best


def _adam_update(branch: BranchState, tape, cfg: TrainConfig):
    st = branch.adam
    st.t += 1
    for name in branch.params.names():
        g = tape[name]
        st.m[name] = ADAM_BETA1 * st.m[name] + (1.0 - ADAM_BETA1) * g
        st.v[name] = ADAM_BETA2 * st.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = st.m[name] / (1.0 - ADAM_BETA1 ** st.t)
        v_hat = st.v[name] / (1.0 - ADAM_BETA2 ** st.t)
        branch.params.tensors[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _epoch_batches(n_q, cfg: TrainConfig, epoch: int):
    perm = _epoch_rng(cfg.seed, epoch).permutation(n_q)
    n_full = n_q // cfg.batch_size
    return [perm[k * cfg.batch_size:(k + 1) * cfg.batch_size] for k in range(n_full)]


def train(corpus: FeatureCorpus, cfg: TrainConfig = None, state: DualBranchState = None):
    """Run (or continue) the full training procedure.

    Returns (DualBranchState, log_rows); log_rows is a list of per-epoch
    per-branch dicts with loss components, thresholds, and set sizes.
    """
    if corpus.split != "train":
        raise ConfigError("training requires a train-split corpus")
    if state is None:
        if cfg is None:
            raise ConfigError("train needs a config or a state to resume")
        state = init_state(corpus, cfg)
    cfg = state.cfg
    if corpus.n_q < cfg.batch_size:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds corpus size {corpus.n_q}")

    check_corpus_dims(state, corpus)

    branches = (state.theta, state.phi)
    log_rows = []

    for epoch in range(state.epoch + 1, cfg.epochs + 1):
        lad_active = epoch > cfg.warmup_epochs and (cfg.video_lad or cfg.frame_lad)
        # per branch (UncertaintyTables, Thresholds), or Nones in warmup
        epoch_ctx = [corpus_thresholds(branch.params, corpus) if lad_active
                     else (None, None) for branch in branches]

        sums = [dict.fromkeys(_SUM_COLUMNS, 0.0) for _ in branches]

        batches = _epoch_batches(corpus.n_q, cfg, epoch)
        for bi, batch_idx in enumerate(batches):
            pairs = [(int(i), int(corpus.pairing[i])) for i in batch_idx]

            fwd, detected = [], []
            for branch, (tables, thr) in zip(branches, epoch_ctx):
                wrapped = wrap_params(branch.params)
                frame_sims, scores, best = _forward_batch(wrapped, corpus.text_features,
                                                         corpus.video_features, pairs)
                fwd.append((wrapped, frame_sims, scores))
                if lad_active:
                    vsets = (detect_video_ambiguity(pairs, ad.val(scores), best, tables, thr)
                             if cfg.video_lad else forced_negative_sets(pairs))
                    fsets = (detect_frame_ambiguity(pairs, ad.val(frame_sims), tables, thr)
                             if cfg.frame_lad else None)
                else:
                    vsets, fsets = forced_negative_sets(pairs), None
                detected.append((vsets, fsets))

            for b_i, (branch, (wrapped, frame_sims, scores)) in enumerate(zip(branches, fwd)):
                use = detected[1 - b_i] if (lad_active and cfg.cross_model) else detected[b_i]
                try:
                    total, video, frame = branch_loss(frame_sims, scores, use, cfg)
                    if not np.isfinite(ad.val(total)):
                        raise NumericalError("non-finite training loss")
                    _adam_update(branch, collect_tape(wrapped, total), cfg)
                except NumericalError as exc:
                    raise NumericalError(f"{exc} at epoch {epoch} batch {bi}") from exc

                s = sums[b_i]
                for k, x in zip(_SUM_COLUMNS, map(ad.val, (
                        video["nce_t2v"], video["nce_v2t"], video["trip_a"], video["trip_n"],
                        video["total"], frame["total"], total))):
                    s[k] += float(x)
                # the loss graph reaches back through the branch's whole forward;
                # held, it would keep this batch's forward into the next update
                del total, video, frame
                own_v, own_f = detected[b_i]
                b = len(pairs)
                s["amb_videos"] += float(own_v.amb.sum()) / b
                s["neg_videos"] += float(own_v.neg.sum()) / b
                if own_f is not None:
                    s["amb_frames"] += float(own_f.amb_frame_mask.sum()) / b
            # held, this batch's graphs would outlive it into the next forwards
            del fwd, wrapped, frame_sims, scores

        for b_i, name in enumerate(("theta", "phi")):
            _, thr = epoch_ctx[b_i]
            row = {"epoch": epoch, "branch": name,
                   "phase": "arl" if lad_active else "warmup",
                   "tau_s": thr.tau_s if thr else None,
                   "tau_u": thr.tau_u if thr else None}
            row.update({k: v / len(batches) for k, v in sums[b_i].items()})
            log_rows.append(row)
        state.epoch = epoch

    return state, log_rows


# --- checkpoint format -------------------------------------------------

def _write_branch(fh, branch: BranchState):
    fh.write(struct.pack("<Q", branch.adam.t))
    for name in branch.params.names():
        for arr in (branch.params.tensors[name], branch.adam.m[name], branch.adam.v[name]):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_branch(fh, dims: EncoderDims) -> BranchState:
    (t,) = struct.unpack("<Q", _read_exact(fh, 8, "adam_t"))
    tensors, m, v = {}, {}, {}
    for name, shape, _ in _param_specs(dims):
        out = []
        for part in ("param", "adam_m", "adam_v"):
            data = _read_exact(fh, 8 * math.prod(shape), f"{name}.{part}")
            arr = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise FormatError(f"{name}.{part}: non-finite value")
            out.append(arr)
        tensors[name], m[name], v[name] = out
    params = EncoderParams(dims, tensors)
    return BranchState(params=params, adam=AdamState(m=m, v=v, t=t))


def checkpoint(state: DualBranchState, path) -> None:
    """Serialize the full training state (pure w.r.t. state); the config
    block is byte-equal to the `config.resolved` of the run."""
    cfg_blob = ("\n".join(resolved_lines(state.cfg)) + "\n").encode("utf-8")
    dims = state.theta.params.dims
    with _atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", CKPT_MAGIC, CKPT_VERSION))
        fh.write(struct.pack("<I", len(cfg_blob)))
        fh.write(cfg_blob)
        fh.write(struct.pack("<IIII", dims.d_t, dims.d_v, dims.l_q, dims.l_v))
        fh.write(struct.pack("<I", state.epoch))
        _write_branch(fh, state.theta)
        _write_branch(fh, state.phi)


def resume(path) -> DualBranchState:
    """Load a checkpoint; the embedded config, validated like a config
    file, rides along as state.cfg and gives the embedding width."""
    with open(path, "rb") as fh:
        magic, version = struct.unpack("<4sI", _read_exact(fh, 8, "header"))
        if magic != CKPT_MAGIC:
            raise FormatError(f"magic: expected {CKPT_MAGIC!r}, got {magic!r}")
        if version != CKPT_VERSION:
            raise FormatError(f"version: unsupported value {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        cfg_blob = _read_exact(fh, cfg_len, "config block")
        try:
            cfg = train_config_from_text(cfg_blob.decode("utf-8"))
        except (ConfigError, ValueError) as exc:
            raise FormatError(f"config block: {exc}") from exc
        d_t, d_v, l_q, l_v = struct.unpack("<IIII", _read_exact(fh, 16, "dims"))
        dims = EncoderDims(d_t=d_t, d_v=d_v, l_q=l_q, l_v=l_v, d=cfg.embed_dim)
        (epoch,) = struct.unpack("<I", _read_exact(fh, 4, "epoch"))
        theta = _read_branch(fh, dims)
        phi = _read_branch(fh, dims)
        if fh.read(1):
            raise FormatError("payload: unexpected trailing bytes")
    return DualBranchState(theta=theta, phi=phi, epoch=epoch, cfg=cfg)
