"""Training-loop contracts: isolation, determinism, resume, symmetry."""

import re
import struct
import weakref
from dataclasses import fields

import numpy as np
import pytest

from prvr import autodiff as ad
from prvr.corpus import CorpusSpec, generate_synthetic
from prvr.encoder import EncoderParams, collect_tape, wrap_params
from prvr.errors import ConfigError, FormatError, NumericalError
from prvr.trainer import (AdamState, BranchState, TrainConfig, _epoch_batches, _forward_batch,
                          checkpoint, init_state, resume, train)
from prvr.losses import branch_loss, forced_negative_sets, loss_video
from prvr.ambiguity import Thresholds, UncertaintyTables, detect_video_ambiguity


def make_corpus(n_q=12, n_v=6, seed=5, **kw):
    spec_kw = dict(n_q=n_q, n_v=n_v, l_q=3, l_v=4, d_t=8, d_v=9, seed=seed,
                   segments_per_video=2, ambiguity_rate=0.4, noise_scale=0.2)
    spec_kw.update(kw)
    return generate_synthetic(CorpusSpec(**spec_kw))


def make_cfg(**kw):
    base = dict(epochs=4, batch_size=4, warmup_epochs=2, embed_dim=10,
                seed=7, learning_rate=1e-3)
    base.update(kw)
    return TrainConfig(**base)


def params_bytes(branch):
    return b"".join(branch.params.tensors[n].tobytes() for n in branch.params.names())


def train_from_seeds(corpus, cfg, theta_seed, phi_seed):
    """Train from branches initialized with the given seeds, zero Adam moments."""
    state = init_state(corpus, cfg)
    for name, seed in (("theta", theta_seed), ("phi", phi_seed)):
        params = EncoderParams.initialize(state.theta.params.dims, seed)
        setattr(state, name, BranchState(params=params, adam=AdamState.zeros(params)))
    return train(corpus, state=state)


def test_deterministic_rerun_bit_identical():
    corpus = make_corpus()
    s1, log1 = train(corpus, make_cfg())
    s2, log2 = train(corpus, make_cfg())
    assert params_bytes(s1.theta) == params_bytes(s2.theta)
    assert params_bytes(s1.phi) == params_bytes(s2.phi)
    assert log1 == log2


def test_cross_model_off_isolates_branches():
    corpus = make_corpus()
    cfg = make_cfg(cross_model=False)
    s1, _ = train_from_seeds(corpus, cfg, 100, 200)
    s2, _ = train_from_seeds(corpus, cfg, 100, 999)
    # theta cannot depend on phi when no sets are exchanged
    assert params_bytes(s1.theta) == params_bytes(s2.theta)
    assert params_bytes(s1.phi) != params_bytes(s2.phi)


def test_cross_model_on_couples_branches():
    corpus = make_corpus()
    cfg = make_cfg(cross_model=True)
    s1, _ = train_from_seeds(corpus, cfg, 100, 200)
    s2, _ = train_from_seeds(corpus, cfg, 100, 999)
    assert params_bytes(s1.theta) != params_bytes(s2.theta)


def test_seed_exchange_swaps_trajectories():
    corpus = make_corpus()
    cfg = make_cfg(cross_model=True)
    s_ab, _ = train_from_seeds(corpus, cfg, 11, 22)
    s_ba, _ = train_from_seeds(corpus, cfg, 22, 11)
    assert params_bytes(s_ab.theta) == params_bytes(s_ba.phi)
    assert params_bytes(s_ab.phi) == params_bytes(s_ba.theta)


def test_warmup_only_run_logs_no_thresholds():
    corpus = make_corpus()
    cfg = make_cfg(epochs=2, warmup_epochs=2)
    _, log = train(corpus, cfg)
    assert log
    assert all(row["tau_s"] is None and row["tau_u"] is None for row in log)
    assert all(row["phase"] == "warmup" for row in log)


def test_lad_epochs_log_thresholds_that_change():
    corpus = make_corpus()
    cfg = make_cfg(epochs=5, warmup_epochs=2)
    _, log = train(corpus, cfg)
    arl_rows = [r for r in log if r["phase"] == "arl"]
    assert arl_rows
    assert all(r["tau_s"] is not None for r in arl_rows)
    theta_taus = [r["tau_s"] for r in arl_rows if r["branch"] == "theta"]
    assert len(set(theta_taus)) == len(theta_taus), "thresholds should move across epochs"


def test_test_split_rejected():
    spec = CorpusSpec(n_q=8, n_v=4, l_q=3, l_v=4, d_t=8, d_v=9, seed=1,
                      segments_per_video=2, ambiguity_rate=0.2, noise_scale=0.2)
    test_corpus = generate_synthetic(spec, split="test")
    with pytest.raises(ConfigError):
        train(test_corpus, make_cfg())


def test_config_validation():
    with pytest.raises(ConfigError):
        make_cfg(batch_size=1).validate()
    with pytest.raises(ConfigError):
        make_cfg(epochs=1, warmup_epochs=2).validate()
    with pytest.raises(ConfigError):
        TrainConfig(margin_m=0.1, margin_ma=0.3).validate()


def test_partial_batch_dropped():
    batches = _epoch_batches(10, make_cfg(batch_size=4), epoch=1)
    assert len(batches) == 2
    assert all(len(b) == 4 for b in batches)
    flat = np.concatenate(batches)
    assert len(set(flat.tolist())) == 8


def test_step_zero_learning_rate_keeps_params():
    corpus = make_corpus()
    cfg = make_cfg(learning_rate=0.0)
    state = init_state(corpus, cfg)
    before = params_bytes(state.theta)
    state, log = train(corpus, state=state)
    assert params_bytes(state.theta) == before
    assert state.theta.adam.t == cfg.epochs * len(_epoch_batches(corpus.n_q, cfg, 1))
    assert all(np.isfinite(row["grand_total"]) and row["grand_total"] > 0 for row in log)
    # the first moment averages the gradients: nonzero moments, nonzero steps
    assert max(np.abs(m).max() for m in state.theta.adam.m.values()) > 0


def test_step_updates_params_and_reports_breakdown():
    corpus = make_corpus()
    cfg = make_cfg()
    state = init_state(corpus, cfg)
    before = params_bytes(state.theta)
    state, log = train(corpus, state=state)
    assert params_bytes(state.theta) != before
    for row in log:
        assert row["video_total"] == pytest.approx(
            cfg.lambda_nce * (row["nce_t2v"] + row["nce_v2t"]) + row["trip_a"] + row["trip_n"],
            abs=1e-12)
        assert row["grand_total"] == pytest.approx(row["video_total"] + row["frame_total"],
                                                   abs=1e-12)
    assert any(row["frame_total"] > 0 for row in log if row["phase"] == "arl")


def test_branch_loss_gradient_matches_finite_differences_two_pair_batch():
    corpus = make_corpus(n_q=4, n_v=4, l_q=2, l_v=3, d_t=5, d_v=6)
    cfg = make_cfg(batch_size=2, embed_dim=6)
    params = init_state(corpus, cfg).theta.params
    pairs = [(0, int(corpus.pairing[0])), (1, int(corpus.pairing[1]))]
    sets = (forced_negative_sets(pairs), None)
    text64 = corpus.text_features.astype(np.float64)
    video64 = corpus.video_features.astype(np.float64)

    wrapped = wrap_params(params)
    frame_sims, scores, _ = _forward_batch(wrapped, text64, video64, pairs)
    tape = collect_tape(wrapped, branch_loss(frame_sims, scores, sets, cfg)[0])

    def loss_at(params):
        _, scores, _ = _forward_batch(params, text64, video64, pairs)
        return float(ad.val(loss_video(scores, sets[0], cfg)["total"]))

    rng = np.random.default_rng(0)
    h = 1e-5
    checked = 0
    for name in params.names():
        flat = params.tensors[name].reshape(-1)
        g_flat = tape[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = loss_at(params)
            flat[idx] = orig - h
            fm = loss_at(params)
            flat[idx] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(g_flat[idx] - fd) / max(1.0, abs(fd)) < 1e-4
            checked += 1
    assert checked > 30


def test_branch_loss_with_different_sets_changes_loss():
    corpus = make_corpus()
    cfg = make_cfg()
    state = init_state(corpus, cfg)
    pairs = [(i, int(corpus.pairing[i])) for i in range(4)]

    all_neg = forced_negative_sets(pairs)
    tables = UncertaintyTables(u_q=np.full(corpus.n_q, 0.5),
                               u_v=np.full((corpus.n_v, corpus.l_v), 0.5))
    low = Thresholds(tau_s=-0.99, tau_u=0.0)
    frame_sims, scores, best = _forward_batch(
        state.theta.params, corpus.text_features.astype(np.float64),
        corpus.video_features.astype(np.float64), pairs)
    amb_sets = detect_video_ambiguity(pairs, scores, best, tables, low)
    assert amb_sets.amb.any()

    neg_total = branch_loss(frame_sims, scores, (all_neg, None), cfg)[0]
    amb_total = branch_loss(frame_sims, scores, (amb_sets, None), cfg)[0]
    assert neg_total != amb_total


# --- what each branch trains on ---------------------------------------------

def _train_capturing_losses(monkeypatch, corpus, cfg):
    """Train, capturing every branch_loss call as (frame cosines, scores,
    sets), theta's then phi's per batch, and every detect_video_ambiguity
    call as (scores, sets)."""
    import prvr.trainer as trainer

    losses, detected = [], []
    real_loss, real_detect = trainer.branch_loss, trainer.detect_video_ambiguity

    def loss(frame_sims, scores, sets, cfg):
        losses.append((np.array(ad.val(frame_sims)), np.array(ad.val(scores)), sets))
        return real_loss(frame_sims, scores, sets, cfg)

    def detect(pairs, scores, best, tables, thr):
        sets = real_detect(pairs, scores, best, tables, thr)
        detected.append((np.array(scores), sets))
        return sets
    monkeypatch.setattr(trainer, "branch_loss", loss)
    monkeypatch.setattr(trainer, "detect_video_ambiguity", detect)
    train(corpus, cfg)
    return losses, detected


def test_train_frees_each_batch_forward_before_the_next(monkeypatch):
    # a batch's forward graphs must be dead before the next batch's forwards
    # and the next epoch's corpus scoring; weakrefs to the cosine and score
    # arrays of every graph branch_loss saw tell whether anything holds them
    import prvr.trainer as trainer

    seen, checks = [], []
    real_loss, real_forward, real_thresholds = (trainer.branch_loss, trainer._forward_batch,
                                                trainer.corpus_thresholds)

    def loss(frame_sims, scores, sets, cfg):
        seen.extend(weakref.ref(ad.val(x)) for x in (frame_sims, scores))
        return real_loss(frame_sims, scores, sets, cfg)

    def all_dead(real):
        def wrapped(*args):
            checks.append(all(ref() is None for ref in seen))
            return real(*args)
        return wrapped
    monkeypatch.setattr(trainer, "branch_loss", loss)
    monkeypatch.setattr(trainer, "_forward_batch", all_dead(real_forward))
    monkeypatch.setattr(trainer, "corpus_thresholds", all_dead(real_thresholds))
    corpus, cfg = make_corpus(), make_cfg()
    train(corpus, cfg)
    forwards = 2 * cfg.epochs * len(_epoch_batches(corpus.n_q, cfg, 1))
    assert len(checks) == forwards + 2 * (cfg.epochs - cfg.warmup_epochs)
    assert all(checks)


@pytest.mark.parametrize("cross_model", (True, False))
def test_lad_batch_trains_on_the_peer_sets_only_under_cross_model(monkeypatch, cross_model):
    # under cross_model each branch's frame anchor k^ must be the peer's
    # best frame, and its video sets the peer's detection; without it, both
    # come from the branch's own forward
    corpus = make_corpus()
    cfg = make_cfg(cross_model=cross_model)
    losses, detected = _train_capturing_losses(monkeypatch, corpus, cfg)
    per_epoch = 2 * len(_epoch_batches(corpus.n_q, cfg, 1))
    lad = losses[per_epoch * cfg.warmup_epochs:]
    assert len(losses) == per_epoch * cfg.epochs and lad

    def best_frames(frame_sims):
        slots = np.arange(len(frame_sims))
        return np.argmax(frame_sims[slots, slots], axis=-1)

    def detection(scores):
        (sets,) = [s for sc, s in detected if np.array_equal(sc, scores)]
        return sets

    anchors_differ = sets_differ = False
    for k in range(0, len(lad), 2):
        batch = lad[k:k + 2]
        for b_i, (own_frames, own_scores, (vsets, fsets)) in enumerate(batch):
            src_frames, src_scores, _ = batch[1 - b_i] if cross_model else batch[b_i]
            np.testing.assert_array_equal(fsets.best_frame, best_frames(src_frames))
            src = detection(src_scores)
            np.testing.assert_array_equal(vsets.pos, src.pos)
            np.testing.assert_array_equal(vsets.amb, src.amb)
            peer_frames, peer_scores, _ = batch[1 - b_i]
            anchors_differ |= not np.array_equal(best_frames(own_frames),
                                                 best_frames(peer_frames))
            sets_differ |= not np.array_equal(detection(own_scores).amb,
                                              detection(peer_scores).amb)
    # the run tells own from peer sets at least once at each level
    assert anchors_differ and sets_differ


def test_checkpoint_resume_round_trip(tmp_path):
    # per-epoch behavior depends only on (seed, epoch), so a 3-epoch run
    # is a bit-exact prefix of the 5-epoch run; checkpointing it and
    # resuming under the 5-epoch config must reproduce the tail exactly
    corpus = make_corpus()
    cfg = make_cfg(epochs=5, warmup_epochs=2)
    full_state, full_log = train(corpus, cfg)

    prefix_state, prefix_log = train(corpus, make_cfg(epochs=3, warmup_epochs=2))
    prefix_state.cfg = cfg
    path = tmp_path / "mid.ckpt"
    checkpoint(prefix_state, path)
    resumed = resume(path)
    assert resumed.epoch == 3
    final_state, tail_log = train(corpus, state=resumed)

    assert params_bytes(final_state.theta) == params_bytes(full_state.theta)
    assert params_bytes(final_state.phi) == params_bytes(full_state.phi)
    assert full_log[len(prefix_log):] == tail_log


def test_checkpoint_is_pure_and_exact(tmp_path):
    corpus = make_corpus()
    state, _ = train(corpus, make_cfg())
    before_t, before_p = params_bytes(state.theta), params_bytes(state.phi)
    path = tmp_path / "state.ckpt"
    checkpoint(state, path)
    assert params_bytes(state.theta) == before_t
    assert params_bytes(state.phi) == before_p
    loaded = resume(path)
    assert params_bytes(loaded.theta) == before_t
    assert params_bytes(loaded.phi) == before_p
    assert loaded.epoch == state.epoch
    assert loaded.cfg == state.cfg
    assert loaded.theta.adam.t == state.theta.adam.t
    for name in state.theta.params.names():
        np.testing.assert_array_equal(loaded.theta.adam.m[name], state.theta.adam.m[name])


def test_resume_corrupted_file_is_format_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"PRVKgarbage")
    with pytest.raises(FormatError):
        resume(path)
    path.write_bytes(b"XXXX\x01\x00\x00\x00")
    with pytest.raises(FormatError, match="magic"):
        resume(path)


def test_checkpoint_truncation_names_field(tmp_path):
    corpus = make_corpus()
    state, _ = train(corpus, make_cfg(epochs=1, warmup_epochs=1))
    path = tmp_path / "state.ckpt"
    checkpoint(state, path)
    data = path.read_bytes()
    dims = 12 + struct.unpack("<I", data[8:12])[0]
    theta = dims + 16 + 4
    w = 8 * state.theta.params.tensors["text_proj_w"].size
    # (offset of a field, its name); the last field is phi's pool_b.adam_v
    starts = ((0, "header"), (8, "config length"), (12, "config block"), (dims, "dims"),
              (dims + 16, "epoch"), (theta, "adam_t"),
              (theta + 8, "text_proj_w.param"), (theta + 8 + w, "text_proj_w.adam_m"),
              (theta + 8 + 2 * w, "text_proj_w.adam_v"), (len(data) - 8, "pool_b.adam_v"))
    trunc = tmp_path / "trunc.ckpt"
    for start, name in starts:
        trunc.write_bytes(data[:start + 1])
        with pytest.raises(FormatError, match=f"^{re.escape(name)}: expected"):
            resume(trunc)


def test_batch_size_larger_than_corpus_rejected():
    corpus = make_corpus(n_q=4, n_v=4)
    with pytest.raises(ConfigError):
        train(corpus, make_cfg(batch_size=8))


# --- the non-finite path through train's update -----------------------------

def _nan_total(monkeypatch, loss_name):
    """Make `loss_name`, as branch_loss looks it up, return a NaN total (the
    gradient stays finite)."""
    import prvr.losses as losses

    real = getattr(losses, loss_name)

    def nan_loss(*args):
        parts = real(*args)
        parts["total"] = ad.add(parts["total"], float("nan"))
        return parts
    monkeypatch.setattr(losses, loss_name, nan_loss)


def test_nonfinite_loss_aborts_step_without_update(monkeypatch):
    corpus = make_corpus()
    state = init_state(corpus, make_cfg())
    before = params_bytes(state.theta), params_bytes(state.phi)
    _nan_total(monkeypatch, "loss_video")
    with pytest.raises(NumericalError, match="non-finite training loss at epoch 1 batch 0$"):
        train(corpus, state=state)
    assert (params_bytes(state.theta), params_bytes(state.phi)) == before
    assert state.theta.adam.t == 0 and state.phi.adam.t == 0


@pytest.mark.parametrize("loss_name, epoch", (("loss_video", 1), ("loss_frame", 3)))
def test_nonfinite_loss_in_train_names_epoch_and_batch(monkeypatch, loss_name, epoch):
    # warmup_epochs=2: the video loss runs from epoch 1, the frame loss from 3
    _nan_total(monkeypatch, loss_name)
    with pytest.raises(NumericalError, match=f"non-finite training loss at epoch {epoch} batch 0$"):
        train(make_corpus(), make_cfg())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_error_in_forward_names_epoch_and_batch():
    # learning_rate=1e300: batch 0's update leaves weights whose embedding
    # norms overflow, so batch 1's forward aborts in the cosine kernel
    with pytest.raises(NumericalError, match="^non-finite embedding norm encountered in cosine "
                                             "kernel at epoch 1 batch 1$"):
        train(make_corpus(), make_cfg(learning_rate=1e300))


# --- checkpoint config block ------------------------------------------------

_NONDEFAULT_CFG = TrainConfig(
    epochs=7, batch_size=5, warmup_epochs=2, learning_rate=0.0005, seed=-3,
    cross_model=False, video_lad=False, frame_lad=False, embed_dim=6,
    margin_m=0.3, margin_ma=0.05, lambda_nce=0.5)

# every key, in one sorted order
_NONDEFAULT_BLOB = (
    b"batch_size=5\ncross_model=False\nembed_dim=6\nepochs=7\nframe_lad=False\n"
    b"lambda_nce=0.5\nlearning_rate=0.0005\nmargin_m=0.3\nmargin_ma=0.05\nseed=-3\n"
    b"video_lad=False\nwarmup_epochs=2\n")


def _config_block(data):
    (n,) = struct.unpack("<I", data[8:12])
    return data[12:12 + n]


def test_checkpoint_config_block_golden_bytes(tmp_path):
    path = tmp_path / "state.ckpt"
    checkpoint(init_state(make_corpus(), _NONDEFAULT_CFG), path)
    assert _config_block(path.read_bytes()) == _NONDEFAULT_BLOB


def test_config_file_round_trips_through_checkpoint(tmp_path):
    from prvr.config import parse_kv_file, train_config_from

    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text(_NONDEFAULT_BLOB.decode().replace("=", " = "))
    cfg = train_config_from(parse_kv_file(cfg_file))
    assert cfg == _NONDEFAULT_CFG
    # every field differs from its default
    default = TrainConfig()
    for f in fields(TrainConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name

    path = tmp_path / "state.ckpt"
    checkpoint(init_state(make_corpus(), cfg), path)
    assert resume(path).cfg == cfg


def test_checkpoint_config_block_missing_key_is_format_error(tmp_path):
    path = tmp_path / "state.ckpt"
    checkpoint(init_state(make_corpus(), _NONDEFAULT_CFG), path)
    data = path.read_bytes()
    block = _config_block(data)
    cut = block.replace(b"\nlambda_nce=0.5", b"")
    path.write_bytes(data[:8] + struct.pack("<I", len(cut)) + cut + data[12 + len(block):])
    with pytest.raises(FormatError, match="config block: missing key.*lambda_nce"):
        resume(path)
