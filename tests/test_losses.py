"""Loss contracts: reference contrastive values, hinge arithmetic, degeneracy."""

import math

import numpy as np
import pytest

from prvr import autodiff as ad
from prvr.ambiguity import (AmbiguitySets, FrameSets, Thresholds, UncertaintyTables,
                            detect_frame_ambiguity, detect_video_ambiguity)
from prvr.config import TrainConfig
from prvr.errors import ConfigError
from prvr.losses import branch_loss, forced_negative_sets, loss_frame, loss_video, loss_warmup


def sets_from_masks(batch, amb):
    """Build AmbiguitySets from an explicit ambiguous boolean matrix."""
    v_idx = np.asarray([v for _, v in batch])
    pos = v_idx[:, None] == v_idx[None, :]
    return AmbiguitySets(pos=pos, amb=np.asarray(amb, dtype=bool) & ~pos)


def frame_sets_from_lists(best, amb_frames, neg_frames, amb_queries, neg_queries, l_v):
    """Build FrameSets from per-pair index lists, one mask cell per member."""
    b = len(best)

    def mask(rows, width):
        m = np.zeros((b, width), dtype=bool)
        for p, members in enumerate(rows):
            for k in members:
                m[p, k] = True
        return m

    return FrameSets(best_frame=np.asarray(best),
                     amb_frame_mask=mask(amb_frames, l_v), neg_frame_mask=mask(neg_frames, l_v),
                     amb_query_mask=mask(amb_queries, b), neg_query_mask=mask(neg_queries, b))


def distinct_batch(b):
    return [(i, i) for i in range(b)]


from tests.helpers import loss_nce_slots, loss_triplet
from tests.oracles import (brute_force_frame_sets, gather_loss_frame, loop_loss_frame,
                           loop_loss_triplet, matrix_loss_video, reference_single_positive)


def test_uniform_similarities_batch_of_four():
    scores = np.full((4, 4), 0.3)
    sets = forced_negative_sets(distinct_batch(4))
    val = loss_nce_slots(scores, sets)[0][0]
    assert val == pytest.approx(-math.log(1.0 / 4.0), abs=1e-12)
    assert val == pytest.approx(1.3862944, abs=1e-6)


def test_all_ambiguous_gives_zero():
    rng = np.random.default_rng(0)
    scores = rng.uniform(-1, 1, size=(3, 3))
    sets = sets_from_masks(distinct_batch(3), np.ones((3, 3)))
    t2v, v2t = loss_nce_slots(scores, sets)
    assert t2v[1] == 0.0
    assert v2t[1] == 0.0


def test_empty_ambiguous_matches_reference_contrastive():
    scores = np.array([[0.8, 0.5, 0.2],
                       [0.1, 0.9, 0.4],
                       [0.3, 0.2, 0.7]])
    sets = forced_negative_sets(distinct_batch(3))
    t2v, v2t = loss_nce_slots(scores, sets)
    for i in range(3):
        assert t2v[i] == pytest.approx(
            reference_single_positive(scores, i, "row"), abs=1e-12)
        assert v2t[i] == pytest.approx(
            reference_single_positive(scores, i, "col"), abs=1e-12)


def test_v2t_mirrors_t2v_on_transposed_scores():
    rng = np.random.default_rng(1)
    scores = rng.uniform(-1, 1, size=(4, 4))
    amb = rng.random((4, 4)) < 0.3
    sets = sets_from_masks(distinct_batch(4), amb)
    sets_t = sets_from_masks(distinct_batch(4), amb.T)
    v2t = loss_nce_slots(scores, sets)[1]
    t2v_of_transpose = loss_nce_slots(scores.T, sets_t)[0]
    for i in range(4):
        assert v2t[i] == pytest.approx(t2v_of_transpose[i], abs=1e-12)


def test_loss_nce_single_pair_and_mean_oracle():
    # loss_video's two contrastive terms are the means of the per-slot vectors
    rng = np.random.default_rng(2)
    scores = rng.uniform(-1, 1, size=(5, 5))
    sets = sets_from_masks(distinct_batch(5), rng.random((5, 5)) < 0.4)
    parts = loss_video(scores, sets, TrainConfig())
    t2v, v2t = loss_nce_slots(scores, sets)
    assert t2v.shape == v2t.shape == (5,)
    assert parts["nce_t2v"] == pytest.approx(np.mean(t2v), abs=1e-12)
    assert parts["nce_v2t"] == pytest.approx(np.mean(v2t), abs=1e-12)

    one = np.array([[0.4, 0.1], [0.0, 0.6]])
    sets1 = forced_negative_sets(distinct_batch(2))
    parts1 = loss_video(one, sets1, TrainConfig())
    t, v = loss_nce_slots(one, sets1)
    assert parts1["nce_t2v"] + parts1["nce_v2t"] == pytest.approx(np.mean(t + v), abs=1e-12)


def test_nce_nonnegative_and_zero_iff_no_negatives():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = int(rng.integers(2, 6))
        scores = rng.uniform(-1, 1, size=(b, b))
        amb = rng.random((b, b)) < rng.random()
        sets = sets_from_masks(distinct_batch(b), amb)
        t2v = loss_nce_slots(scores, sets)[0]
        for i in range(b):
            v = t2v[i]
            assert v >= 0.0
            if not np.nonzero(sets.neg[i])[0].size:
                assert v == 0.0
            else:
                assert v > 0.0


def test_moving_negatives_to_ambiguous_never_increases_t2v():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = 5
        scores = rng.uniform(-1, 1, size=(b, b))
        amb = rng.random((b, b)) < 0.3
        sets = sets_from_masks(distinct_batch(b), amb)
        grown = amb.copy()
        negs = np.nonzero(~amb & ~np.eye(b, dtype=bool))
        if len(negs[0]) == 0:
            continue
        pick = rng.integers(len(negs[0]))
        grown[negs[0][pick], negs[1][pick]] = True
        sets_grown = sets_from_masks(distinct_batch(b), grown)
        t2v_grown, t2v = loss_nce_slots(scores, sets_grown)[0], loss_nce_slots(scores, sets)[0]
        for i in range(b):
            assert t2v_grown[i] <= t2v[i] + 1e-15


# --- triplets ----------------------------------------------------------

def test_hinge_satisfied_margin_is_zero():
    scores = np.array([[0.8, 0.5], [0.2, 0.9]])
    sets = forced_negative_sets(distinct_batch(2))
    val = loss_triplet(scores, sets.neg, margin=0.2)
    # all gaps >= margin: 0.8-0.5 and 0.9-0.2 both > 0.2 either direction
    assert val == 0.0


def test_hinge_arithmetic():
    scores = np.array([[0.8, 0.7], [-1.0, 0.9]])
    sets = forced_negative_sets(distinct_batch(2))
    val = loss_triplet(scores, sets.neg, margin=0.2)
    # pair 0: video dir max(0, .2+.7-.8)=.1, query dir max(0,.2-1-.8)=0
    # pair 1: video dir max(0,.2-1-.9)=0, query dir max(0,.2+.7-.9)=0
    assert val == pytest.approx(0.1 / 2.0, abs=1e-12)


def test_empty_ambiguous_sets_give_zero_triplet():
    rng = np.random.default_rng(5)
    scores = rng.uniform(-1, 1, size=(4, 4))
    sets = forced_negative_sets(distinct_batch(4))
    assert loss_triplet(scores, sets.amb, margin=0.1) == 0.0


def test_triplet_monotone_in_margin_and_ma_le_m():
    rng = np.random.default_rng(6)
    for _ in range(20):
        scores = rng.uniform(-1, 1, size=(4, 4))
        amb = rng.random((4, 4)) < 0.5
        sets = sets_from_masks(distinct_batch(4), amb)
        for mask in (sets.amb, sets.neg):
            lo = loss_triplet(scores, mask, margin=0.1)
            hi = loss_triplet(scores, mask, margin=0.3)
            assert float(np.asarray(lo)) <= float(np.asarray(hi)) + 1e-15


def test_triplet_uses_hardest_member():
    scores = np.array([[0.9, 0.1, 0.6],
                       [0.0, 0.8, 0.0],
                       [0.0, 0.0, 0.7]])
    amb = np.zeros((3, 3), dtype=bool)
    amb[0, 1] = amb[0, 2] = True  # candidates 0.1 and 0.6 -> hardest 0.6
    sets = sets_from_masks(distinct_batch(3), amb)
    val = loss_triplet(scores, sets.amb, margin=0.4)
    # query 0 row: hardest of {0.1, 0.6} is 0.6 -> max(0, 0.4+0.6-0.9) = 0.1
    # video 1 col: A = {q0} -> max(0, 0.4+0.1-0.8) = 0
    # video 2 col: A = {q0} -> max(0, 0.4+0.6-0.7) = 0.3
    assert val == pytest.approx((0.1 + 0.3) / 3.0, abs=1e-12)


# --- combined objectives -------------------------------------------------

def test_loss_video_recomposes_from_components():
    rng = np.random.default_rng(7)
    cfg = TrainConfig(margin_m=0.2, margin_ma=0.1, lambda_nce=0.05)
    scores = rng.uniform(-1, 1, size=(5, 5))
    sets = sets_from_masks(distinct_batch(5), rng.random((5, 5)) < 0.3)
    parts = loss_video(scores, sets, cfg)
    want = cfg.lambda_nce * (parts["nce_t2v"] + parts["nce_v2t"]) \
        + parts["trip_a"] + parts["trip_n"]
    assert parts["total"] == pytest.approx(want, abs=1e-12)


def test_loss_video_lambda_weighting_edges():
    rng = np.random.default_rng(8)
    scores = rng.uniform(-1, 1, size=(4, 4))
    sets = sets_from_masks(distinct_batch(4), rng.random((4, 4)) < 0.4)
    tiny = TrainConfig(lambda_nce=1e-12)
    parts = loss_video(scores, sets, tiny)
    assert parts["total"] == pytest.approx(parts["trip_a"] + parts["trip_n"], abs=1e-9)


def test_nonnegativity_of_all_components():
    rng = np.random.default_rng(9)
    cfg = TrainConfig()
    for _ in range(20):
        b = int(rng.integers(2, 6))
        scores = rng.uniform(-1, 1, size=(b, b))
        sets = sets_from_masks(distinct_batch(b), rng.random((b, b)) < 0.3)
        parts = loss_video(scores, sets, cfg)
        for key in ("nce_t2v", "nce_v2t", "trip_a", "trip_n", "total"):
            assert float(np.asarray(parts[key])) >= 0.0


# --- frame level ---------------------------------------------------------

def make_frame_sets(batch, frame_sims, tau_s=-2.0, tau_u=-2.0, n_v=None):
    b, _, l_v = frame_sims.shape
    n_v = n_v or b
    tables = UncertaintyTables(u_q=np.zeros(b + 10), u_v=np.zeros((n_v + 10, l_v)))
    thr = Thresholds(tau_s=tau_s, tau_u=tau_u)
    return detect_frame_ambiguity(batch, frame_sims, tables, thr)


def test_single_frame_video_frame_loss_zero():
    rng = np.random.default_rng(10)
    frame_sims = rng.uniform(-1, 1, size=(3, 3, 1))
    fsets = make_frame_sets(distinct_batch(3), frame_sims)
    parts = loss_frame(frame_sims, fsets, TrainConfig())
    assert parts["total"] == 0.0


def test_saturating_thresholds_reduce_to_standard_contrastive_over_frames():
    rng = np.random.default_rng(11)
    b, l_v = 3, 4
    frame_sims = rng.uniform(-1, 1, size=(b, b, l_v))
    fsets = make_frame_sets(distinct_batch(b), frame_sims, tau_s=2.0, tau_u=2.0)
    cfg = TrainConfig(lambda_nce=1.0)
    parts = loss_frame(frame_sims, fsets, cfg)
    # reference: per pair, t2f over frames + f2t over queries, no ambiguity
    want = 0.0
    for p in range(b):
        f = frame_sims[p, p]
        k = int(np.argmax(f))
        want += -math.log(math.exp(f[k]) / sum(math.exp(x) for x in f))
        g = frame_sims[:, p, k]
        want += -math.log(math.exp(g[p]) / sum(math.exp(x) for x in g))
    want /= b
    assert parts["nce"] == pytest.approx(want, abs=1e-12)
    assert parts["trip_a"] == 0.0


def test_frame_loss_from_brute_force_sets_equals_pipeline_sets():
    rng = np.random.default_rng(12)
    b, l_v = 4, 5
    frame_sims = rng.uniform(-1, 1, size=(b, b, l_v))
    batch = distinct_batch(b)
    tables = UncertaintyTables(u_q=rng.uniform(-1, 1, size=b),
                               u_v=rng.uniform(-1, 1, size=(b, l_v)))
    thr = Thresholds(tau_s=0.0, tau_u=0.0)
    fsets = detect_frame_ambiguity(batch, frame_sims, tables, thr)

    # rebuild the same structure with a literal loop
    best, ambf, negf, ambq, negq = [], [], [], [], []
    for p in range(b):
        f = frame_sims[p, p]
        k_hat = int(np.argmax(f))
        best.append(k_hat)
        a = [k for k in range(l_v) if k != k_hat
             and f[k] > thr.tau_s and (tables.u_q[p] + tables.u_v[p, k]) / 2 > thr.tau_u]
        ambf.append(a)
        negf.append([k for k in range(l_v) if k != k_hat and k not in a])
        g = frame_sims[:, p, k_hat]
        aq = [x for x in range(b) if x != p and g[x] > thr.tau_s
              and (tables.u_q[x] + tables.u_v[p, k_hat]) / 2 > thr.tau_u]
        ambq.append(aq)
        negq.append([x for x in range(b) if x != p and x not in aq])
    manual = frame_sets_from_lists(best, ambf, negf, ambq, negq, l_v)

    cfg = TrainConfig()
    a = loss_frame(frame_sims, fsets, cfg)
    m = loss_frame(frame_sims, manual, cfg)
    assert a["total"] == pytest.approx(m["total"], abs=1e-15)


# --- warmup ---------------------------------------------------------------

def test_warmup_equals_forced_empty_video_loss():
    rng = np.random.default_rng(13)
    cfg = TrainConfig()
    batch = distinct_batch(4)
    scores = rng.uniform(-1, 1, size=(4, 4))
    w = loss_warmup(scores, batch, cfg)
    v = loss_video(scores, forced_negative_sets(batch), cfg)
    assert w["total"] == v["total"]
    assert w["trip_a"] == 0.0


def test_warmup_batch_of_one_is_zero():
    scores = np.array([[0.5]])
    parts = loss_warmup(scores, [(0, 0)], TrainConfig())
    assert parts["total"] == 0.0


def test_random_batch_warmup_matches_forced_empty_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        b = int(rng.integers(2, 6))
        batch = [(i, int(rng.integers(0, 3))) for i in range(b)]
        scores = rng.uniform(-1, 1, size=(b, b))
        cfg = TrainConfig()
        w = loss_warmup(scores, batch, cfg)
        v = loss_video(scores, forced_negative_sets(batch), cfg)
        assert w["total"] == v["total"]


def test_margin_hierarchy_enforced():
    with pytest.raises(ConfigError):
        TrainConfig(margin_m=0.1, margin_ma=0.2).validate()
    with pytest.raises(ConfigError):
        TrainConfig(margin_m=0.1, margin_ma=0.1).validate()
    TrainConfig(margin_m=0.2, margin_ma=0.1).validate()


def test_branch_loss_total_is_sum_of_levels():
    rng = np.random.default_rng(15)
    b, l_v = 3, 4
    cfg = TrainConfig()
    scores = rng.uniform(-1, 1, size=(b, b))
    frame_sims = rng.uniform(-1, 1, size=(b, b, l_v))
    sets = sets_from_masks(distinct_batch(b), rng.random((b, b)) < 0.5)
    fsets = make_frame_sets(distinct_batch(b), frame_sims, tau_s=0.0, tau_u=-1.0)
    total, vp, fp = branch_loss(frame_sims, scores, (sets, fsets), cfg)
    assert vp == loss_video(scores, sets, cfg) and fp == loss_frame(frame_sims, fsets, cfg)
    assert total == pytest.approx(vp["total"] + fp["total"], abs=1e-15)
    # without frame sets the objective is the video level alone
    total, vp, fp = branch_loss(frame_sims, scores, (sets, None), cfg)
    assert fp == {"total": 0.0} and total == vp["total"]


def test_duplicate_videos_in_batch_are_masked_as_positives():
    # two captions of video 0 must not be negatives of each other
    batch = [(0, 0), (1, 0), (2, 1)]
    scores = np.array([[0.9, 0.9, 0.1],
                       [0.9, 0.9, 0.2],
                       [0.1, 0.2, 0.8]])
    sets = forced_negative_sets(batch)
    assert 1 not in np.nonzero(sets.neg[0])[0]
    assert 0 not in np.nonzero(sets.neg[1])[0]
    # contrastive for pair 0 only contrasts against video slot 2
    want = -math.log(math.exp(0.9) / (math.exp(0.9) + math.exp(0.1)))
    assert loss_nce_slots(scores, sets)[0][0] == pytest.approx(want, abs=1e-12)


# --- mask losses against the per-pair loop oracles ---------------------------

def _value_and_grad(parts_or_loss, x):
    """Scalar value of a loss (Var or plain zero) and its gradient wrt Var x."""
    if isinstance(parts_or_loss, ad.Var):
        return float(parts_or_loss.value), ad.backward(parts_or_loss).get(
            id(x), np.zeros_like(x.value))
    return float(np.asarray(parts_or_loss)), np.zeros_like(x.value)


# threshold regimes: mixed sets, everything ambiguous (empty negative sets),
# nothing ambiguous (all-negative batch)
_REGIMES = ("median", "all_ambiguous", "all_negative")


def _random_frame_case(rng, regime, l_v=None):
    b = int(rng.integers(2, 7))
    l_v = int(rng.integers(1, 6)) if l_v is None else l_v
    n_v = int(rng.integers(2, 2 * b))      # small n_v repeats videos in a batch
    batch = [(x, int(rng.integers(n_v))) for x in range(b)]
    frame_sims = rng.uniform(-1, 1, size=(b, b, l_v))
    tables = UncertaintyTables(u_q=rng.uniform(-1, 1, size=b),
                               u_v=rng.uniform(-1, 1, size=(n_v, l_v)))
    tau = {"median": (float(np.median(frame_sims)), 0.0),
           "all_ambiguous": (-2.0, -2.0), "all_negative": (2.0, 2.0)}[regime]
    thr = Thresholds(tau_s=tau[0], tau_u=tau[1])
    return batch, frame_sims, detect_frame_ambiguity(batch, frame_sims, tables, thr), tables, thr


def test_loss_frame_matches_loop_oracle_in_value_and_gradient():
    rng = np.random.default_rng(16)
    cfg = TrainConfig(lambda_nce=0.5)
    seen = set()
    for trial in range(90):
        regime = _REGIMES[trial % 3]
        batch, sims, fsets, _, _ = _random_frame_case(rng, regime, l_v=1 if trial < 6 else None)
        if regime == "all_ambiguous":
            assert not fsets.neg_frame_mask.any() and not fsets.neg_query_mask.any()
        if regime == "all_negative":
            assert not fsets.amb_frame_mask.any() and not fsets.amb_query_mask.any()
        seen.add((regime, sims.shape[2] == 1))
        for key in ("nce", "trip_a", "trip_n", "total"):
            x_mask, x_loop = ad.Var(sims), ad.Var(sims)
            got, g_got = _value_and_grad(loss_frame(x_mask, fsets, cfg)[key], x_mask)
            want, g_want = _value_and_grad(loop_loss_frame(x_loop, fsets, cfg)[key], x_loop)
            assert got == pytest.approx(want, abs=1e-12), (trial, key)
            np.testing.assert_allclose(g_got, g_want, rtol=0, atol=1e-12)
    assert len(seen) == 6


def test_loss_frame_hand_built_lists_match_detected_masks():
    # index lists from the brute-force detection oracle, made into masks
    # one cell at a time, equal the detected masks and give the same loss
    rng = np.random.default_rng(17)
    cfg = TrainConfig()
    for regime in _REGIMES:
        batch, sims, fsets, tables, thr = _random_frame_case(rng, regime, l_v=4)
        b, _, l_v = sims.shape
        best, ambf, negf, ambq, negq = [], [], [], [], []
        for p, (k_hat, amb, amb_q) in enumerate(brute_force_frame_sets(batch, sims, tables, thr)):
            best.append(k_hat)
            ambf.append(sorted(amb))
            negf.append([k for k in range(l_v) if k != k_hat and k not in amb])
            ambq.append(sorted(amb_q))
            negq.append([x for x in range(b) if batch[x][1] != batch[p][1] and x not in amb_q])
        manual = frame_sets_from_lists(best, ambf, negf, ambq, negq, l_v)
        np.testing.assert_array_equal(manual.best_frame, fsets.best_frame)
        for name in ("amb_frame_mask", "neg_frame_mask", "amb_query_mask", "neg_query_mask"):
            np.testing.assert_array_equal(getattr(manual, name), getattr(fsets, name))
        assert loss_frame(sims, manual, cfg)["total"] == loss_frame(sims, fsets, cfg)["total"]


def test_loss_triplet_matches_loop_oracle_in_value_and_gradient():
    rng = np.random.default_rng(18)
    for trial in range(60):
        b = int(rng.integers(2, 7))
        batch = [(i, int(rng.integers(0, b + 1))) for i in range(b)]
        fill = (rng.random(), 0.0, 1.0)[trial % 3]   # mixed, none, all ambiguous
        sets = sets_from_masks(batch, rng.random((b, b)) < fill)
        scores = rng.uniform(-1, 1, size=(b, b))
        for mode, margin in (("ambiguous", 0.1), ("negative", 0.2)):
            mask = sets.amb if mode == "ambiguous" else sets.neg
            x_mask, x_loop = ad.Var(scores), ad.Var(scores)
            got, g_got = _value_and_grad(loss_triplet(x_mask, mask, margin), x_mask)
            want, g_want = _value_and_grad(
                loop_loss_triplet(x_loop, sets, margin, mode), x_loop)
            assert got == pytest.approx(want, abs=1e-12), (trial, mode)
            np.testing.assert_allclose(g_got, g_want, rtol=0, atol=1e-12)


# --- one objective body against the two-form reference, bit for bit ---------

def _parts_value_and_grad(loss_fn, x, sets, cfg):
    """Every component's value and the total's gradient wrt x."""
    var = ad.Var(x)
    parts = loss_fn(var, sets, cfg)
    values = {k: float(np.asarray(ad.val(v))) for k, v in parts.items()}
    _, grad = _value_and_grad(parts["total"], var)
    return values, grad


@pytest.mark.parametrize("regime", _REGIMES)
def test_levels_equal_two_form_reference_bitwise(regime):
    # tolerance 0: the level/gather body keeps the matrix-form video
    # objective's and the gather-form frame objective's exp nodes, so
    # values and gradients match to the last bit
    rng = np.random.default_rng(19)
    cfg = TrainConfig()
    sizes = [2, 2, 3, 5, 8, 32] + [int(rng.integers(2, 33)) for _ in range(24)]
    for trial, b in enumerate(sizes):
        n_v = max(1, b // 2) if trial % 2 else 2 * b    # odd trials repeat videos
        batch = [(x, int(rng.integers(n_v))) for x in range(b)]
        scores = rng.uniform(-1, 1, size=(b, b))
        fill = {"median": 0.4, "all_ambiguous": 1.0, "all_negative": 0.0}[regime]
        sets = sets_from_masks(batch, rng.random((b, b)) < fill)
        got, g_got = _parts_value_and_grad(loss_video, scores, sets, cfg)
        want, g_want = _parts_value_and_grad(matrix_loss_video, scores, sets, cfg)
        assert got == want, (trial, b)
        assert np.array_equal(g_got, g_want), (trial, b)

        l_v = 1 if trial < 2 else int(rng.integers(2, 17))
        sims = rng.uniform(-1, 1, size=(b, b, l_v))
        tables = UncertaintyTables(u_q=rng.uniform(-1, 1, size=b),
                                   u_v=rng.uniform(-1, 1, size=(n_v, l_v)))
        tau = {"median": (float(np.median(sims)), 0.0),
               "all_ambiguous": (-2.0, -2.0), "all_negative": (2.0, 2.0)}[regime]
        fsets = detect_frame_ambiguity(batch, sims, tables, Thresholds(*tau))
        got, g_got = _parts_value_and_grad(loss_frame, sims, fsets, cfg)
        want, g_want = _parts_value_and_grad(gather_loss_frame, sims, fsets, cfg)
        assert got == want, (trial, b, l_v)
        assert np.array_equal(g_got, g_want), (trial, b, l_v)


def test_levels_on_probe_axes_equal_per_slice_calls():
    # tolerance 0: the levels reduce and gather on negative axes, so scores
    # stacked on leading (probe) axes give each slice's own bits. Every
    # member is planted within 1e-12 of a tie, so the hardest member moves
    # from probe to probe.
    rng = np.random.default_rng(29)
    cfg = TrainConfig()
    b, l_v, probes = 5, 4, (7, 2)
    batch = distinct_batch(b)
    sets = sets_from_masks(batch, rng.random((b, b)) < 0.4)
    scores = 0.5 + 1e-12 * rng.normal(size=probes + (b, b))
    base = rng.choice([0.2, 0.5], size=(b, b, l_v))
    sims = base + 1e-12 * rng.normal(size=probes + (b, b, l_v))
    tables = UncertaintyTables(u_q=rng.uniform(-1, 1, size=b),
                               u_v=rng.uniform(-1, 1, size=(b, l_v)))
    fsets = detect_frame_ambiguity(batch, base, tables, Thresholds(0.3, 0.0))
    hardest = np.argmax(np.where(sets.neg, scores, -np.inf), axis=-1).reshape(-1, b)
    assert len(np.unique(hardest, axis=0)) > 1
    for loss_fn, x, level_sets in ((loss_video, scores, sets), (loss_frame, sims, fsets)):
        got = loss_fn(x, level_sets, cfg)
        for pos in np.ndindex(*probes):
            want = loss_fn(x[pos], level_sets, cfg)
            for key, value in want.items():
                assert np.broadcast_to(got[key], probes)[pos] == value, (loss_fn, pos, key)
