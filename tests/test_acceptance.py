"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 7-9 share one
set of trained models (three objective variants x three seeds) built by a
module-scoped fixture; the experiment configuration is frozen here.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from prvr import autodiff as ad
from prvr.ambiguity import (Thresholds, UncertaintyTables, compute_thresholds,
                            compute_uncertainty, detect_frame_ambiguity,
                            detect_video_ambiguity)
from prvr.corpus import CorpusSpec, generate_synthetic
from prvr.encoder import EncoderDims, EncoderParams, encode_text, encode_video
from prvr.evaluation import audit, evaluate, fused_pair_scores, recall_from_scores
from prvr.gradcheck import run_suite
from prvr.losses import forced_negative_sets, loss_video, loss_warmup
from prvr.similarity import build_corpus_map
from prvr.trainer import TrainConfig, train

from tests.helpers import loss_nce_slots, loss_triplet
from tests.oracles import (brute_force_frame_sets, brute_force_video_sets,
                           direct_uncertainty, exhaustive_recall,
                           reference_single_positive, retrieval_score)

# ---- frozen experiment configuration (criteria 7-9) ----------------------

EXP_SEEDS = (11, 12, 13)
EXP_SPEC = dict(n_q=200, n_v=100, l_q=6, l_v=16, d_t=32, d_v=32,
                segments_per_video=4, ambiguity_rate=0.3, noise_scale=0.35)
EXP_TRAIN = dict(epochs=25, batch_size=32, warmup_epochs=3, embed_dim=48,
                 learning_rate=2e-3)
EXP_LOSS = dict(margin_m=0.2, margin_ma=0.1, lambda_nce=0.02)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPT-{criterion:02d} {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---- 1: gradient correctness ---------------------------------------------

def test_accept_01_gradient_correctness():
    t0 = time.time()
    worst, errors = run_suite(seed=1, instances=20)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(1, ok, f"max_rel_error={worst:.3e} over {len(errors)} instances "
                  f"in {elapsed:.1f}s (tol 1e-4, budget 30s)")


# ---- 2: LAD oracle equivalence --------------------------------------------

def test_accept_02_lad_brute_force_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.time()
    for _ in range(100):
        b = int(rng.integers(2, 9))
        l_v = int(rng.integers(1, 7))
        n_q, n_v = 30, 12
        batch = [(int(rng.integers(n_q)), int(rng.integers(n_v))) for _ in range(b)]
        scores = rng.uniform(-1, 1, size=(b, b))
        best = rng.integers(0, l_v, size=(b, b))
        frame_sims = rng.uniform(-1, 1, size=(b, b, l_v))
        tables = UncertaintyTables(u_q=rng.uniform(-1, 1, size=n_q),
                                   u_v=rng.uniform(-1, 1, size=(n_v, l_v)))
        thr = Thresholds(tau_s=float(rng.uniform(-0.6, 0.6)),
                         tau_u=float(rng.uniform(-0.6, 0.6)))

        sets = detect_video_ambiguity(batch, scores, best, tables, thr)
        want = brute_force_video_sets(batch, scores, best, tables, thr)
        got = {(i, j) for i in range(b) for j in np.nonzero(sets.amb[i])[0]}
        assert got == want
        assert {(i, j) for j in range(b) for i in np.nonzero(sets.amb[:, j])[0]} == want

        fsets = detect_frame_ambiguity(batch, frame_sims, tables, thr)
        for p, (k_hat, amb, amb_q) in enumerate(
                brute_force_frame_sets(batch, frame_sims, tables, thr)):
            assert fsets.best_frame[p] == k_hat
            assert set(np.nonzero(fsets.amb_frame_mask[p])[0]) == amb
            assert set(np.nonzero(fsets.amb_query_mask[p])[0]) == amb_q
    elapsed = time.time() - t0
    report(2, elapsed < 10.0, f"100 random batches, exact set equality, {elapsed:.1f}s (budget 10s)")


# ---- 3: loss degeneracy ----------------------------------------------------

def test_accept_03_loss_degeneracy():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        b = int(rng.integers(2, 7))
        batch = [(i, i) for i in range(b)]
        scores = rng.uniform(-1, 1, size=(b, b))
        sets = forced_negative_sets(batch)
        t2v, v2t = loss_nce_slots(scores, sets)
        for i in range(b):
            worst = max(worst, abs(t2v[i] - reference_single_positive(scores, i, "row")))
            worst = max(worst, abs(v2t[i] - reference_single_positive(scores, i, "col")))
        assert loss_triplet(scores, sets.amb, 0.1) == 0.0
        cfg = TrainConfig(**EXP_LOSS)
        w = loss_warmup(scores, batch, cfg)
        v = loss_video(scores, sets, cfg)
        assert w["total"] == v["total"]
    report(3, worst < 1e-12,
           f"max |nce - single-positive reference| = {worst:.2e} (tol 1e-12); "
           f"trip_a = 0 exactly; warmup == forced-empty objective")


# ---- 4: uncertainty correctness --------------------------------------------

def test_accept_04_uncertainty_direct_average():
    rng = np.random.default_rng(404)
    worst = 0.0
    for n_q, n_v, l_v in ((50, 30, 8), (17, 9, 5), (3, 2, 1)):
        m = rng.uniform(-1, 1, size=(n_q, n_v, l_v))
        tables = compute_uncertainty(m)
        u_q, u_v = direct_uncertainty(m)
        worst = max(worst, np.abs(tables.u_q - u_q).max(), np.abs(tables.u_v - u_v).max())
    const = compute_uncertainty(np.full((50, 30, 8), 0.5))
    exact = np.all(const.u_q == 0.5) and np.all(const.u_v == 0.5)
    report(4, worst < 1e-12 and exact,
           f"max deviation from direct averaging = {worst:.2e} (tol 1e-12); "
           f"constant map returned exactly: {exact}")


# ---- 5: threshold schedule --------------------------------------------------

def test_accept_05_threshold_schedule():
    spec = CorpusSpec(n_q=20, n_v=8, l_q=4, l_v=6, d_t=10, d_v=12, seed=5,
                      segments_per_video=2, ambiguity_rate=0.3, noise_scale=0.3)
    corpus = generate_synthetic(spec)
    dims = EncoderDims(corpus.d_t, corpus.d_v, corpus.l_q, corpus.l_v, 12)
    worst = 0.0
    taus = []
    for seed in (1, 2):
        params = EncoderParams.initialize(dims, seed=seed)
        sim_map = build_corpus_map(params, corpus)
        tables = compute_uncertainty(sim_map)
        thr = compute_thresholds(sim_map, corpus.pairing, tables)
        # oracle: mean over per-pair retrieval_score calls on raw embeddings
        total = 0.0
        for i in range(corpus.n_q):
            q = encode_text(params, corpus.text_features[i])
            v = encode_video(params, corpus.video_features[corpus.pairing[i]])
            s, _ = retrieval_score(q, v)
            total += s
        worst = max(worst, abs(thr.tau_s - total / corpus.n_q))
        taus.append((thr.tau_s, thr.tau_u))
    changed = taus[0][0] != taus[1][0] and taus[0][1] != taus[1][1]
    report(5, worst < 1e-12 and changed,
           f"tau_s vs oracle mean deviation = {worst:.2e} (tol 1e-12); "
           f"thresholds change with parameters: {changed}")


# ---- 6: metric correctness ---------------------------------------------------

def test_accept_06_metric_oracle_and_monotonicity():
    rng = np.random.default_rng(606)
    all_match, all_monotone = True, True
    for _ in range(30):
        n_q = int(rng.integers(3, 25))
        n_v = int(rng.integers(2, 21))  # N_v <= 20
        scores = rng.uniform(-1, 1, size=(n_q, n_v))
        if rng.random() < 0.3:  # exercise ties
            scores = np.round(scores, 1)
        pairing = rng.integers(0, n_v, size=n_q)
        rep = recall_from_scores(scores, pairing)
        all_match &= rep.r_at == exhaustive_recall(scores, pairing)
        all_monotone &= rep.r_at[1] <= rep.r_at[5] <= rep.r_at[10] <= rep.r_at[100]
    report(6, all_match and all_monotone,
           f"exhaustive-oracle equality: {all_match}; "
           f"r@1<=r@5<=r@10<=r@100 on every run: {all_monotone}")


# ---- 7-9: directional experiments -------------------------------------------

@pytest.fixture(scope="module")
def experiment():
    corpora, results = {}, {}
    timings = {"full": 0.0, "tv": 0.0, "warm": 0.0}
    variants = {
        "full": dict(video_lad=True, frame_lad=True, cross_model=True),
        "tv": dict(video_lad=True, frame_lad=False, cross_model=False),
        "warm": dict(video_lad=False, frame_lad=False, cross_model=False),
    }
    for seed in EXP_SEEDS:
        spec = CorpusSpec(seed=seed, **EXP_SPEC)
        corpus = generate_synthetic(spec)
        test_corpus = generate_synthetic(spec, split="test")
        corpora[seed] = corpus
        for name, flags in variants.items():
            cfg = TrainConfig(seed=seed, **EXP_LOSS, **EXP_TRAIN, **flags)
            t0 = time.time()
            state, _ = train(corpus, cfg)
            timings[name] += time.time() - t0
            rep = evaluate(state, test_corpus)
            results[(name, seed)] = {"state": state, "sumr": rep.sum_r}
    return {"corpora": corpora, "results": results, "timings": timings}


def test_accept_07_planted_ambiguity_detection(experiment):
    f1s, details = [], []
    for seed in EXP_SEEDS:
        state = experiment["results"][("full", seed)]["state"]
        rep = audit(state, experiment["corpora"][seed])
        f1s.append(rep.f1)
        details.append(f"seed {seed}: P={rep.precision:.3f} R={rep.recall:.3f} "
                       f"{len(rep.detected_pairs)} detected/{rep.planted_count} planted")
    mean_f1 = float(np.mean(f1s))
    elapsed = experiment["timings"]["full"]
    ok = mean_f1 >= 0.5 and elapsed < 300.0
    report(7, ok, f"mean F1 over {len(EXP_SEEDS)} seeds = {mean_f1:.3f} "
                  f"(threshold 0.5), per-seed {[f'{x:.3f}' for x in f1s]} "
                  f"({'; '.join(details)}), "
                  f"full-ARL training time {elapsed:.0f}s (budget 300s)")


def test_accept_08_directional_gain(experiment):
    means = {name: float(np.mean([experiment["results"][(name, s)]["sumr"]
                                  for s in EXP_SEEDS]))
             for name in ("full", "tv", "warm")}
    total_time = sum(experiment["timings"].values())
    ordered = means["full"] >= means["tv"] >= means["warm"]
    gap = means["full"] - means["warm"]
    ok = ordered and gap >= 2.0 and total_time < 900.0
    per_seed = "; ".join(
        f"{name} " + "/".join(f"{experiment['results'][(name, s)]['sumr']:.1f}"
                              for s in EXP_SEEDS)
        for name in ("full", "tv", "warm"))
    report(8, ok, f"mean SumR full={means['full']:.1f} tv={means['tv']:.1f} "
                  f"warm={means['warm']:.1f} (per seed {EXP_SEEDS}: {per_seed}); "
                  f"ordered={ordered}, "
                  f"full-warm gap={gap:.1f} (need >= 2), "
                  f"total time {total_time:.0f}s (budget 900s)")


def test_accept_09_distribution_gap(experiment):
    sim_gaps, unc_gaps = [], []
    for seed in EXP_SEEDS:
        state = experiment["results"][("full", seed)]["state"]
        rep = audit(state, experiment["corpora"][seed])
        sim_gaps.append(rep.mean_positive_similarity - rep.mean_unpaired_similarity)
        unc_gaps.append(abs(rep.mean_positive_uncertainty - rep.mean_unpaired_uncertainty))
    sim_gap, unc_gap = float(np.mean(sim_gaps)), float(np.mean(unc_gaps))
    ok = sim_gap > 2.0 * unc_gap
    report(9, ok, f"similarity gap {sim_gap:.4f} vs 2 x uncertainty gap "
                  f"{2 * unc_gap:.4f} (positive vs unpaired, trained corpus)")


# ---- 10: determinism ----------------------------------------------------------

def test_accept_10_bit_identical_runs(tmp_path):
    spec_file = tmp_path / "corpus.cfg"
    spec_file.write_text(
        "n_q = 24\nn_v = 8\nl_q = 3\nl_v = 6\nd_t = 10\nd_v = 12\nseed = 3\n"
        "segments_per_video = 2\nambiguity_rate = 0.4\nnoise_scale = 0.3\n")
    train_file = tmp_path / "train.cfg"
    train_file.write_text(
        "epochs = 4\nbatch_size = 6\nwarmup_epochs = 2\nlearning_rate = 0.002\n"
        "seed = 17\nembed_dim = 12\n")

    # the subprocesses import prvr from the src this test imports, whatever
    # PYTHONPATH the caller set
    src = os.path.dirname(os.path.dirname(ad.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    artifacts = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        corpus_path = tmp_path / f"{run}.prvc"
        env = dict(os.environ, PYTHONHASHSEED="0" if run == "a" else "1", PYTHONPATH=path)
        for args in (
            ["gen-corpus", "--spec", str(spec_file), "--out", str(corpus_path)],
            ["train", "--corpus", str(corpus_path), "--config", str(train_file),
             "--out", str(out_dir)],
            ["evaluate", "--checkpoint", str(out_dir / "checkpoint.ckpt"),
             "--corpus", str(corpus_path), "--out", str(out_dir / "report.json")],
            ["audit", "--checkpoint", str(out_dir / "checkpoint.ckpt"),
             "--corpus", str(corpus_path), "--out", str(out_dir / "audit.csv")],
        ):
            proc = subprocess.run([sys.executable, "-m", "prvr.cli"] + args,
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
        artifacts.append({
            "corpus": corpus_path.read_bytes(),
            "checkpoint": (out_dir / "checkpoint.ckpt").read_bytes(),
            "log": (out_dir / "training_log.csv").read_bytes(),
            "report": (out_dir / "report.json").read_bytes(),
            "audit": (out_dir / "audit.csv").read_bytes(),
        })
    same = {k: artifacts[0][k] == artifacts[1][k] for k in artifacts[0]}
    report(10, all(same.values()),
           f"byte-identical across two runs: {same}")
