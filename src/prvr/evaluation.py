"""Retrieval metrics, fused dual-branch scoring, and training-set audits.

Ranking fuses the two branches by averaging their retrieval scores.
`evaluate` needs only each query's rank of its paired video: it ranks
off each pair's fused GEMM max over frames (similarity.gemm_maxes) and
scores exactly only the paired videos and the pairs within the GEMM
tolerance of them, so its ranks equal recall_from_scores's on the exact
fused scores. The audit rescores similarity/uncertainty of every train
pair from the final parameters (similarity.score_corpus), splits both by
positive vs unpaired pairs, and (for corpora with planted ground truth)
grades the detected ambiguous pairs. Both walk (query, video) tiles, so
neither holds the N_q x N_v x L_v map.
"""

from dataclasses import dataclass

import numpy as np

from .ambiguity import is_ambiguous, pair_uncertainties, threshold_schedule
from .corpus import FeatureCorpus
from .errors import ConfigError
from .similarity import exact_scores, gemm_maxes, gemm_tol, score_corpus
from .trainer import DualBranchState

RECALL_KS = (1, 5, 10, 100)
HIST_BINS = 50


@dataclass
class RecallReport:
    r_at: dict
    sum_r: float


@dataclass
class AuditReport:
    tau_s: float
    tau_u: float
    mean_positive_similarity: float
    mean_unpaired_similarity: float | None  # None without unpaired pairs
    mean_positive_uncertainty: float
    mean_unpaired_uncertainty: float | None
    sim_bin_edges: np.ndarray
    sim_hist_positive: np.ndarray
    sim_hist_unpaired: np.ndarray
    unc_bin_edges: np.ndarray
    unc_hist_positive: np.ndarray
    unc_hist_unpaired: np.ndarray
    detected_pairs: np.ndarray      # (K, 2) detected (query, video), row-major
    precision: float
    recall: float
    f1: float
    lad_defined: bool
    planted_count: int = 0


def _branch_scores(params, corpus: FeatureCorpus):
    """One branch's (scores, pair uncertainties), each (N_q, N_v)."""
    scores, best, tables = score_corpus(params, corpus)
    return scores, pair_uncertainties(tables.u_q, tables.u_v, best)


def fused_pair_scores(state: DualBranchState, corpus: FeatureCorpus):
    """Fused scores and fused pair uncertainties, (N_q, N_v) each."""
    (s_t, u_t), (s_p, u_p) = (_branch_scores(b.params, corpus)
                              for b in (state.theta, state.phi))
    return (s_t + s_p) / 2.0, (u_t + u_p) / 2.0


def _recall(ranks) -> RecallReport:
    r_at = {k: float((ranks <= k).mean()) for k in RECALL_KS}
    return RecallReport(r_at=r_at, sum_r=100.0 * sum(r_at.values()))


def _ahead(s, y, s_pos, paired):
    """Whether video y, scoring s, ranks ahead of the paired video, scoring
    s_pos: a strictly higher score, or an equal one at a lower index."""
    return (s > s_pos) | ((s == s_pos) & (y < paired))


def recall_from_scores(scores, pairing) -> RecallReport:
    """Recall@K/SumR of a (N_q, N_v) score matrix; a query's rank is 1 plus
    the videos _ahead of its paired one."""
    scores, pairing = np.asarray(scores, dtype=np.float64), np.asarray(pairing)
    n_q, n_v = scores.shape
    ahead = _ahead(scores, np.arange(n_v), scores[np.arange(n_q), pairing][:, None],
                   pairing[:, None])
    return _recall(1 + np.count_nonzero(ahead, axis=1))


def evaluate(state: DualBranchState, corpus: FeatureCorpus) -> RecallReport:
    """Recall@K and SumR of the fused scorer over the given corpus, with
    recall_from_scores's ranks, from each pair's fused GEMM max.

    Each branch's GEMM max lies within 2 * gamma_d ~ d * eps of its exact
    score, inside gemm_tol(d) / 2 (similarity.gemm_tol), and fusing adds
    at most eps. So a fused GEMM max more than tol above (below) the
    exact fused positive puts the video strictly ahead of (behind) the
    paired one. Only the pairs within tol are rescored exactly, in both
    branches, and compared as recall_from_scores does. No (N_q, N_v)
    exact scores or pair uncertainties are built.
    """
    pairing = np.asarray(corpus.pairing)
    branches = [gemm_maxes(b.params, corpus) for b in (state.theta, state.phi)]
    (_, _, diff), (_, _, g_p) = branches
    n_q, d = branches[0][0].shape

    def fused(x, y):
        """Exact fused scores of the pairs (x[k], y[k])."""
        s_t, s_p = (exact_scores(qu, fu, x, y) for qu, fu, _ in branches)
        return (s_t + s_p) / 2.0

    xs = np.arange(n_q)
    s_pos = fused(xs, pairing)
    # diff: fused GEMM max minus the exact fused positive, in place
    diff += g_p
    diff /= 2.0
    diff -= s_pos[:, None]
    tol = gemm_tol(d)
    near = np.abs(diff) <= tol
    near[xs, pairing] = False
    x, y = np.nonzero(near)
    ahead = _ahead(fused(x, y), y, s_pos[x], pairing[x])
    ranks = 1 + np.count_nonzero(diff > tol, axis=1) + np.bincount(x[ahead], minlength=n_q)
    return _recall(ranks)


def grade_detection(detected_mask, planted):
    """Precision/recall/F1 of a (N_q, N_v) detected mask vs planted pairs.

    planted holds (query, video) pairs. Empty detected or empty/missing
    planted use the zero convention with defined=False.
    """
    n_detected = int(np.count_nonzero(detected_mask))
    planted = np.array(list(set(planted or ())), dtype=np.intp).reshape(-1, 2)
    tp = int(np.count_nonzero(detected_mask[planted[:, 0], planted[:, 1]]))
    precision = tp / n_detected if n_detected else 0.0
    recall = tp / len(planted) if len(planted) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1, n_detected > 0 and len(planted) > 0


def _hist(values, mask_pos, mask_unp):
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, HIST_BINS + 1)
    h_pos, _ = np.histogram(values[mask_pos], bins=edges)
    h_unp, _ = np.histogram(values[mask_unp], bins=edges)
    return edges, h_pos / max(h_pos.sum(), 1), h_unp / max(h_unp.sum(), 1)


def _mean(values):
    """Mean of a selection, None when it is empty."""
    return float(values.mean()) if values.size else None


def audit(state: DualBranchState, corpus: FeatureCorpus) -> AuditReport:
    """Distribution and detection-quality audit over a train corpus.

    Applies training's rule (threshold_schedule, is_ambiguous) corpus-wide
    to fused branch scores and pair uncertainties. With no
    planted ground truth (or nothing detected) precision/recall fall back
    to 0 and lad_defined is False. A corpus with no unpaired pair (one
    video) has no unpaired means: they are None.
    """
    if corpus.split != "train":
        raise ConfigError("audit requires the train split")
    fused_s, fused_u = fused_pair_scores(state, corpus)
    n_q, n_v = fused_s.shape
    pos = np.zeros((n_q, n_v), dtype=bool)
    pos[np.arange(n_q), corpus.pairing] = True
    unp = ~pos

    thr = threshold_schedule(fused_s[pos], fused_u)
    detected_mask = unp & is_ambiguous(fused_s, fused_u, thr)

    planted = corpus.planted_ambiguity
    n_planted = len(planted) if planted else 0
    precision, recall, f1, lad_defined = grade_detection(detected_mask, planted)

    sim_edges, sim_pos, sim_unp = _hist(fused_s, pos, unp)
    unc_edges, unc_pos, unc_unp = _hist(fused_u, pos, unp)

    return AuditReport(
        tau_s=thr.tau_s, tau_u=thr.tau_u,
        mean_positive_similarity=thr.tau_s,
        mean_unpaired_similarity=_mean(fused_s[unp]),
        mean_positive_uncertainty=float(fused_u[pos].mean()),
        mean_unpaired_uncertainty=_mean(fused_u[unp]),
        sim_bin_edges=sim_edges, sim_hist_positive=sim_pos, sim_hist_unpaired=sim_unp,
        unc_bin_edges=unc_edges, unc_hist_positive=unc_pos, unc_hist_unpaired=unc_unp,
        detected_pairs=np.argwhere(detected_mask), precision=precision, recall=recall, f1=f1,
        lad_defined=lad_defined, planted_count=n_planted,
    )
