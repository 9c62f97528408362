"""Retrieval metrics, fused dual-branch scoring, and training-set audits.

Ranking fuses the two branches by averaging their retrieval scores. The
audit rescores similarity/uncertainty over the train set from the final
parameters, splits both by positive vs unpaired pairs, and (for corpora
with planted ground truth) grades the detected ambiguous pairs. Both
stream over query chunks (similarity.score_corpus), so neither holds the
N_q x N_v x L_v map.
"""

from dataclasses import dataclass

import numpy as np

from .ambiguity import is_ambiguous, pair_uncertainties, threshold_schedule
from .corpus import FeatureCorpus
from .errors import ConfigError
from .similarity import score_corpus
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


def _branch_scores(params, corpus: FeatureCorpus, uncertainty: bool):
    """One branch's (scores, pair uncertainties or None), each (N_q, N_v)."""
    scores, best, tables = score_corpus(params, corpus)
    return scores, (pair_uncertainties(tables.u_q, tables.u_v, best) if uncertainty else None)


def fused_pair_scores(state: DualBranchState, corpus: FeatureCorpus, uncertainty: bool = True):
    """Fused scores and fused pair uncertainties, (N_q, N_v) each.

    Without uncertainty the second item is None and no (N_q, N_v) pair
    uncertainties are built.
    """
    (s_t, u_t), (s_p, u_p) = (_branch_scores(b.params, corpus, uncertainty)
                              for b in (state.theta, state.phi))
    return (s_t + s_p) / 2.0, ((u_t + u_p) / 2.0 if uncertainty else None)


def _ranks(scores, pairing):
    """1-based rank of each query's paired video: the videos scoring
    strictly higher, plus ties at a lower index."""
    n_q, n_v = scores.shape
    s_pos = scores[np.arange(n_q), pairing][:, None]
    ahead = (scores > s_pos) | ((scores == s_pos) & (np.arange(n_v) < pairing[:, None]))
    return 1 + np.count_nonzero(ahead, axis=1)


def recall_from_scores(scores, pairing) -> RecallReport:
    """Recall@K/SumR of a (N_q, N_v) score matrix, ties to lower index."""
    ranks = _ranks(np.asarray(scores, dtype=np.float64), np.asarray(pairing))
    r_at = {k: float((ranks <= k).mean()) for k in RECALL_KS}
    return RecallReport(r_at=r_at, sum_r=100.0 * sum(r_at.values()))


def evaluate(state: DualBranchState, corpus: FeatureCorpus) -> RecallReport:
    """Recall@K and SumR of the fused scorer over the given corpus."""
    fused, _ = fused_pair_scores(state, corpus, uncertainty=False)
    return recall_from_scores(fused, corpus.pairing)


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

    thr = threshold_schedule(fused_s, fused_u, corpus.pairing)
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
