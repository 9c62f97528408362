"""Desk-scale engine for partially relevant video retrieval training.

Detects ambiguous text-video and text-frame pairs via similarity and
uncertainty thresholds, trains dual encoder branches with ambiguity-aware
contrastive and dual-margin triplet objectives, exchanges detected sets
between branches, and evaluates retrieval with fused scores.
"""

__version__ = "0.1.0"
