"""Desk-scale engine for partially relevant video retrieval training.

Detects ambiguous text-video and text-frame pairs via similarity and
uncertainty thresholds, trains dual encoder branches with ambiguity-aware
contrastive and dual-margin triplet objectives, exchanges detected sets
between branches, and evaluates retrieval with fused scores.
"""

from .ambiguity import (AmbiguitySets, FrameSets, Thresholds, UncertaintyTables,
                        compute_thresholds, compute_uncertainty,
                        detect_frame_ambiguity, detect_video_ambiguity)
from .corpus import (CorpusSpec, FeatureCorpus, generate_synthetic,
                     read_corpus, write_corpus)
from .encoder import EncoderDims, EncoderParams, encode_text, encode_video
from .errors import (ConfigError, DimensionError, FormatError,
                     NumericalError, PrvrError)
from .evaluation import AuditReport, RecallReport, audit, evaluate
from .losses import branch_loss, loss_frame, loss_video, loss_warmup
from .similarity import CorpusSimilarityMap, build_corpus_map
from .trainer import DualBranchState, TrainConfig, checkpoint, resume, train

__version__ = "0.1.0"
