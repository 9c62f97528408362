"""Feature corpora: synthetic generation and the .prvc on-disk format.

A corpus holds pre-extracted per-word text features and per-frame video
features plus the query->video pairing map. Synthetic corpora are built
from latent concepts so that "partially relevant" is literal: each video
is a concatenation of concept segments, each query expresses exactly one
concept, and every unpaired (query, video) pair that shares a concept is
recorded as planted ground truth.

File layout (little-endian):

    magic b"PRVC" | version u32 | N_q N_v L_q L_v d_t d_v u32 | flags u32
    text features   f32, N_q*L_q*d_t, row-major
    video features  f32, N_v*L_v*d_v, row-major
    pairing         u32 * N_q
    planted list    u32 count + count * (u32, u32)   [iff flags bit 1]

flags: bit 0 = test split, bit 1 = planted-ambiguity list present.
"""

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError

MAGIC = b"PRVC"
VERSION = 1

# Dimensionality of the shared latent concept space used by the generator.
LATENT_DIM = 16

# Scale of the per-placement jitter applied to reused (copied) segments,
# as a fraction of noise_scale.
COPY_JITTER = 0.15

_SPLITS = ("train", "test")


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for the synthetic corpus generator."""

    n_q: int
    n_v: int
    l_q: int
    l_v: int
    d_t: int
    d_v: int
    seed: int
    segments_per_video: int = 4
    ambiguity_rate: float = 0.0
    noise_scale: float = 0.1

    def validate(self):
        for name in ("n_q", "n_v", "l_q", "l_v", "d_t", "d_v", "segments_per_video"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not 0.0 <= self.ambiguity_rate <= 1.0:
            raise ConfigError(f"ambiguity_rate must be in [0, 1], got {self.ambiguity_rate!r}")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ConfigError(
                f"noise_scale must be finite and nonnegative, got {self.noise_scale!r}")
        if self.l_v < self.segments_per_video:
            raise ConfigError(
                f"l_v ({self.l_v}) must be >= segments_per_video ({self.segments_per_video})")


@dataclass
class FeatureCorpus:
    """Pre-extracted features plus the pairing map.

    text_features:  (N_q, L_q, d_t) float32
    video_features: (N_v, L_v, d_v) float32
    pairing:        (N_q,) int64, query i -> its positive video index
    planted_ambiguity: set of (query, video) pairs sharing a concept with
        the query's paired video, or None for corpora without ground truth.
    """

    text_features: np.ndarray
    video_features: np.ndarray
    pairing: np.ndarray
    split: str = "train"
    planted_ambiguity: set | None = field(default=None)

    @property
    def n_q(self):
        return self.text_features.shape[0]

    @property
    def n_v(self):
        return self.video_features.shape[0]

    @property
    def l_q(self):
        return self.text_features.shape[1]

    @property
    def l_v(self):
        return self.video_features.shape[1]

    @property
    def d_t(self):
        return self.text_features.shape[2]

    @property
    def d_v(self):
        return self.video_features.shape[2]

    def validate(self):
        if self.split not in _SPLITS:
            raise ConfigError(f"split must be one of {_SPLITS}, got {self.split!r}")
        if self.text_features.ndim != 3 or self.video_features.ndim != 3:
            raise ConfigError("feature tensors must be 3-dimensional")
        if self.pairing.shape != (self.n_q,):
            raise ConfigError("pairing must map every query")
        if np.any(self.pairing < 0) or np.any(self.pairing >= self.n_v):
            raise ConfigError("pairing contains an out-of-range video index")
        if not np.all(np.isfinite(self.text_features)):
            raise ConfigError("text_features contains non-finite values")
        if not np.all(np.isfinite(self.video_features)):
            raise ConfigError("video_features contains non-finite values")
        if self.planted_ambiguity is not None:
            for (qi, vj) in self.planted_ambiguity:
                if not (0 <= qi < self.n_q and 0 <= vj < self.n_v):
                    raise ConfigError(f"planted pair {(qi, vj)} out of range")
                if self.pairing[qi] == vj:
                    raise ConfigError(f"planted pair {(qi, vj)} duplicates a positive pair")

    def __eq__(self, other):
        if not isinstance(other, FeatureCorpus):
            return NotImplemented
        return (
            self.split == other.split
            and self.text_features.shape == other.text_features.shape
            and self.video_features.shape == other.video_features.shape
            and np.array_equal(self.text_features, other.text_features)
            and np.array_equal(self.video_features, other.video_features)
            and np.array_equal(self.pairing, other.pairing)
            and self.planted_ambiguity == other.planted_ambiguity
        )


def generate_synthetic(spec: CorpusSpec, split: str = "train") -> FeatureCorpus:
    """Build a planted-ambiguity corpus, deterministically from spec.seed.

    Each segment of each video draws a latent concept: with probability
    ambiguity_rate a uniformly chosen already-used concept, otherwise a
    fresh random unit vector. Queries pair round-robin with videos and
    express the concept of one random segment of their video. The
    latent->feature projections depend only on the seed, so train/test
    splits of the same spec live in the same feature space.
    """
    spec.validate()
    if split not in _SPLITS:
        raise ConfigError(f"split must be one of {_SPLITS}, got {split!r}")

    root = np.random.SeedSequence([spec.seed & 0xFFFFFFFFFFFFFFFF])
    proj_ss, train_ss, test_ss = root.spawn(3)
    rng = np.random.default_rng(train_ss if split == "train" else test_ss)

    proj_rng = np.random.default_rng(proj_ss)
    proj_text = proj_rng.normal(size=(LATENT_DIM, spec.d_t)) / np.sqrt(LATENT_DIM)
    proj_video = proj_rng.normal(size=(LATENT_DIM, spec.d_v)) / np.sqrt(LATENT_DIM)

    segs = spec.segments_per_video
    # frame k belongs to segment k*segs // L_v (contiguous blocks), row block_row[k]
    frame_segment = (np.arange(spec.l_v) * segs) // spec.l_v
    block_row = np.arange(spec.l_v) - np.searchsorted(frame_segment, frame_segment)
    block_max = int(np.max(np.bincount(frame_segment)))

    # Every occurrence of a concept replays one canonical noised segment
    # (plus a small per-placement jitter): shared content behaves like
    # repeated footage, so planted pairs are structurally as similar as
    # the paired video itself. Reuse stays within one segment position
    # (recurring footage keeps its slot; also keeps positional encoding
    # from trivially separating copies) and picks uniformly over previous
    # draws there, giving popular concepts a heavy tail.
    centers, canon = [], []
    draws_at = [[] for _ in range(segs)]
    video_concepts = np.empty((spec.n_v, segs), dtype=np.int64)
    for j in range(spec.n_v):
        for s in range(segs):
            pool = draws_at[s]
            if pool and rng.random() < spec.ambiguity_rate:
                idx = pool[int(rng.integers(len(pool)))]
            else:
                idx = len(centers)
                center = rng.normal(size=LATENT_DIM)
                centers.append(center / np.linalg.norm(center))
                texture = spec.noise_scale * rng.uniform(0.2, 1.8)
                canon.append(centers[-1] + texture * rng.normal(size=(block_max, LATENT_DIM)))
            pool.append(idx)
            video_concepts[j, s] = idx
    centers = np.asarray(centers)

    pairing = np.arange(spec.n_q, dtype=np.int64) % spec.n_v
    query_segment = rng.integers(segs, size=spec.n_q)
    query_concept = video_concepts[pairing, query_segment]

    # Segments cover each video's frames in order, so one draw in video,
    # frame order equals one draw per (video, segment) joined end to end.
    jitter = COPY_JITTER * spec.noise_scale
    video_lat = np.stack(canon)[video_concepts[:, frame_segment], block_row]
    video_lat = video_lat + jitter * rng.normal(size=(spec.n_v, spec.l_v, LATENT_DIM))

    # per-query difficulty: a clean and a hard population around the mean
    # level (multimodal difficulty keeps the trained positive-similarity
    # distribution wide instead of collapsing to a point)
    hard = rng.random(spec.n_q) < 0.5
    query_mult = np.where(hard, rng.uniform(1.2, 1.8, size=spec.n_q),
                          rng.uniform(0.15, 0.5, size=spec.n_q))
    query_noise = spec.noise_scale * query_mult[:, None, None]
    text_lat = centers[query_concept][:, None, :]
    text_lat = text_lat + query_noise * rng.normal(size=(spec.n_q, spec.l_q, LATENT_DIM))

    text_features = (text_lat @ proj_text).astype(np.float32)
    video_features = (video_lat @ proj_video).astype(np.float32)

    holds = np.any(video_concepts == query_concept[:, None, None], axis=2)
    holds[np.arange(spec.n_q), pairing] = False
    planted = set(map(tuple, np.argwhere(holds).tolist()))

    corpus = FeatureCorpus(text_features, video_features, pairing,
                           split=split, planted_ambiguity=planted)
    corpus.validate()
    return corpus


def _read_exact(fh, n, fieldname):
    """n bytes of `fieldname`, or FormatError naming it.

    No more than the bytes left in the file are read, so a length that a
    corrupt file declares never sizes a buffer.
    """
    data = fh.read(min(n, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(data) != n:
        raise FormatError(f"{fieldname}: expected {n} bytes, file truncated at {len(data)}")
    return data


@contextmanager
def _atomic_open(path, mode="w", newline=None):
    """File handle whose contents replace `path` only once fully written.

    Writes go to a temp file in the same directory, renamed over `path`
    on success and removed on failure, so a failed write leaves any
    earlier file intact. Text modes write UTF-8; "wb" writes bytes.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=newline,
                  encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_corpus(corpus: FeatureCorpus, path) -> None:
    corpus.validate()
    flags = 0
    if corpus.split == "test":
        flags |= 1
    if corpus.planted_ambiguity is not None:
        flags |= 2
    header = struct.pack(
        "<4sIIIIIIII", MAGIC, VERSION,
        corpus.n_q, corpus.n_v, corpus.l_q, corpus.l_v,
        corpus.d_t, corpus.d_v, flags,
    )
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(corpus.text_features, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(corpus.video_features, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(corpus.pairing, dtype="<u4").tobytes())
        if corpus.planted_ambiguity is not None:
            pairs = sorted(corpus.planted_ambiguity)
            fh.write(struct.pack("<I", len(pairs)))
            if pairs:
                fh.write(np.asarray(pairs, dtype="<u4").tobytes())


def read_corpus(path) -> FeatureCorpus:
    with open(path, "rb") as fh:
        header = _read_exact(fh, 36, "header")
        magic, version, n_q, n_v, l_q, l_v, d_t, d_v, flags = struct.unpack("<4sIIIIIIII", header)
        if magic != MAGIC:
            raise FormatError(f"magic: expected {MAGIC!r}, got {magic!r}")
        if version != VERSION:
            raise FormatError(f"version: unsupported value {version}")
        if flags & ~3:
            raise FormatError(f"flags: undefined bits {flags & ~3:#x}")
        for name, v in (("N_q", n_q), ("N_v", n_v), ("L_q", l_q),
                        ("L_v", l_v), ("d_t", d_t), ("d_v", d_v)):
            if v == 0:
                raise FormatError(f"{name}: must be positive, got 0")

        text = np.frombuffer(
            _read_exact(fh, 4 * n_q * l_q * d_t, "text_features"), dtype="<f4"
        ).reshape(n_q, l_q, d_t).astype(np.float32)
        video = np.frombuffer(
            _read_exact(fh, 4 * n_v * l_v * d_v, "video_features"), dtype="<f4"
        ).reshape(n_v, l_v, d_v).astype(np.float32)
        pairing = np.frombuffer(
            _read_exact(fh, 4 * n_q, "pairing"), dtype="<u4"
        ).astype(np.int64)

        planted = None
        if flags & 2:
            (count,) = struct.unpack("<I", _read_exact(fh, 4, "planted_count"))
            planted = set()
            if count:
                raw = np.frombuffer(
                    _read_exact(fh, 8 * count, "planted_ambiguity"), dtype="<u4"
                ).reshape(count, 2)
                planted = {(int(a), int(b)) for a, b in raw}
        trailing = fh.read(1)
        if trailing:
            raise FormatError("payload: unexpected trailing bytes")

    corpus = FeatureCorpus(text, video, pairing,
                           split="test" if flags & 1 else "train",
                           planted_ambiguity=planted)
    try:
        corpus.validate()
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc
    return corpus
