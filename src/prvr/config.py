"""Flat key=value config files with command-line overrides.

Lines are `key = value`; blank lines and #-comments are ignored. Unknown,
empty and repeated keys are rejected so typos fail loudly before any work
starts. A --set override replaces a file's value; the overrides follow the
same rule among themselves, so `--set =5` and a key given twice by --set
are rejected too.

The key/type schema of each file is read off its config dataclass, one
field per key. A config renders to sorted lines, resolved_lines; for a
TrainConfig that text is both `config.resolved` and the checkpoint's
config block, read back by the same parser and validation as a file.
"""

import math
from dataclasses import dataclass, fields

from .corpus import CorpusSpec
from .errors import ConfigError


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    warmup_epochs: int = 3
    learning_rate: float = 2e-3
    seed: int = 0
    cross_model: bool = True
    video_lad: bool = True
    frame_lad: bool = True
    embed_dim: int = 64
    margin_m: float = 0.2
    margin_ma: float = 0.1
    lambda_nce: float = 0.02

    def validate(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (contrastive losses need an unpaired member)")
        if self.warmup_epochs < 0 or self.epochs < self.warmup_epochs:
            raise ConfigError("need epochs >= warmup_epochs >= 0")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be nonnegative, got {self.learning_rate!r}")
        if self.embed_dim <= 0:
            raise ConfigError("embed_dim must be positive")
        if self.margin_m < 0 or self.margin_ma < 0:
            raise ConfigError("margins must be nonnegative")
        if not self.margin_ma < self.margin_m:
            raise ConfigError(
                f"margin_ma ({self.margin_ma}) must be smaller than margin_m ({self.margin_m})")
        if self.lambda_nce <= 0:
            raise ConfigError("lambda_nce must be positive")


def _schema(cls) -> dict:
    """{field name: type} of a config dataclass, in declaration order."""
    return {f.name: f.type for f in fields(cls)}


CORPUS_KEYS = _schema(CorpusSpec)
TRAIN_KEYS = _schema(TrainConfig)


def _entries(items) -> dict:
    """{key: raw value} of (where, "key=value") items; `where` names an item
    in errors. A key may appear once and may not be empty."""
    entries = {}
    for where, text in items:
        if "=" not in text:
            raise ConfigError(f"{where}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if not key or key in entries:
            raise ConfigError(f"{where}: " + (f"repeated key {key!r}" if key else "empty key"))
        entries[key] = raw.strip()
    return entries


def parse_kv_lines(lines, source) -> dict:
    """{key: raw value} of key=value lines; `source` names them in errors."""
    return _entries((f"{source}:{lineno}", stripped) for lineno, line in enumerate(lines, 1)
                    if (stripped := line.strip()) and not stripped.startswith("#"))


def parse_kv_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_kv_lines(lines, path)


def apply_overrides(entries: dict, overrides) -> dict:
    """`entries` with each --set key=value put over it; the overrides obey
    the line rule among themselves (no empty or repeated key)."""
    return dict(entries, **_entries(("--set", item) for item in overrides or ()))


def _convert(key, raw, typ):
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from exc


def _typed(entries, schema, what):
    unknown = set(entries) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(sorted(unknown))}")
    return {k: _convert(k, raw, schema[k]) for k, raw in entries.items()}


def corpus_spec_from(entries: dict) -> CorpusSpec:
    spec = CorpusSpec(**_typed(entries, CORPUS_KEYS, "corpus"))
    spec.validate()
    return spec


def train_config_from(entries: dict) -> TrainConfig:
    cfg = TrainConfig(**_typed(entries, TRAIN_KEYS, "training"))
    cfg.validate()
    return cfg


def train_config_from_text(text: str) -> TrainConfig:
    """Inverse of resolved_lines for a TrainConfig; every key must be present."""
    entries = parse_kv_lines(text.splitlines(), "line")
    missing = TRAIN_KEYS.keys() - entries.keys()
    if missing:
        raise ConfigError(f"missing key(s): {', '.join(sorted(missing))}")
    return train_config_from(entries)


def resolved_lines(cfg):
    """Render a CorpusSpec or TrainConfig back to sorted key=value lines."""
    return [f"{k}={getattr(cfg, k)}" for k in sorted(_schema(type(cfg)))]
