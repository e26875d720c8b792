"""Ingestion of pairwise-preference datasets and leaderboard display transforms."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Arena",
    "DesignRow",
    "EloParams",
    "IngestError",
    "IngestSchema",
    "IngestStats",
    "Matchup",
    "ModelId",
    "ModelRegistry",
    "PairCells",
    "SCHEMA_PRESETS",
    "design_row",
    "elo_transform",
    "ingest",
]


class IngestError(ValueError):
    """Raised when a dataset cannot be turned into a valid arena."""


@dataclass(frozen=True)
class ModelId:
    """A registered model: dense index plus unique display name."""

    index: int
    name: str


class ModelRegistry:
    """Dense model indexing. Index 0 is the reference whose fitted score is pinned to 0."""

    def __init__(self, names: Sequence[str]):
        index: dict[str, int] = {}
        for k, name in enumerate(names):
            if not name:
                raise IngestError("model names must be non-empty")
            if name in index:
                raise IngestError(f"duplicate model name {name!r}")
            index[name] = k
        self._names = tuple(names)
        self._index = index

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[ModelId]:
        return (ModelId(k, name) for k, name in enumerate(self._names))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, index: int) -> ModelId:
        return ModelId(index, self._names[index])

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def reference(self) -> ModelId:
        return self[0]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown model {name!r}") from None

    def resolve(self, model: int | str | ModelId) -> int:
        """Accept an index, a name, or a ModelId and return the dense index."""
        if isinstance(model, ModelId):
            model = model.index
        if isinstance(model, str):
            return self.index_of(model)
        idx = int(model)
        if not 0 <= idx < len(self._names):
            raise IndexError(f"model index {idx} out of range [0, {len(self._names)})")
        return idx


@dataclass(frozen=True)
class Matchup:
    """One decisive evaluation between two distinct models."""

    side_a: ModelId
    side_b: ModelId
    a_won: bool
    meta: Mapping[str, str] | None = None


@dataclass(frozen=True)
class DesignRow:
    """Comparison encoding of a matchup: +1 on one model's coordinate, -1 on the other's."""

    plus: ModelId
    minus: ModelId

    def as_vector(self, n_models: int, reference: int = 0) -> np.ndarray:
        """Assemble onto the free coordinates; the reference coordinate is dropped."""
        v = np.zeros(n_models)
        v[self.plus.index] += 1.0
        v[self.minus.index] -= 1.0
        return np.delete(v, reference)


def design_row(matchup: Matchup) -> DesignRow:
    """The encoding depends only on who played; the outcome lives elsewhere."""
    return DesignRow(plus=matchup.side_a, minus=matchup.side_b)


@dataclass(frozen=True)
class IngestStats:
    """Row accounting for one ingest pass. decisive + ties + malformed_skipped = source_rows."""

    source_rows: int
    decisive: int
    ties: int  # includes rows labeled "both bad"
    both_bad: int
    malformed_skipped: int


@dataclass(frozen=True)
class PairCells:
    """The arena collapsed onto unordered model pairs.

    Cell c holds every matchup between models ``lo[c] < hi[c]``, in either seat
    order. Matchup n falls in class ``row_class[n] = 2 * c + 1`` when the
    lower-index model won it and ``2 * c`` otherwise, so matchups that differ
    only in seat order share a class, and the likelihood depends on a weighting
    only through its per-class sums.
    """

    lo: np.ndarray
    hi: np.ndarray
    row_class: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.lo.size)

    def class_weights(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell weight of the matchups the lower-index model won and lost."""
        cw = np.bincount(self.row_class, weights=w, minlength=2 * self.n_cells)
        return cw[1::2], cw[0::2]


@dataclass(frozen=True)
class Arena:
    """Immutable, ordered collection of decisive matchups over a model registry.

    Matchup order is stable: index n is the canonical identity of an evaluation.
    Safe to share read-only across concurrent workers.
    """

    models: ModelRegistry
    side_a: np.ndarray
    side_b: np.ndarray
    a_won: np.ndarray
    meta: tuple[Mapping[str, str] | None, ...] | None = None
    stats: IngestStats | None = None

    def __post_init__(self):
        side_a = np.ascontiguousarray(self.side_a, dtype=np.int64)
        side_b = np.ascontiguousarray(self.side_b, dtype=np.int64)
        a_won = np.ascontiguousarray(self.a_won, dtype=np.int64)
        if not (side_a.shape == side_b.shape == a_won.shape) or side_a.ndim != 1:
            raise IngestError("matchup arrays must be 1-d and equally sized")
        m = len(self.models)
        if m < 2:
            raise IngestError("an arena needs at least 2 models")
        if side_a.size:
            for arr in (side_a, side_b):
                if arr.min() < 0 or arr.max() >= m:
                    raise IngestError("matchup references an unregistered model")
            if np.any(side_a == side_b):
                raise IngestError("a model cannot play against itself")
            if np.any((a_won != 0) & (a_won != 1)):
                raise IngestError("outcomes must be 0 or 1")
        for arr in (side_a, side_b, a_won):
            arr.flags.writeable = False
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)
        object.__setattr__(self, "a_won", a_won)

    @classmethod
    def from_records(
        cls,
        models: Sequence[str],
        records: Iterable[tuple[int, int, int]],
        meta: Sequence[Mapping[str, str] | None] | None = None,
    ) -> "Arena":
        recs = list(records)
        side_a = np.array([r[0] for r in recs], dtype=np.int64)
        side_b = np.array([r[1] for r in recs], dtype=np.int64)
        a_won = np.array([r[2] for r in recs], dtype=np.int64)
        return cls(ModelRegistry(models), side_a, side_b, a_won,
                   meta=tuple(meta) if meta is not None else None)

    @property
    def n_matchups(self) -> int:
        return int(self.side_a.size)

    @property
    def n_models(self) -> int:
        return len(self.models)

    def __len__(self) -> int:
        return self.n_matchups

    def matchup(self, n: int) -> Matchup:
        return Matchup(
            side_a=self.models[int(self.side_a[n])],
            side_b=self.models[int(self.side_b[n])],
            a_won=bool(self.a_won[n]),
            meta=self.meta[n] if self.meta is not None else None,
        )

    @cached_property
    def cells(self) -> PairCells:
        """Pair cells and each matchup's class; built once per arena."""
        m = self.n_models
        lo = np.minimum(self.side_a, self.side_b)
        keys, cell = np.unique(lo * m + np.maximum(self.side_a, self.side_b), return_inverse=True)
        lo_won = np.where(self.side_a == lo, self.a_won, 1 - self.a_won)
        cells = PairCells(lo=keys // m, hi=keys % m, row_class=2 * cell.reshape(-1) + lo_won)
        for arr in (cells.lo, cells.hi, cells.row_class):
            arr.flags.writeable = False
        return cells

    def occurrence_counts(self) -> np.ndarray:
        """Number of matchups each model took part in; sums to 2N."""
        m = self.n_models
        return np.bincount(self.side_a, minlength=m) + np.bincount(self.side_b, minlength=m)

    def summary(self) -> str:
        lines = [f"models: {self.n_models}", f"matchups: {self.n_matchups}"]
        if self.stats is not None:
            lines.append(f"ties_dropped: {self.stats.ties}")
            lines.append(f"both_bad_dropped: {self.stats.both_bad}")
            lines.append(f"malformed_skipped: {self.stats.malformed_skipped}")
            lines.append(f"source_rows: {self.stats.source_rows}")
        return "\n".join(lines)


@dataclass(frozen=True)
class IngestSchema:
    """Explicit column mapping for a dataset; nothing is sniffed.

    ``a_wins``/``b_wins``/``ties`` list the exact outcome labels; rows labeled
    ``both_bad`` carry no decisive preference and are dropped like ties.
    ``on_malformed`` is "error" (report the row number) or "skip" (count the row).
    """

    model_a: str
    model_b: str
    outcome: str
    a_wins: tuple[str, ...]
    b_wins: tuple[str, ...]
    ties: tuple[str, ...] = ()
    both_bad: tuple[str, ...] = ()
    format: str | None = None  # "csv" | "jsonl"; None = by file extension
    delimiter: str = ","
    reference: str | None = None
    meta_columns: tuple[str, ...] | str = ()
    on_malformed: str = "error"

    def __post_init__(self):
        if not self.a_wins or not self.b_wins:
            raise IngestError("schema needs at least one label for each decisive outcome")
        if self.on_malformed not in ("error", "skip"):
            raise IngestError("on_malformed must be 'error' or 'skip'")
        if self.format not in (None, "csv", "jsonl"):
            raise IngestError("format must be 'csv' or 'jsonl'")
        decisive = set(self.a_wins) | set(self.b_wins)
        if set(self.a_wins) & set(self.b_wins) or decisive & set(self.ties) or decisive & set(self.both_bad):
            raise IngestError("outcome label sets must not overlap")

    @classmethod
    def from_file(cls, path: str | Path) -> "IngestSchema":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise IngestError(f"schema file {path} must hold a JSON object")
        kwargs = {}
        for key, value in raw.items():
            if isinstance(value, list):
                value = tuple(str(v) for v in value)
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise IngestError(f"bad schema file {path}: {exc}") from None


SCHEMA_PRESETS: dict[str, IngestSchema] = {
    "arena-human-preference-55k": IngestSchema(
        model_a="model_a",
        model_b="model_b",
        outcome="winner",
        a_wins=("model_a",),
        b_wins=("model_b",),
        ties=("tie", "tie (bothbad)"),
        both_bad=("tie (bothbad)",),
        meta_columns=("prompt", "response_a", "response_b"),
    ),
    "chatbot-arena-llm-judges": IngestSchema(
        model_a="model_a",
        model_b="model_b",
        outcome="winner",
        a_wins=("model_a",),
        b_wins=("model_b",),
        ties=("tie", "tie (bothbad)"),
        both_bad=("tie (bothbad)",),
        meta_columns=("judge", "prompt", "response_a", "response_b"),
    ),
    "mt-bench-human-judgments": IngestSchema(
        model_a="model_a",
        model_b="model_b",
        outcome="winner",
        a_wins=("model_a",),
        b_wins=("model_b",),
        ties=("tie",),
        meta_columns=("judge", "turn", "question_id"),
    ),
}


def _open_text(source: str | Path | IO[str] | IO[bytes]):
    """Return (text stream, needs_close)."""
    if isinstance(source, (str, Path)):
        return open(source, encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise IngestError(f"unsupported source {type(source).__name__}")


def _detect_format(source, schema: IngestSchema) -> str:
    if schema.format is not None:
        return schema.format
    if isinstance(source, (str, Path)):
        suffix = Path(source).suffix.lower()
        if suffix in (".jsonl", ".ndjson", ".json"):
            return "jsonl"
        if suffix in (".csv", ".tsv", ".txt"):
            return "csv"
    raise IngestError("cannot infer file format; set 'format' in the schema")


def _iter_rows(stream, fmt: str, schema: IngestSchema) -> Iterator[tuple[int, dict | None]]:
    """Yield (row number, record). record is None for structurally unreadable rows."""
    if fmt == "csv":
        reader = csv.DictReader(stream, delimiter=schema.delimiter)
        if reader.fieldnames is None:
            return
        for rec in reader:
            yield reader.line_num, rec
    else:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                yield lineno, None
                continue
            yield lineno, rec if isinstance(rec, dict) else None


def ingest(source: str | Path | IO[str] | IO[bytes], schema: IngestSchema | str) -> Arena:
    """Build an Arena from a delimiter-separated or record-per-line dataset.

    Only decisive matchups are kept, in source order; tie and "both bad" rows are
    dropped and counted. The model registry follows first appearance unless the
    schema names a reference model, which is pinned to index 0. Identical bytes
    and schema always produce an identical arena.
    """
    if isinstance(schema, str):
        if schema not in SCHEMA_PRESETS:
            raise IngestError(f"unknown schema preset {schema!r}")
        schema = SCHEMA_PRESETS[schema]

    label_kind: dict[str, str] = {}
    for label in schema.a_wins:
        label_kind[label] = "a"
    for label in schema.b_wins:
        label_kind[label] = "b"
    for label in schema.ties:
        label_kind.setdefault(label, "tie")
    for label in schema.both_bad:
        label_kind[label] = "both_bad"

    names: list[str] = []
    name_index: dict[str, int] = {}
    if schema.reference is not None:
        names.append(schema.reference)
        name_index[schema.reference] = 0

    def register(name: str) -> int:
        idx = name_index.get(name)
        if idx is None:
            idx = len(names)
            names.append(name)
            name_index[name] = idx
        return idx

    keep_meta = schema.meta_columns == "all" or bool(schema.meta_columns)
    side_a: list[int] = []
    side_b: list[int] = []
    a_won: list[int] = []
    metas: list[Mapping[str, str] | None] = []
    source_rows = ties = both_bad = malformed = 0
    reference_seen = schema.reference is None

    stream, needs_close = _open_text(source)
    try:
        fmt = _detect_format(source, schema)
        for rownum, rec in _iter_rows(stream, fmt, schema):
            source_rows += 1

            def bad(msg: str) -> bool:
                nonlocal malformed
                if schema.on_malformed == "skip":
                    malformed += 1
                    return True
                raise IngestError(f"row {rownum}: {msg}")

            if rec is None:
                bad("unreadable record")
                continue
            name_a = rec.get(schema.model_a)
            name_b = rec.get(schema.model_b)
            outcome = rec.get(schema.outcome)
            if not name_a or not name_b or outcome is None:
                bad("missing model or outcome field")
                continue
            name_a, name_b = str(name_a), str(name_b)
            if name_a == name_b:
                bad(f"model {name_a!r} on both sides")
                continue
            label = str(outcome)
            kind = label_kind.get(label)
            if kind is None:
                raise IngestError(f"row {rownum}: unknown outcome label {label!r}")
            if kind == "both_bad":
                ties += 1
                both_bad += 1
                continue
            if kind == "tie":
                ties += 1
                continue
            idx_a = register(name_a)
            idx_b = register(name_b)
            if schema.reference in (name_a, name_b):
                reference_seen = True
            side_a.append(idx_a)
            side_b.append(idx_b)
            a_won.append(1 if kind == "a" else 0)
            if keep_meta:
                if schema.meta_columns == "all":
                    skip = {schema.model_a, schema.model_b, schema.outcome}
                    extra = {k: str(v) for k, v in rec.items()
                             if k is not None and k not in skip and v is not None}
                else:
                    extra = {k: str(rec[k]) for k in schema.meta_columns if rec.get(k) is not None}
                metas.append(extra)
    finally:
        if needs_close:
            stream.close()

    if not side_a:
        raise IngestError("no decisive matchups after filtering")
    if len(names) < 2:
        raise IngestError("fewer than 2 distinct models after filtering")
    if not reference_seen:
        raise IngestError(f"reference model {schema.reference!r} never appears in the data")

    stats = IngestStats(
        source_rows=source_rows,
        decisive=len(side_a),
        ties=ties,
        both_bad=both_bad,
        malformed_skipped=malformed,
    )
    return Arena(
        models=ModelRegistry(names),
        side_a=np.array(side_a, dtype=np.int64),
        side_b=np.array(side_b, dtype=np.int64),
        a_won=np.array(a_won, dtype=np.int64),
        meta=tuple(metas) if keep_meta else None,
        stats=stats,
    )


@dataclass(frozen=True)
class EloParams:
    """Affine display transform for fitted scores; strictly monotone, so rank-preserving."""

    scale: float = 400.0
    init_rating: float = 1000.0
    anchor_model: int | None = None
    anchor_score: float = 1114.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")


def elo_transform(scores: np.ndarray, params: EloParams | None = None) -> np.ndarray:
    """Map fitted scores to display ratings: scale * score + init_rating + shift.

    With an anchor model set, the shift is chosen so that model displays exactly
    ``anchor_score``; otherwise the shift is 0.
    """
    params = params or EloParams()
    scores = np.asarray(scores, dtype=np.float64)
    shift = 0.0
    if params.anchor_model is not None:
        idx = int(params.anchor_model)
        if not 0 <= idx < scores.size:
            raise ValueError(f"anchor model index {idx} not in registry")
        shift = params.anchor_score - (params.scale * scores[idx] + params.init_rating)
    return params.scale * scores + params.init_rating + shift
