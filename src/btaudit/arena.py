"""Ingestion of pairwise-preference datasets and leaderboard display transforms."""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Arena",
    "IngestError",
    "IngestSchema",
    "IngestStats",
    "ModelRegistry",
    "PairCells",
    "SCHEMA_PRESETS",
    "elo_transform",
    "ingest",
]


class IngestError(ValueError):
    """Raised when a dataset cannot be turned into a valid arena."""


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

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def resolve(self, model: int | str) -> int:
        """Accept a name or an integer index and return the dense index."""
        if isinstance(model, str):
            try:
                return self._index[model]
            except KeyError:
                raise KeyError(f"unknown model {model!r}") from None
        if isinstance(model, bool):
            raise TypeError("a model is a name or an integer index, not a bool")
        idx = operator.index(model)
        if not 0 <= idx < len(self._names):
            raise IndexError(f"model index {idx} out of range [0, {len(self._names)})")
        return idx

    def resolve_pair(self, a: int | str, b: int | str) -> tuple[int, int]:
        """Resolve two models, as ``resolve`` does each, and refuse the same one twice."""
        ia, ib = self.resolve(a), self.resolve(b)
        if ia == ib:
            raise ValueError("a pair needs two distinct models")
        return ia, ib


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
    only through its per-class sums. ``slots[:, c]`` are cell c's positions
    ``lo * M + hi`` and ``hi * M + lo`` in a flattened M-by-M matrix.
    """

    lo: np.ndarray
    hi: np.ndarray
    row_class: np.ndarray
    slots: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.lo.size)

    def class_weights(self, w: np.ndarray) -> np.ndarray:
        """Per-class sums of a per-matchup weighting, one O(N) pass."""
        return np.bincount(self.row_class, weights=w, minlength=2 * self.n_cells)

    @cached_property
    def class_counts(self) -> np.ndarray:
        """Number of matchups in each class: the full-data class weights, built once."""
        counts = np.bincount(self.row_class, minlength=2 * self.n_cells)
        counts.flags.writeable = False
        return counts

    @cached_property
    def class_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, start, size)``: class k's matchups are ``rows[start[k]:start[k] + size[k]]``.

        Ascending within each class; built with one stable argsort on first use.
        """
        size = self.class_counts
        rows = np.argsort(self.row_class, kind="stable")
        start = np.cumsum(size) - size
        for arr in (rows, start):
            arr.flags.writeable = False
        return rows, start, size

    @cached_property
    def occupied(self) -> np.ndarray:
        """1.0 for each class that holds a matchup, 0.0 for an empty one."""
        occupied = (self.class_index[2] > 0).astype(np.float64)
        occupied.flags.writeable = False
        return occupied


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
    def from_records(cls, models: Sequence[str], records: Iterable[tuple[int, int, int]]) -> "Arena":
        recs = list(records)
        return cls(ModelRegistry(models), [r[0] for r in recs], [r[1] for r in recs],
                   [r[2] for r in recs])

    @property
    def n_matchups(self) -> int:
        return int(self.side_a.size)

    @property
    def n_models(self) -> int:
        return len(self.models)

    @cached_property
    def cells(self) -> PairCells:
        """Pair cells and each matchup's class; built once per arena.

        The cells are the occupied keys ``lo * M + hi``, found by counting: M² counters,
        the size of the solver's dense curvature matrix.
        """
        m = self.n_models
        lo = np.minimum(self.side_a, self.side_b)
        key = lo * m + np.maximum(self.side_a, self.side_b)
        occupied = np.bincount(key, minlength=m * m) > 0
        keys = np.flatnonzero(occupied)
        cell = (np.cumsum(occupied) - 1)[key]
        lo_won = np.where(self.side_a == lo, self.a_won, 1 - self.a_won)
        lo, hi = keys // m, keys % m
        cells = PairCells(lo=lo, hi=hi, row_class=2 * cell + lo_won,
                          slots=np.stack([keys, hi * m + lo]))
        for arr in (cells.lo, cells.hi, cells.row_class, cells.slots):
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
    ``meta_columns`` selects what ``inspect`` prints of each dropped row: the
    named columns, or for "all" or () every column but the model and outcome
    columns. ``ingest`` ignores it.
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
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise IngestError("delimiter must be exactly one character")
        if isinstance(self.meta_columns, str) and self.meta_columns != "all":
            raise IngestError('meta_columns must be "all" or a list of column names')
        decisive = set(self.a_wins) | set(self.b_wins)
        if set(self.a_wins) & set(self.b_wins) or decisive & set(self.ties) or decisive & set(self.both_bad):
            raise IngestError("outcome label sets must not overlap")

    @classmethod
    def from_file(cls, path: str | Path) -> "IngestSchema":
        with open(path, encoding="utf-8-sig") as fh:
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


def _detect_format(source: str | Path, schema: IngestSchema) -> str:
    if schema.format is not None:
        return schema.format
    suffix = Path(source).suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if suffix in (".csv", ".tsv", ".txt"):
        return "csv"
    raise IngestError("cannot infer file format; set 'format' in the schema")


_JSON_WHITESPACE = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode
_UNREADABLE = object()  # record slot of a row that is not a record at all
_TIE, _BOTH_BAD = 2, 3  # outcome codes beside 1 (side a won) and 0 (side b won)


def _csv_records(stream, schema: IngestSchema):
    """Yield the header, then (row number, model a, model b, outcome, row) per data row.

    Reads as ``csv.DictReader`` does: the first physical row is the header,
    later blank rows are skipped, a short row reads ``None`` for its missing
    fields, extra fields are ignored, and of duplicate header names the last
    one wins. A row's number is the line it ends on; ``dict(zip(header, row))``
    is its record.
    """
    reader = csv.reader(stream, delimiter=schema.delimiter)
    try:
        header = next(reader, None)
        if header is None:
            return
        yield header
        width = len(header)
        column = {name: k for k, name in enumerate(header)}
        at_a, at_b, at_outcome = (column.get(name, width)
                                  for name in (schema.model_a, schema.model_b, schema.outcome))
        # Rows are cut or padded to the header. An absent column reads slot
        # ``width``, a None appended to every row.
        absent = width in (at_a, at_b, at_outcome)
        fits = -1 if absent else width
        for row in reader:
            if not row:
                continue
            if len(row) != fits:
                row = row[:width] + [None] * (width - len(row)) + [None] * absent
            yield reader.line_num, row[at_a], row[at_b], row[at_outcome], row
    except csv.Error as exc:
        raise IngestError(f"row {reader.line_num}: {exc}") from None


def _jsonl_records(stream, schema: IngestSchema):
    """Yield None, then (line number, model a, model b, outcome, record) per non-blank line.

    A record is a dict, so there is no header. A line is read as ``json.loads``
    reads it: JSON whitespace may surround one value, and a line that is not one
    JSON object is ``_UNREADABLE``. Names are kept as read when falsy (so they
    count as missing) and made strings otherwise; an outcome is made a string
    unless it is absent or null.
    """
    key_a, key_b, key_outcome = schema.model_a, schema.model_b, schema.outcome
    yield None
    for lineno, line in enumerate(stream, start=1):
        try:
            rec, end = _raw_decode(line)
        except json.JSONDecodeError:
            if not line.strip():
                continue
            try:
                rec, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_WHITESPACE)))
            except json.JSONDecodeError:
                rec = end = None
        if not isinstance(rec, dict) or len(line.rstrip(_JSON_WHITESPACE)) != end:
            yield lineno, None, None, None, _UNREADABLE
            continue
        name_a, name_b, outcome = rec.get(key_a), rec.get(key_b), rec.get(key_outcome)
        yield (lineno, name_a and str(name_a), name_b and str(name_b),
               None if outcome is None else str(outcome), rec)


def _read(source: str | Path, schema: IngestSchema,
          wanted=frozenset()) -> tuple[Arena, dict[int, dict]]:
    """Read a dataset file in one pass: the arena, and ``{n: record}`` for n in ``wanted``.

    The file at ``source`` is opened here, closed when the pass ends, and may
    start with a UTF-8 byte-order mark. Every row is classified here and nowhere
    else: a malformed row is an error or, under ``on_malformed="skip"``, counted;
    an unknown outcome label is an error; tie and "both bad" rows are counted.
    Only the decisive rows in ``wanted`` are kept as records: a CSV row becomes a
    dict keyed by the header.
    """
    codes = dict.fromkeys(schema.ties, _TIE)
    codes.update(dict.fromkeys(schema.both_bad, _BOTH_BAD))
    codes.update(dict.fromkeys(schema.a_wins, 1))
    codes.update(dict.fromkeys(schema.b_wins, 0))
    index: dict[str, int] = {} if schema.reference is None else {schema.reference: 0}
    setdefault = index.setdefault
    skip = schema.on_malformed == "skip"
    side_a: list[int] = []
    side_b: list[int] = []
    a_won: list[int] = []
    kept: dict[int, dict] = {}
    ties = both_bad = malformed = 0

    with open(source, encoding="utf-8-sig", newline="") as stream:
        read = _csv_records if _detect_format(source, schema) == "csv" else _jsonl_records
        records = read(stream, schema)
        header = next(records, None)
        for rownum, name_a, name_b, label, rec in records:
            if not name_a or not name_b or label is None or name_a == name_b:
                if rec is _UNREADABLE:
                    msg = "unreadable record"
                elif not name_a or not name_b or label is None:
                    msg = "missing model or outcome field"
                else:
                    msg = f"model {name_a!r} on both sides"
                if not skip:
                    raise IngestError(f"row {rownum}: {msg}")
                malformed += 1
                continue
            code = codes.get(label)
            if code is None:
                raise IngestError(f"row {rownum}: unknown outcome label {label!r}")
            if code > 1:
                ties += 1
                both_bad += code == _BOTH_BAD
                continue
            if wanted and len(side_a) in wanted:
                kept[len(side_a)] = rec if header is None else dict(zip(header, rec))
            side_a.append(setdefault(name_a, len(index)))
            side_b.append(setdefault(name_b, len(index)))
            a_won.append(code)

    if not side_a:
        raise IngestError("no decisive matchups after filtering")
    if schema.reference is not None and 0 not in side_a and 0 not in side_b:
        raise IngestError(f"reference model {schema.reference!r} never appears in the data")
    stats = IngestStats(source_rows=len(side_a) + ties + malformed, decisive=len(side_a),
                        ties=ties, both_bad=both_bad, malformed_skipped=malformed)
    return Arena(ModelRegistry(list(index)), side_a, side_b, a_won, stats=stats), kept


def ingest(source: str | Path, schema: IngestSchema) -> Arena:
    """Build an Arena from the delimiter-separated or record-per-line dataset file at ``source``.

    Only decisive matchups are kept, in source order; tie and "both bad" rows are
    dropped and counted. The model registry follows first appearance unless the
    schema names a reference model, which is pinned to index 0. Identical bytes
    and schema always produce an identical arena. The file is read in one
    streaming pass; a preset from ``SCHEMA_PRESETS`` is passed as its schema.
    """
    return _read(source, schema)[0]


def _records_at(source: str | Path, schema: IngestSchema, wanted: Iterable[int]):
    """``({n: (name a, name b, a_won, metadata)}, N)`` for the wanted decisive indices n < N.

    The whole file at ``source`` is read as ``ingest`` reads it, so N and every
    error are ``ingest``'s. Metadata holds the text of each ``meta_columns``
    field a row sets, a JSONL value that is not a string written as JSON; "all"
    or () selects every column but the model and outcome columns.
    """
    arena, kept = _read(source, schema, set(wanted))
    names, columns = arena.models.names, schema.meta_columns
    not_meta = {schema.model_a, schema.model_b, schema.outcome}
    records = {}
    for n, rec in kept.items():
        keys = [k for k in rec if k not in not_meta] if columns in ("all", ()) else columns
        meta = {k: v if isinstance(v, str) else json.dumps(v, ensure_ascii=False)
                for k in keys if (v := rec.get(k)) is not None}
        records[n] = names[arena.side_a[n]], names[arena.side_b[n]], int(arena.a_won[n]), meta
    return records, arena.n_matchups


ELO_SCALE = 400.0
ELO_INIT_RATING = 1000.0


def elo_transform(scores: np.ndarray) -> np.ndarray:
    """Map fitted scores to display ratings: ``ELO_SCALE * score + ELO_INIT_RATING``.

    Strictly monotone, so rank-preserving; the reference model displays 1000.
    """
    return ELO_SCALE * np.asarray(scores, dtype=np.float64) + ELO_INIT_RATING
