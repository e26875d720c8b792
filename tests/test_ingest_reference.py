"""``ingest`` against a reference reader built on ``csv.DictReader`` and ``json.loads``.

The reference is the per-row loop that ``btaudit.arena.ingest`` replaced. Both
sides must agree on random CSV and JSONL inputs: model names, matchup arrays,
row accounting, and the type and message of any error. The reference's per-row
metadata must be what ``inspect`` reads for each decisive row.
"""

import csv
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from btaudit import IngestError, IngestSchema, ingest
from btaudit.arena import Arena, IngestStats, ModelRegistry, _records_at

SCHEMA = IngestSchema(
    model_a="model_a",
    model_b="model_b",
    outcome="winner",
    a_wins=("A",),
    b_wins=("B", "b2"),
    ties=("T", "BB"),
    both_bad=("BB",),
)


def _open_reference(source):
    """The file's text, read whole, so the reference loop leaves no file open."""
    with open(source, encoding="utf-8-sig", newline="") as fh:
        return io.StringIO(fh.read(), newline="")


def _reference_rows(stream, fmt, schema):
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


def _text(value):
    """How inspect prints a metadata value: a string as is, anything else as JSON."""
    return value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)


def reference_ingest(source, schema):
    label_kind = {}
    for label in schema.a_wins:
        label_kind[label] = "a"
    for label in schema.b_wins:
        label_kind[label] = "b"
    for label in schema.ties:
        label_kind.setdefault(label, "tie")
    for label in schema.both_bad:
        label_kind[label] = "both_bad"

    names = []
    name_index = {}
    if schema.reference is not None:
        names.append(schema.reference)
        name_index[schema.reference] = 0

    def register(name):
        idx = name_index.get(name)
        if idx is None:
            idx = len(names)
            names.append(name)
            name_index[name] = idx
        return idx

    keep_meta = schema.meta_columns == "all" or bool(schema.meta_columns)
    side_a, side_b, a_won, metas = [], [], [], []
    source_rows = ties = both_bad = malformed = 0
    reference_seen = schema.reference is None

    for rownum, rec in _reference_rows(_open_reference(source), schema.format, schema):
        source_rows += 1

        def bad(msg):
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
                extra = {k: _text(v) for k, v in rec.items()
                         if k is not None and k not in skip and v is not None}
            else:
                extra = {k: _text(rec[k]) for k in schema.meta_columns if rec.get(k) is not None}
            metas.append(extra)

    if not side_a:
        raise IngestError("no decisive matchups after filtering")
    if len(names) < 2:
        raise IngestError("fewer than 2 distinct models after filtering")
    if not reference_seen:
        raise IngestError(f"reference model {schema.reference!r} never appears in the data")
    stats = IngestStats(source_rows=source_rows, decisive=len(side_a), ties=ties,
                        both_bad=both_bad, malformed_skipped=malformed)
    arena = Arena(models=ModelRegistry(names), side_a=np.array(side_a, dtype=np.int64),
                  side_b=np.array(side_b, dtype=np.int64), a_won=np.array(a_won, dtype=np.int64),
                  stats=stats)
    return arena, tuple(metas) if keep_meta else None


def _source(directory, text):
    """Write ``text`` unchanged to a file in ``directory`` and return its path."""
    path = Path(directory) / "games"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _attempt(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _summary(arena, rows):
    arrays = [(a.dtype, a.tolist()) for a in (arena.side_a, arena.side_b, arena.a_won)]
    rows = [(name_a, name_b, a_won, list(meta.items())) for name_a, name_b, a_won, meta in rows]
    return arena.models.names, arrays, arena.stats, rows


def _reference_result(source, schema):
    # inspect reads every column for (), as the reference keeps them for "all"
    arena, metas = reference_ingest(source,
                                    replace(schema, meta_columns=schema.meta_columns or "all"))
    names = arena.models.names
    sides = zip(arena.side_a.tolist(), arena.side_b.tolist(), arena.a_won.tolist(), metas)
    return _summary(arena, [(names[a], names[b], won, meta) for a, b, won, meta in sides])


def _result(source, schema):
    arena = ingest(source, schema)
    # every decisive index, since a file holds fewer rows than bytes
    size = source.stat().st_size
    records, n_matchups = _records_at(source, schema, range(size))
    assert n_matchups == arena.n_matchups and sorted(records) == list(range(n_matchups))
    odd, _ = _records_at(source, schema, range(1, size, 2))
    assert odd == {n: records[n] for n in range(1, n_matchups, 2)}
    return _summary(arena, [records[n] for n in range(n_matchups)])


NAMES = ("a", "b", "c", "a b", "x,y", "x;y", 'q"t', "l\nm", "é")
LABELS = ("A", "B", "b2", "T", "BB")
TEXT = ("hi", "", "p,q", "p;q", "two\nlines", 'say "x"', "\t")
JSON_VALUES = (None, 0, 1, 7, 0.0, 2.5, True, False, [], [1], {}, {"k": 1}, "", "a")


def _rare(draw):
    return draw(st.integers(0, 14)) == 0


@st.composite
def fields(draw):
    """Model names and outcome of one row: mostly decisive or tied, sometimes flawed."""
    name_a, name_b = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=2, unique=True))
    row = {"model_a": name_a, "model_b": name_b, "winner": draw(st.sampled_from(LABELS))}
    if _rare(draw):
        flaw = draw(st.sampled_from(["self-match", "empty", "unknown label"]))
        if flaw == "self-match":
            row["model_b"] = name_a
        elif flaw == "empty":
            row[draw(st.sampled_from(sorted(row)))] = ""
        else:
            row["winner"] = "?"
    return row


schemas = st.builds(
    lambda meta, on_malformed, reference: replace(
        SCHEMA, meta_columns=meta, on_malformed=on_malformed, reference=reference),
    st.sampled_from(["all", (), ("prompt",), ("judge", "prompt", "nope")]),
    st.sampled_from(["error", "skip"]),
    st.sampled_from([None, "a", "zz"]),
)


@st.composite
def csv_inputs(draw):
    """CSV text with short and long rows, duplicate names, blank and CRLF lines."""
    extras = draw(st.lists(st.sampled_from(["prompt", "judge", "model_a", "winner", "x", ""]),
                           max_size=3))
    header = draw(st.permutations(["model_a", "model_b", "winner", *extras]))
    if _rare(draw):
        header = header[1:]
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        values = draw(fields())
        row = [values[name] if name in values else draw(st.sampled_from(TEXT)) for name in header]
        if _rare(draw):
            row = row[:draw(st.integers(0, len(row)))]
        elif _rare(draw):
            row += draw(st.lists(st.sampled_from(TEXT), min_size=1, max_size=2))
        rows.append(row)
    out = io.StringIO()
    csv.writer(out, delimiter=delimiter, lineterminator="\n").writerows([header, *rows])
    lines = out.getvalue().split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + ending for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, replace(draw(schemas), format="csv", delimiter=delimiter)


@st.composite
def jsonl_inputs(draw):
    """JSONL text with whitespace, non-dict, doubled, non-string and unreadable lines."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if not _rare(draw):
            rec = draw(fields())
            # Metadata values of any JSON type reach the reference's _text.
            rec.update(prompt=draw(st.sampled_from(TEXT + JSON_VALUES)),
                       judge=draw(st.sampled_from(TEXT + JSON_VALUES)))
            if _rare(draw):
                rec[draw(st.sampled_from(sorted(rec)))] = draw(st.sampled_from(JSON_VALUES))
            if _rare(draw):
                del rec[draw(st.sampled_from(sorted(rec)))]
            keys = draw(st.permutations(sorted(rec)))
            line = json.dumps({k: rec[k] for k in keys}, ensure_ascii=draw(st.booleans()))
        else:
            line = draw(st.sampled_from(["[1]", "3", '"s"', "null", "true", "[]", "{", "nope",
                                         '{"model_a": }', "}", "{}{}", "\ufeff{}", "",
                                         " ", "\t", "\x0c", "  \x0c "]))
        if _rare(draw):
            line = draw(st.sampled_from([" ", "\t", " \t", "\x0c"])) + line
        if _rare(draw):
            line += draw(st.sampled_from([" ", "\t ", "\x0c", " {}", ' "x"', " 1"]))
        lines.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return text, replace(draw(schemas), format="jsonl")


def _header_error(text, schema):
    """The error for a CSV header, as ``csv.DictReader`` reads it, that lacks a column the
    schema names for a model or the outcome; None for a header that has them all."""
    header = csv.DictReader(io.StringIO(text, newline=""), delimiter=schema.delimiter).fieldnames
    for field in ("model_a", "model_b", "outcome"):
        if header is not None and getattr(schema, field) not in header:
            return IngestError, f"header has no column {getattr(schema, field)!r} for {field}"
    return None


def _check(text, schema, bom, expected=None):
    """Compare ingest with the reference, or with ``expected`` when that is given."""
    if bom:
        text = "\ufeff" + text
    # A directory per example: hypothesis refuses function-scoped fixtures under @given.
    with tempfile.TemporaryDirectory() as directory:
        source = _source(directory, text)
        expected = expected or _attempt(_reference_result, source, schema)
        assert _attempt(_result, source, schema) == expected
        if isinstance(expected[0], type):  # inspect rejects what ingest rejects, in the same words
            assert _attempt(_records_at, source, schema, ()) == expected


REFERENCE_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                              suppress_health_check=[HealthCheck.too_slow])


@REFERENCE_SETTINGS
@given(case=csv_inputs(), bom=st.booleans())
def test_csv_ingest_matches_dictreader_reference(case, bom):
    # A header that lacks a schema column is refused before any row is read.
    text, schema = case
    _check(text, schema, bom, _header_error(text, schema))


@REFERENCE_SETTINGS
@given(case=jsonl_inputs(), bom=st.booleans())
def test_jsonl_ingest_matches_json_loads_reference(case, bom):
    _check(*case, bom)
