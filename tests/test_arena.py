import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from btaudit import (
    SCHEMA_PRESETS,
    Arena,
    IngestError,
    IngestSchema,
    ModelRegistry,
    elo_transform,
    ingest,
)
from btaudit.arena import _records_at

SCHEMA = IngestSchema(
    model_a="model_a",
    model_b="model_b",
    outcome="winner",
    a_wins=("model_a",),
    b_wins=("model_b",),
    ties=("tie", "tie (bothbad)"),
    both_bad=("tie (bothbad)",),
    format="csv",
)

CSV = """model_a,model_b,winner
gpt,claude,model_a
gpt,claude,model_a
gpt,claude,model_b
llama,gpt,model_a
gpt,claude,tie
llama,claude,tie (bothbad)
"""


def _file(tmp_path, text):
    """Write ``text`` unchanged to a CSV file under ``tmp_path`` and return its path."""
    path = tmp_path / "games.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def test_ingest_counts_and_order(tmp_path):
    arena = ingest(_file(tmp_path, CSV), SCHEMA)
    assert arena.n_matchups == 4
    assert arena.n_models == 3
    assert arena.models.names == ("gpt", "claude", "llama")  # first appearance
    assert list(arena.a_won) == [1, 1, 0, 1]
    stats = arena.stats
    assert stats.ties == 2 and stats.both_bad == 1
    assert stats.decisive + stats.ties + stats.malformed_skipped == stats.source_rows


def test_ingest_deterministic(tmp_path):
    path = _file(tmp_path, CSV)
    one = ingest(path, SCHEMA)
    two = ingest(path, SCHEMA)
    assert one.models.names == two.models.names
    assert np.array_equal(one.side_a, two.side_a)
    assert np.array_equal(one.side_b, two.side_b)
    assert np.array_equal(one.a_won, two.a_won)


def test_reference_model_pinned_to_index_zero(tmp_path):
    from dataclasses import replace

    arena = ingest(_file(tmp_path, CSV), replace(SCHEMA, reference="claude"))
    assert arena.models.names[0] == "claude"
    assert arena.models.resolve("claude") == 0


def test_reference_model_missing_is_an_error(tmp_path):
    from dataclasses import replace

    with pytest.raises(IngestError, match="never appears"):
        ingest(_file(tmp_path, CSV), replace(SCHEMA, reference="mistral"))


def test_unknown_outcome_label_reports_row(tmp_path):
    bad = CSV + "gpt,claude,banana\n"
    with pytest.raises(IngestError, match="unknown outcome label"):
        ingest(_file(tmp_path, bad), SCHEMA)


def test_malformed_row_error_mode_reports_row_number(tmp_path):
    bad = "model_a,model_b,winner\ngpt,,model_a\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest(_file(tmp_path, bad), SCHEMA)


def test_malformed_row_skip_mode_counts(tmp_path):
    from dataclasses import replace

    bad = "model_a,model_b,winner\ngpt,,model_a\ngpt,gpt,model_a\ngpt,claude,model_b\n"
    arena = ingest(_file(tmp_path, bad), replace(SCHEMA, on_malformed="skip"))
    stats = arena.stats
    assert stats.malformed_skipped == 2
    assert stats.decisive == 1
    assert stats.decisive + stats.ties + stats.malformed_skipped == stats.source_rows


@pytest.mark.parametrize("on_malformed", ["error", "skip"])
def test_a_header_without_a_schema_column_is_refused_by_name(tmp_path, on_malformed):
    # Each was blamed on row 2, or under "skip" every row was skipped and no matchup was left.
    from dataclasses import replace

    schema = replace(SCHEMA, on_malformed=on_malformed)
    cases = [
        (CSV, replace(schema, model_a="modelA"), "header has no column 'modelA' for model_a"),
        (CSV, replace(schema, model_b="B"), "header has no column 'B' for model_b"),
        (CSV, replace(schema, outcome="verdict"), "header has no column 'verdict' for outcome"),
        (CSV.replace(",", "\t"), schema, "header has no column 'model_a' for model_a"),
        ("prompt,winner\nhi,model_a\n", schema, "header has no column 'model_a' for model_a"),
    ]
    for text, case, message in cases:
        path = _file(tmp_path, text)
        for read in (ingest, lambda path, schema: _records_at(path, schema, [0])):
            with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
                read(path, case)


def test_too_few_models_and_no_decisive_rows(tmp_path):
    with pytest.raises(IngestError, match="no decisive"):
        ingest(_file(tmp_path, "model_a,model_b,winner\na,b,tie\n"), SCHEMA)
    only_pair = "model_a,model_b,winner\na,b,model_a\n"
    arena = ingest(_file(tmp_path, only_pair), SCHEMA)
    assert arena.n_models == 2


def test_jsonl_ingest_with_meta(tmp_path):
    from dataclasses import replace

    path = tmp_path / "games.jsonl"
    rows = [
        {"model_a": "a", "model_b": "b", "winner": "model_a", "prompt": "hi", "judge": "human"},
        {"model_a": "b", "model_b": "a", "winner": "model_b", "prompt": "yo", "judge": "gpt4"},
        {"model_a": "a", "model_b": "b", "winner": "tie"},
        {"model_a": "a", "model_b": "b", "winner": "model_a", "judge": {"k": 1, "by": "é"},
         "flagged": True, "score": 2.5, "prompt": None},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    schema = replace(SCHEMA, format="jsonl", meta_columns="all")
    arena = ingest(path, schema)
    assert arena.n_matchups == 3
    records, n_matchups = _records_at(path, schema, [0, 1, 2])
    assert n_matchups == 3
    assert records[0] == ("a", "b", 1, {"prompt": "hi", "judge": "human"})
    assert records[1] == ("b", "a", 0, {"prompt": "yo", "judge": "gpt4"})
    # values that are not strings print as JSON; a null is omitted, as a missing field is
    assert records[2] == ("a", "b", 1, {"judge": '{"k": 1, "by": "é"}', "flagged": "true",
                                        "score": "2.5"})
    assert _records_at(path, replace(schema, meta_columns=("judge",)), [1])[0] == {
        1: ("b", "a", 0, {"judge": "gpt4"})}
    assert _records_at(path, replace(schema, meta_columns=("prompt", "flagged")), [2])[0] == {
        2: ("a", "b", 1, {"flagged": "true"})}
    assert arena.a_won[1] == 0
    # metadata never influences fitting inputs
    assert list(arena.a_won) == [1, 0, 1]
    _same_arena(ingest(path, replace(schema, meta_columns=())), arena)


def _same_arena(one, two):
    assert one.models.names == two.models.names
    for name in ("side_a", "side_b", "a_won"):
        assert np.array_equal(getattr(one, name), getattr(two, name))
    assert one.stats == two.stats


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_utf8_byte_order_mark_is_accepted(tmp_path, fmt):
    from dataclasses import replace

    rows = [line.split(",") for line in CSV.splitlines()[1:]]
    if fmt == "csv":
        text = "model_a,model_b,winner,prompt\n" + "".join(f"{a},{b},{w},hi\n" for a, b, w in rows)
    else:
        text = "".join(json.dumps({"model_a": a, "model_b": b, "winner": w, "prompt": "hi"}) + "\n"
                       for a, b, w in rows)
    schema = replace(SCHEMA, format=fmt, meta_columns=("prompt",))
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = ingest(plain, schema)
    assert expected.n_matchups == 4
    assert _records_at(plain, schema, [0]) == ({0: ("gpt", "claude", 1, {"prompt": "hi"})}, 4)
    _same_arena(ingest(marked, schema), expected)


def test_csv_field_over_the_parser_limit_reports_its_row(tmp_path):
    import csv

    text = CSV + "gpt,llama," + "x" * (csv.field_size_limit() + 1) + "\n"
    with pytest.raises(IngestError, match=r"^row 8: field larger than field limit"):
        ingest(_file(tmp_path, text), SCHEMA)


@pytest.mark.parametrize("delimiter", ["||", "", 5])
def test_schema_delimiter_must_be_one_character(delimiter):
    from dataclasses import replace

    with pytest.raises(IngestError, match="delimiter must be exactly one character"):
        replace(SCHEMA, delimiter=delimiter)


def test_meta_absent_by_default(tmp_path):
    from dataclasses import replace

    text = "model_a,model_b,winner,prompt\n" + "".join(
        f"{line},p{n}\n" for n, line in enumerate(CSV.splitlines()[1:]))
    path = _file(tmp_path, text)
    arena = ingest(path, SCHEMA)
    assert not hasattr(arena, "meta")
    for columns in ("all", ("prompt",), ("nope",)):
        _same_arena(ingest(path, replace(SCHEMA, meta_columns=columns)), arena)


def test_schema_presets_cover_named_datasets():
    for name in ("arena-human-preference-55k", "chatbot-arena-llm-judges",
                 "mt-bench-human-judgments"):
        assert name in SCHEMA_PRESETS


def test_schema_from_file_and_label_overlap(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({
        "model_a": "a", "model_b": "b", "outcome": "w",
        "a_wins": ["A"], "b_wins": ["B"], "ties": ["T"],
    }), encoding="utf-8")
    schema = IngestSchema.from_file(path)
    assert schema.a_wins == ("A",)
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert IngestSchema.from_file(marked) == schema
    with pytest.raises(IngestError, match="overlap"):
        IngestSchema(model_a="a", model_b="b", outcome="w",
                     a_wins=("X",), b_wins=("X",))
    # A lone column name would otherwise be read as a list of its letters.
    path.write_text(json.dumps({**json.loads(path.read_text()), "meta_columns": "prompt"}))
    with pytest.raises(IngestError, match='meta_columns must be "all" or a list'):
        IngestSchema.from_file(path)
    # So would a lone outcome label, in a file or given directly.
    fields = {"model_a": "a", "model_b": "b", "outcome": "w", "a_wins": ("A",), "b_wins": ("B",)}
    for name, label in (("a_wins", "ab"), ("b_wins", "B"), ("ties", "tie"), ("both_bad", "bad")):
        path.write_text(json.dumps({**fields, name: label}))
        with pytest.raises(IngestError, match=f"^{name} must be a list of labels"):
            IngestSchema.from_file(path)
        with pytest.raises(IngestError, match=f"^{name} must be a list of labels"):
            IngestSchema(**{**fields, name: label})


_SCHEMA_FIELDS = {"model_a": "a", "model_b": "b", "outcome": "w", "a_wins": ["A"], "b_wins": ["B"]}


@pytest.mark.parametrize("name, value, message", [
    ("model_a", ["model_a"], "model_a must be a non-empty column name"),
    ("model_b", "", "model_b must be a non-empty column name"),
    ("outcome", 7, "outcome must be a non-empty column name"),
    ("reference", 3, "reference must be a model name or null"),
    ("reference", ["a"], "reference must be a model name or null"),
    ("a_wins", {"model_a": 1}, "a_wins must be a list of labels"),
    ("ties", 5, "ties must be a list of labels"),
    ("both_bad", None, "both_bad must be a list of labels"),
    ("meta_columns", 5, 'meta_columns must be "all" or a list of column names'),
    ("meta_columns", {"prompt": 1}, 'meta_columns must be "all" or a list of column names'),
])
def test_schema_refuses_a_field_of_the_wrong_type_by_name(tmp_path, name, value, message):
    # These were read as tuples of letters or keys, or failed later: a column
    # name as a list blamed the first data row, and meta_columns=5 broke inspect.
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({**_SCHEMA_FIELDS, name: value}))
    with pytest.raises(IngestError, match=f"^{message}"):
        IngestSchema.from_file(path)
    with pytest.raises(IngestError, match=f"^{message}"):
        IngestSchema(**{**_SCHEMA_FIELDS, name: value})


def test_schema_refuses_a_label_or_column_that_is_not_a_string():
    # A schema file's list items are read as text; one built in code is checked item by item.
    for name in ("a_wins", "b_wins", "ties", "both_bad", "meta_columns"):
        with pytest.raises(IngestError, match=f"^{name} must be"):
            IngestSchema(**{**_SCHEMA_FIELDS, name: ("x", 1)})
    schema = IngestSchema(**{**_SCHEMA_FIELDS, "ties": ["T"], "meta_columns": ["prompt"], "reference": "a"})
    assert schema.ties == ["T"] and schema.meta_columns == ["prompt"]


def test_arena_rejects_self_matches_and_bad_outcomes():
    with pytest.raises(IngestError, match="itself"):
        Arena.from_records(["a", "b"], [(0, 0, 1)])
    with pytest.raises(IngestError, match="0 or 1"):
        Arena.from_records(["a", "b"], [(0, 1, 2)])


def test_elo_display_constants():
    assert np.array_equal(elo_transform(np.array([0.0, 0.5, -1.0])), [1000.0, 1200.0, 600.0])


@given(scores=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=12))
def test_elo_preserves_ranking(scores):
    scores = np.array(scores)
    display = elo_transform(scores)
    # Strictly monotone map: walking the models in score order never decreases
    # the display rating (ties can appear only through float rounding).
    order = np.argsort(scores, kind="stable")
    assert np.all(np.diff(display[order]) >= 0)
    # Away from rounding collapse the ordering is reproduced exactly.
    if np.unique(display).size == np.unique(scores).size:
        assert np.array_equal(np.argsort(scores, kind="stable"),
                              np.argsort(display, kind="stable"))


def test_registry_resolves_names_and_integer_indices_only():
    models = ModelRegistry(["m0", "m1", "m2"])
    assert [models.resolve(k) for k in ("m2", 1, np.int64(2), np.uint8(0))] == [2, 1, 2, 0]
    for bad in (1.7, 2.0, np.float64(1.0), True, np.bool_(False)):
        with pytest.raises(TypeError):
            models.resolve(bad)
    with pytest.raises(IndexError):
        models.resolve(3)
    with pytest.raises(KeyError, match="unknown model 'm3'"):
        models.resolve("m3")


def test_one_pair_resolver_refuses_the_same_model_twice(arena_3_1):
    from btaudit import DropBudget, brute_force_pair, check_pair, fit, head_to_head, pair_influence

    assert arena_3_1.models.resolve_pair("beta", 0) == (1, 0)
    bt = fit(arena_3_1)
    for resolve in (arena_3_1.models.resolve_pair,
                    lambda a, b: head_to_head(arena_3_1, a, b),
                    lambda a, b: pair_influence(bt, a, b),
                    lambda a, b: check_pair(arena_3_1, bt, a, b, DropBudget(count=1)),
                    lambda a, b: brute_force_pair(arena_3_1, a, b, 1)):
        with pytest.raises(ValueError, match="^a pair needs two distinct models$"):
            resolve("alpha", np.int64(0))
        with pytest.raises(KeyError, match="unknown model 'gamma'"):
            resolve("gamma", "gamma")


def test_occurrence_counts_sum_to_twice_n(arena_3_1):
    counts = arena_3_1.occurrence_counts()
    assert counts.sum() == 2 * arena_3_1.n_matchups



@pytest.mark.parametrize("seed", range(12))
def test_cells_match_a_sort_of_the_pair_keys(seed):
    # The construction by np.unique that cells used to have is the reference.
    # Most arenas leave some models unused; the last has no matchups at all.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    used = rng.choice(m, size=max(2, m // (1 + seed % 3)), replace=False)
    n = 0 if seed == 11 else int(rng.integers(1, 400))
    side_a, side_b = rng.choice(used, n), rng.choice(used, n)
    keep = side_a != side_b
    arena = Arena(ModelRegistry([f"m{k}" for k in range(m)]), side_a[keep], side_b[keep],
                  rng.integers(0, 2, int(keep.sum())))
    lo = np.minimum(arena.side_a, arena.side_b)
    keys, cell = np.unique(lo * m + np.maximum(arena.side_a, arena.side_b), return_inverse=True)
    lo_won = np.where(arena.side_a == lo, arena.a_won, 1 - arena.a_won)
    cells = arena.cells
    for got, want in ((cells.lo, keys // m), (cells.hi, keys % m),
                      (cells.row_class, 2 * cell.reshape(-1) + lo_won),
                      (cells.slots, np.stack([keys, (keys % m) * m + keys // m]))):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
