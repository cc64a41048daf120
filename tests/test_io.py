import hashlib
import json
import struct
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from rtpol import (EdgeRecord, SyntheticSpec, TweetRecord, build_graph,
                   generate_bundle)
from rtpol.errors import InputError
from rtpol.community import Partition
from rtpol.io import (parse_edges, parse_followership, parse_partition_csv,
                      parse_scores_csv, parse_tweets, write_csv, write_json)
from rtpol.pca import MediaScores
from rtpol.pipeline import load_config, write_partition, write_scores
from rtpol.rng import derive_seed, generator
from rtpol.synth import (account_ids, bloc_labels, planted_edges,
                         planted_followership)


def file_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# edge lists
# ---------------------------------------------------------------------------


def test_parse_edges(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("# header comment\na\tb\t2\n\nc\td\n")
    assert parse_edges(p) == [EdgeRecord(target="a", source="b", count=2),
                              EdgeRecord(target="c", source="d", count=1)]


def test_parsers_hold_one_string_per_account(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("alice\tbob\t2\nbob\talice\ncarol\tbob\nalice\talice\n")
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("".join(
        json.dumps({"account": acct, "utc": "2017-08-12T12:00:00Z", "text": text})
        + "\n" for acct, text in (("alice", "hi"), ("bob", "RT hi"), ("alice", "hi"),
                                   ("carol", "yo"), ("bob", "hi"))))
    # equal tweet texts are one string too
    records = parse_tweets(tweets)
    for names in ([ext for r in parse_edges(edges) for ext in (r.target, r.source)],
                  [r.account for r in records], [r.text for r in records]):
        first: dict[str, str] = {}
        assert all(first.setdefault(name, name) is name for name in names)


def test_parse_edges_rejects_bad_count(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("a\tb\t1\nc\td\t0\n")
    with pytest.raises(InputError, match="edges.tsv:2") as exc:
        parse_edges(p)
    assert exc.value.line == 2

    p.write_text("a\tb\tmany\n")
    with pytest.raises(InputError, match="not an integer"):
        parse_edges(p)


def test_parse_edges_rejects_bad_shape(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("a\n")
    with pytest.raises(InputError, match="2 or 3"):
        parse_edges(p)
    p.write_text("a\t\t3\n")
    with pytest.raises(InputError, match="empty account id"):
        parse_edges(p)


# ---------------------------------------------------------------------------
# followership
# ---------------------------------------------------------------------------


def test_parse_followership(tmp_path):
    p = tmp_path / "follow.csv"
    p.write_text("account_id,m1,m2\nu1,1,0\nu2,0,0\nu3,1,1\n")
    matrix, dropped = parse_followership(p)
    assert matrix.accounts == ("u1", "u3")
    assert matrix.media == ("m1", "m2")
    assert matrix.entries.tolist() == [[1, 0], [1, 1]]
    assert dropped == 1


def test_parse_followership_rejects_bad_cells(tmp_path):
    p = tmp_path / "follow.csv"
    p.write_text("account_id,m1\nu1,2\n")
    with pytest.raises(InputError, match="0 or 1") as exc:
        parse_followership(p)
    assert exc.value.line == 2


def test_parse_followership_rejects_bad_header_and_dupes(tmp_path):
    p = tmp_path / "follow.csv"
    p.write_text("user,m1\nu1,1\n")
    with pytest.raises(InputError, match="header"):
        parse_followership(p)
    p.write_text("account_id,m1,m1\nu1,1,0\n")
    with pytest.raises(InputError, match="duplicate media"):
        parse_followership(p)
    p.write_text("account_id,m1\nu1,1\nu1,0\n")
    with pytest.raises(InputError, match="duplicate account"):
        parse_followership(p)


# ---------------------------------------------------------------------------
# tweets
# ---------------------------------------------------------------------------


def test_parse_tweets(tmp_path):
    p = tmp_path / "tweets.jsonl"
    p.write_text('{"account": "u1", "utc": "2017-08-12T15:04:05Z", "text": "hi"}\n')
    assert parse_tweets(p) == [TweetRecord(account="u1", text="hi")]


def test_parse_tweets_errors_carry_line(tmp_path):
    p = tmp_path / "tweets.jsonl"
    good = '{"account": "u1", "utc": "2017-08-12T15:04:05Z", "text": "hi"}'
    p.write_text(good + "\n" + '{"account": "u2", "text": "no time"}\n')
    with pytest.raises(InputError, match="missing field 'utc'") as exc:
        parse_tweets(p)
    assert exc.value.line == 2

    p.write_text('{"account": "u1", "utc": "12 Aug 2017", "text": "hi"}\n')
    with pytest.raises(InputError, match="does not match"):
        parse_tweets(p)

    for bad in ("not json", "1" * 5000, "[" * 100_000):
        p.write_text(bad + "\n")
        with pytest.raises(InputError, match="invalid JSON"):
            parse_tweets(p)

    p.write_text('{"account": "u1", "utc": "2017-08-12T15:04:05Z", "text": ""}\n')
    with pytest.raises(InputError, match="empty tweet text"):
        parse_tweets(p)


def _parsed_utc(utc) -> bool:
    """Whether parse_tweets accepts `utc`; a rejection must name the form."""
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "tweets.jsonl"
        p.write_text(json.dumps({"account": "u", "utc": utc, "text": "hi"})
                     + "\n", encoding="utf-8")
        try:
            parse_tweets(p)
        except InputError as exc:
            assert "does not match" in str(exc)
            return False
        return True


def _field(valid_hi: int, lo: int = 0):
    """A two-digit field, drawn from its valid range half of the time."""
    return st.integers(lo, valid_hi) | st.integers(0, 99)


padded_utc = st.tuples(st.integers(0, 9999), _field(12, 1), _field(31, 1),
                       _field(23), _field(59), _field(61)).map(
    lambda t: "%04d-%02d-%02dT%02d:%02d:%02dZ" % t)


@given(padded_utc)
@settings(max_examples=300, deadline=None)
def test_parse_tweets_utc_agrees_with_strptime_on_padded_ascii(utc):
    try:
        datetime.strptime(utc, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert _parsed_utc(utc) is accepted


def test_parse_tweets_utc_rejects_what_strptime_also_reads():
    """strptime reads unpadded fields, non-ASCII digits and a lowercase
    t or z; the documented form has none of them. Non-strings and strings
    with a missing Z or extra characters stay rejected."""
    for utc in ("2020-1-1T1:2:3Z", "\uff12\uff10\uff12\uff10-01-01T00:00:00Z",
                "2020-01-01t00:00:00z"):
        datetime.strptime(utc, "%Y-%m-%dT%H:%M:%SZ")
        assert not _parsed_utc(utc), utc
    for utc in (20200101, None, ["2020-01-01T00:00:00Z"], "2020-01-01T00:00:00",
                " 2020-01-01T00:00:00Z", "2020-01-01T00:00:00Z0"):
        assert not _parsed_utc(utc), utc


def test_parse_tweets_requires_string_account_and_text(tmp_path):
    """A number or other non-string would pass ingest and then crash the
    text statistics (text) or never match a score (account)."""
    p = tmp_path / "tweets.jsonl"
    good = '{"account": "u1", "utc": "2017-08-12T15:04:05Z", "text": "hi"}'
    for field, value in (("text", 5), ("account", 7), ("text", ["hi"]),
                         ("account", None), ("text", True)):
        obj = json.loads(good)
        obj[field] = value
        p.write_text(good + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(InputError, match=f"'{field}' must be a string") as exc:
            parse_tweets(p)
        assert exc.value.line == 2
        assert str(p) in str(exc.value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
tweet_objects = st.dictionaries(
    st.sampled_from(["account", "utc", "text", "other"]),
    json_values | st.just("u1") | st.just("2017-08-12T15:04:05Z"))


@given(st.lists(tweet_objects, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_parse_tweets_fuzz_only_input_error_escapes(objects):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "tweets.jsonl"
        p.write_text("".join(json.dumps(o) + "\n" for o in objects),
                     encoding="utf-8")
        try:
            records = parse_tweets(p)
        except InputError:
            return
    for rec in records:
        assert isinstance(rec.account, str) and rec.account
        assert isinstance(rec.text, str) and rec.text


GOOD_UTC = "2017-08-12T15:04:05Z"
field_values = (st.text(max_size=4) | st.sampled_from(["", "u1", GOOD_UTC])
                | st.integers() | st.none() | st.booleans()
                | st.lists(st.integers(), max_size=2))
# valid tweets, and objects with fields missing, of the wrong type, empty
# or with a bad utc, in any key order and with other keys
tweet_lines = st.builds(
    lambda a, t: json.dumps({"account": a, "utc": GOOD_UTC, "text": t}),
    st.text(min_size=1, max_size=4), st.text(min_size=1, max_size=6)) | st.dictionaries(
    st.sampled_from(["account", "utc", "text", "x"]), field_values).map(json.dumps)
odd_lines = st.sampled_from([
    "", "  ", "\t", "not json", "{", "[]", "1", '"s"', "null", "\ufeff{}",
    '{"account": "a", "utc": "%s", "text": "t"} x' % GOOD_UTC,
    '{"account": "a", "utc": "%s", "text": "t"}}' % GOOD_UTC,
    '{"account": "a", "utc": "%s", "text": "t", "n": %s}' % (GOOD_UTC, "1" * 5000),
    "1" * 5000, "[" * 100_000, '{"a": ' * 100_000]) | st.text(max_size=8)
tweet_files = st.tuples(
    st.booleans(),
    st.lists(tweet_lines | tweet_lines.map(lambda line: f" {line}\t") | odd_lines,
             max_size=6),
    st.sampled_from(["\n", "\r\n"]))


def _parse_outcome(parse, path):
    try:
        return parse(path)
    except InputError as exc:
        return str(exc), exc.line


@given(tweet_files)
@settings(max_examples=300, deadline=None)
def test_parse_tweets_matches_the_per_line_loads_reader(file):
    """The scanner fast path returns today's records, and any line it
    rejects raises the InputError, message and line, of `json.loads` with
    each field checked in turn."""
    bom, lines, newline = file
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "tweets.jsonl"
        p.write_text("\ufeff" * bom + newline.join(lines) + newline,
                     encoding="utf-8", newline="")
        assert _parse_outcome(parse_tweets, p) == _parse_outcome(
            orc.parse_tweets_loads, p)



# Fields around the csv module's 131,072-character limit, and counts up to
# 10**30, past int64 and the 2**53 exact range of float64 strengths.
long_fields = st.sampled_from([131_072, 131_073, 200_000]).map("x".__mul__)
fields = st.text(max_size=6) | long_fields
counts = (st.integers(min_value=-3, max_value=10**30)
          | st.sampled_from([2**53, 2**53 + 1, 5 * 10**18])).map(str)
edge_lines = st.lists(st.one_of(fields, counts), min_size=1, max_size=4).map(
    "\t".join)


@given(st.lists(edge_lines, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_parse_edges_fuzz_only_input_error_escapes(lines):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "edges.tsv"
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            g = build_graph(parse_edges(p))
        except InputError:
            return
    assert g.w <= 2**53
    assert int(g.in_strength.sum()) == int(g.out_strength.sum()) == g.w


followership_cells = st.sampled_from(["0", "1"]) | fields


@given(st.lists(st.lists(followership_cells, min_size=1, max_size=4),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_parse_followership_fuzz_only_input_error_escapes(rows):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "followership.csv"
        p.write_text("account_id,m1,m2\n"
                     + "".join(",".join(row) + "\n" for row in rows),
                     encoding="utf-8")
        try:
            matrix, dropped = parse_followership(p)
        except InputError:
            return
    assert matrix.n_accounts + dropped <= len(rows)


@pytest.mark.parametrize("parse, header, tail", [
    (parse_followership, "account_id,m1", ",1"),
    (parse_partition_csv, "node_id,community", ",0"),
    (parse_scores_csv, "account_id,score,class", ",0.5,left"),
])
def test_csv_field_over_size_limit_is_input_error(tmp_path, parse, header,
                                                  tail):
    p = tmp_path / "input.csv"
    p.write_text(f"{header}\n{'x' * 200_000}{tail}\n")
    with pytest.raises(InputError, match="field larger than field limit") as exc:
        parse(p)
    assert exc.value.path == p
    assert exc.value.line == 2


# A quoted id that holds a line break makes a row two lines long: an error
# names the line its row starts on.
@pytest.mark.parametrize("parse, header, row, bad, message", [
    (parse_partition_csv, "node_id,community", ",1", "c,x",
     "community 'x' is not an integer"),
    (parse_scores_csv, "account_id,score,class", ",0.5,right", "c,x,left",
     "score 'x' is not a number"),
    (parse_followership, "account_id,m1,m2", ",1,0", "c,1,2",
     "column 2 must be 0 or 1, got '2'"),
])
def test_csv_errors_name_the_line_a_row_starts_on(tmp_path, parse, header, row,
                                                   bad, message):
    p = tmp_path / "input.csv"
    p.write_text(f'{header}\n"a\nb"{row}\n{bad}\n')
    with pytest.raises(InputError) as exc:
        parse(p)
    assert str(exc.value) == f"{p}:4: {message}"
    # the fault on the two-line row itself: line 2, where that row starts
    p.write_text(f'{header}\n"a\nb"{bad[1:]}\n')
    with pytest.raises(InputError) as exc:
        parse(p)
    assert str(exc.value) == f"{p}:2: {message}"
    # a field over the csv module's size limit, spread over seven lines
    big = "\n".join(["x" * 20_000] * 7)
    p.write_text(f'{header}\n"a\nb"{row}\n"{big}"{row}\n')
    with pytest.raises(InputError) as exc:
        parse(p)
    assert str(exc.value) == f"{p}:4: malformed CSV: field larger than field limit (131072)"

# ---------------------------------------------------------------------------
# csv round trips and writers
# ---------------------------------------------------------------------------


def test_partition_csv_round_trip(tmp_path):
    p = tmp_path / "partition.csv"
    assignment = {"a": 0, "b": 0, "c": 1}
    write_csv(p, ["node_id", "community"], sorted(assignment.items()),
              provenance="method=louvain seed=0")
    assert parse_partition_csv(p) == assignment
    first = p.read_text().splitlines()[0]
    assert first == "# method=louvain seed=0"


def test_scores_csv_round_trip(tmp_path):
    p = tmp_path / "scores.csv"
    scores = {"u1": -0.1234567890123456, "u2": 1 / 3, "u3": 0.0}
    classes = {"u1": "left", "u2": "right", "u3": "unclassified"}
    rows = [(a, scores[a], classes[a]) for a in sorted(scores)]
    write_csv(p, ["account_id", "score", "class"], rows, provenance="anchor=m1")
    back = parse_scores_csv(p)
    # repr round-trips doubles exactly
    assert back.scores == scores
    assert back.classes == classes


def test_ids_named_like_the_header_round_trip(tmp_path):
    """Only the first row after the comments is the header; an account or
    node whose id is the header's first name is data."""
    scores = MediaScores(scores={"aaron": -0.5, "account_id": 0.25, "zed": 0.0},
                         classes={"aaron": "left", "account_id": "right",
                                  "zed": "unclassified"})
    write_scores(tmp_path / "scores.csv", scores, "seed=0")
    back = parse_scores_csv(tmp_path / "scores.csv")
    assert (back.scores, back.classes) == (scores.scores, scores.classes)

    g = build_graph([EdgeRecord("node_id", "a"), EdgeRecord("a", "b")],
                    nodes=["a", "b", "node_id"])
    part = Partition(assignment=np.array([0, 1, 1]), k=2)
    write_partition(tmp_path / "partition.csv", g, part, "seed=0")
    assert parse_partition_csv(tmp_path / "partition.csv") == {
        "a": 0, "b": 1, "node_id": 1}
    # in a headerless file such a row is data too; a late header is an error
    (tmp_path / "bare.csv").write_text("a,0\nnode_id,3\n")
    assert parse_partition_csv(tmp_path / "bare.csv") == {"a": 0, "node_id": 3}
    (tmp_path / "late.csv").write_text("a,0\nnode_id,community\n")
    with pytest.raises(InputError, match="is not an integer") as exc:
        parse_partition_csv(tmp_path / "late.csv")
    assert exc.value.line == 2


def test_first_row_is_the_header_only_if_it_is_the_whole_header(tmp_path):
    (tmp_path / "first.csv").write_text("node_id,3\na,0\n")
    assert parse_partition_csv(tmp_path / "first.csv") == {"node_id": 3, "a": 0}
    (tmp_path / "first_scores.csv").write_text("account_id,0.5,right\nb,-1.0,left\n")
    back = parse_scores_csv(tmp_path / "first_scores.csv")
    assert back.classes == {"account_id": "right", "b": "left"}


def test_scores_csv_rejects_unknown_class(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("account_id,score,class\nu1,0.5,centrist\n")
    with pytest.raises(InputError, match="unknown class"):
        parse_scores_csv(p)


def test_partition_csv_rejects_repeated_node(tmp_path):
    p = tmp_path / "partition.csv"
    p.write_text("# method=louvain\nnode_id,community\na,0\nb,1\na,1\n")
    with pytest.raises(InputError, match="duplicate node id 'a'") as exc:
        parse_partition_csv(p)
    assert exc.value.path == p
    assert exc.value.line == 5


def test_scores_csv_rejects_repeated_account(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("account_id,score,class\na,0.5,right\nb,-1.0,left\n"
                 "a,0.5,right\n")
    with pytest.raises(InputError, match="duplicate account id 'a'") as exc:
        parse_scores_csv(p)
    assert exc.value.path == p
    assert exc.value.line == 4


@pytest.mark.parametrize("row", ["a,0.5,left", "a,-0.5,right", "a,0.5,unclassified",
                                 "a,nan,right", "a,nan,left", "a,0.0,left"])
def test_scores_csv_rejects_class_contradicting_score(tmp_path, row):
    p = tmp_path / "scores.csv"
    p.write_text(f"account_id,score,class\nz,nan,unclassified\n{row}\n")
    with pytest.raises(InputError, match="contradicts score") as exc:
        parse_scores_csv(p)
    assert exc.value.line == 3


@pytest.mark.parametrize("row", ["a,inf,right", "a,-inf,left", "a,1e999,right",
                                 "a,-1E999,left", "a,Infinity,unclassified"])
def test_scores_csv_rejects_infinite_score(tmp_path, row):
    """nan is an unscored account; an infinite score is an input error."""
    p = tmp_path / "scores.csv"
    p.write_text(f"account_id,score,class\nz,nan,unclassified\n{row}\n")
    with pytest.raises(InputError, match="is infinite") as exc:
        parse_scores_csv(p)
    assert exc.value.path == p
    assert exc.value.line == 3


def test_scores_csv_rejects_file_no_report_writes(tmp_path):
    """A repeated id and classes that contradict their scores, together."""
    p = tmp_path / "scores.csv"
    p.write_text("a,0.5,left\nb,nan,right\na,-1,left\n")
    with pytest.raises(InputError, match="contradicts score") as exc:
        parse_scores_csv(p)
    assert exc.value.line == 1


@pytest.mark.parametrize("parse", [parse_edges, parse_followership,
                                   parse_tweets, parse_partition_csv,
                                   parse_scores_csv])
def test_parsers_reject_non_utf8(tmp_path, parse):
    p = tmp_path / "input.txt"
    p.write_bytes(b"\xff\xfe{}\n")
    with pytest.raises(InputError, match="not UTF-8") as exc:
        parse(p)
    assert exc.value.path == p
    assert exc.value.line == 1


@pytest.mark.parametrize("parse, text", [
    (parse_edges, "a\tb\t2\nb\ta\n"),
    (parse_followership, "account_id,m1,m2\na,1,0\nb,0,1\n"),
    (parse_tweets, '{"account": "a", "utc": "2017-08-12T14:00:00Z", "text": "hi"}\n'),
    (parse_partition_csv, "node_id,community\na,0\nb,1\n"),
    (parse_scores_csv, "account_id,score,class\na,0.5,right\nb,-1.0,left\n"),
    (load_config, "edges = e.tsv\nfollowership = f.csv\ntweets = t.jsonl\n"
                  "out_dir = out\n"),
], ids=["edges", "followership", "tweets", "partition", "scores", "config"])
def test_parsers_skip_a_utf8_bom(tmp_path, parse, text):
    """A file that starts with a byte-order mark parses like one without."""
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    bom.write_text("\ufeff" + text, encoding="utf-8")
    # compared by repr: FollowershipMatrix and MediaScores define no ==
    assert repr(parse(bom)) == repr(parse(plain))


def test_non_utf8_line_is_exact_past_the_first_chunk(tmp_path):
    """The text layer decodes ahead in chunks; the reported line is still
    the one holding the bad byte."""
    p = tmp_path / "edges.tsv"
    p.write_bytes(b"a\tb\t1\n" * 3000 + b"caf\xe9\tb\n" + b"a\tb\n" * 10)
    with pytest.raises(InputError, match="edges.tsv:3001: not UTF-8"):
        parse_edges(p)


def test_write_csv_formats(tmp_path):
    p = tmp_path / "out.csv"
    write_csv(p, ["k", "v"], [("pi", 0.1), ("none", None), ("i", 7),
                              ("np", np.float64(0.5))],
              provenance="x=1")
    lines = p.read_text().splitlines()
    assert lines == ["# x=1", "k,v", "pi,0.1", "none,", "i,7", "np,0.5"]


#: floats whose text is easy to get wrong: specials, the signed zero, the
#: smallest subnormal, and the points where repr switches to exponents
_EDGE_FLOATS = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                1e16, 9999999999999998.0, 1e-4, 1e-5)
_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))
_cells = st.one_of(
    st.text(st.sampled_from('ab,"\n\r x')), st.text(max_size=5),
    st.integers(-2**70, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
    _floats, _floats.map(np.float64), st.none())


@given(st.lists(st.lists(_cells, max_size=5), max_size=6))
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_the_per_cell_writer(rows):
    """csv writes a float (np.float64 included) by its repr and None as an
    empty field, as the writer that formatted each cell itself did."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        write_csv(ours, ["a", "b"], rows, provenance="seed=0")
        orc.write_csv_cells(ref, ["a", "b"], rows, provenance="seed=0")
        assert ours.read_bytes() == ref.read_bytes()


def test_write_json_sorted_and_newline(tmp_path):
    p = tmp_path / "out.json"
    write_json(p, {"zeta": 1, "alpha": {"b": 2, "a": [1, 2]}})
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": [1, 2]}}


# ---------------------------------------------------------------------------
# synthetic bundles
# ---------------------------------------------------------------------------


def test_bundle_byte_determinism(tmp_path):
    spec = SyntheticSpec(n_left=40, n_right=40, p_in=0.1, p_out=0.01, seed=3)
    b1 = generate_bundle(spec, tmp_path / "one")
    b2 = generate_bundle(spec, tmp_path / "two")
    for f1, f2 in [(b1.edges, b2.edges), (b1.followership, b2.followership),
                   (b1.tweets, b2.tweets)]:
        assert file_hash(f1) == file_hash(f2)
    b3 = generate_bundle(SyntheticSpec(n_left=40, n_right=40, p_in=0.1,
                                       p_out=0.01, seed=4), tmp_path / "three")
    assert file_hash(b1.edges) != file_hash(b3.edges)


def test_default_bundle_bytes_are_pinned(tmp_path):
    """The files of the default spec, hashed before the edge draw went to
    row blocks; the c03/c05 and README inputs must not move."""
    bundle = generate_bundle(SyntheticSpec(), tmp_path)
    assert {p.name: file_hash(p) for p in
            (bundle.edges, bundle.followership, bundle.tweets)} == {
        "edges.tsv":
            "3d0b43c4108df64b77202b2adf7e02271982e4a9125a325cd00143e7bab3d03d",
        "followership.csv":
            "55b77ef73233d5bb285ec09950b63901a14c1b22c4d982b7206aeee688afa21d",
        "tweets.jsonl":
            "54ef540ac76d60e38b052229fe9bae479b0bad939e87c5af17b499f31deb742b",
    }


def test_planted_edges_row_blocks_match_the_dense_draw():
    # 2,100 accounts take five row blocks
    spec = SyntheticSpec(n_left=1100, n_right=1000, p_in=0.004, p_out=0.0005,
                         seed=2)
    ids = account_ids(spec)
    n = len(ids)
    is_left = np.arange(n) < spec.n_left
    rate = np.where(is_left[:, None] == is_left[None, :], spec.p_in,
                    spec.p_out)
    np.fill_diagonal(rate, 0.0)
    counts = generator(derive_seed(spec.seed, 10)).poisson(rate)
    t_idx, s_idx = np.nonzero(counts)
    assert planted_edges(spec) == [
        EdgeRecord(target=ids[t], source=ids[s], count=int(counts[t, s]))
        for t, s in zip(t_idx, s_idx)]


def test_bundle_parses_back(tmp_path):
    spec = SyntheticSpec(n_left=30, n_right=30, p_in=0.15, p_out=0.01, seed=5)
    bundle = generate_bundle(spec, tmp_path)
    edges = parse_edges(bundle.edges)
    assert edges == sorted(planted_edges(spec),
                           key=lambda e: (e.target, e.source))
    matrix, dropped = parse_followership(bundle.followership)
    ids, entries = planted_followership(spec)
    keep = entries.any(axis=1)
    assert matrix.accounts == tuple(a for a, k in zip(ids, keep) if k)
    assert dropped == int((~keep).sum())
    np.testing.assert_array_equal(matrix.entries, entries[keep])
    tweets = parse_tweets(bundle.tweets)
    assert tweets and all(t.account in set(ids) for t in tweets)


def test_zero_cross_rate_means_no_cross_edges():
    spec = SyntheticSpec(n_left=50, n_right=50, p_in=0.1, p_out=0.0, seed=9)
    blocs = bloc_labels(spec)
    for rec in planted_edges(spec):
        assert blocs[rec.target] == blocs[rec.source]


def test_spec_validation():
    with pytest.raises(InputError):
        SyntheticSpec(n_left=1)
    with pytest.raises(InputError):
        SyntheticSpec(follow_left=(0.5,))
    with pytest.raises(InputError):
        SyntheticSpec(p_in=-0.1)
    with pytest.raises(InputError):
        SyntheticSpec(follow_left=(2.0,) * 6)


def test_spec_rejects_non_finite_and_undrawable_rates():
    nan, inf = float("nan"), float("inf")
    for bad in ({"p_in": nan}, {"p_out": inf}, {"tweets_per_account": nan},
                {"follow_right": (nan,) * 6}):
        with pytest.raises(InputError, match="finite"):
            SyntheticSpec(**bad)
    # finite, but beyond what the Poisson sampler can draw
    with pytest.raises(InputError, match="cannot draw"):
        planted_edges(SyntheticSpec(n_left=2, n_right=2, p_in=1e19))
