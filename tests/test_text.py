import json
import logging
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
import rtpol.text
from rtpol import ChiSquareRow, EdgeRecord, MediaScores, TweetRecord, chi_square
from rtpol import hashtag_top_per_community
from rtpol import keyword_subset, remove_stopwords, tokenize, unique_fraction
from rtpol import scan_corpus, word_counts_by_class
from rtpol.cli import main
from rtpol.errors import InputError
from rtpol.pipeline import write_text
from rtpol.stopwords import DEFAULT_EXTRA_STOPWORDS, ENGLISH_STOPWORDS
from rtpol.text import WordCountTable

CHI_ONE_SIDED = 1.0 / 19.0  # 10 of 100 vs 0 of 100, worked by hand


def tweet(account: str, text: str) -> TweetRecord:
    return TweetRecord(account=account, text=text)


def scores_for(**kv) -> MediaScores:
    return MediaScores(scores={k: (-1.0 if v == "left" else 1.0)
                               for k, v in kv.items()},
                       classes=dict(kv))


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_strips_urls_keeps_tags():
    got = tokenize("RT @foo: #Charlottesville is sad https://t.co/x")
    assert got == ["RT", "@foo", "#Charlottesville", "is", "sad"]


def test_tokenize_preserves_case():
    assert tokenize("Trump, trump") == ["Trump", "trump"]


def test_tokenize_url_only_tweet_is_empty():
    assert tokenize("http://example.com/a?b=c") == []
    assert tokenize("") == []


def test_tokenize_keeps_underscore_and_apostrophe():
    assert tokenize("@big_deal don't stop") == ["@big_deal", "don't", "stop"]
    # trailing apostrophe is punctuation, internal one is not
    assert tokenize("runnin' fast") == ["runnin", "fast"]


token_text = st.text(
    alphabet=st.sampled_from(list("abcXYZ019_'#@ .,!:/") + ["é"]),
    max_size=60,
)


@given(token_text)
@settings(max_examples=200, deadline=None)
def test_tokenize_idempotent_on_its_own_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


# ---------------------------------------------------------------------------
# stop words
# ---------------------------------------------------------------------------


def test_remove_stopwords_default_extras():
    assert remove_stopwords(["RT", "is", "sad"]) == ["sad"]
    assert remove_stopwords([]) == []
    # default platform-noise extras are all dropped
    assert remove_stopwords(sorted(DEFAULT_EXTRA_STOPWORDS)) == []


def test_stopword_list_shape():
    assert len(ENGLISH_STOPWORDS) == 179
    assert "the" in ENGLISH_STOPWORDS and "is" in ENGLISH_STOPWORDS
    assert DEFAULT_EXTRA_STOPWORDS == frozenset(
        {"t", "https", "co", "RT", "s", "amp", "n", "w", "c"})
    # case sensitivity: the embedded list is lowercase
    assert remove_stopwords(["The", "the"]) == ["The"]


@given(st.lists(st.sampled_from(["the", "RT", "sad", "vigil", "amp", "x"])))
@settings(max_examples=100, deadline=None)
def test_remove_stopwords_idempotent(tokens):
    once = remove_stopwords(tokens)
    assert remove_stopwords(once) == once


# ---------------------------------------------------------------------------
# class word counts
# ---------------------------------------------------------------------------


def test_word_counts_by_class():
    corpus = [tweet("u1", "alpha beta"), tweet("u1", "beta"),
              tweet("u2", "gamma"), tweet("nobody", "delta")]
    s = scores_for(u1="left", u2="right")
    table = word_counts_by_class(scan_corpus(corpus, s.classes, None, ()))
    assert table.left == Counter({"beta": 2, "alpha": 1})
    assert table.right == Counter({"gamma": 1})
    assert (table.total_left, table.total_right) == (3, 1)
    assert table.n_excluded_tweets == 1


def test_word_counts_totals_match_filtered_stream():
    corpus = [tweet("u1", "the quick brown fox"), tweet("u2", "is it the fox")]
    s = scores_for(u1="left", u2="right")
    table = word_counts_by_class(scan_corpus(corpus, s.classes, None, ()))
    manual = sum(len(remove_stopwords(tokenize(rec.text))) for rec in corpus)
    assert table.total_left + table.total_right == manual


def test_identical_corpora_identical_tables():
    corpus = [tweet("u1", "vigil crowd"), tweet("u2", "vigil crowd")]
    s = scores_for(u1="left", u2="right")
    table = word_counts_by_class(scan_corpus(corpus, s.classes, None, ()))
    assert table.left == table.right


# ---------------------------------------------------------------------------
# keyword subsets
# ---------------------------------------------------------------------------


def test_keyword_subset_case_sensitive():
    corpus = [tweet("a", "Trump won"), tweet("b", "trump won")]
    scan = scan_corpus(corpus, {"a": "left", "b": "right"}, None, ("Trump",))
    assert keyword_subset(scan, "Trump") == {"left": [1, 1], "right": [0, 0]}


def test_keyword_subset_hashtag_and_absent():
    corpus = [tweet("a", "march on #Charlottesville now"),
              tweet("b", "elsewhere"), tweet("c", "march on #Charlottesville now")]
    scan = scan_corpus(corpus, {"a": "left", "b": "left", "c": "left"}, None,
                       ("#Charlottesville", "zzz"))
    # two tweets of one text: two tweets, one distinct text
    assert keyword_subset(scan, "#Charlottesville") == {"left": [2, 1],
                                                        "right": [0, 0]}
    assert keyword_subset(scan, "zzz") == {"left": [0, 0], "right": [0, 0]}
    with pytest.raises(InputError):
        keyword_subset(scan, "")
    # a keyword the scan did not look for has no subset to give
    with pytest.raises(InputError, match="'Trump'"):
        keyword_subset(scan, "Trump")


# ---------------------------------------------------------------------------
# chi-square divergence
# ---------------------------------------------------------------------------


def test_chi_square_proportional_usage_is_zero():
    table = WordCountTable(left=Counter({"w": 10, "z": 90}),
                           right=Counter({"w": 20, "z": 180}),
                           total_left=100, total_right=200,
                           n_excluded_tweets=0)
    rows = {r.token: r.chi2 for r in chi_square(table)}
    assert rows["w"] == 0.0
    assert rows["z"] == 0.0


def test_chi_square_one_sided_fixture():
    table = WordCountTable(left=Counter({"topic": 10, "filler": 90}),
                           right=Counter({"filler": 100}),
                           total_left=100, total_right=100,
                           n_excluded_tweets=0)
    result = chi_square(table)
    rows = {r.token: r for r in result}
    assert rows["topic"].chi2 == pytest.approx(CHI_ONE_SIDED, abs=1e-12)
    assert rows["topic"].chi2 == pytest.approx(0.05263, abs=1e-5)
    assert (rows["topic"].f_left, rows["topic"].f_right) == (10, 0)
    # ties sort lexicographically
    assert [r.token for r in result] == ["filler", "topic"]


def test_chi_square_label_swap_symmetry():
    table = WordCountTable(left=Counter({"a": 3, "b": 9, "c": 1}),
                           right=Counter({"a": 7, "c": 5}),
                           total_left=13, total_right=12,
                           n_excluded_tweets=0)
    swapped = WordCountTable(left=table.right, right=table.left,
                             total_left=table.total_right,
                             total_right=table.total_left,
                             n_excluded_tweets=0)
    x1 = {r.token: r.chi2 for r in chi_square(table)}
    x2 = {r.token: r.chi2 for r in chi_square(swapped)}
    assert x1 == x2


def test_chi_square_degenerate_tokens_skipped():
    # 'w' is the entire corpus on both sides
    table = WordCountTable(left=Counter({"w": 3}), right=Counter({"w": 2}),
                           total_left=3, total_right=2, n_excluded_tweets=0)
    result = chi_square(table)
    assert result == []


@given(st.dictionaries(st.sampled_from("abcdef"),
                       st.integers(min_value=0, max_value=9), max_size=6),
       st.dictionaries(st.sampled_from("abcdef"),
                       st.integers(min_value=0, max_value=9), max_size=6))
@settings(max_examples=150, deadline=None)
def test_chi_square_symmetric_and_nonnegative(left_raw, right_raw):
    left = Counter({k: v for k, v in left_raw.items() if v})
    right = Counter({k: v for k, v in right_raw.items() if v})
    table = WordCountTable(left=left, right=right,
                           total_left=sum(left.values()),
                           total_right=sum(right.values()),
                           n_excluded_tweets=0)
    swapped = WordCountTable(left=right, right=left,
                             total_left=sum(right.values()),
                             total_right=sum(left.values()),
                             n_excluded_tweets=0)
    x1 = {r.token: r.chi2 for r in chi_square(table)}
    x2 = {r.token: r.chi2 for r in chi_square(swapped)}
    assert set(x1) == set(x2)
    for tok, v in x1.items():
        assert v >= 0.0
        assert v == pytest.approx(x2[tok], abs=1e-15)


# ---------------------------------------------------------------------------
# hashtags per community
# ---------------------------------------------------------------------------


def test_hashtag_top_per_community():
    corpus = [tweet("a", "#Trump rally"), tweet("a", "#Trump again"),
              tweet("a", "#Barcelona"), tweet("b", "#Resist")]
    comm = {"a": 0, "b": 1}
    top = hashtag_top_per_community(scan_corpus(corpus, {}, comm, ()))
    assert top[0] == ("#Trump", 2)
    assert top[1] == ("#Resist", 1)


def test_hashtag_exclusion_substring():
    corpus = [tweet("a", "#Charlottesville2017 vigil"),
              tweet("b", "#UniteTheRight #charlottesvilleRiot")]
    top = hashtag_top_per_community(scan_corpus(corpus, {}, {"a": 0, "b": 1}, ()))
    assert 0 not in top  # its only hashtag was excluded
    assert top[1] == ("#UniteTheRight", 1)


def test_hashtag_tie_breaks_lexicographically():
    corpus = [tweet("a", "#B #A")]
    top = hashtag_top_per_community(scan_corpus(corpus, {}, {"a": 0}, ()))
    assert top[0] == ("#A", 1)


def test_hashtag_requires_community_coverage():
    # authors outside the assignment are skipped and counted by the scan;
    # a scan made without any assignment has no hashtags to rank
    with pytest.raises(InputError):
        hashtag_top_per_community(scan_corpus([tweet("ghost", "#x")], {}, None, ()))


# ---------------------------------------------------------------------------
# one pass against the per-statistic scans
# ---------------------------------------------------------------------------

FRAGMENTS = ["Trump", "trump", "vigil", "the", "RT", "amp", "don't", "runnin'",
             "#it's", "@big_deal", "#HoldTheLine", "#HoldTheLineX", "#Resist",
             "#Charlottesville", "#charlottesvilleRiot", "#CHARLOTTESVILLE2017",
             "https://t.co/#Resist", "http://x.co/a#HoldTheLine", "é"]
# N1 and ghost have no score; ghost has no community either
CLASSES = {"L1": "left", "L2": "left", "R1": "right", "U1": "unclassified"}
ACCOUNTS = [*CLASSES, "N1", "ghost"]
KEYWORDS = ["Trump", "#HoldTheLine", "don't", "#Resist", "#it's", "zzz"]

texts = st.lists(st.tuples(st.sampled_from(FRAGMENTS),
                           st.sampled_from([" ", "", ",", ". ", "\n"])),
                 max_size=12).map(lambda parts: "".join(f + sep for f, sep in parts))
tweets = st.builds(tweet, st.sampled_from(ACCOUNTS), texts)
# texts drawn from a pool of at most four recur across accounts, sides,
# communities and keyword hits, with other texts between their tweets
pooled_corpora = st.lists(texts, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.builds(tweet, st.sampled_from(ACCOUNTS),
                                    st.sampled_from(pool)), max_size=25))


class PassCounter(list):
    """A list that counts the passes made over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


# any integer may name a community, so none is a row index
community_ids = st.integers(0, 2) | st.integers(-3, -1) | st.just(10**12)


@given(st.lists(tweets, max_size=25) | pooled_corpora,
       st.none() | st.dictionaries(st.sampled_from(ACCOUNTS[:-1]),
                                   community_ids),
       st.lists(st.sampled_from(KEYWORDS), unique=True, max_size=4),
       st.sampled_from([rtpol.text._BLOCK_TEXTS, 1, 3]))
@settings(max_examples=300, deadline=None)
def test_scan_corpus_matches_the_per_statistic_scans(corpus, community_of,
                                                     keywords, block):
    # blocks of 1 and 3 texts put runs and keyword hits across block edges
    seen = PassCounter(corpus)
    with mock.patch.object(rtpol.text, "_BLOCK_TEXTS", block):
        scan = scan_corpus(seen, CLASSES, community_of, keywords)
    # one pass numbers the texts and accounts; the corpus must have a length
    assert seen.passes == 1
    table = word_counts_by_class(scan)
    want = orc.word_counts_multi_scan(corpus, CLASSES)
    assert (table.left, table.right) == (want.left, want.right)
    assert (table.total_left, table.total_right, table.n_excluded_tweets) == (
        want.total_left, want.total_right, want.n_excluded_tweets)
    assert chi_square(table) == chi_square(want)
    if community_of is None:
        assert scan.hashtags is None
    else:
        top, skipped = orc.hashtag_top_multi_scan(corpus, community_of)
        assert hashtag_top_per_community(scan) == top
        assert scan.n_skipped_tweets == skipped
    assert scan.overall == orc.unique_by_side(corpus, CLASSES)
    for kw in keywords:
        assert keyword_subset(scan, kw) == orc.unique_by_side(
            orc.keyword_subset_multi_scan(corpus, kw), CLASSES)
    runs = orc.scan_corpus_runs(corpus, CLASSES, community_of, keywords)
    assert (scan.sides, scan.n_excluded_tweets, scan.hashtags, scan.n_skipped_tweets,
            scan.overall, scan.by_keyword) == (
        runs.sides, runs.n_excluded_tweets, runs.hashtags, runs.n_skipped_tweets,
        runs.overall, runs.by_keyword)


def test_scan_corpus_rejects_a_one_shot_iterator():
    # the counting pass exhausts an iterator, so the scan would read nothing;
    # taking the corpus's length fails instead of returning an empty scan
    corpus = [tweet("L1", "Trump"), tweet("R1", "Trump")]
    with pytest.raises(TypeError):
        scan_corpus(iter(corpus), CLASSES, None, ("Trump",))


def test_scan_corpus_logs_its_texts(caplog):
    corpus = [tweet(acc, text) for acc, text in [
        ("L1", "Trump"), ("R1", "vigil"), ("L2", "Trump"), ("U1", "amp")]]
    with caplog.at_level(logging.DEBUG, logger="rtpol.text"):
        scan_corpus(corpus, CLASSES, None, ())
    records = [r for r in caplog.records if r.name == "rtpol.text"]
    assert [r.args for r in records] == [(4, 3)]


def _traced_peak(scan, *args) -> int:
    tracemalloc.start()
    try:
        scan(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_corpus_memory_stays_near_the_run_scan():
    """Token ids are held one block of texts at a time: a scan that held the
    whole corpus's token ids, or its token strings, would pass the run-by-run
    scan's peak by far more than half."""
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(400)] + ["the", "RT", "#Resist", "#Charlottesville"]
    originals = [" ".join(rng.choice(words, size=12)) + f" #tag{i % 7}"
                 for i in range(20_000)]
    accounts = [f"a{i}" for i in range(600)]
    corpus = [tweet(accounts[i % 600], text) for i, text in enumerate(originals)]
    corpus += [tweet(accounts[int(j) % 600], f"RT @x: {originals[int(j)]}")
               for j in rng.integers(len(originals), size=12_000)]
    classes = {a: ("left", "right", "unclassified")[i % 3] for i, a in enumerate(accounts)}
    community_of = {a: i % 5 for i, a in enumerate(accounts)}
    args = (classes, community_of, ("#tag1", "w3"))
    assert len({rec.text for rec in corpus}) >= 20_000
    for scan in (scan_corpus, orc.scan_corpus_runs):  # first calls load modules
        scan(corpus[:50], *args)
    new = _traced_peak(scan_corpus, corpus, *args)
    old = _traced_peak(orc.scan_corpus_runs, corpus, *args)
    assert new <= 1.5 * old, (new, old)


def test_cli_text_writes_hashtags_for_any_integer_community(tmp_path):
    rows = [("a", "#Resist #Resist now"), ("b", "#HoldTheLine"), ("c", "#Resist"),
            ("a", "#HoldTheLine #Charlottesville"), ("ghost", "#Resist")]
    tweets_path = tmp_path / "tweets.jsonl"
    tweets_path.write_text("".join(json.dumps(
        {"account": a, "utc": "2017-08-12T15:04:05Z", "text": t}) + "\n" for a, t in rows))
    (tmp_path / "scores.csv").write_text(
        "account_id,score,class\na,-1.0,left\nb,1.0,right\nc,0.5,right\n")
    community_of = {"a": -1, "b": 10**12, "c": -1}
    (tmp_path / "partition.csv").write_text("node_id,community\n" + "".join(
        f"{node},{comm}\n" for node, comm in community_of.items()))
    assert main(["text", "--tweets", str(tweets_path),
                 "--scores", str(tmp_path / "scores.csv"),
                 "--partition", str(tmp_path / "partition.csv"),
                 "--out-dir", str(tmp_path / "text")]) == 0
    top, skipped = orc.hashtag_top_multi_scan([tweet(a, t) for a, t in rows],
                                              community_of)
    assert sorted(top) == [-1, 10**12]
    assert (tmp_path / "text" / "hashtags.csv").read_text().splitlines() == [
        f"# skipped_tweets={skipped}", "community,hashtag,count",
        *(f"{c},{tag},{n}" for c, (tag, n) in sorted(top.items()))]


def test_write_text_tokenizes_each_distinct_text_once(tmp_path, monkeypatch):
    corpus = [tweet(acc, text) for acc, text in [
        ("L1", "Trump #Resist https://t.co/#Trump"), ("R1", "#HoldTheLine RT"),
        ("U1", "don't #Charlottesville"), ("ghost", "Trump"), ("L2", ""),
        ("R1", "Trump #Resist https://t.co/#Trump"), ("ghost", "#HoldTheLine RT"),
        ("L2", "Trump"), ("L1", "#HoldTheLine RT")]]
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(rtpol.text, "tokenize", counting)
    write_text(tmp_path.joinpath, corpus, MediaScores({}, CLASSES),
               {"L1": 0, "L2": 0, "R1": 1, "U1": 1},
               ("Trump", "#HoldTheLine", "don't"), "", {})
    assert sorted(calls) == sorted({rec.text for rec in corpus})
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "hashtags.csv", "unique.json", "word_counts.csv"]


def test_tweet_records_have_slots_and_value_semantics():
    # the per-line and per-token records of ingest and the text stage
    for make in (lambda x: tweet("a", x), lambda x: EdgeRecord("a", x, 2),
                 lambda x: ChiSquareRow(x, 0.5, 1, 2)):
        rec = make("x")
        assert not hasattr(rec, "__dict__")
        assert rec == make("x") and hash(rec) == hash(make("x"))
        assert rec != make("y")


# ---------------------------------------------------------------------------
# unique content
# ---------------------------------------------------------------------------


def test_unique_fraction():
    stats = unique_fraction(3, 2)
    assert (stats.total, stats.unique) == (3, 2)
    assert stats.fraction == pytest.approx(2 / 3)
    assert unique_fraction(4, 4).fraction == 1.0
    assert unique_fraction(5, 1).fraction == 0.2
    empty = unique_fraction(0, 0)
    assert (empty.total, empty.unique, empty.fraction) == (0, 0, None)
