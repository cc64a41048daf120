"""Readers and writers for the on-disk formats.

Edges are tab-separated `retweeted_id<TAB>retweeter_id<TAB>count` lines,
count optional (default 1), and '#' comments. Followership is a CSV with an
`account_id` header column, then media labels, and 0/1 cells. Tweets are JSON
lines with `account`, `utc` (YYYY-MM-DDTHH:MM:SSZ; checked, not kept), `text`:
one json scanner call per line, `json.loads` and field checks only to name a
fault, into `TweetRecord` NamedTuples sharing one string per id and per text.
Inputs are UTF-8 (BOM skipped); any parse error, bad bytes included, raises
InputError with path and line, a CSV row's line being the one it starts on.
Writers leave each cell to `csv`: a float by its repr, None as empty.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager, suppress
from datetime import datetime
from json.scanner import make_scanner
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import InputError
from .graph import EdgeRecord
from .pca import FollowershipMatrix, MediaScores, sign_class
from .text import TweetRecord

UTC_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
#: UTC_FORMAT with every field zero-padded, in ASCII digits
_UTC_RE = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2})Z")


@contextmanager
def open_utf8(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text, skipping a leading byte-order mark.

    A byte sequence that is not UTF-8 raises InputError naming the path
    and the line of the first bad byte, in place of UnicodeDecodeError.
    """
    try:
        with path.open(encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # The text layer decodes in chunks, so find the line from the bytes;
        # b"\n" never occurs inside a multi-byte UTF-8 sequence.
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InputError(f"not UTF-8 text: {exc.reason}",
                                     path=path, line=lineno) from None
        raise InputError("not UTF-8 text", path=path) from None


def _csv_rows(fh: TextIO, path: Path) -> Iterator[tuple[int, list[str]]]:
    """(start line, row) per csv.reader row; a csv.Error, such as a field
    over the module's size limit, raises InputError at that row's line."""
    reader = csv.reader(fh)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}", path=path, line=line) from None


def parse_edges(path: str | Path) -> list[EdgeRecord]:
    path = Path(path)
    records = []
    ids: dict[str, str] = {}  # one string per account id, shared by its lines
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise InputError(f"expected 2 or 3 tab-separated fields, got {len(fields)}",
                                 path=path, line=lineno)
            target, source = fields[0], fields[1]
            if not target or not source:
                raise InputError("empty account id", path=path, line=lineno)
            count = 1
            if len(fields) == 3:
                try:
                    count = int(fields[2])
                except ValueError:
                    raise InputError(f"count {fields[2]!r} is not an integer",
                                     path=path, line=lineno) from None
            if count < 1:
                raise InputError(f"count must be >= 1, got {count}",
                                 path=path, line=lineno)
            records.append(EdgeRecord(ids.setdefault(target, target),
                                      ids.setdefault(source, source), count))
    return records


def parse_followership(path: str | Path) -> tuple[FollowershipMatrix, int]:
    """Read the followership CSV; returns the matrix and the number of
    all-zero rows that were dropped."""
    path = Path(path)
    with open_utf8(path, newline="") as fh:
        reader = _csv_rows(fh, path)
        _, header = next(reader, (1, None))
        if header is None:
            raise InputError("file is empty", path=path, line=1)
        if len(header) < 2 or header[0] != "account_id":
            raise InputError("header must be account_id followed by media labels",
                             path=path, line=1)
        media = tuple(header[1:])
        if len(set(media)) != len(media):
            raise InputError("duplicate media labels", path=path, line=1)
        accounts: list[str] = []
        seen: set[str] = set()
        rows: list[list[int]] = []
        dropped = 0
        for lineno, row in reader:
            if not row:
                continue
            if len(row) != len(media) + 1:
                raise InputError(f"expected {len(media) + 1} fields, got {len(row)}",
                                 path=path, line=lineno)
            acct = row[0]
            if not acct:
                raise InputError("empty account id", path=path, line=lineno)
            if acct in seen:
                raise InputError(f"duplicate account id {acct!r}",
                                 path=path, line=lineno)
            seen.add(acct)
            cells = []
            for j, cell in enumerate(row[1:], start=1):
                if cell not in ("0", "1"):
                    raise InputError(f"column {j} must be 0 or 1, got {cell!r}",
                                     path=path, line=lineno)
                cells.append(int(cell))
            if not any(cells):
                dropped += 1
                continue
            accounts.append(acct)
            rows.append(cells)
    entries = (np.array(rows, dtype=np.uint8) if rows
               else np.zeros((0, len(media)), dtype=np.uint8))
    return FollowershipMatrix(accounts=tuple(accounts), media=media,
                              entries=entries), dropped


def parse_tweets(path: str | Path) -> list[TweetRecord]:
    path = Path(path)
    out = []
    held: dict[str, str] = {}  # one string per account id and per text
    hold = held.setdefault
    scan = make_scanner(json.JSONDecoder())
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            # any fault here, the scanner's StopIteration included, is named below
            with suppress(StopIteration, LookupError, TypeError, ValueError, RecursionError):
                obj, end = scan(line, 0)
                account, utc, text = obj["account"], obj["utc"], obj["text"]
                if (end == len(line) and type(account) is type(text) is str and account
                        and text and datetime.fromisoformat(_UTC_RE.fullmatch(utc)[1])):
                    out.append(TweetRecord(hold(account, account), hold(text, text)))
                    continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # beyond JSONDecodeError: over-long integers, deep nesting
                raise InputError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                                 path=path, line=lineno) from None
            if not isinstance(obj, dict):
                raise InputError("each line must be a JSON object",
                                 path=path, line=lineno)
            for field in ("account", "utc", "text"):
                if field not in obj:
                    raise InputError(f"missing field {field!r}",
                                     path=path, line=lineno)
            for field, what in (("account", "account id"), ("text", "tweet text")):
                if not isinstance(obj[field], str):
                    raise InputError(f"{field!r} must be a string, got "
                                     f"{type(obj[field]).__name__}",
                                     path=path, line=lineno)
                if not obj[field]:
                    raise InputError(f"empty {what}", path=path, line=lineno)
                obj[field] = hold(obj[field], obj[field])
            try:  # TypeError: not a string, or not in the UTC_FORMAT form
                datetime.fromisoformat(_UTC_RE.fullmatch(obj["utc"])[1])
            except (TypeError, ValueError):
                raise InputError(f"utc {obj['utc']!r} does not match {UTC_FORMAT}",
                                 path=path, line=lineno) from None
            out.append(TweetRecord(obj["account"], obj["text"]))
    return out


def _table_rows(path: Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line, row) per data row of a CSV in the `header` layout. Blank and
    comment rows are skipped, and so is the first other row if it equals the
    whole header; each row must have the header's width and an id (first
    cell) not seen before."""
    seen: set[str] = set()
    with open_utf8(path, newline="") as fh:
        rows = ((lineno, row) for lineno, row in _csv_rows(fh, path)
                if row and not row[0].startswith("#"))
        for i, (lineno, row) in enumerate(rows):
            if i == 0 and tuple(row) == tuple(header):
                continue
            if len(row) != len(header):
                raise InputError(f"expected {','.join(header)}", path=path, line=lineno)
            if row[0] in seen:
                raise InputError(f"duplicate {header[0].replace('_', ' ')} {row[0]!r}",
                                 path=path, line=lineno)
            seen.add(row[0])
            yield lineno, row


def parse_partition_csv(path: str | Path) -> dict[str, int]:
    """node_id,community CSV into a mapping (comment lines allowed)."""
    path = Path(path)
    out: dict[str, int] = {}
    for lineno, (node, comm) in _table_rows(path, ("node_id", "community")):
        try:
            out[node] = int(comm)
        except ValueError:
            raise InputError(f"community {comm!r} is not an integer",
                             path=path, line=lineno) from None
    return out


def parse_scores_csv(path: str | Path) -> MediaScores:
    """account_id,score,class CSV back into MediaScores; each class must be
    the `sign_class` of its score, as `score_accounts` writes it."""
    path = Path(path)
    scores: dict[str, float] = {}
    classes: dict[str, str] = {}
    for lineno, (account, text, cls) in _table_rows(
            path, ("account_id", "score", "class")):
        try:
            score = float(text)
        except ValueError:
            raise InputError(f"score {text!r} is not a number",
                             path=path, line=lineno) from None
        if np.isinf(score):
            raise InputError(f"score {text!r} is infinite", path=path, line=lineno)
        if cls not in ("left", "right", "unclassified"):
            raise InputError(f"unknown class {cls!r}", path=path, line=lineno)
        if cls != sign_class(score):
            raise InputError(f"class {cls!r} contradicts score {text!r}",
                             path=path, line=lineno)
        scores[account] = score
        classes[account] = cls
    return MediaScores(scores=scores, classes=classes)


# ---------------------------------------------------------------------------
# Writers. Every file begins with a '# key=value ...' provenance comment so
# any output names the seed and parameters that produced it.
# ---------------------------------------------------------------------------


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence], provenance: str) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {provenance}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
