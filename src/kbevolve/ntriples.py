"""Line-oriented N-Triples parsing, batching, and serialization.

One statement per line, terminated by ``.``; ``#`` starts a comment; files
are UTF-8. Unicode escapes (``\\uXXXX``, ``\\UXXXXXXXX``: exactly 4 or 8
hex digits naming a code point that is not a surrogate) are decoded in
IRIs and literals, and the usual string escapes are decoded in literals;
any other backslash is a ``bad escape`` at its byte offset. Each term body
is scanned by one regex and decoded by one substitution. IRIs are
otherwise kept verbatim: no case folding, percent decoding, or resolution,
so distinct spellings stay distinct identifiers. ``Term`` rejects an empty
IRI, one starting with ``_:`` (a blank node's key), or one holding U+0000 to
U+0020, ``<``, ``>`` or ``\\``, raw or escaped (a ``bad iri`` at its ``<``),
so an IRI written back raw parses as itself.
Blank node labels are restricted to ``[A-Za-z0-9_-]+``.

Parsing is pure per line, so a malformed line can never corrupt the parse
of any other line. ``read_batch`` returns only what ``load_schema`` and
ingest read of each statement: (subject key, predicate, IRI object or None)
rows of plain strings, equal strings in one batch being one object. A key
is a term's value, so a blank node's starts with ``_:`` and an IRI's never
does; an object of None is a literal or a blank node. A line takes one of
two paths. The plain path accepts every statement whose terms are
separated by single spaces and which holds no lone surrogate: an IRI or
blank-node subject, and an IRI, blank-node or literal object, the literal
plain, tagged or datatyped, its escapes checked but not decoded. Its line
regex checks the statement's shape, an IRI body running to the next ``>``,
and ``read_batch`` checks each key the first time a batch sees it, as
``Term`` checks an IRI and for lone surrogates. A body holding a backslash
is decoded there, as escaped IRIs are, and the batch maps that spelling to
the decoded value. Every other line (tab-separated terms, runs of blanks,
trailing comments, comments, blank lines and errors) takes the scanner
core, ``_scan``, which reads the line's terms as strings and owns every
error category and offset: it returns the line's row, None for a comment
or blank line, or raises ``_Malformed``, so ``read_batch`` builds no
``Term`` and formats no message. ``parse_ntriple_line`` is the core's
adapter for ``synth``, tests and the library API: it builds the checked
``Term``s and ``Triple`` of the core's strings, and makes ``_Malformed`` a
``ParseError`` with the byte offset of the failure. The CLI opens files
with ``errors="surrogateescape"``, which keeps each byte that is not UTF-8
as a lone surrogate; a line holding one is a ``bad encoding`` error like
any other malformed line, so one bad byte cannot abort a run.

``Term`` and ``Triple`` are immutable tuples. Their constructors
(``Term(...)``, ``Triple(...)``, ``iri``, ``literal``, ``blank``, and the
tuple API's ``_make`` and ``_replace``) check every invariant above, and
``Triple`` also checks that its subject is not a literal and its
predicate is an IRI. The scanner core applies ``Term``'s IRI rule itself
(``_is_iri``), so the terms its adapter builds always pass those checks.
"""

from __future__ import annotations

import re
from codecs import raw_unicode_escape_decode, raw_unicode_escape_encode
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from kbevolve.errors import ParseError
from kbevolve.record import Record, checked_make

_IRI_FORBIDDEN = frozenset(map(chr, range(0x21))) | set("<>\\")
# Lone surrogates: how a file opened with errors="surrogateescape" carries
# bytes that are not UTF-8.
_SURROGATES = r"\ud800-\udfff"
_SURROGATE_RE = re.compile(f"[{_SURROGATES}]")
_BLANK_LABEL = r"[A-Za-z0-9_-]+"
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL)
_LANG_CHARS_RE = re.compile(r"[A-Za-z0-9-]*")
_LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_LANG_TAG_RE = re.compile(rf"{_LANG_TAG}\Z")
# A term's opening delimiter, its body (group 1: the longest prefix whose
# escapes are well formed) and its closing delimiter if the body reaches it
# (group 2); a body that stops short stops at a malformed escape.
_UCHAR = r"u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}"
_IRI_RE = re.compile(rf"<([^>\\]*(?:\\(?:{_UCHAR})[^>\\]*)*)(>?)")
_LITERAL_RE = re.compile(rf'''"([^"\\]*(?:\\(?:[tbnrf"'\\]|{_UCHAR})[^"\\]*)*)("?)''')
_ESCAPE_RE = re.compile(rf"\\({_UCHAR}|.)")
# A code-point escape that names neither a surrogate nor a code point above
# U+10FFFF, as the line regex's literal takes it.
_NOT_SURROGATE = r"(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}"
_CODE_POINT = rf"u{_NOT_SURROGATE}|U(?:0000{_NOT_SURROGATE}|00(?:0[1-9A-Fa-f]|10)[0-9A-Fa-f]{{4}})"
# The line regex checks only a statement's shape. Its groups are the
# subject's IRI body or blank-node key, the predicate's, the object's and the
# datatype's IRI bodies. An IRI body runs to the next ">", which sre scans
# far faster than a class of several characters, and never starts with
# "_:", so it never equals a blank node's key; read_batch checks each body
# the first time a batch sees it (_plain_key), or decodes it if it holds a
# backslash. A literal's escapes are checked here, as no row holds a
# literal, and its classes exclude the lone surrogates.
_PLAIN_LINE_RE = re.compile(
    rf"(?:<(?!_:)([^>]+)>|(_:{_BLANK_LABEL})) <(?!_:)([^>]+)> (?:<(?!_:)([^>]+)>|_:{_BLANK_LABEL}|"
    rf'''"[^"\\{_SURROGATES}]*(?:\\(?:[tbnrf"'\\]|{_CODE_POINT})[^"\\{_SURROGATES}]*)*"'''
    rf"(?:@{_LANG_TAG}|\^\^<(?!_:)([^>]+)>)?) \.(?:\r?\n)?"
)
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_LITERAL_ESCAPES = {c: f"\\u{c:04X}" for c in range(0x20)} | str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
)


def _is_iri(value: str) -> bool:
    """Term's IRI rule: not empty, not starting with a blank node's "_:",
    and holding none of U+0000 to U+0020, "<", ">" and "\\"."""
    return value != "" and value[:2] != "_:" and _IRI_FORBIDDEN.isdisjoint(value)


def _plain_key(key: str) -> bool:
    """Whether a group of the line regex is a key a row may hold: a blank
    node's key, as its label's class ensures, or an IRI body that Term
    accepts and that holds no lone surrogate. A printable string holds no
    surrogate and nothing below U+0021 but the blank, and an IRI body holds
    no ">" and never starts with "_:", so for one three searches decide."""
    if key.isprintable():
        return " " not in key and "<" not in key and "\\" not in key
    return _is_iri(key) and not _SURROGATE_RE.search(key)


class TermKind(Enum):
    IRI = "iri"
    LITERAL = "literal"
    BLANK_NODE = "blank"


class _TermFields(NamedTuple):
    kind: TermKind
    value: str
    language_tag: str | None = None
    datatype_iri: str | None = None


class Term(_TermFields):
    """One RDF term: IRI, literal, or blank node.

    Blank node values include the ``_:`` prefix. Language tag and datatype
    are literal-only and mutually exclusive.
    """

    __slots__ = ()

    def __new__(cls, kind, value, language_tag=None, datatype_iri=None):
        if kind is not TermKind.LITERAL:
            if language_tag is not None or datatype_iri is not None:
                raise ValueError("only literals carry a language tag or datatype")
        elif language_tag is not None and datatype_iri is not None:
            raise ValueError("language tag and datatype are mutually exclusive")
        if kind is TermKind.IRI and not _is_iri(value):
            raise ValueError(f"invalid IRI: {value!r}")
        if kind is TermKind.BLANK_NODE and (not value.startswith("_:") or len(value) == 2):
            raise ValueError(f"invalid blank node: {value!r}")
        return tuple.__new__(cls, (kind, value, language_tag, datatype_iri))

    _make = classmethod(checked_make)


def iri(value: str) -> Term:
    return Term(TermKind.IRI, value)


def literal(value: str, language_tag: str | None = None, datatype_iri: str | None = None) -> Term:
    return Term(TermKind.LITERAL, value, language_tag, datatype_iri)


def blank(label: str) -> Term:
    return Term(TermKind.BLANK_NODE, f"_:{label}")


class _TripleFields(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


class Triple(_TripleFields):
    __slots__ = ()

    def __new__(cls, subject, predicate, object):
        if predicate.kind is not TermKind.IRI:
            raise ValueError("predicate must be an IRI")
        if subject.kind is TermKind.LITERAL:
            raise ValueError("subject must not be a literal")
        return tuple.__new__(cls, (subject, predicate, object))

    _make = classmethod(checked_make)


class ParseReport(Record):
    """Per-batch line accounting.

    Comments and blank lines count as skipped; malformed lines are listed
    in ``errors`` as (line number, category), so
    ``lines_read == triples_emitted + lines_skipped + len(errors)``.
    """

    __slots__ = ("lines_read", "triples_emitted", "lines_skipped", "errors")

    def __init__(self, lines_read=0, triples_emitted=0, lines_skipped=0, errors=None):
        self.lines_read = lines_read
        self.triples_emitted = triples_emitted
        self.lines_skipped = lines_skipped
        self.errors: list[tuple[int, str]] = [] if errors is None else errors


class _Malformed(Exception):
    """A malformed line, as the scanner core reports it: the category, the
    position of the failure in the line and an optional detail, with no
    message formatted; parse_ntriple_line makes it a ParseError."""

    __slots__ = ("category", "pos", "detail")

    def __init__(self, category: str, pos: int, detail: str = ""):
        self.category, self.pos, self.detail = category, pos, detail


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t":
        i += 1
    return i


def _unescape(text: str, start: int, body: str) -> str:
    """Decode the escapes of a term body matched at text[start]; an escaped
    surrogate or a code point above U+10FFFF is a ``bad escape`` at its
    backslash."""

    def decode(m: re.Match) -> str:
        esc = m.group(1)
        if len(esc) == 1:
            return _ECHAR[esc]
        code = int(esc[1:], 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            raise _Malformed("bad escape", start + m.start(), "invalid code point")
        return chr(code)

    return _ESCAPE_RE.sub(decode, body)


def _read_iri(text: str, i: int) -> tuple[str, int]:
    m = _IRI_RE.match(text, i)
    body, closed = m.groups()
    # With no ">" left the IRI is unterminated, whatever its escapes hold.
    if not closed and text.find(">", m.end()) < 0:
        raise _Malformed("unterminated iri", i)
    value = _unescape(text, i + 1, body) if "\\" in body else body
    if not closed:
        raise _Malformed("bad escape", m.end())
    if not _is_iri(value):
        raise _Malformed("bad iri", i)
    return value, m.end()


def _read_literal(text: str, i: int) -> tuple[tuple[TermKind, str, str | None, str | None], int]:
    m = _LITERAL_RE.match(text, i)
    body, closed = m.groups()
    # Decoded first: an invalid code point before the stop is the error,
    # even in a literal that never closes.
    value = _unescape(text, i + 1, body) if "\\" in body else body
    k = m.end()
    if not closed:
        if k == len(text):
            raise _Malformed("unterminated literal", i)
        raise _Malformed("bad escape", k)
    language = datatype = None
    if text[k : k + 2] == "^^":
        if text[k + 2 : k + 3] != "<":
            raise _Malformed("bad datatype", k)
        datatype, k = _read_iri(text, k + 2)
    elif text[k : k + 1] == "@":
        tag = _LANG_CHARS_RE.match(text, k + 1).group()
        if not _LANG_TAG_RE.match(tag):
            raise _Malformed("bad language tag", k)
        language = tag
        k += 1 + len(tag)
    return (TermKind.LITERAL, value, language, datatype), k


def _read_term(text: str, i: int, role: str) -> tuple[tuple[TermKind, str, str | None, str | None], int]:
    """The fields of the Term at text[i], as Term takes them, and the
    position after it."""
    if i == len(text) or text[i] == ".":
        raise _Malformed(f"missing {role}", i)
    ch = text[i]
    if ch == '"' and role == "subject":
        raise _Malformed("literal in subject position", i)
    if role == "predicate" and ch != "<":
        raise _Malformed("bad predicate", i)
    if ch == "<":
        value, k = _read_iri(text, i)
        return (TermKind.IRI, value, None, None), k
    if ch == "_" and text[i + 1 : i + 2] == ":":
        m = _BLANK_LABEL_RE.match(text, i + 2)
        if m is None:
            raise _Malformed("bad blank node", i)
        return (TermKind.BLANK_NODE, text[i : m.end()], None, None), m.end()
    if ch == '"':
        return _read_literal(text, i)
    raise _Malformed(f"bad {role}", i)


def _scan(line: str) -> tuple[str, str, str | None, tuple[TermKind, str, str | None, str | None]] | None:
    """The scanner core: one physical line's row, (subject key, predicate,
    IRI object or None), and its object's fields as Term takes them; None
    for a blank or comment line. A malformed line, one holding a lone
    surrogate included, raises _Malformed."""
    if not line.isascii():
        bad = _SURROGATE_RE.search(line)
        if bad is not None:
            raise _Malformed("bad encoding", bad.start())
    text = line.rstrip("\r\n")
    i = _skip_ws(text, 0)
    if i == len(text) or text[i] == "#":
        return None
    (_, subject, _, _), i = _read_term(text, i, "subject")
    (_, predicate, _, _), i = _read_term(text, _skip_ws(text, i), "predicate")
    obj, i = _read_term(text, _skip_ws(text, i), "object")
    i = _skip_ws(text, i)
    if i == len(text) or text[i] != ".":
        raise _Malformed("missing dot", i)
    i = _skip_ws(text, i + 1)
    if i < len(text) and text[i] != "#":
        raise _Malformed("trailing garbage", i)
    return subject, predicate, obj[1] if obj[0] is TermKind.IRI else None, obj


def parse_ntriple_line(line: str) -> Triple | None:
    """Parse one physical line.

    Returns a Triple for a well-formed statement, None for blank and
    comment lines, and raises ParseError (with byte offset and category)
    for anything else, including a line that holds a lone surrogate.
    """
    try:
        scanned = _scan(line)
    except _Malformed as exc:
        raise ParseError(exc.category, len(line[: exc.pos].encode("utf-8")), exc.detail) from None
    if scanned is None:
        return None
    subject, predicate, _, obj = scanned
    kind = TermKind.BLANK_NODE if subject[:2] == "_:" else TermKind.IRI
    return Triple(Term(kind, subject), Term(TermKind.IRI, predicate), Term(*obj))


def _decoded_iri(body: str) -> str | None:
    """An IRI body of the line regex holding a backslash, with its escapes
    decoded in C; None for a short escape, a code point above U+10FFFF, or
    a value that holds a surrogate or that Term would reject as an IRI, as
    a backslash starting no escape stays in it: Term's rule is applied
    here, as building a Term costs more than the decode."""
    try:
        value = raw_unicode_escape_decode(raw_unicode_escape_encode(body)[0])[0]
    except UnicodeDecodeError:
        return None
    return value if _is_iri(value) and not _SURROGATE_RE.search(value) else None


def read_batch(
    stream: Iterable[str] | Iterator[str],
    batch_size: int,
    first_line_number: int = 1,
) -> tuple[list[tuple[str, str, str | None]], ParseReport]:
    """Consume up to batch_size lines and parse them into rows.

    Each row is triple_to_row of the line's triple, and equal strings in
    one batch's rows are one object. A line takes the plain path, else the
    scanner core, which reads comments and blank lines, the statements the
    plain path refuses, and every error, with no Term built and no message
    formatted. The plain path is the line regex, then a check of each key
    the batch has not seen yet: only checked keys are interned, so a key
    seen before needs none; a key holding a backslash is decoded there, and
    its spelling maps to the interned value. The batch unit is lines, not
    triples: malformed, blank, and comment lines all consume budget.
    Repeated calls on the same stream resume where the previous call
    stopped. An I/O failure while reading aborts the whole batch; the
    partial result is discarded and the error propagates.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rows: list[tuple[str, str, str | None]] = []
    errors: list[tuple[int, str]] = []
    skipped = 0
    strings: dict[str, str] = {}
    get, keep = strings.get, strings.setdefault

    def checked(key: str) -> str | None:
        if _plain_key(key):
            return keep(key, key)
        if "\\" in key and (value := _decoded_iri(key)) is not None:
            return keep(key, get(value) or keep(value, value))
        return None

    match = _PLAIN_LINE_RE.fullmatch
    number = first_line_number - 1
    for number, line in enumerate(islice(stream, batch_size), first_line_number):
        if (m := match(line)) is not None:
            s, b, p, o, d = m.groups()
            s = s or b
            if (
                (s := get(s) or checked(s))
                and (p := get(p) or checked(p))
                and (o is None or (o := get(o) or checked(o)))
                and (d is None or get(d) or checked(d))
            ):
                rows.append((s, p, o))
                continue
        try:
            scanned = _scan(line)
        except _Malformed as exc:
            errors.append((number, exc.category))
            continue
        if scanned is None:
            skipped += 1
            continue
        s, p, o, _ = scanned
        rows.append((get(s) or keep(s, s), get(p) or keep(p, p), o and (get(o) or keep(o, o))))
    lines_read = number - first_line_number + 1
    return rows, ParseReport(lines_read, len(rows), skipped, errors)


def triple_to_row(t: Triple) -> tuple[str, str, str | None]:
    """(subject key, predicate, object if it is an IRI, else None): all
    that load_schema and ingest read of a triple, a key being a Term's
    value."""
    s, p, o = t
    return s.value, p.value, o.value if o.kind is TermKind.IRI else None


def term_to_ntriples(term: Term) -> str:
    if term.kind is TermKind.IRI:
        return f"<{term.value}>"
    if term.kind is TermKind.BLANK_NODE:
        return term.value
    body = f'"{term.value.translate(_LITERAL_ESCAPES)}"'
    if term.language_tag is not None:
        return f"{body}@{term.language_tag}"
    if term.datatype_iri is not None:
        return f"{body}^^<{term.datatype_iri}>"
    return body


def triple_to_line(t: Triple) -> str:
    return (
        f"{term_to_ntriples(t.subject)} {term_to_ntriples(t.predicate)} "
        f"{term_to_ntriples(t.object)} ."
    )
