"""Line-oriented N-Triples parsing, batching, and serialization.

One statement per line, terminated by ``.``; ``#`` starts a comment; files
are UTF-8. Unicode escapes (``\\uXXXX``, ``\\UXXXXXXXX``: exactly 4 or 8
hex digits naming a code point that is not a surrogate) are decoded in
IRIs and literals, and the usual string escapes are decoded in literals;
any other backslash is a ``bad escape`` at its byte offset. Each term body
is scanned by one regex and decoded by one substitution. IRIs are
otherwise kept verbatim: no case folding, percent decoding, or resolution,
so distinct spellings stay distinct identifiers. ``Term`` rejects an empty
IRI or one holding U+0000 to U+0020, ``<``, ``>`` or ``\\``, raw or escaped
(a ``bad iri`` at its ``<``), so an IRI written back raw parses as itself.
Blank node labels are restricted to ``[A-Za-z0-9_-]+``.

Parsing is pure per line, so a malformed line can never corrupt the parse
of any other line, and parsed batches are immutable values. Within one
``read_batch`` call, each distinct IRI (keyed by its body as written), and
each plain literal on a line the line regex accepts, is decoded and
validated once, and every triple that uses it shares one ``Term``; an
escape-free IRI's key is its value, so its text is held once. Only terms
that parsed are cached, so a token that failed is scanned afresh wherever
it appears. The line regex accepts the escape-free, ASCII-only
``<s> <p> <o> .`` and ``<s> <p> "literal" .`` shapes; it never reports an
error, and every other line goes through the term scanners, which own every
error category and offset. The CLI opens files with
``errors="surrogateescape"``, which keeps each byte that is not UTF-8 as a
lone surrogate; a line holding one is a ``bad encoding`` error like any
other malformed line, so one bad byte cannot abort a run.

``Term`` and ``Triple`` are immutable tuples. Their public constructors
(``Term(...)``, ``Triple(...)``, ``iri``, ``literal``, ``blank``, and the
tuple API's ``_make`` and ``_replace``) check every invariant above, and
``Triple`` also checks that its subject is not a literal and its
predicate is an IRI. The parser builds a value without those checks only
where it has already established them: every term of a line the line
regex accepts (its IRI bodies exclude exactly what ``Term`` rejects, and
its literal has no tag or datatype), and every triple (the regex admits
only IRI subjects and predicates, and ``_read_term`` rejects a literal
subject and a non-IRI predicate). An IRI read by ``_read_iri`` keeps the
checked constructor, whose ``ValueError`` is its ``bad iri``.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from kbevolve.errors import ParseError
from kbevolve.record import Record, checked_make

_IRI_FORBIDDEN = frozenset(map(chr, range(0x21))) | set("<>\\")
# Lone surrogates: how a file opened with errors="surrogateescape" carries
# bytes that are not UTF-8.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9_-]+")
_LANG_CHARS_RE = re.compile(r"[A-Za-z0-9-]*")
_LANG_TAG_RE = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*\Z")
# A term's opening delimiter, its body (group 1: the longest prefix whose
# escapes are well formed) and its closing delimiter if the body reaches it
# (group 2); a body that stops short stops at a malformed escape.
_UCHAR = r"u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}"
_IRI_RE = re.compile(rf"<([^>\\]*(?:\\(?:{_UCHAR})[^>\\]*)*)(>?)")
_LITERAL_RE = re.compile(rf'''"([^"\\]*(?:\\(?:[tbnrf"'\\]|{_UCHAR})[^"\\]*)*)("?)''')
_ESCAPE_RE = re.compile(rf"\\({_UCHAR}|.)")
# The escape-free "<s> <p> <o> ." and '<s> <p> "literal" .' shapes; the
# groups are the subject, predicate and object IRI bodies, or the literal's
# body in place of the object's. Only ever tried on ASCII lines, so an IRI
# body excludes exactly what Term rejects.
_IRI_BODY = r"<([^<>\\\x00-\x20]+)>"
_PLAIN_LINE_RE = re.compile(rf'{_IRI_BODY} {_IRI_BODY} (?:{_IRI_BODY}|"([^"\\]*)") \.(?:\r?\n)?')
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_LITERAL_ESCAPES = {c: f"\\u{c:04X}" for c in range(0x20)} | str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
)


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
        if kind is TermKind.IRI and (not value or not _IRI_FORBIDDEN.isdisjoint(value)):
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


# The parser's constructors: no checks, one tuple of every field. Only for
# values whose invariants the parser has already established.
_new_term = partial(tuple.__new__, Term)
_new_triple = partial(tuple.__new__, Triple)


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


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _err(text: str, pos: int, category: str, detail: str = "") -> ParseError:
    return ParseError(category, _byte_offset(text, pos), detail)


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
            raise _err(text, start + m.start(), "bad escape", "invalid code point")
        return chr(code)

    return _ESCAPE_RE.sub(decode, body)


def _read_iri(text: str, i: int, iris: dict[str, Term]) -> tuple[Term, int]:
    m = _IRI_RE.match(text, i)
    body, closed = m.groups()
    if closed and (term := iris.get(body)) is not None:
        return term, m.end()
    # With no ">" left the IRI is unterminated, whatever its escapes hold.
    if not closed and text.find(">", m.end()) < 0:
        raise _err(text, i, "unterminated iri")
    value = _unescape(text, i + 1, body) if "\\" in body else body
    if not closed:
        raise _err(text, m.end(), "bad escape")
    try:
        term = iris[body] = Term(TermKind.IRI, value)
    except ValueError:
        raise _err(text, i, "bad iri") from None
    return term, m.end()


def _read_literal(text: str, i: int, iris: dict[str, Term]) -> tuple[Term, int]:
    m = _LITERAL_RE.match(text, i)
    body, closed = m.groups()
    # Decoded first: an invalid code point before the stop is the error,
    # even in a literal that never closes.
    value = _unescape(text, i + 1, body) if "\\" in body else body
    k = m.end()
    if not closed:
        if k == len(text):
            raise _err(text, i, "unterminated literal")
        raise _err(text, k, "bad escape")
    language = datatype = None
    if text[k : k + 2] == "^^":
        if text[k + 2 : k + 3] != "<":
            raise _err(text, k, "bad datatype")
        datatype_term, k = _read_iri(text, k + 2, iris)
        datatype = datatype_term.value
    elif text[k : k + 1] == "@":
        tag = _LANG_CHARS_RE.match(text, k + 1).group()
        if not _LANG_TAG_RE.match(tag):
            raise _err(text, k, "bad language tag")
        language = tag
        k += 1 + len(tag)
    return Term(TermKind.LITERAL, value, language, datatype), k


def _read_term(text: str, i: int, role: str, iris: dict[str, Term]) -> tuple[Term, int]:
    if i == len(text) or text[i] == ".":
        raise _err(text, i, f"missing {role}")
    ch = text[i]
    if ch == '"' and role == "subject":
        raise _err(text, i, "literal in subject position")
    if role == "predicate" and ch != "<":
        raise _err(text, i, "bad predicate")
    if ch == "<":
        return _read_iri(text, i, iris)
    if ch == "_" and text[i + 1 : i + 2] == ":":
        m = _BLANK_LABEL_RE.match(text, i + 2)
        if m is None:
            raise _err(text, i, "bad blank node")
        return Term(TermKind.BLANK_NODE, text[i : m.end()]), m.end()
    if ch == '"':
        return _read_literal(text, i, iris)
    raise _err(text, i, f"bad {role}")


def parse_ntriple_line(line: str) -> Triple | None:
    """Parse one physical line.

    Returns a Triple for a well-formed statement, None for blank and
    comment lines, and raises ParseError (with byte offset and category)
    for anything else, including a line that holds a lone surrogate.
    """
    return _parse_line(line, {}, {})


def _parse_line(line: str, iris: dict[str, Term], literals: dict[str, Term]) -> Triple | None:
    """parse_ntriple_line, sharing parsed terms through two caches: IRIs
    keyed by their body as written, plain literals by their body."""
    if line.isascii():
        m = _PLAIN_LINE_RE.fullmatch(line)
        if m is not None:
            s, p, o, lit = m.groups()
            get = iris.get
            return _new_triple(
                (
                    get(s) or iris.setdefault(s, _new_term((TermKind.IRI, s, None, None))),
                    get(p) or iris.setdefault(p, _new_term((TermKind.IRI, p, None, None))),
                    (get(o) or iris.setdefault(o, _new_term((TermKind.IRI, o, None, None))))
                    if lit is None
                    else (
                        literals.get(lit)
                        or literals.setdefault(lit, _new_term((TermKind.LITERAL, lit, None, None)))
                    ),
                )
            )
    else:
        bad = _SURROGATE_RE.search(line)
        if bad is not None:
            raise _err(line, bad.start(), "bad encoding")
    text = line.rstrip("\r\n")
    i = _skip_ws(text, 0)
    if i == len(text) or text[i] == "#":
        return None
    subject, i = _read_term(text, i, "subject", iris)
    i = _skip_ws(text, i)
    predicate, i = _read_term(text, i, "predicate", iris)
    i = _skip_ws(text, i)
    obj, i = _read_term(text, i, "object", iris)
    i = _skip_ws(text, i)
    if i == len(text) or text[i] != ".":
        raise _err(text, i, "missing dot")
    i = _skip_ws(text, i + 1)
    if i < len(text) and text[i] != "#":
        raise _err(text, i, "trailing garbage")
    return _new_triple((subject, predicate, obj))


def read_batch(
    stream: Iterable[str] | Iterator[str],
    batch_size: int,
    first_line_number: int = 1,
) -> tuple[list[Triple], ParseReport]:
    """Consume up to batch_size lines and parse them.

    The batch unit is lines, not triples: malformed, blank, and comment
    lines all consume budget. Repeated calls on the same stream resume
    where the previous call stopped. An I/O failure while reading aborts
    the whole batch; the partial result is discarded and the error
    propagates.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    triples: list[Triple] = []
    errors: list[tuple[int, str]] = []
    skipped = 0
    iris: dict[str, Term] = {}
    literals: dict[str, Term] = {}
    number = first_line_number - 1
    for number, line in enumerate(islice(stream, batch_size), first_line_number):
        try:
            parsed = _parse_line(line, iris, literals)
        except ParseError as exc:
            errors.append((number, exc.category))
            continue
        if parsed is None:
            skipped += 1
        else:
            triples.append(parsed)
    lines_read = number - first_line_number + 1
    return triples, ParseReport(lines_read, len(triples), skipped, errors)


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
