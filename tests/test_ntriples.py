"""Parser, batching, and serialization tests."""

import io
from unittest.mock import ANY, patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbevolve.errors import ParseError
from kbevolve.ntriples import (
    _PLAIN_LINE_RE,
    _escaped_line_re,
    _escaped_row,
    ParseReport,
    Term,
    TermKind,
    Triple,
    blank,
    iri,
    literal,
    parse_ntriple_line,
    read_batch,
    term_to_ntriples,
    triple_to_line,
    triple_to_row,
)
from oracles import oracle_parse_line


class TestTermValidation:
    def test_iri_rejects_whitespace_and_brackets(self):
        for bad in ["", "_:a", "_:", "a b", "a\tb", "a<b", "a>b", "a\\b", "a\x00b", "a\x01b", "a\nb", "a\rb", "a\x1fb"]:
            with pytest.raises(ValueError):
                iri(bad)
        assert iri("a!b\x7fé").value == "a!b\x7fé"
        assert iri("_a").value == "_a" and iri("a_:b").value == "a_:b"

    def test_blank_requires_label(self):
        with pytest.raises(ValueError):
            Term(TermKind.BLANK_NODE, "_:")
        assert blank("b0").value == "_:b0"

    def test_literal_lang_and_datatype_exclusive(self):
        with pytest.raises(ValueError):
            Term(TermKind.LITERAL, "x", language_tag="en", datatype_iri="http://ex/dt")
        assert literal("x").language_tag is None

    def test_non_literal_carries_no_tag(self):
        with pytest.raises(ValueError):
            Term(TermKind.IRI, "http://ex/a", language_tag="en")

    def test_triple_shape(self):
        with pytest.raises(ValueError):
            Triple(literal("x"), iri("http://ex/p"), iri("http://ex/o"))
        with pytest.raises(ValueError):
            Triple(iri("http://ex/s"), blank("p"), iri("http://ex/o"))


class TestParseLine:
    def test_canonical_iri_triple(self):
        t = parse_ntriple_line("<http://ex/a> <http://ex/p> <http://ex/b> .")
        assert t == Triple(iri("http://ex/a"), iri("http://ex/p"), iri("http://ex/b"))

    def test_comment_and_blank_lines_skip(self):
        assert parse_ntriple_line("# comment") is None
        assert parse_ntriple_line("") is None
        assert parse_ntriple_line("   \t ") is None
        assert parse_ntriple_line("  # indented comment") is None

    def test_language_tagged_literal(self):
        t = parse_ntriple_line('<http://ex/a> <http://ex/p> "Kim"@ko .')
        assert t.object == literal("Kim", language_tag="ko")

    def test_datatype_literal(self):
        t = parse_ntriple_line('<http://ex/a> <http://ex/p> "5"^^<http://ex/int> .')
        assert t.object == literal("5", datatype_iri="http://ex/int")

    def test_blank_nodes(self):
        t = parse_ntriple_line("_:s <http://ex/p> _:o .")
        assert t.subject == blank("s")
        assert t.object == blank("o")

    def test_string_escapes_decoded(self):
        t = parse_ntriple_line('<http://ex/a> <http://ex/p> "a\\nb\\t\\"c\\\\" .')
        assert t.object.value == 'a\nb\t"c\\'

    def test_unicode_escapes_decoded(self):
        t = parse_ntriple_line('<http://ex/a> <http://ex/p> "\\u0041\\U0001F600" .')
        assert t.object.value == "A\U0001f600"

    def test_unicode_escape_in_iri(self):
        t = parse_ntriple_line("<http://ex/\\u00E9> <http://ex/p> <http://ex/b> .")
        assert t.subject.value == "http://ex/é"

    def test_trailing_comment_after_dot(self):
        t = parse_ntriple_line("<http://ex/a> <http://ex/p> <http://ex/b> . # note")
        assert t is not None

    def test_extra_whitespace_tolerated(self):
        t = parse_ntriple_line("  <http://ex/a>\t<http://ex/p>   <http://ex/b>  .  ")
        assert t is not None


class TestParseErrors:
    def _category(self, line):
        with pytest.raises(ParseError) as exc_info:
            parse_ntriple_line(line)
        return exc_info.value.category

    def test_missing_object(self):
        assert self._category("<http://ex/a> <http://ex/p> .") == "missing object"

    def test_missing_dot(self):
        assert self._category("<http://ex/a> <http://ex/p> <http://ex/b>") == "missing dot"

    def test_literal_subject(self):
        assert self._category('"x" <http://ex/p> <http://ex/b> .') == "literal in subject position"

    def test_bad_escape(self):
        assert self._category('<http://ex/a> <http://ex/p> "a\\qb" .') == "bad escape"

    def test_bad_unicode_escape(self):
        assert self._category('<http://ex/a> <http://ex/p> "\\u00G1" .') == "bad escape"
        assert self._category('<http://ex/a> <http://ex/p> "\\uD800" .') == "bad escape"

    @pytest.mark.parametrize(
        "line",
        [
            '<http://ex/a> <http://ex/p> "\\u+041" .',
            '<http://ex/a> <http://ex/p> "\\u 41 " .',
            '<http://ex/a> <http://ex/p> "\\u0_41" .',
            '<http://ex/a> <http://ex/p> "\\u\t110000" .',
            '<http://ex/a> <http://ex/p> "\\u-001" .',
            '<http://ex/a> <http://ex/p> "\\U-0000001" .',
            "<http://ex/a\\u+041> <http://ex/p> <http://ex/b> .",
        ],
    )
    def test_unicode_escape_digits_must_be_hex(self, line):
        with pytest.raises(ParseError) as exc_info:
            parse_ntriple_line(line)
        assert exc_info.value.category == "bad escape"
        assert exc_info.value.byte_offset == line.index("\\")

    @pytest.mark.parametrize(
        "line,offset",
        [
            ("<http://ex/a\\u005Cb> <http://ex/p> <http://ex/b> .", 0),
            ("<http://ex/a> <http://ex/p> <http://ex/n\\u000Ax> .", 28),
            ("<http://ex/a> <http://ex/p\x01> <http://ex/b> .", 14),
        ],
    )
    def test_iri_that_would_not_reload_is_bad_iri(self, line, offset):
        # A backslash or a control character, escaped or raw: written back
        # raw, it would not parse as the same IRI.
        with pytest.raises(ParseError) as exc_info:
            parse_ntriple_line(line)
        assert (exc_info.value.category, exc_info.value.byte_offset) == ("bad iri", offset)
        assert read_batch(iter([line + "\n"]), 1) == ([], ParseReport(1, 0, 0, [(1, "bad iri")]))

    @pytest.mark.parametrize(
        "line,offset",
        [
            ("<_:a> <http://ex/p> <http://ex/o> .", 0),
            ("<\\u005F:a> <http://ex/p> <http://ex/o> .", 0),
            ("<http://ex/s> <_:p> <http://ex/o> .", 14),
            ("<http://ex/s> <http://ex/p> <_:o> .", 28),
            ('<http://ex/s> <http://ex/p> "v"^^<_:d> .', 33),
        ],
    )
    def test_iri_spelled_as_blank_node_is_bad_iri(self, line, offset):
        # An IRI "_:a" would share the blank node _:a's instance key.
        for parse in (parse_ntriple_line, oracle_parse_line):
            with pytest.raises(ParseError) as exc_info:
                parse(line)
            assert (exc_info.value.category, exc_info.value.byte_offset) == ("bad iri", offset)
        assert read_batch(iter([line + "\n"]), 1) == ([], ParseReport(1, 0, 0, [(1, "bad iri")]))
        assert parse_ntriple_line(line.replace("_:", "_x:").replace("u005F:", "u005Fx:")) is not None

    def test_unterminated_iri(self):
        assert self._category("<http://ex/a <http://ex/p> <http://ex/b> .") == "bad iri"
        assert self._category("<http://ex/a") == "unterminated iri"

    def test_unterminated_literal(self):
        assert self._category('<http://ex/a> <http://ex/p> "open .') == "unterminated literal"

    def test_trailing_garbage(self):
        assert self._category("<http://ex/a> <http://ex/p> <http://ex/b> . <junk>") == "trailing garbage"

    def test_literal_predicate(self):
        assert self._category('<http://ex/a> "p" <http://ex/b> .') == "bad predicate"

    def test_bad_language_tag(self):
        assert self._category('<http://ex/a> <http://ex/p> "x"@9 .') == "bad language tag"

    def test_byte_offset_reported(self):
        with pytest.raises(ParseError) as exc_info:
            parse_ntriple_line("<http://ex/a> <http://ex/p> .")
        assert exc_info.value.byte_offset == 28

    @pytest.mark.parametrize(
        "raw,offset",
        [
            (b'<http://ex/a> <http://ex/p> "caf\xc3\xa9\xff\xfe" .', 34),
            (b"<http://ex/\x80> <http://ex/p> <http://ex/b> .", 11),
            (b"# comment \xff", 10),
        ],
    )
    def test_undecodable_byte_is_bad_encoding(self, raw, offset):
        with pytest.raises(ParseError) as exc_info:
            parse_ntriple_line(raw.decode("utf-8", errors="surrogateescape"))
        assert exc_info.value.category == "bad encoding"
        assert exc_info.value.byte_offset == offset

    def test_valid_non_ascii_literal_parses(self):
        raw = '<http://ex/a> <http://ex/p> "café" .'.encode("utf-8")
        t = parse_ntriple_line(raw.decode("utf-8", errors="surrogateescape"))
        assert t.object == literal("café")

    def test_determinism(self):
        line = "<http://ex/a> <http://ex/p> <http://ex/b> ."
        assert parse_ntriple_line(line) == parse_ntriple_line(line)


class TestReadBatch:
    SEVEN_LINES = [
        "<http://ex/a> <http://ex/p> <http://ex/b> .\n",
        "<http://ex/b> <http://ex/p> <http://ex/c> .\n",
        "# a comment\n",
        "<http://ex/c> <http://ex/p> <http://ex/d> .\n",
        "<http://ex/d> <http://ex/p> <http://ex/e>\n",
        "<http://ex/e> <http://ex/p> <http://ex/f> .\n",
        "<http://ex/f> <http://ex/p> <http://ex/g> .\n",
    ]

    def test_counting_contract(self):
        rows, report = read_batch(iter(self.SEVEN_LINES), 50000)
        assert len(rows) == 5
        assert report.lines_read == 7
        assert report.triples_emitted == 5
        assert report.lines_skipped == 1
        assert report.errors == [(5, "missing dot")]
        assert report.lines_read == report.triples_emitted + report.lines_skipped + len(report.errors)

    def test_empty_stream(self):
        rows, report = read_batch(iter([]), 10)
        assert rows == []
        assert report == ParseReport(0, 0, 0, [])

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            read_batch(iter([]), 0)

    def test_resumes_where_previous_stopped(self):
        stream = iter(self.SEVEN_LINES)
        first, r1 = read_batch(stream, 3)
        second, r2 = read_batch(stream, 10, first_line_number=1 + r1.lines_read)
        assert r1.lines_read == 3 and r2.lines_read == 4
        assert len(first) == 2 and len(second) == 3
        assert r2.errors == [(5, "missing dot")]

    def test_fault_isolation(self):
        lines = [
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n",
            "garbage line\n",
            "<http://ex/c> <http://ex/p> <http://ex/d> .\n",
        ]
        rows, report = read_batch(iter(lines), 10)
        assert [s for s, _, _ in rows] == ["http://ex/a", "http://ex/c"]
        assert len(report.errors) == 1

    def test_io_error_aborts_batch(self):
        def broken():
            yield "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
            raise OSError("disk gone")

        with pytest.raises(OSError):
            read_batch(broken(), 10)

    def test_line_batches_over_large_file(self, tmp_path):
        # Independent oracle: a plain line count over the same file.
        path = tmp_path / "large.nt"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(120000):
                fh.write(f"<http://ex/s{i}> <http://ex/p> <http://ex/o{i}> .\n")
        with open(path, encoding="utf-8") as fh:
            oracle_lines = sum(1 for _ in fh)
        assert oracle_lines == 120000
        consumed = []
        with open(path, encoding="utf-8") as fh:
            while True:
                _, report = read_batch(fh, 50000)
                if report.lines_read == 0:
                    break
                consumed.append(report.lines_read)
        assert consumed == [50000, 50000, 20000]
        assert sum(consumed) == oracle_lines

    def test_repeated_term_is_one_object(self):
        lines = [f"<http://ex/s> <http://ex/p> <http://ex/o{i}> .\n" for i in range(5)]
        lines.append('<http://ex/s>\t<http://ex/p> "v"@en .\n')
        rows, _ = read_batch(iter(lines), 10)
        assert len(rows) == 6
        assert all(s is rows[0][0] for s, _, _ in rows)
        assert all(p is rows[0][1] for _, p, _ in rows)

    def test_failed_token_is_never_shared(self):
        """A bad IRI body that the line regex matches, on two lines of one
        batch in each IRI position, makes both lines errors: a key that
        fails its check is never interned."""
        bad = "<http://ex/s> <http://ex/p> <a b> .\n"
        lines = [bad, "<http://ex/s> <http://ex/p> <http://ex/o> .\n", bad]
        _, report = read_batch(iter(lines), 10)
        assert report.errors == [(1, "bad iri"), (3, "bad iri")]
        for body in ["a b", "a<b", "a\\b", "a\tb", "a\x01b", "a\ud800b"]:
            for line in [
                f"<{body}> <http://ex/p> <http://ex/o> .\n",
                f"<http://ex/s> <{body}> <http://ex/o> .\n",
                f"<http://ex/s> <http://ex/p> <{body}> .\n",
                f'<http://ex/s> <http://ex/p> "v"^^<{body}> .\n',
            ]:
                assert _PLAIN_LINE_RE.fullmatch(line) is not None
                rows, report = read_batch(iter([line, line]), 2)
                assert (rows, report) == _parse_lines([line, line], 1)
                assert rows == [] and len(report.errors) == 2, line

    def test_escaped_and_plain_spellings_equal(self):
        lines = [
            "<http://ex/\\u0073> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <http://ex/o> .\n",
        ]
        rows, _ = read_batch(iter(lines), 10)
        assert rows[0][0] == rows[1][0] == "http://ex/s"
        assert rows[0][0] is rows[1][0]

    def test_successive_batches_share_nothing(self):
        stream = iter(["<http://ex/s> <http://ex/p> <http://ex/o> .\n"] * 2)
        (first,), _ = read_batch(stream, 1)
        (second,), _ = read_batch(stream, 1)
        assert first == second
        assert first[0] is not second[0]


_IRI_TEXT = st.text(
    st.characters(
        min_codepoint=0x21,
        max_codepoint=0x2FF,
        blacklist_characters="<>\\",
    ),
    min_size=1,
    max_size=30,
).filter(lambda s: not s.startswith("_:"))  # a blank node's key, not an IRI
_LITERAL_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), max_codepoint=0xFFFF), max_size=40
)
_LANG = st.from_regex(r"\A[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}\Z")
_BLANK = st.from_regex(r"\A[A-Za-z0-9_-]{1,12}\Z").map(blank)

_IRIS = _IRI_TEXT.map(iri)
_LITERALS = st.one_of(
    _LITERAL_TEXT.map(literal),
    st.tuples(_LITERAL_TEXT, _LANG).map(lambda p: literal(p[0], language_tag=p[1])),
    st.tuples(_LITERAL_TEXT, _IRI_TEXT).map(lambda p: literal(p[0], datatype_iri=p[1])),
)
_TRIPLES = st.builds(
    Triple,
    subject=st.one_of(_IRIS, _BLANK),
    predicate=_IRIS,
    object=st.one_of(_IRIS, _BLANK, _LITERALS),
)


class TestRoundTrip:
    @given(_TRIPLES)
    @settings(max_examples=200)
    def test_serialize_parse_round_trip(self, triple):
        assert parse_ntriple_line(triple_to_line(triple)) == triple

    def test_control_characters_round_trip(self):
        t = Triple(iri("http://ex/a"), iri("http://ex/p"), literal("a\x01b\nc"))
        line = triple_to_line(t)
        assert "\n" not in line.rstrip("\n")
        assert parse_ntriple_line(line) == t

    def test_term_serialization_forms(self):
        assert term_to_ntriples(iri("http://ex/a")) == "<http://ex/a>"
        assert term_to_ntriples(blank("b")) == "_:b"
        assert term_to_ntriples(literal("x", language_tag="ko")) == '"x"@ko'
        assert term_to_ntriples(literal("x", datatype_iri="http://ex/d")) == '"x"^^<http://ex/d>'

    def test_literal_escape_text_pinned(self):
        value = "".join(map(chr, range(0x20))) + "\\\"'é"
        assert term_to_ntriples(literal(value)) == (
            '"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\b\\t\\n\\u000B\\f\\r'
            "\\u000E\\u000F\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001A\\u001B\\u001C\\u001D\\u001E\\u001F"
            '\\\\\\"\'é"'
        )

    @given(st.lists(st.sampled_from(["valid", "comment", "blank", "bad"]), max_size=30))
    def test_accounting_is_exact(self, kinds):
        lines = {
            "valid": "<http://ex/a> <http://ex/p> <http://ex/b> .\n",
            "comment": "# c\n",
            "blank": "\n",
            "bad": "<http://ex/a> nope\n",
        }
        _, report = read_batch(iter([lines[k] for k in kinds]), max(1, len(kinds)))
        assert report.lines_read == report.triples_emitted + report.lines_skipped + len(report.errors)
        assert report.lines_read == len(kinds)

    def test_reparse_is_identical(self):
        stream = [
            "<http://ex/a> <http://ex/p> \"v\"@en .\n",
            "bad\n",
            "# c\n",
        ]
        first = read_batch(iter(stream), 10)
        second = read_batch(iter(stream), 10)
        assert first == second


# Lines assembled from the pieces a malformed escape or term is made of.
# Subjects and predicates are often well formed, so that most lines reach
# the object; objects are often literals that never close.
_PIECES = st.sampled_from(
    [
        "<", ">", '"', "\\", "u", "U", "0", "4", "a", "F", "D800", "110000", "g", "-", "+",
        " ", "\t", "^^", "@", "en", "_:", "b", "#", ".", "\ud800", "é",
    ]
)
# Escapes well formed and malformed: code points at the edges of the
# surrogates and of U+10FFFF, escaped characters an IRI forbids or that
# spell a blank node's "_:", a surrogate pair, backslashes before a raw
# character, and escaped backslashes before "u0041".
_ESCAPES = st.sampled_from(
    [
        "\\u0041", "\\uD7FF", "\\uD800", "\\uDFFF", "\\uE000", "\\U0000D800", "\\U0010FFFF", "\\U00110000",
        "\\u0020", "\\u003E", "\\u005C", "\\u005F:", "\\uD83D\\uDE00", "\\é", "\\中", "\\\\u0041",
        "\\\\\\u0041", "\\u-001", "\\q", '\\"',
    ]
)
_SOUP = st.lists(st.one_of(_PIECES, _ESCAPES), max_size=6).map("".join)
_OPENED = st.tuples(st.sampled_from(["<", '"', "_:"]), _SOUP, st.sampled_from([">", '"', ""])).map("".join)
_SEP = st.sampled_from(["", " ", "\t "])
_LINES = st.tuples(
    st.one_of(st.sampled_from(["<http://ex/s>", "_:s"]), _OPENED),
    _SEP,
    st.one_of(st.just("<http://ex/p>"), _OPENED),
    _SEP,
    st.one_of(
        st.sampled_from(["<http://ex/o>", "_:o", '"v"', '"v"@en', '"v"^^<http://ex/d>']),
        _OPENED,
        _SOUP.map(lambda body: '"' + body),
    ),
    _SEP,
    st.one_of(st.sampled_from([".", " .", ". # c"]), _SOUP),
).map("".join)


def _outcome(parse, line):
    try:
        return parse(line)
    except ParseError as exc:
        return exc.category, exc.byte_offset


class TestMatchesWalker:
    @given(_LINES)
    @settings(max_examples=1000)
    def test_same_triple_or_same_error(self, line):
        assert _outcome(parse_ntriple_line, line) == _outcome(oracle_parse_line, line)


# Term bodies for lines of the plain-line regex's shape. A body may hold one
# piece that keeps its line off the plain path, or one that is not printable
# and that the key check accepts by Term's rule (DEL, U+0085, U+00A0, U+2028).
_PLAIN_BODY = st.lists(st.sampled_from(["a", "b", "/", ":", "#", ".", "0", "_"]), max_size=3).map("".join)
_AWKWARD_PIECE = st.one_of(
    st.sampled_from(
        ['"', "\r", "\t", " ", "<", ">", "é", "\ud800", "\\", "\\n", "\x01", "\x7f", "\x85", "\xa0", "\u2028"]
    ),
    _ESCAPES,
)
_NEAR_BODY = st.tuples(_PLAIN_BODY, st.one_of(st.just(""), _AWKWARD_PIECE), _PLAIN_BODY).map("".join)
_NEAR_BODIES = st.tuples(_NEAR_BODY, _NEAR_BODY, _NEAR_BODY)
# Endings the line regex accepts, then endings it leaves to the
# escaped-line pattern or to the term scanners.
_ENDINGS = ("", "\n", "\r\n", "\r\r\n", " ", " #c", "\t# c\n", " # \udcff\n", " x\n")


def _near_plain_lines(bodies):
    """The line regex's shape over three bodies, with the subject as an IRI
    and as a blank node, the object as an IRI, a blank node and a plain,
    tagged and datatyped literal, and with every ending."""
    s, p, o = bodies
    return [
        f"{subj} <{p}> {obj} .{end}"
        for subj in (f"<{s}>", f"_:{s}")
        for obj in (f"<{o}>", f"_:{o}", f'"{o}"', f'"{o}"@en', f'"{o}"^^<{o}>')
        for end in _ENDINGS
    ]


class TestPlainLineShortcut:
    """On lines near the line regex's shape, the term scanners agree with
    the oracle, and read_batch, which takes the regex where it matches,
    agrees with the scanners."""

    @given(_NEAR_BODIES)
    @settings(max_examples=1000)
    def test_same_triple_or_same_error(self, bodies):
        for line in _near_plain_lines(bodies):
            assert _outcome(parse_ntriple_line, line) == _outcome(oracle_parse_line, line)

    def test_plain_path_accepts_the_iris_term_accepts(self):
        """In each IRI position, the datatype's included, an IRI body holding
        one ASCII character, a non-ASCII letter or one that is not printable
        (U+0085, U+00A0, U+2028), or starting "_:", takes the plain path
        exactly when Term accepts it, and then gives the term scanners' row.
        The line regex matches every such body but one holding ">" or
        starting "_:"; the check of a key leaves the rest (a blank, "<",
        "\\", a control character, or a lone surrogate, which the term
        scanners report as bad encoding) to the other paths."""
        lines = [
            "<{}> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <{}> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <{}> .\n",
            '<http://ex/s> <http://ex/p> "v"^^<{}> .\n',
        ]
        bodies = [f"a{chr(code)}b" for code in (*range(0x80), 0x85, 0xA0, 0x2028)]
        for body in bodies + ["_:b", "_b", "b_:", "aéb", "a中b", "a\ud800b"]:
            try:
                iri(body)
                accepted = "\ud800" not in body
            except ValueError:
                accepted = False
            for line in lines:
                line = line.format(body)
                matched = _PLAIN_LINE_RE.fullmatch(line) is not None
                assert matched == (">" not in body and body[:2] != "_:"), (body, line)
                expected = _parse_lines([line], 1)
                assert read_batch(iter([line]), 1) == expected
                assert _plain_rows([line]) == (expected[0] if accepted else []), (body, line)

    def test_escaped_iris_decode_to_the_iris_term_accepts(self):
        """In each IRI position, an IRI body holding one escaped ASCII
        character, non-ASCII letter, code point at the edge of the
        surrogates or of U+10FFFF, or an escaped leading "_:", gives the
        row of the term scanners' triple exactly when its value is one Term
        accepts; otherwise read_batch leaves the line to the scanners, which
        reject it. The plain path decodes the body, so on these single-spaced
        lines it gives that row itself; the escaped-line pattern, which
        other line shapes take, decodes and checks the body alike."""
        lines = [
            "<{}> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <{}> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <{}> .\n",
            '<http://ex/s> <http://ex/p> "v"^^<{}> .\n',
        ]
        codes = [*range(0x80), 0xE9, 0x4E2D, 0xD7FF, 0xD800, 0xDFFF, 0xE000, 0x10FFFF, 0x110000]
        escaped = [f"a\\u{code:04X}b" for code in codes if code <= 0xFFFF] + [f"a\\U{code:08X}b" for code in codes]
        for body in escaped + ["\\u005F:b", "_\\u003Ab", "\\u005Fb"]:
            try:
                value = body.encode().decode("unicode_escape")
                iri(value)
                accepted = not any(0xD800 <= ord(c) <= 0xDFFF for c in value)
            except ValueError:
                accepted = False
            for line in lines:
                line = line.format(body)
                expected = _parse_lines([line], 1)
                assert _plain_rows([line]) == (expected[0] if accepted else []), (body, line)
                assert read_batch(iter([line]), 1) == expected
                assert (expected[0] != []) == accepted, (body, line)
                assert (_escaped_row(line) is not None) == accepted, (body, line)

    @given(st.lists(_NEAR_BODIES, max_size=3))
    @settings(max_examples=300)
    def test_batch_equals_line_by_line(self, line_bodies):
        lines = [line for bodies in line_bodies for line in _near_plain_lines(bodies)]
        assert read_batch(iter(lines), max(1, len(lines))) == _parse_lines(lines, 1)


def _plain_rows(lines):
    """The rows read_batch gives lines in one batch with the escaped-line
    pattern and the term scanners shut off: those of the lines that take the
    plain path, the line regex and the check of each key the batch has not
    seen yet, which decodes a key holding a backslash."""
    with patch("kbevolve.ntriples._escaped_row", return_value=None), patch(
        "kbevolve.ntriples.parse_ntriple_line", side_effect=ParseError("shut off", 0)
    ):
        rows, _ = read_batch(iter(lines), max(1, len(lines)))
    return rows


def _parse_lines(lines, first_line_number):
    """The rows and report of lines parsed one by one by parse_ntriple_line,
    the first being numbered first_line_number."""
    rows, report = [], ParseReport(lines_read=len(lines))
    for number, line in enumerate(lines, first_line_number):
        try:
            parsed = parse_ntriple_line(line)
        except ParseError as exc:
            report.errors.append((number, exc.category))
            continue
        if parsed is None:
            report.lines_skipped += 1
        else:
            rows.append(triple_to_row(parsed))
    report.triples_emitted = len(rows)
    return rows, report


def _parsed_values(lines):
    """Every triple that parse_ntriple_line returns for lines."""
    values = []
    for line in lines:
        try:
            values.append(parse_ntriple_line(line))
        except ParseError:
            pass
    return [v for v in values if v is not None]


def _assert_checked_constructors_agree(triples):
    for t in triples:
        assert type(t) is Triple
        assert Triple(*t) == t
        for term in t:
            assert type(term) is Term
            assert Term(*term) == term


class TestParsedValues:
    """Each triple the parser returns is a value the checked constructors
    accept, and equals and hashes like one built through them."""

    @given(_LINES)
    @settings(max_examples=1000)
    def test_walker_lines(self, line):
        _assert_checked_constructors_agree(_parsed_values([line]))

    @given(_NEAR_BODIES)
    @settings(max_examples=1000)
    def test_near_plain_lines(self, bodies):
        _assert_checked_constructors_agree(_parsed_values(_near_plain_lines(bodies)))

    # Lines of the line regex's shape, and tab-separated ones off it.
    LINES = [
        '<http://ex/a> <http://ex/p> "v" .\n',
        '<http://ex/a>\t<http://ex/p> "v" .\n',
        "<http://ex/a> <http://ex/p> <http://ex/o> .\n",
        "<http://ex/a>\t<http://ex/p> <http://ex/o> .\n",
    ]

    @pytest.mark.parametrize("line", LINES)
    def test_immutable(self, line):
        t = parse_ntriple_line(line)
        with pytest.raises(AttributeError):
            t.subject = iri("http://ex/b")
        with pytest.raises(AttributeError):
            t.subject.value = "http://ex/b"
        with pytest.raises(AttributeError):
            t.object.value = "w"

    @pytest.mark.parametrize("line", LINES)
    def test_equal_and_hash_like_built_values(self, line):
        t = parse_ntriple_line(line)
        built = Triple(
            iri("http://ex/a"),
            iri("http://ex/p"),
            literal("v") if '"' in line else iri("http://ex/o"),
        )
        assert t == built and hash(t) == hash(built)
        for term, built_term in zip(t, built):
            assert term == built_term and hash(term) == hash(built_term)
        assert {built.subject: 1}[t.subject] == 1

    def test_tuple_api_keeps_the_checks(self):
        with pytest.raises(ValueError):
            iri("http://ex/a")._replace(value="a b")
        with pytest.raises(ValueError):
            Term._make((TermKind.BLANK_NODE, "_:"))
        t = Triple(iri("http://ex/s"), iri("http://ex/p"), literal("x"))
        with pytest.raises(ValueError):
            t._replace(subject=literal("x"))
        with pytest.raises(ValueError):
            Triple._make((iri("http://ex/s"), blank("p"), iri("http://ex/o")))


# One line for each parser error category.
ERROR_LINES = {
    "missing subject": " .\n",
    "missing predicate": "<http://ex/s> .\n",
    "missing object": "<http://ex/s> <http://ex/p> .\n",
    "bad subject": "x <http://ex/p> <http://ex/o> .\n",
    "bad predicate": "<http://ex/s> _:p <http://ex/o> .\n",
    "bad object": "<http://ex/s> <http://ex/p> x .\n",
    "literal in subject position": '"v" <http://ex/p> <http://ex/o> .\n',
    "bad blank node": "_:! <http://ex/p> <http://ex/o> .\n",
    "bad datatype": '<http://ex/s> <http://ex/p> "v"^^x .\n',
    "bad language tag": '<http://ex/s> <http://ex/p> "v"@1 .\n',
    "bad escape": '<http://ex/s> <http://ex/p> "\\q" .\n',
    "bad iri": "<_:a> <http://ex/p> <http://ex/o> .\n",
    "bad encoding": "<http://ex/s\udcff> <http://ex/p> <http://ex/o> .\n",
    "unterminated iri": "<http://ex/s\n",
    "unterminated literal": '<http://ex/s> <http://ex/p> "v\n',
    "missing dot": "<http://ex/s> <http://ex/p> <http://ex/o>\n",
    "trailing garbage": "<http://ex/s> <http://ex/p> <http://ex/o> . x\n",
}
# Statements over a few terms, so that strings repeat within a batch: escaped
# and plain spellings of one IRI, blank nodes, non-ASCII IRIs, IRIs whose
# escapes name a code point out of range or a character an IRI forbids, and
# literals plain, escaped, tagged, datatyped and holding a lone surrogate or
# an escape at the edge of the code points. Terms are separated by blanks
# and tabs, after optional leading blanks, and a comment may follow the dot.
_ROW_SUBJECTS = [
    "<http://ex/s>", "<http://ex/\\u0073>", "<http://ex/o>", "_:b", "<http://ex/é>", "<http://ex/\\u00E9>",
    "<\\u005F:b>", "<http://ex/\\uD800>",
]
_ROW_PREDICATES = [
    "<http://ex/p>", "<http://ex/\\u0070>", "<http://ex/q>", "<http://ex/\\U00000070>", "<http://ex/\\u0020>",
]
_ROW_OBJECTS = _ROW_SUBJECTS + [
    '"v"', '"v\\n"', '"é"', '"v"@en', '"v"^^<http://ex/d>', '"\udcff"', "<_:a>", "<http://ex/\\U0010FFFF>",
    "<http://ex/\\U00110000>", "<http://ex/\\u003E>", "<http://ex/\\u005C>", "<http://ex/\\uD83D\\uDE00>",
    '"\\uD7FF\\uE000\\U0010FFFF"', '"\\uDFFF"', '"\\U0000D800"', '"\\U00110000"', '"\\\\u0041\\\\\\u0041"',
    '"\\é"', "<http://ex/\\中>", '"v"^^<http://ex/\\u0064>', '"v"^^<http://ex/\\u003E>',
]
_SEPARATORS = [" ", "\t", "  \t"]
_STATEMENTS = st.tuples(
    st.sampled_from(["", " \t"]),
    st.sampled_from(_ROW_SUBJECTS),
    st.sampled_from(_SEPARATORS),
    st.sampled_from(_ROW_PREDICATES),
    st.sampled_from(_SEPARATORS),
    st.sampled_from(_ROW_OBJECTS),
    st.sampled_from([" .\n", " .", ".\n", " . # c\n", " .\r\n", "\t.\t#\tc\r\n", " . # \udcff\n", " .\r\r\n"]),
).map("".join)
_ROW_LINES = st.one_of(
    _STATEMENTS,
    st.sampled_from([*ERROR_LINES.values(), "# c\n", "\n", " \t\n"]),
    _LINES,
)


class TestReadRows:
    @pytest.mark.parametrize("category", sorted(ERROR_LINES))
    def test_error_line_category(self, category):
        line = ERROR_LINES[category]
        expected = ParseReport(1, 0, 0, [(7, category)])
        assert read_batch(iter([line]), 1, 7) == ([], expected)

    @given(st.lists(_ROW_LINES, max_size=25), st.integers(1, 10), st.integers(1, 100))
    @settings(max_examples=500)
    def test_rows_are_lines_parsed_one_by_one(self, lines, batch_size, first_line_number):
        """Batch by batch over one stream, read_batch returns the rows of
        parse_ntriple_line's triples, one object per distinct string, and
        the report of those lines parsed one by one."""
        stream = iter(lines)
        number = first_line_number
        for start in range(0, len(lines) + 1, batch_size):
            rows, report = read_batch(stream, batch_size, number)
            assert (rows, report) == _parse_lines(lines[start : start + batch_size], number)
            shared = {}
            assert all(shared.setdefault(v, v) is v for row in rows for v in row if v is not None)
            number += report.lines_read

    def test_new_line_shapes_take_the_escaped_line_pattern(self):
        """Escaped IRIs, literal escapes, blank and tab runs and trailing
        comments give their row without the term scanners. The escaped-line
        pattern matches and decodes every one, but a single-spaced line
        whose only escapes are in IRIs gives its row from the plain path,
        which decodes them; the others miss the line regex and take the
        pattern."""
        iri_escapes = [
            "<http://ex/\\u0073> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/\\U00000070> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <http://ex/\\u00E9\\U0001F600> .\n",
            '<http://ex/s> <http://ex/p> "v"^^<http://ex/\\u0064> .\n',
        ]
        lines = iri_escapes + [
            '_:b <http://ex/p> "\\uD7FF\\uE000\\U0010FFFF\\n\\t\\"\\\\\\\\u0041\\\\\\u0041"@en .\n',
            "<http://ex/s>\t<http://ex/p>\t_:o\t.\n",
            " \t<http://ex/s>  <http://ex/p>   <http://ex/o>  .  \r\r\n",
            "<http://ex/s><http://ex/p><http://ex/o>.\n",
            '<http://ex/s> <http://ex/p> "é" . # a comment\n',
            "<http://ex/s> <http://ex/p> <http://ex/o> .\t#\n",
        ]
        for line in lines:
            assert _escaped_line_re().fullmatch(line) is not None, line
            (row,), _ = _parse_lines([line], 1)
            assert _plain_rows([line]) == ([row] if line in iri_escapes else []), line
            assert _escaped_row(line) == row, line

    @pytest.mark.parametrize(
        "line",
        [
            *ERROR_LINES.values(),
            "<http://ex/s> <http://ex/p> <http://ex/o> . # \udcff\n",
            '<http://ex/s>\t<http://ex/p> "\udcff" .\n',
            "<\\u005F:x> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/a\\u0020b> <http://ex/o> .\n",
            '<http://ex/s> <http://ex/p> "\\uD800" .\n',
            '<http://ex/s> <http://ex/p> "\\U0000DFFF" .\n',
            "<http://ex/\\U00110000> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <http://ex/\\uD83D\\uDE00> .\n",
            "<http://ex/\\中> <http://ex/p> <http://ex/o> .\n",
            '<http://ex/s> <http://ex/p> "\\é" .\n',
        ],
    )
    def test_errors_take_the_term_scanners(self, line):
        """A malformed line, or one holding a lone surrogate, takes neither
        pattern's path: the term scanners report it."""
        assert _plain_rows([line]) == []
        assert _escaped_row(line) is None
        assert _parse_lines([line], 1)[1].errors == [(1, ANY)]

    def test_an_iri_spelling_a_seen_blank_key_is_a_bad_iri(self):
        """An IRI body that spells a blank node's key never matches the key
        the batch interned for that blank node."""
        for line in [
            "<_:b> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <_:b> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <_:b> .\n",
            '<http://ex/s> <http://ex/p> "v"^^<_:b> .\n',
        ]:
            rows, report = read_batch(iter(['_:b <http://ex/p> "v" .\n', line]), 2)
            assert rows == [("_:b", "http://ex/p", None)]
            assert report.errors == [(2, "bad iri")]

    def test_plain_lines_never_compile_the_escaped_line_pattern(self, monkeypatch):
        def compile_pattern():
            raise AssertionError("escaped-line pattern compiled")

        monkeypatch.setattr("kbevolve.ntriples._escaped_line_re", compile_pattern)
        lines = [
            "<http://ex/s> <http://ex/p> <http://ex/o> .\n",
            '_:b <http://ex/p> "v" .\n',
            "<http://ex/é> <http://ex/p> _:o .\r\n",
            '<http://ex/s> <http://ex/中> "v"@en-GB .',
            '<http://ex/s> <http://ex/p> "v"^^<http://ex/d> .\n',
            "<http://ex/\\u0073> <http://ex/\\U00000070> <http://ex/\\u00E9> .\n",
        ]
        rows, report = read_batch(iter(lines), 10)
        assert len(rows) == report.lines_read == 6
        for needs_pattern in [
            '<http://ex/s> <http://ex/p> "v\\n" .\n',
            "<http://ex/s>\t<http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <http://ex/o> . # c\n",
        ]:
            with pytest.raises(AssertionError, match="compiled"):
                read_batch(iter([needs_pattern]), 1)

    def test_equal_strings_are_one_object(self):
        lines = [
            "<http://ex/s> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/\\u0073> <http://ex/p> _:b .\n",
            '<http://ex/o> <http://ex/p> "v"@en .\n',
            "_:b\t<http://ex/p> <http://ex/s> .\n",
        ]
        rows, _ = read_batch(iter(lines), 10)
        assert rows == [
            ("http://ex/s", "http://ex/p", "http://ex/o"),
            ("http://ex/s", "http://ex/p", None),
            ("http://ex/o", "http://ex/p", None),
            ("_:b", "http://ex/p", "http://ex/s"),
        ]
        assert rows[0][0] is rows[1][0] is rows[3][2]
        assert rows[0][2] is rows[2][0]
        assert all(row[1] is rows[0][1] for row in rows)

    def test_an_escaped_spelling_and_the_plain_one_are_one_object(self):
        """The plain path maps an escaped spelling to its decoded value, so
        the spelling seen twice and the plain one give one string object,
        whichever comes first."""
        escaped = "<http://ex/\\u0073> <http://ex/\\u0070> <http://ex/\\u006F> .\n"
        plain = "<http://ex/o> <http://ex/p> <http://ex/s> .\n"
        for lines in ([escaped, escaped, plain], [plain, escaped, escaped]):
            rows = _plain_rows(lines)
            forward, back = ("http://ex/s", "http://ex/p", "http://ex/o"), ("http://ex/o", "http://ex/p", "http://ex/s")
            assert sorted(rows) == [back, forward, forward]
            strings = {}
            assert all(strings.setdefault(v, v) is v for row in rows for v in row)

    @pytest.mark.parametrize("escape", ["\\u003E", "\\u0020", "\\U00000020", "\\uD800", "\\U00110000"])
    def test_escaped_bodies_term_rejects_keep_their_error(self, escape):
        """An escaped IRI body whose value Term rejects, or that names a
        surrogate or a code point above U+10FFFF, ends as the error the term
        scanners give that line alone, on the same line, in every IRI
        position and on each of its repeats; a leading escaped "_:" too."""
        bodies = [f"http://ex/a{escape}b", "\\u005F:b", f"\\u005F\\u003A{escape}"]
        positions = [
            "<{}> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <{}> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <{}> .\n",
            '<http://ex/s> <http://ex/p> "v"^^<{}> .\n',
        ]
        good = "<http://ex/s> <http://ex/p> <http://ex/o> .\n"
        for body in bodies:
            for position in positions:
                bad = position.format(body)
                lines = [good, bad, good, bad]
                rows, report = read_batch(iter(lines), 4, 3)
                expected_rows, expected = _parse_lines(lines, 3)
                assert (rows, report) == (expected_rows, expected)
                (_, category), = _parse_lines([bad], 1)[1].errors
                assert report.errors == [(4, category), (6, category)], bad
                assert _plain_rows([bad]) == []
