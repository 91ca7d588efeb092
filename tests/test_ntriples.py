"""Parser, batching, and serialization tests."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbevolve.errors import ParseError
from kbevolve.ntriples import (
    ParseReport,
    Term,
    TermKind,
    Triple,
    _parse_line,
    blank,
    iri,
    literal,
    parse_ntriple_line,
    read_batch,
    term_to_ntriples,
    triple_to_line,
)
from oracles import oracle_parse_line


class TestTermValidation:
    def test_iri_rejects_whitespace_and_brackets(self):
        for bad in ["", "a b", "a\tb", "a<b", "a>b", "a\\b", "a\x00b", "a\x01b", "a\nb", "a\rb", "a\x1fb"]:
            with pytest.raises(ValueError):
                iri(bad)
        assert iri("a!b\x7fé").value == "a!b\x7fé"

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
        triples, report = read_batch(iter(self.SEVEN_LINES), 50000)
        assert len(triples) == 5
        assert report.lines_read == 7
        assert report.triples_emitted == 5
        assert report.lines_skipped == 1
        assert report.errors == [(5, "missing dot")]
        assert report.lines_read == report.triples_emitted + report.lines_skipped + len(report.errors)

    def test_empty_stream(self):
        triples, report = read_batch(iter([]), 10)
        assert triples == []
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
        triples, report = read_batch(iter(lines), 10)
        assert [t.subject.value for t in triples] == ["http://ex/a", "http://ex/c"]
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
        triples, _ = read_batch(iter(lines), 10)
        assert len(triples) == 6
        assert all(t.subject is triples[0].subject for t in triples)
        assert all(t.predicate is triples[0].predicate for t in triples)

    def test_failed_token_is_never_shared(self):
        bad = "<http://ex/s> <http://ex/p> <a b> .\n"
        lines = [bad, "<http://ex/s> <http://ex/p> <http://ex/o> .\n", bad]
        _, report = read_batch(iter(lines), 10)
        assert report.errors == [(1, "bad iri"), (3, "bad iri")]
        iris = {}
        outcomes = [_outcome(lambda line: _parse_line(line, iris, {}), line) for line in lines]
        assert outcomes[0] == outcomes[2] == ("bad iri", 28)
        assert "a b" not in iris

    def test_escaped_and_plain_spellings_equal(self):
        lines = [
            "<http://ex/\\u0073> <http://ex/p> <http://ex/o> .\n",
            "<http://ex/s> <http://ex/p> <http://ex/o> .\n",
        ]
        triples, _ = read_batch(iter(lines), 10)
        assert triples[0].subject == triples[1].subject == iri("http://ex/s")

    def test_successive_batches_share_nothing(self):
        stream = iter(["<http://ex/s> <http://ex/p> <http://ex/o> .\n"] * 2)
        (first,), _ = read_batch(stream, 1)
        (second,), _ = read_batch(stream, 1)
        assert first == second
        assert first.subject is not second.subject


_IRI_TEXT = st.text(
    st.characters(
        min_codepoint=0x21,
        max_codepoint=0x2FF,
        blacklist_characters="<>\\",
    ),
    min_size=1,
    max_size=30,
)
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
_ESCAPES = st.sampled_from(["\\u0041", "\\uD800", "\\U00110000", "\\u-001", "\\q", '\\"'])
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
# piece that keeps its line off that regex.
_PLAIN_BODY = st.lists(st.sampled_from(["a", "b", "/", ":", "#", ".", "0"]), max_size=3).map("".join)
_AWKWARD_PIECE = st.sampled_from(
    ['"', "\r", "\t", " ", "<", ">", "é", "\ud800", "\\", "\\u0041", "\\n", '\\"']
)
_NEAR_BODY = st.tuples(_PLAIN_BODY, st.one_of(st.just(""), _AWKWARD_PIECE), _PLAIN_BODY).map("".join)
_NEAR_BODIES = st.tuples(_NEAR_BODY, _NEAR_BODY, _NEAR_BODY)
# Endings the regex accepts, then endings it leaves to the term scanners.
_ENDINGS = ("", "\n", "\r\n", "\r\r\n", " ", " #c")


def _near_plain_lines(bodies):
    """The plain-line shape over three bodies, with the object as an IRI and
    as a literal, and with every ending."""
    s, p, o = bodies
    return [f"<{s}> <{p}> {obj} .{end}" for obj in (f"<{o}>", f'"{o}"') for end in _ENDINGS]


class TestPlainLineShortcut:
    @given(_NEAR_BODIES)
    @settings(max_examples=1000)
    def test_same_triple_or_same_error(self, bodies):
        for line in _near_plain_lines(bodies):
            assert _outcome(parse_ntriple_line, line) == _outcome(oracle_parse_line, line)

    @given(st.lists(_NEAR_BODIES, max_size=3))
    @settings(max_examples=300)
    def test_batch_equals_line_by_line(self, line_bodies):
        lines = [line for bodies in line_bodies for line in _near_plain_lines(bodies)]
        expected_triples, expected = [], ParseReport(lines_read=len(lines))
        for number, line in enumerate(lines, 1):
            try:
                parsed = parse_ntriple_line(line)
            except ParseError as exc:
                expected.errors.append((number, exc.category))
                continue
            if parsed is None:
                expected.lines_skipped += 1
            else:
                expected_triples.append(parsed)
        expected.triples_emitted = len(expected_triples)
        assert read_batch(iter(lines), max(1, len(lines))) == (expected_triples, expected)
