import pytest
from hypothesis import given, settings, strategies as st

from beibounds.errors import ParseError
from beibounds.generators import all_labeled, complete, gnp, net, path, sierpinski, union
from beibounds.cli import parse_graph_text
from beibounds.graphio import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from beibounds.graphs import Graph

from brute import ref_encode_graph6


def test_k2_encodes_to_known_string():
    assert encode_graph6(complete(2)) == "A_"


def test_single_vertex_encodes_header_only():
    assert encode_graph6(Graph.from_edge_list(1, [])) == "@"


def test_net_round_trip():
    assert decode_graph6(encode_graph6(net())) == net()


def test_round_trip_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled(n):
            assert decode_graph6(encode_graph6(g)) == g


def test_long_form_round_trip():
    g = gnp(100, 1, 4, 9)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert decode_graph6(s) == g


def test_many_component_round_trip():
    """Decoding is linear in the body: 1,000 disjoint K2 make a body of
    about 333,000 bytes."""
    g = union([complete(2)] * 1000)
    assert decode_graph6(encode_graph6(g)) == g


@given(st.integers(1, 70), st.integers(0, 2 ** 40 - 1))
@settings(max_examples=150, deadline=None)
def test_round_trip_random_graphs(n, seed):
    g = gnp(n, 1, 2, seed)
    assert decode_graph6(encode_graph6(g)) == g


def _assert_codec_matches_reference(g):
    text = ref_encode_graph6(g)
    assert encode_graph6(g) == text, g
    assert decode_graph6(text) == g, text


def test_codec_matches_the_bit_reference_on_every_labeled_graph_n6():
    for n in range(7):
        for g in all_labeled(n):
            _assert_codec_matches_reference(g)


@pytest.mark.parametrize("n, p_num", [(n, p) for n in (61, 62, 63, 64) for p in (0, 1, 2, 3, 4)]
                         + [(300, 1), (300, 2)])
def test_codec_matches_the_bit_reference_on_gnp(n, p_num):
    """The short form ends at n = 62; the long form starts at 63."""
    _assert_codec_matches_reference(gnp(n, p_num, 4, n + p_num))


@pytest.mark.parametrize("level", [5, 6])
def test_codec_matches_the_bit_reference_on_sierpinski(level):
    """561 and 2,145 vertices, sparse: a body of 26,180 and 383,306 bytes."""
    _assert_codec_matches_reference(sierpinski(level))


def _nx_graph6(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_matches_networkx_encoding():
    for g in [net(), path(7), complete(6), gnp(30, 1, 3, 4), gnp(70, 1, 5, 8)]:
        assert encode_graph6(g) == _nx_graph6(g)


def test_decode_rejects_truncated_body():
    with pytest.raises(ParseError):
        decode_graph6("D")  # n=5 needs 2 body bytes


def test_decode_rejects_bad_byte():
    with pytest.raises(ParseError) as err:
        decode_graph6("B" + chr(30))
    assert err.value.offset is not None


@pytest.mark.parametrize("text, message, offset", [
    ("~~??????", "258047 vertices", 1),  # the 6-byte-count form
    ("~??", "truncated graph6 long-form header", 3),
    ("~\x7f??", "invalid graph6 header byte", 1),
    ("D_\x7f", "invalid graph6 body byte", 2),
])
def test_decode_error_names_its_offset(text, message, offset):
    with pytest.raises(ParseError, match=message) as err:
        decode_graph6(text)
    assert err.value.offset == offset


def test_decode_rejects_non_canonical_strings():
    # set padding bits, and the long form for n <= 62, all spelling K2
    assert decode_graph6("A_") == complete(2)
    for text, offset in (("A~", 1), ("Aa", 1), ("~??A_", 0)):
        with pytest.raises(ParseError) as err:
            decode_graph6(text)
        assert err.value.offset == offset


def test_decode_rejects_non_ascii_with_offset():
    with pytest.raises(ParseError) as err:
        decode_graph6("é")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        decode_graph6("B_\u2603")
    assert err.value.offset == 2


def test_encode_rejects_more_vertices_than_graph6_holds():
    with pytest.raises(ValueError, match="at most 258047 vertices"):
        encode_graph6(Graph(258048, (0,) * 258048))


def test_parse_edge_list_rejects_counts_graph6_cannot_hold():
    with pytest.raises(ParseError) as err:
        parse_edge_list("# too big\n258048\n0 1\n")
    assert err.value.line == 2
    assert parse_edge_list("258047\n").n == 258047


# small vertex counts only: a valid count line allocates that many rows
_EDGE_TEXT = st.lists(
    st.one_of(
        st.integers(-3, 12).map(str),
        st.tuples(st.integers(-2, 14), st.integers(-2, 14)).map(lambda p: f"{p[0]} {p[1]}"),
        st.text(alphabet="0123456789 #-x\t", max_size=8),
    ),
    max_size=8,
).map("\n".join)


@st.composite
def _graph6_text(draw):
    """A short- or long-form header and a body of about the length it
    asks for, from bytes around the printable range of graph6."""
    n = draw(st.integers(0, 14))
    size = max(0, (n * (n - 1) // 2 + 5) // 6 + draw(st.sampled_from([0, 0, 0, -1, 1])))
    head = draw(st.sampled_from([chr(n + 63), "~??" + chr(n + 63)]))
    alphabet = st.characters(min_codepoint=60, max_codepoint=128)
    return head + draw(st.text(alphabet=alphabet, min_size=size, max_size=size))


@given(st.one_of(st.text(max_size=40), _EDGE_TEXT, _graph6_text()))
@settings(max_examples=400, deadline=None)
def test_any_text_parses_or_raises_parse_error(text):
    for parse in (decode_graph6, parse_edge_list, parse_graph_text):
        try:
            parse(text)
        except ParseError:
            pass
    try:
        g = decode_graph6(text)
    except ParseError:
        pass
    else:
        assert encode_graph6(g) == text.strip()


def test_parse_edge_list_p3():
    assert parse_edge_list("3\n0 1\n1 2\n") == path(3)


def test_parse_edge_list_collapses_duplicates():
    assert parse_edge_list("2\n0 1\n1 0\n") == complete(2)


def test_parse_edge_list_comments_and_blanks():
    text = "# a path\n3\n\n0 1  # first\n1 2\n"
    assert parse_edge_list(text) == path(3)


def test_graph6_lines_drop_trailing_comments():
    """``#`` is not a graph6 byte (those are 63-126), so a comment after a
    graph6 line is dropped before the line is decoded."""
    text = "# two graphs\nBw # triangle\n" + encode_graph6(net()) + "  #net\n"
    assert parse_graph_text(text) == [complete(3), net()]


@pytest.mark.parametrize("text, line", [
    ("3\n0 3\n", 2),
    ("12\n0 1_1\n", 2),
    ("3\n0 \uff12\n", 2),   # a fullwidth digit two
    ("3\n+0 1\n", 2),
    ("3\n-1 1\n", 2),
    ("1_2\n", 1),
    ("+3\n", 1),
    ("-1\n", 1),
    ("\u0663\n0 1\n", 1),  # an Arabic-Indic digit three
], ids=["out-of-range", "underscore", "fullwidth", "plus", "minus", "count-underscore",
        "count-plus", "count-minus", "count-arabic-indic"])
def test_parse_edge_list_error_names_its_line(text, line):
    """An endpoint out of range, and any number not written in ASCII
    decimal digits alone, raises ParseError at its line."""
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_parse_edge_list_self_loop_is_error():
    with pytest.raises(ParseError):
        parse_edge_list("3\n1 1\n")


def test_format_edge_list_round_trip():
    g = net()
    assert parse_edge_list(format_edge_list(g)) == g
