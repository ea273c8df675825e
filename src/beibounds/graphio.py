"""Textual graph formats: standard graph6 and a plain edge-list format.

graph6 packs the upper-triangle adjacency bits column-major, six bits
per printable byte (offset 63); the header is n+63 for n <= 62 and the
long form '~' + three 6-bit chunks up to n = 258047.  Encoding and
decoding are bit-exact inverses.

Encoding works a column at a time: column v of the stream is the low
v bits of row v, gathered in an accumulator of a few columns whose
first stream bit is its lowest.  Whole bytes of it, their bits
reversed, are the stream in base64's bit order, and a body byte 63 + c
carries the same 6-bit chunk as base64's letter c, so the standard
library's base64 codec packs the chunks.  Each column costs time linear
in v, so a string costs time linear in its length, in the short and the
long form alike.  Decoding walks the body's set bits in stream order,
which is linear too.

The edge-list format is: first non-comment line "n", then one "u v"
pair per line, 0-based, '#' starts a comment.  Numbers are plain ASCII
decimal digits: no sign, no underscore, no other script's digits.
"""

from __future__ import annotations

from binascii import b2a_base64

from .errors import ParseError
from .graphs import Graph

_SHORT_MAX = 62
_LONG_MAX = 258047
# a body byte 63 + c carries the 6-bit chunk c, as base64's letter c does
_GRAPH6 = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)
# each byte with its bits in reverse order
_REVERSED = bytes([int(f"{b:08b}"[::-1], 2) for b in range(256)])


def encode_graph6(g: Graph) -> str:
    n, adj = g.n, g.adj
    if n > _LONG_MAX:
        raise ValueError(f"graph6 supports at most {_LONG_MAX} vertices")
    if n <= _SHORT_MAX:
        head = chr(n + 63)
    else:
        head = "~" + "".join([chr((n >> shift & 63) + 63) for shift in (12, 6, 0)])
    # the stream from its first bit up, a column at a time: column v is
    # the low v bits of row v.  Whole bytes leave the accumulator once it
    # holds more than three columns, so each column costs time linear in v.
    out = []
    acc = held = 0
    for v in range(1, n):
        acc |= (adj[v] & (1 << v) - 1) << held
        held += v
        if held > 3 * v:
            whole = held & ~7
            out.append((acc & (1 << whole) - 1).to_bytes(whole >> 3, "little"))
            acc >>= whole
            held -= whole
    out.append(acc.to_bytes(held + 7 >> 3, "little"))
    body = b2a_base64(b"".join(out).translate(_REVERSED))  # its newline is cut off below
    return head + body[:(n * (n - 1) // 2 + 5) // 6].translate(_TO_GRAPH6).decode("ascii")


def decode_graph6(text: str) -> Graph:
    try:
        data = text.strip().encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError("non-ASCII character in graph6 string", offset=exc.start) from None
    if not data:
        raise ParseError("empty graph6 string", offset=0)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ParseError("graph6 >258047 vertices not supported", offset=1)
        if len(data) < 4:
            raise ParseError("truncated graph6 long-form header", offset=len(data))
        chunks = [data[i] - 63 for i in (1, 2, 3)]
        if any(not 0 <= c < 64 for c in chunks):
            raise ParseError("invalid graph6 header byte", offset=1)
        n = chunks[0] << 12 | chunks[1] << 6 | chunks[2]
        pos = 4
    else:
        n = data[0] - 63
        if not 0 <= n <= _SHORT_MAX:
            raise ParseError("invalid graph6 header byte", offset=0)
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise ParseError(
            f"graph6 body has {len(data) - pos} bytes, expected {nbytes}", offset=pos
        )
    # stream bit b is the pair (u, v) with b = v(v-1)/2 + u: column v
    # holds bits start .. start + v - 1.  Each byte gives its six bits
    # highest first, so one pass over the bytes meets the columns in order.
    adj = [0] * n
    v = 1
    start = 0
    for i, byte in enumerate(data[pos:]):
        val = byte - 63
        if not 0 <= val < 64:
            raise ParseError("invalid graph6 body byte", offset=pos + i)
        while val:
            top = val.bit_length() - 1
            val ^= 1 << top
            b = 6 * i + 5 - top
            if b >= nbits:
                break  # padding
            while b >= start + v:
                start += v
                v += 1
            u = b - start
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    # only the canonical string decodes, so a report names its input as given
    if data[0] == 126 and n <= _SHORT_MAX:
        raise ParseError(f"graph6 long-form header for n = {n} <= {_SHORT_MAX}", offset=0)
    if data[-1] - 63 & (1 << 6 * nbytes - nbits) - 1:
        raise ParseError("graph6 padding bits are not zero", offset=len(data) - 1)
    return Graph(n, tuple(adj))


def _decimal(text: str) -> int:
    """``text`` read as ASCII decimal digits, else ValueError (``int``
    alone also takes a sign, ``1_1`` and non-ASCII digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError("first line must be the vertex count", line=lineno)
            try:
                n = _decimal(fields[0])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[0]!r}", line=lineno) from None
            if n > _LONG_MAX:
                # no report could name the graph: graph6 stops there
                raise ParseError(f"vertex count above {_LONG_MAX}", line=lineno)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = _decimal(fields[0]), _decimal(fields[1])
        except ValueError:
            raise ParseError(f"bad endpoint in {line!r}", line=lineno) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        if u >= n or v >= n:
            raise ParseError(f"endpoint out of range in {line!r}", line=lineno)
        edges.append((u, v))
    if n is None:
        raise ParseError("no vertex count line found", line=1)
    return Graph.from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
