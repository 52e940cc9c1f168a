"""graph6 and plain edge-list codecs.

graph6 packs the upper triangle of the adjacency matrix, column by column,
into 6-bit chunks offset by 63; the optional ">>graph6<<" header is accepted
on input and never emitted.  The edge-list format is "n m" on the first line
followed by m lines "u v" with 0-based ids; '#' starts a comment.
"""

from __future__ import annotations

import re

from .graphs import Graph, make_graph


class CodecError(ValueError):
    """Malformed graph6 or edge-list input."""


_HEADER = ">>graph6<<"
_BLANK = " \t\r\n"  # str.strip() would also drop \x0b, \x0c and \x1c-\x1f
MAX_ORDER = 258047  # largest order graph6 can write; the edge list shares it
_TO_TEXT = bytes((b + 63) & 255 for b in range(256))  # 6-bit value -> character
_SET_BITS = tuple(tuple(k for k in range(6) if x & 32 >> k) for x in range(64))
_INVALID = re.compile("[^?-~]")  # outside the 64 body characters
_NONZERO = re.compile("[^?]")
# An edge list's longest valid prefix: ids, blanks and line ends, '#' comments.
_EDGELIST_TEXT = re.compile("(?:[0-9 \t\r\n]+|#[^\n]*)*")
_COMMENT = re.compile("#[^\n]*")


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_ORDER:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise CodecError(f"graph6 supports at most {MAX_ORDER} vertices, got {n}")


def _decode_order(s: str) -> tuple[int, int]:
    """Return (n, index of first adjacency character)."""
    if not s:
        raise CodecError("empty graph6 string")
    c0 = ord(s[0])
    if c0 == 126:  # '~': 18-bit order in the next three characters
        if len(s) < 4:
            raise CodecError("truncated graph6 order")
        vals = [ord(c) - 63 for c in s[1:4]]
        if any(not 0 <= v <= 63 for v in vals):
            raise CodecError("invalid graph6 order characters")
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    if not 63 <= c0 <= 125:
        raise CodecError(f"invalid graph6 leading character {s[0]!r}")
    return c0 - 63, 1


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a header-free graph6 string."""
    n = g.n
    head = _encode_order(n)
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v, row in enumerate(g.adj):
        base = v * (v - 1) // 2
        for u in row:  # sorted: the pairs u < v come first
            if u >= v:
                break
            p = base + u
            body[p // 6] |= 32 >> p % 6
    return head + body.translate(_TO_TEXT).decode("ascii")


def decode_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional header; spaces, tabs, CR and LF
    around it and after the header ok)."""
    s = text.strip(_BLANK)
    if s.startswith(_HEADER):
        s = s[len(_HEADER):].lstrip(_BLANK)
    n, pos = _decode_order(s)
    if n == 0:
        raise CodecError("graph6 order 0 not supported")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[pos:]
    if len(body) != nchars:
        raise CodecError(
            f"graph6 body for n={n} needs {nchars} characters, got {len(body)}"
        )
    bad = _INVALID.search(body)
    if bad:
        raise CodecError(f"invalid graph6 character {bad.group()!r}")
    # bit p of the body is the pair u < v with p = v(v-1)/2 + u; visiting p in
    # order appends each vertex's neighbours ascending, and no pair repeats,
    # so the lists need no sort and the graph no validation.  Column v ends
    # before bit end = v(v+1)/2; as p rises, v only moves forward.
    adj: list[list[int]] = [[] for _ in range(n)]
    v = end = 0
    for m in _NONZERO.finditer(body):
        first = 6 * m.start()
        for k in _SET_BITS[ord(m.group()) - 63]:
            p = first + k
            if p >= nbits:
                raise CodecError("nonzero graph6 padding bits")
            while p >= end:
                v += 1
                end += v
            u = p - end + v
            adj[u].append(v)
            adj[v].append(u)
    return Graph(n, tuple(map(tuple, adj)))


def parse_edgelist(text: str) -> Graph:
    """Parse the "n m" edge-list format; raises CodecError on any defect.

    Lines end at LF.  Outside a '#' comment a line holds only decimal ids
    separated by spaces, tabs or CRs, so a CRLF file reads like an LF one.
    """
    end = _EDGELIST_TEXT.match(text).end()
    if end < len(text):
        line = text.count("\n", 0, end) + 1
        raise CodecError(f"invalid edge-list character {text[end]!r} on line {line}")
    if "#" in text:
        text = _COMMENT.sub("", text)
    rows = [row for row in map(str.split, text.split("\n")) if row]
    if not rows:
        raise CodecError("empty edge list")
    if len(rows[0]) != 2:
        raise CodecError(f"expected 'n m' header, got {' '.join(rows[0])!r}")
    n, m = int(rows[0][0]), int(rows[0][1])
    if n > MAX_ORDER:
        raise CodecError(f"order {n} exceeds the limit of {MAX_ORDER} vertices")
    if len(rows) - 1 != m:
        raise CodecError(f"header says {m} edges, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise CodecError(f"expected 'u v', got {' '.join(row)!r}")
        edges.append((int(row[0]), int(row[1])))
    try:
        return make_graph(n, edges)
    except ValueError as exc:
        raise CodecError(str(exc)) from exc


def format_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
