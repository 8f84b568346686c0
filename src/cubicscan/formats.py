"""graph6 / sparse6 / plain edge-list input and output.

The byte formats follow the published formal definition: printable
bytes in 63..126, optional ``>>sparse6<<`` / ``>>graph6<<`` headers, a
``:`` prefix for sparse6, big-endian 6-bit groups. sparse6 supports
multigraphs and is the emission format; graph6 (simple graphs only) is
accepted for interop with existing datasets. Parsed graphs must satisfy
the cubic invariants, so a well-formed encoding of a non-cubic graph is
rejected with a construction error.

Both readers and the writer share one bit layer: ``_check_body``
rejects bytes outside 63..126, ``_bits`` turns a body into a string of
'0'/'1' characters, fields are read with ``int(bits[i : i + k], 2)``
and written with ``f"{x:0{k}b}"``, and ``_pack`` turns the string back
into bytes. ``_width`` gives the sparse6 label width.

The plain-text edge list is: first line ``n m``, then m lines ``u v``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import CubicGraph, CubicGraphError, from_edge_list

__all__ = [
    "parse_sparse6",
    "emit_sparse6",
    "parse_graph6",
    "parse_edgelist",
    "emit_edgelist",
    "parse_auto",
    "iter_graph_lines",
    "CORPUS_PARSERS",
]

_SPARSE6_HEADER = b">>sparse6<<"
_GRAPH6_HEADER = b">>graph6<<"


def _as_bytes(text: bytes | str) -> bytes:
    return text.encode("ascii") if isinstance(text, str) else text


def _bits(body: bytes) -> str:
    """The body's 6-bit groups as one string of '0'/'1', big-endian."""
    return "".join(f"{b - 63:06b}" for b in body)


def _pack(bits: str) -> bytes:
    """Inverse of ``_bits`` for a bit string whose length is a multiple of 6."""
    return bytes(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))


def _check_body(body: bytes, fmt: str) -> None:
    if any(b < 63 or b > 126 for b in body):
        raise CubicGraphError(f"{fmt} body contains bytes outside 63..126")


def _width(n: int) -> int:
    """sparse6 field width k: the bits needed for a label below n, at least 1."""
    return max(1, (n - 1).bit_length())


def _decode_size(data: bytes) -> tuple[int, bytes]:
    """Read the vertex-count field N(n), return (n, remaining bytes)."""
    if not data:
        raise CubicGraphError("empty graph encoding")
    if not 63 <= data[0] <= 126:
        raise CubicGraphError(f"size byte {data[0]} is outside 63..126")
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) > 1 and data[1] == 126:
        raise CubicGraphError("vertex counts above 258047 are not supported")
    if len(data) < 4:
        raise CubicGraphError(
            "extended size field is truncated: '~' must be followed by 3 size bytes"
        )
    if any(b < 63 or b > 126 for b in data[1:4]):
        raise CubicGraphError("malformed extended size field")
    return int(_bits(data[1:4]), 2), data[4:]


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return b"~" + _pack(f"{n:018b}")
    raise CubicGraphError(f"cannot encode n={n}")


def parse_sparse6(text: bytes | str) -> CubicGraph:
    """Decode one sparse6 line into a cubic multigraph.

    Raises CubicGraphError for malformed input, for an encoded loop and
    for a graph that is not cubic.
    """
    data = _as_bytes(text).strip().removeprefix(_SPARSE6_HEADER)
    if not data.startswith(b":"):
        raise CubicGraphError("sparse6 line must start with ':'")
    n, body = _decode_size(data[1:])
    if n < 1:
        raise CubicGraphError("sparse6 encodes an empty vertex set")
    _check_body(body, "sparse6")
    k = _width(n)
    bits = _bits(body)
    edges: list[tuple[int, int]] = []
    v = 0
    # each group is one bit b and a k-bit label x; a trailing partial group is padding
    for i in range(0, len(bits) - k, k + 1):
        if bits[i] == "1":
            v += 1
        x = int(bits[i + 1 : i + 1 + k], 2)
        if x >= n or v >= n:
            break  # padding
        if x > v:
            v = x
        elif x == v:
            raise CubicGraphError(f"sparse6 input encodes a loop at vertex {v}")
        else:
            edges.append((x, v))
    return from_edge_list(n, edges)


def emit_sparse6(g: CubicGraph) -> bytes:
    """Canonical sparse6 byte form of the graph as labeled (no header)."""
    size = _encode_size(g.n)  # refuses an oversized graph before the body is built
    k = _width(g.n)
    groups: list[str] = []
    v = 0
    for hi, lo in sorted((max(u, w), min(u, w)) for u, w in g.edges):
        if hi > v + 1:
            groups.append(f"1{hi:0{k}b}")  # b = 1, then x = hi > v sets v to hi
            v = hi
        groups.append(f"{hi - v}{lo:0{k}b}")  # the edge lo-hi; b = 1 steps v to v + 1
        v = hi
    bits = "".join(groups)
    # pad with 1s; the format's extra 0 for n = 2^k is only due while
    # v < n - 1, and the last edge of a cubic graph ends at vertex n - 1
    bits += "1" * (-len(bits) % 6)
    return b":" + size + _pack(bits)


def parse_graph6(text: bytes | str) -> CubicGraph:
    """Decode one graph6 line (simple graphs); reject non-cubic graphs."""
    data = _as_bytes(text).strip().removeprefix(_GRAPH6_HEADER)
    if data.startswith(b":"):
        raise CubicGraphError("input is sparse6, not graph6")
    n, body = _decode_size(data)
    _check_body(body, "graph6")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise CubicGraphError(
            f"graph6 body has {len(body)} bytes, expected {(need + 5) // 6} for n={n}"
        )
    # the upper triangle column by column: bit v(v-1)/2 + u is the pair u < v
    bits = _bits(body)
    edges = [(u, v) for v in range(1, n) for u in range(v) if bits[v * (v - 1) // 2 + u] == "1"]
    return from_edge_list(n, edges)


def _int_pair(line: str, form: str) -> tuple[int, int]:
    """The two integers of a line; CubicGraphError naming the expected form otherwise."""
    try:
        a, b = map(int, line.split())
    except ValueError as exc:
        raise CubicGraphError(f"{form}, got {line!r}") from exc
    return a, b


def parse_edgelist(text: bytes | str) -> CubicGraph:
    """Parse the plain-text format: first line ``n m``, then m lines ``u v``."""
    text = _as_bytes(text).decode("ascii")
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines:
        raise CubicGraphError("empty edge-list input")
    n, m = _int_pair(lines[0], "edge-list header must be 'n m'")
    if len(lines) - 1 != m:
        raise CubicGraphError(f"edge-list declares {m} edges but has {len(lines) - 1} lines")
    return from_edge_list(n, [_int_pair(line, "edge line must be 'u v'") for line in lines[1:]])


def emit_edgelist(g: CubicGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _parse_encoded(data: bytes) -> CubicGraph:
    """sparse6 (':' or header), else graph6."""
    if data.startswith(_SPARSE6_HEADER) or data.startswith(b":"):
        return parse_sparse6(data)
    return parse_graph6(data)


def _parse_line(data: bytes) -> CubicGraph:
    """One corpus line, sparse6 or graph6; no such line holds whitespace."""
    if len(data.split()) > 1:
        raise CubicGraphError(
            "a corpus takes one graph6 or sparse6 line per graph, "
            f"got {data.decode('ascii', 'replace')!r}"
        )
    return _parse_encoded(data)


def parse_auto(text: bytes | str) -> CubicGraph:
    """Sniff the format: an edge list if the first line has more than one
    field (no graph6 or sparse6 line holds whitespace), else one sparse6
    or graph6 line."""
    data = _as_bytes(text).strip()
    if data and len(data.splitlines()[0].split()) > 1:
        return parse_edgelist(data)
    return _parse_encoded(data)


# the formats a one-graph-per-line corpus may use, by name; an edge list
# spans lines, so corpus "auto" never reads one
CORPUS_PARSERS = {"auto": _parse_line, "graph6": parse_graph6, "sparse6": parse_sparse6}


def iter_graph_lines(lines: Iterable[bytes | str], fmt: str = "auto") -> Iterator[CubicGraph]:
    """Parse a one-graph-per-line corpus in graph6/sparse6 format; any
    other ``fmt`` raises CubicGraphError."""
    if fmt not in CORPUS_PARSERS:
        raise CubicGraphError(
            f"unsupported corpus format {fmt!r}: use one of {', '.join(CORPUS_PARSERS)}"
        )
    parser = CORPUS_PARSERS[fmt]
    for line in lines:
        data = _as_bytes(line).strip()
        if data:
            yield parser(data)
