"""graph6 / sparse6 / plain edge-list input and output.

The byte formats follow the published formal definition: printable
bytes in 63..126, optional ``>>sparse6<<`` / ``>>graph6<<`` headers, a
``:`` prefix for sparse6, big-endian 6-bit groups. sparse6 supports
multigraphs and is the emission format; graph6 (simple graphs only) is
accepted for interop with existing datasets. Parsed graphs must satisfy
the cubic invariants, so a well-formed encoding of a non-cubic graph is
rejected with a construction error.

The plain-text edge list is: first line ``n m``, then m lines ``u v``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FormatError, LoopError
from .graphs import CubicGraph, from_edge_list

__all__ = [
    "parse_sparse6",
    "emit_sparse6",
    "parse_graph6",
    "parse_edgelist",
    "emit_edgelist",
    "parse_auto",
    "iter_graph_lines",
]

_SPARSE6_HEADER = b">>sparse6<<"
_GRAPH6_HEADER = b">>graph6<<"


def _as_bytes(text: bytes | str) -> bytes:
    return text.encode("ascii") if isinstance(text, str) else text


def _decode_size(data: bytes) -> tuple[int, bytes]:
    """Read the vertex-count field N(n), return (n, remaining bytes)."""
    if not data:
        raise FormatError("empty graph encoding")
    if not 63 <= data[0] <= 126:
        raise FormatError(f"size byte {data[0]} is outside 63..126")
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) > 1 and data[1] == 126:
        raise FormatError("vertex counts above 258047 are not supported")
    if len(data) < 4:
        raise FormatError("extended size field is truncated: '~' must be followed by 3 size bytes")
    chunks = [b - 63 for b in data[1:4]]
    if any(c < 0 or c > 63 for c in chunks):
        raise FormatError("malformed extended size field")
    return (chunks[0] << 12) | (chunks[1] << 6) | chunks[2], data[4:]


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise FormatError(f"cannot encode n={n}")


def parse_sparse6(text: bytes | str) -> CubicGraph:
    """Decode one sparse6 line into a cubic multigraph.

    Raises FormatError for malformed input, LoopError if the encoding
    contains a loop, and DegreeError if the graph is not cubic.
    """
    data = _as_bytes(text).strip()
    if data.startswith(_SPARSE6_HEADER):
        data = data[len(_SPARSE6_HEADER):]
    if not data.startswith(b":"):
        raise FormatError("sparse6 line must start with ':'")
    n, body = _decode_size(data[1:])
    if n < 1:
        raise FormatError("sparse6 encodes an empty vertex set")
    if any(b < 63 or b > 126 for b in body):
        raise FormatError("sparse6 body contains bytes outside 63..126")

    k = 1
    while (1 << k) < n:
        k += 1

    bits: list[int] = []
    for byte in body:
        value = byte - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))

    pairs = []
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for bit in bits[pos + 1 : pos + 1 + k]:
            x = (x << 1) | bit
        pos += 1 + k
        pairs.append((b, x))

    edges: list[tuple[int, int]] = []
    v = 0
    for b, x in pairs:
        if b:
            v += 1
        if x >= n or v >= n:
            break  # padding
        if x > v:
            v = x
        elif x == v:
            raise LoopError(f"sparse6 input encodes a loop at vertex {v}")
        else:
            edges.append((x, v))
    return from_edge_list(n, edges)


def emit_sparse6(g: CubicGraph) -> bytes:
    """Canonical sparse6 byte form of the graph as labeled (no header)."""
    n = g.n
    k = 1
    while (1 << k) < n:
        k += 1

    def put(value: int, width: int) -> None:
        bits.extend((value >> shift) & 1 for shift in range(width - 1, -1, -1))

    bits: list[int] = []
    v = 0
    for hi, lo in sorted((max(u, w), min(u, w)) for u, w in g.edges):
        if hi == v:
            bits.append(0)
            put(lo, k)
        elif hi == v + 1:
            v += 1
            bits.append(1)
            put(lo, k)
        else:
            v = hi
            bits.append(1)
            put(hi, k)
            bits.append(0)
            put(lo, k)
    # pad with 1s; the format's extra 0 for n = 2^k is only due while
    # v < n - 1, and the last edge of a cubic graph ends at vertex n - 1
    bits.extend([1] * ((-len(bits)) % 6))

    body = bytearray()
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = (value << 1) | bit
        body.append(value + 63)
    return b":" + _encode_size(n) + bytes(body)


def parse_graph6(text: bytes | str) -> CubicGraph:
    """Decode one graph6 line (simple graphs); reject non-cubic graphs."""
    data = _as_bytes(text).strip()
    if data.startswith(_GRAPH6_HEADER):
        data = data[len(_GRAPH6_HEADER):]
    if data.startswith(b":"):
        raise FormatError("input is sparse6, not graph6")
    n, body = _decode_size(data)
    if any(b < 63 or b > 126 for b in body):
        raise FormatError("graph6 body contains bytes outside 63..126")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise FormatError(
            f"graph6 body has {len(body)} bytes, expected {(need + 5) // 6} for n={n}"
        )
    bits: list[int] = []
    for byte in body:
        value = byte - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return from_edge_list(n, edges)


def parse_edgelist(text: bytes | str) -> CubicGraph:
    """Parse the plain-text format: first line ``n m``, then m lines ``u v``."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"edge-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"edge-list header must be 'n m', got {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"edge-list declares {m} edges but has {len(lines) - 1} lines")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"edge line must be 'u v', got {line!r}") from exc
    return from_edge_list(n, edges)


def emit_edgelist(g: CubicGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_auto(text: bytes | str) -> CubicGraph:
    """Sniff the format: sparse6 (':' or header), edge list, else graph6."""
    data = _as_bytes(text).strip()
    if data.startswith(_SPARSE6_HEADER) or data.startswith(b":"):
        return parse_sparse6(data)
    if data.startswith(_GRAPH6_HEADER):
        return parse_graph6(data)
    first = data.splitlines()[0] if data else b""
    fields = first.split()
    if len(fields) == 2 and all(f.isdigit() for f in fields):
        return parse_edgelist(data)
    return parse_graph6(data)


def iter_graph_lines(lines: Iterable[bytes | str], fmt: str = "auto") -> Iterator[CubicGraph]:
    """Parse a one-graph-per-line corpus in graph6/sparse6 format; any
    other ``fmt`` raises FormatError."""
    parsers = {"auto": parse_auto, "graph6": parse_graph6, "sparse6": parse_sparse6}
    if fmt not in parsers:
        raise FormatError(f"unsupported corpus format {fmt!r}: use one of {', '.join(parsers)}")
    parser = parsers[fmt]
    for line in lines:
        data = _as_bytes(line).strip()
        if data:
            yield parser(data)
