"""Minimal HTTP/1.1 plumbing over asyncio streams.

Just enough of the protocol for a read-only JSON API — request-line +
header parsing with hard size limits, keep-alive, ``Content-Length``
framing, strong ETags and ``304`` handling — with zero dependencies
beyond the stdlib. The application layer only ever sees the
:class:`Request`/:class:`Response` dataclasses, so the load-generator
benchmark and the unit tests can drive it without a socket.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote

#: Hard limits: a crowd-sourced fleet's public API sees garbage.
MAX_REQUEST_LINE = 8192
MAX_HEADER_LINES = 64

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request (the only shape handlers consume)."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def wants_close(self) -> bool:
        return self.header("connection").lower() == "close"

    @property
    def if_none_match(self) -> Optional[str]:
        value = self.header("if-none-match")
        return value or None


@dataclass
class Response:
    """One response; the server layer adds framing headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    etag: Optional[str] = None
    cache_control: Optional[str] = None

    @property
    def reason(self) -> str:
        return _REASONS.get(self.status, "Unknown")


class BadRequest(ValueError):
    """Raised by the parser for malformed/oversized requests."""


def parse_request(
    request_line: bytes, header_lines: List[bytes]
) -> Request:
    """Parse a request line + header lines into a :class:`Request`."""
    try:
        text = request_line.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise BadRequest("non-ascii request line") from exc
    parts = text.split()
    if len(parts) != 3:
        raise BadRequest(f"malformed request line: {text!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol: {version}")
    path, _, raw_query = target.partition("?")
    query = dict(parse_qsl(raw_query, keep_blank_values=True))
    headers: Dict[str, str] = {}
    for raw in header_lines:
        try:
            line = raw.decode("ascii").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise BadRequest("non-ascii header") from exc
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return Request(
        method=method.upper(),
        path=unquote(path),
        query=query,
        headers=headers,
    )


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Request]:
    """Read one request off an asyncio stream (None on clean EOF)."""
    request_line = await reader.readline()
    if not request_line:
        return None
    if len(request_line) > MAX_REQUEST_LINE:
        raise BadRequest("request line too long")
    header_lines: List[bytes] = []
    while True:
        line = await reader.readline()
        if not line:
            return None  # peer vanished mid-headers
        if line in (b"\r\n", b"\n"):
            break
        if len(header_lines) >= MAX_HEADER_LINES:
            raise BadRequest("too many headers")
        if len(line) > MAX_REQUEST_LINE:
            raise BadRequest("header line too long")
        header_lines.append(line)
    return parse_request(request_line, header_lines)


def encode_response(
    response: Response, keep_alive: bool = True
) -> bytes:
    """Serialize a :class:`Response` with framing headers."""
    head = [
        f"HTTP/1.1 {response.status} {response.reason}",
        f"Content-Length: {len(response.body)}",
    ]
    if response.body or response.status not in (204, 304):
        head.append(f"Content-Type: {response.content_type}")
    if response.etag is not None:
        head.append(f"ETag: {response.etag}")
    if response.cache_control is not None:
        head.append(f"Cache-Control: {response.cache_control}")
    head.append(
        "Connection: " + ("keep-alive" if keep_alive else "close")
    )
    return (
        ("\r\n".join(head) + "\r\n\r\n").encode("ascii")
        + response.body
    )


def json_error(status: int, message: str) -> Response:
    """A small JSON error body with the right status."""
    return Response(
        status=status, body=json.dumps({"error": message}).encode()
    )


#: The quoted opaque part of each entity-tag in an ``If-None-Match``
#: list; a ``W/`` prefix falls outside the match, which is exactly
#: weak comparison. An opaque tag may itself contain commas.
_OPAQUE_TAG = re.compile(r'"[^"]*"')


def etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """Whether an ``If-None-Match`` value matches a strong ``etag``.

    RFC 9110 §13.1.2: ``*`` matches any current representation; else
    the value is a comma-separated list of entity-tags compared
    weakly, i.e. by opaque tag with any ``W/`` prefix ignored.
    """
    if if_none_match is None:
        return False
    if if_none_match.strip() == "*":
        return True
    return etag in _OPAQUE_TAG.findall(if_none_match)


def split_path(path: str) -> Tuple[str, ...]:
    """Path -> non-empty segments (``/v1/nodes/`` -> ``("v1","nodes")``)."""
    return tuple(seg for seg in path.split("/") if seg)
