"""A minimal HTTP/1.1 layer over ``asyncio`` streams.

The front end (:mod:`repro.server.app`) needs exactly four things from
HTTP — parse a request, send a JSON response, send an error, stream a
body incrementally — and the standard library offers no asyncio-native
server for them (``http.server`` is threaded/WSGI-shaped).  This module
implements that minimal surface directly on ``StreamReader`` /
``StreamWriter`` instead of pulling in a framework dependency:

* :func:`read_request` parses one request (line, headers, body) with
  hard limits on line length, header count and body size — a malformed
  or oversized request raises :class:`HTTPError` with the right status
  instead of wedging the connection;
* :func:`response_bytes` renders a complete fixed-length response;
* :class:`ChunkedWriter` renders a ``Transfer-Encoding: chunked`` body
  for streaming endpoints (one NDJSON line per chunk).

Connections are single-request (``Connection: close``): the clients this
serves (load generators, health checks, scrapers) open cheap local
connections, and close-per-response keeps the protocol state machine
trivial — there is no pipelining or keep-alive bookkeeping to get wrong.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

__all__ = [
    "ChunkedWriter",
    "HTTPError",
    "Request",
    "error_bytes",
    "read_request",
    "response_bytes",
]

#: Hard request limits: longer lines / more headers / bigger bodies are
#: rejected up front so one abusive connection cannot balloon memory.
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 64
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Content",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """An error that maps straight to an HTTP status response."""

    def __init__(self, status: int, message: str, headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.headers = dict(headers or {})


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, path: str, query: str, headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self):
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            raise HTTPError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise HTTPError(400, "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return payload


def _split_target(target: str) -> Tuple[str, str]:
    if "?" in target:
        path, query = target.split("?", 1)
        return path, query
    return target, ""


async def read_request(reader, *, max_body: int = MAX_BODY_BYTES) -> Optional[Request]:
    """Parse one request off ``reader``; ``None`` on a clean EOF.

    Protocol violations raise :class:`HTTPError` (the caller renders it
    and closes); the function never returns a half-parsed request.
    ``max_body`` overrides the default body bound for servers that accept
    large binary payloads (the shard worker's float64 matrices).
    """
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise HTTPError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    path, query = _split_target(target)

    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            raise HTTPError(400, "connection closed inside headers")
        if len(line) > MAX_REQUEST_LINE:
            raise HTTPError(400, "header line too long")
        if line in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADERS:
            raise HTTPError(400, "too many headers")
        text = line.decode("latin-1")
        name, sep, value = text.partition(":")
        if not sep:
            raise HTTPError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HTTPError(501, "chunked request bodies are not supported")
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HTTPError(400, "malformed Content-Length") from None
        if length < 0:
            raise HTTPError(400, "malformed Content-Length")
        if length > max_body:
            raise HTTPError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:
                raise HTTPError(400, "connection closed inside body") from None
    elif method in ("POST", "PUT", "PATCH"):
        raise HTTPError(411, "Content-Length required")
    return Request(method, path, query, headers, body)


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Render one complete fixed-length HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        "HTTP/1.1 %d %s" % (status, reason),
        "Content-Type: %s" % content_type,
        "Content-Length: %d" % len(body),
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append("%s: %s" % (name, value))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def error_bytes(exc: HTTPError) -> bytes:
    """Render an :class:`HTTPError` as a JSON error response."""
    body = json.dumps({"error": exc.message, "status": exc.status}).encode("utf-8")
    return response_bytes(exc.status, body, headers=exc.headers)


class ChunkedWriter:
    """``Transfer-Encoding: chunked`` body writer for streaming responses.

    The head goes out with :meth:`start`; each :meth:`send` is one chunk
    (for NDJSON endpoints: one line = one chunk, so clients can consume
    results as they are produced); :meth:`finish` sends the terminator.
    """

    def __init__(self, writer, *, content_type: str = "application/x-ndjson"):
        self._writer = writer
        self._content_type = content_type
        self._started = False

    async def start(self, status: int = 200, headers: Optional[Dict[str, str]] = None) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            "HTTP/1.1 %d %s" % (status, reason),
            "Content-Type: %s" % self._content_type,
            "Transfer-Encoding: chunked",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append("%s: %s" % (name, value))
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self._writer.drain()
        self._started = True

    async def send(self, data: bytes) -> None:
        if not data:
            return
        self._writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()

    @property
    def started(self) -> bool:
        return self._started
