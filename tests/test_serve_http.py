"""HTTP plumbing: parsing, framing, and socket round-trips."""

import asyncio
import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.app import SpectrumApp
from repro.serve.http import (
    MAX_HEADER_LINES,
    MAX_REQUEST_LINE,
    BadRequest,
    Request,
    Response,
    encode_response,
    json_error,
    parse_request,
    read_request,
    split_path,
)
from repro.serve.loader import store_from_network
from repro.serve.server import SpectrumServer
from repro.serve.synthetic import synthetic_fleet


class TestParseRequest:
    def test_basic_line(self):
        request = parse_request(b"GET /v1/nodes HTTP/1.1\r\n", [])
        assert request.method == "GET"
        assert request.path == "/v1/nodes"
        assert request.query == {}

    def test_query_string(self):
        request = parse_request(
            b"GET /v1/nodes?limit=5&cursor=0&flag= HTTP/1.1\r\n", []
        )
        assert request.query == {
            "limit": "5",
            "cursor": "0",
            "flag": "",
        }

    def test_percent_decoding_in_path(self):
        request = parse_request(
            b"GET /v1/nodes/sn%2D001 HTTP/1.1\r\n", []
        )
        assert request.path == "/v1/nodes/sn-001"

    def test_method_is_uppercased(self):
        assert (
            parse_request(b"get / HTTP/1.1\r\n", []).method == "GET"
        )

    def test_headers_lowercased_and_stripped(self):
        request = parse_request(
            b"GET / HTTP/1.1\r\n",
            [b"If-None-Match:  \"abc\" \r\n", b"Connection: close\r\n"],
        )
        assert request.if_none_match == '"abc"'
        assert request.wants_close

    def test_malformed_request_line(self):
        with pytest.raises(BadRequest):
            parse_request(b"GET /only-two-parts\r\n", [])

    def test_non_ascii_request_line(self):
        with pytest.raises(BadRequest):
            parse_request("GET /café HTTP/1.1\r\n".encode(), [])

    def test_unsupported_protocol(self):
        with pytest.raises(BadRequest):
            parse_request(b"GET / HTTP/2\r\n", [])

    def test_malformed_header(self):
        with pytest.raises(BadRequest):
            parse_request(
                b"GET / HTTP/1.1\r\n", [b"no-colon-here\r\n"]
            )

    def test_header_default_and_missing_etag(self):
        request = Request("GET", "/")
        assert request.header("accept", "*/*") == "*/*"
        assert request.if_none_match is None
        assert not request.wants_close


class TestEncodeResponse:
    def test_frames_body_with_length(self):
        wire = encode_response(
            Response(body=b'{"ok": 1}'), keep_alive=True
        )
        head, _, body = wire.partition(b"\r\n\r\n")
        assert body == b'{"ok": 1}'
        assert b"Content-Length: 9" in head
        assert b"Connection: keep-alive" in head

    def test_304_omits_content_type(self):
        wire = encode_response(
            Response(status=304, etag='"t"'), keep_alive=False
        )
        assert b"Content-Type" not in wire
        assert b'ETag: "t"' in wire
        assert b"Connection: close" in wire

    def test_cache_control_emitted(self):
        wire = encode_response(
            Response(body=b"{}", cache_control="max-age=5")
        )
        assert b"Cache-Control: max-age=5" in wire

    def test_json_error_body_escapes_quotes(self):
        response = json_error(400, 'bad "cursor" value')
        assert response.status == 400
        payload = json.loads(response.body)
        assert "cursor" in payload["error"]

    @given(st.text())
    def test_json_error_round_trips_any_message(self, message):
        response = json_error(404, message)
        assert json.loads(response.body) == {"error": message}
        response.body.decode("ascii")  # escaped, so framing stays ASCII

    def test_percent_encoded_backslash_and_newline_parse(self):
        for raw, segment in ((b"a%5Cq", "a\\q"), (b"a%0Ab", "a\nb")):
            request = parse_request(
                b"GET /v1/nodes/" + raw + b" HTTP/1.1\r\n", []
            )
            assert split_path(request.path)[-1] == segment
            body = json_error(404, f"no such node: {segment}").body
            assert json.loads(body) == {"error": f"no such node: {segment}"}


class TestSplitPath:
    def test_segments(self):
        assert split_path("/v1/nodes/x/fov") == (
            "v1",
            "nodes",
            "x",
            "fov",
        )

    def test_trailing_and_duplicate_slashes(self):
        assert split_path("/v1//nodes/") == ("v1", "nodes")

    def test_root(self):
        assert split_path("/") == ()


class TestReadRequest:
    """Drive the stream reader without a socket via feed_data."""

    @staticmethod
    def read(payload: bytes):
        async def _run():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            return await read_request(reader)

        return asyncio.run(_run())

    def test_full_request(self):
        request = self.read(
            b"GET /v1/fleet?x=1 HTTP/1.1\r\nHost: h\r\n\r\n"
        )
        assert request.path == "/v1/fleet"
        assert request.query == {"x": "1"}
        assert request.header("host") == "h"

    def test_clean_eof_is_none(self):
        assert self.read(b"") is None

    def test_eof_mid_headers_is_none(self):
        assert self.read(b"GET / HTTP/1.1\r\nHost: h\r\n") is None

    def test_oversized_request_line_rejected(self):
        long_path = b"/" + b"x" * (MAX_REQUEST_LINE + 10)
        with pytest.raises((BadRequest, asyncio.LimitOverrunError)):
            self.read(b"GET " + long_path + b" HTTP/1.1\r\n\r\n")

    def test_too_many_headers_rejected(self):
        headers = b"".join(
            b"H%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 5)
        )
        with pytest.raises(BadRequest):
            self.read(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")


def _read_chunks(chunks):
    """Feed ``chunks`` one at a time while ``read_request`` waits."""

    async def _run():
        reader = asyncio.StreamReader()
        task = asyncio.ensure_future(read_request(reader))
        for chunk in chunks:
            await asyncio.sleep(0)
            reader.feed_data(chunk)
        reader.feed_eof()
        return await task

    return asyncio.run(_run())


_ASCII = st.text(alphabet=st.characters(max_codepoint=127), max_size=60)
_TOKEN = st.text(
    alphabet=string.ascii_letters + string.digits + "-_.~%",
    min_size=1,
    max_size=12,
)
_VALUE = st.text(
    alphabet=string.ascii_letters + string.digits + " -_.,;=/\"*:",
    max_size=20,
)


#: Request-line-shaped bytes: arbitrary, ASCII, or near-valid.
_LINES = st.one_of(
    st.binary(max_size=80),
    _ASCII.map(str.encode),
    st.builds(
        lambda method, target, version, sep: sep.join(
            [method, target, version]
        ).encode(),
        st.sampled_from(["GET", "get", "HEAD", "", "G\x00T"]),
        _ASCII,
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1", ""]),
        st.sampled_from([" ", "  ", "\t", ""]),
    ),
)


@st.composite
def _valid_requests(draw):
    """A well-formed request head, as raw bytes."""
    method = draw(st.sampled_from(["GET", "get", "HEAD", "POST"]))
    path = "/" + "/".join(draw(st.lists(_TOKEN, max_size=4)))
    query = draw(st.lists(st.tuples(_TOKEN, _VALUE), max_size=3))
    if query:
        path += "?" + "&".join(f"{k}={v}" for k, v in query)
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    head = f"{method} {path.replace(' ', '+')} HTTP/1.1{eol}"
    for name, value in draw(st.lists(st.tuples(_TOKEN, _VALUE), max_size=6)):
        head += f"{name}: {value}{eol}"
    return (head + eol).encode("ascii")


class TestParserFuzz:
    """The parser faces the public internet: garbage in, BadRequest out."""

    @settings(max_examples=400, deadline=None)
    @given(
        request_line=_LINES,
        header_lines=st.lists(
            st.one_of(st.binary(max_size=40), _ASCII.map(str.encode)),
            max_size=6,
        ),
    )
    def test_arbitrary_bytes_raise_only_bad_request(
        self, request_line, header_lines
    ):
        try:
            request = parse_request(request_line, header_lines)
        except BadRequest:
            return
        assert isinstance(request, Request)
        assert request.method == request.method.upper()

    @settings(max_examples=150, deadline=None)
    @given(raw=_valid_requests(), cuts=st.lists(st.integers(0, 1 << 16)))
    def test_chunking_does_not_change_the_request(self, raw, cuts):
        whole = _read_chunks([raw])
        assert isinstance(whole, Request)
        bounds = sorted({cut % (len(raw) + 1) for cut in cuts})
        starts = [0] + bounds
        ends = bounds + [len(raw)]
        chunks = [raw[a:b] for a, b in zip(starts, ends)]
        assert _read_chunks(chunks) == whole

    @staticmethod
    def _request_line(length: int) -> bytes:
        """``GET /xxx HTTP/1.1\r\n`` of exactly ``length`` bytes."""
        frame = len(b"GET / HTTP/1.1\r\n")
        return b"GET /" + b"x" * (length - frame) + b" HTTP/1.1\r\n"

    def test_request_line_limit_is_exact(self):
        line = self._request_line(MAX_REQUEST_LINE)
        assert len(line) == MAX_REQUEST_LINE
        request = _read_chunks([line + b"\r\n"])
        assert request.path == "/" + "x" * (MAX_REQUEST_LINE - 16)
        with pytest.raises(BadRequest, match="request line too long"):
            _read_chunks([self._request_line(MAX_REQUEST_LINE + 1)])

    def test_header_line_limit_is_exact(self):
        def header(length: int) -> bytes:
            return b"X: " + b"v" * (length - 5) + b"\r\n"

        line = b"GET / HTTP/1.1\r\n"
        request = _read_chunks([line + header(MAX_REQUEST_LINE) + b"\r\n"])
        assert len(request.header("x")) == MAX_REQUEST_LINE - 5
        with pytest.raises(BadRequest, match="header line too long"):
            _read_chunks(
                [line + header(MAX_REQUEST_LINE + 1) + b"\r\n"]
            )

    def test_header_count_limit_is_exact(self):
        def head(n: int) -> bytes:
            return b"GET / HTTP/1.1\r\n" + b"".join(
                b"H%d: v\r\n" % i for i in range(n)
            ) + b"\r\n"

        request = _read_chunks([head(MAX_HEADER_LINES)])
        assert len(request.headers) == MAX_HEADER_LINES
        with pytest.raises(BadRequest, match="too many headers"):
            _read_chunks([head(MAX_HEADER_LINES + 1)])


def _request_over_socket(host, port, raw):
    """One raw HTTP exchange; returns (status, headers, body)."""

    async def _run():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        status_line = await reader.readline()
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        writer.close()
        await writer.wait_closed()
        return int(status_line.split()[1]), headers, body

    return asyncio.run(_run())


class TestServerSockets:
    def test_end_to_end_over_real_sockets(self):
        network, drift = synthetic_fleet(12, seed=3)
        app = SpectrumApp(store_from_network(network))

        async def _scenario():
            server = SpectrumServer(app, port=0, max_requests=4)
            host, port = await server.start()
            serve_task = asyncio.ensure_future(
                server.serve_until_stopped()
            )

            async def exchange(raw):
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                writer.write(raw)
                await writer.drain()
                data = await reader.read()
                writer.close()
                await writer.wait_closed()
                return data

            ok = await exchange(
                b"GET /v1/fleet HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            assert ok.startswith(b"HTTP/1.1 200 OK")
            etag = next(
                line.split(b": ", 1)[1]
                for line in ok.split(b"\r\n")
                if line.startswith(b"ETag:")
            )
            revalidated = await exchange(
                b"GET /v1/fleet HTTP/1.1\r\n"
                b"If-None-Match: " + etag + b"\r\n"
                b"Connection: close\r\n\r\n"
            )
            assert revalidated.startswith(b"HTTP/1.1 304")
            missing = await exchange(
                b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            assert missing.startswith(b"HTTP/1.1 404")
            garbage = await exchange(b"NOT-HTTP\r\n\r\n")
            assert garbage.startswith(b"HTTP/1.1 400")
            # A 400 is not a served request; one more valid exchange
            # exhausts the budget and the serve loop unwinds itself.
            last = await exchange(
                b"GET /v1/healthz HTTP/1.1\r\n"
                b"Connection: close\r\n\r\n"
            )
            assert last.startswith(b"HTTP/1.1 200")
            served = await asyncio.wait_for(serve_task, timeout=5.0)
            assert served == 4

        asyncio.run(_scenario())

    def test_keep_alive_carries_two_requests(self):
        network, _ = synthetic_fleet(5, seed=1)
        app = SpectrumApp(store_from_network(network))

        async def _scenario():
            server = SpectrumServer(app, port=0, max_requests=2)
            host, port = await server.start()
            serve_task = asyncio.ensure_future(
                server.serve_until_stopped()
            )
            reader, writer = await asyncio.open_connection(host, port)
            for expected_path in ("/v1/healthz", "/v1/healthz"):
                writer.write(
                    f"GET {expected_path} HTTP/1.1\r\n\r\n".encode()
                )
                await writer.drain()
                status = await reader.readline()
                assert status.startswith(b"HTTP/1.1 200")
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
            writer.close()
            await writer.wait_closed()
            assert await asyncio.wait_for(serve_task, 5.0) == 2

        asyncio.run(_scenario())

    def test_rejects_bad_concurrency(self):
        network, _ = synthetic_fleet(2, seed=1)
        app = SpectrumApp(store_from_network(network))
        with pytest.raises(ValueError):
            SpectrumServer(app, max_concurrency=0)
