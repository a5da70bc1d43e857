"""Unit tests: request framing the wire layer must refuse.

A request whose body length is ambiguous — chunked, or framed by two
``Content-Length`` headers — cannot be read without guessing where the
next request starts.  Guessing wrong desyncs the connection: the body
bytes are parsed as a request of their own.  ``read_request`` refuses
such requests with a typed error instead (501 or 400), and the server
answers it and closes the connection.
"""

import asyncio

import pytest

from repro.gateway import wire

SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"


def _chunked(body: bytes) -> bytes:
    return b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)


def _read_first(raw: bytes):
    """The first request ``read_request`` finds in *raw*."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await wire.read_request(reader)

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(run())
    finally:
        loop.close()


def test_chunked_request_is_refused_not_desynced():
    raw = (b"POST /things/0/actions/install HTTP/1.1\r\nHost: h\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n" + _chunked(SMUGGLED))
    with pytest.raises(wire.WireError) as caught:
        _read_first(raw)
    assert caught.value.status == 501
    assert "Transfer-Encoding" in str(caught.value)


def test_any_non_identity_transfer_coding_is_refused():
    for coding in (b"gzip, chunked", b"Chunked", b"gzip"):
        raw = (b"POST /x HTTP/1.1\r\nTransfer-Encoding: " + coding
               + b"\r\nContent-Length: 2\r\n\r\n{}")
        with pytest.raises(wire.WireError) as caught:
            _read_first(raw)
        assert caught.value.status == 501


def test_identity_transfer_coding_reads_by_content_length():
    raw = (b"POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\n"
           b"Content-Length: 2\r\n\r\n{}")
    request = _read_first(raw)
    assert request.body == b"{}"


@pytest.mark.parametrize("lengths", [(0, len(SMUGGLED)),
                                     (len(SMUGGLED), 0),
                                     (len(SMUGGLED), len(SMUGGLED))])
def test_duplicate_content_lengths_are_refused(lengths):
    raw = b"POST /x HTTP/1.1\r\n"
    for length in lengths:
        raw += b"Content-Length: %d\r\n" % length
    raw += b"\r\n" + SMUGGLED
    with pytest.raises(wire.WireError) as caught:
        _read_first(raw)
    assert caught.value.status == 400
    assert "Content-Length" in str(caught.value)


def test_malformed_requests_stay_400():
    with pytest.raises(wire.WireError) as caught:
        _read_first(b"BOGUS\r\n\r\n")
    assert caught.value.status == 400


def test_501_has_a_reason_phrase():
    head = wire.response_bytes(501, {"error": "x"}, keep_alive=False)
    assert head.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
    assert b"Connection: close" in head


def test_canonical_json_is_the_response_body_encoding():
    body = {"b": [1, {"d": 2, "c": "é"}], "a": None}
    assert wire.canonical_json(body) == \
        b'{"a":null,"b":[1,{"c":"\\u00e9","d":2}]}'
    raw = wire.response_bytes(200, body)
    assert raw.endswith(b"\r\n\r\n" + wire.canonical_json(body))
