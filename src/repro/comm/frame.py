"""Length-prefixed, CRC-stamped message framing over stream sockets.

TCP is a byte stream: without framing a reader cannot tell where one halo
face ends and the next begins, and a peer killed mid-``send`` leaves a
prefix of a message in the receive buffer that would otherwise be read as
data.  Every message therefore travels as one frame::

    magic(4) | tag(1) | payload_len(4, LE) | crc32(payload)(4, LE) | payload

and the reader verifies all four fields before releasing a single payload
byte.  A short read inside a frame, a wrong magic, or a CRC mismatch
raises :class:`~repro.comm.errors.TornFrameError`; a clean EOF *between*
frames raises :class:`~repro.comm.errors.CommPeerError` (the peer is gone,
not the data); a socket timeout raises
:class:`~repro.comm.errors.CommTimeoutError`.

``tag`` is a one-byte channel discriminator: control frames use
:data:`TAG_OBJ`, halo faces encode ``(mu, slab-role)`` so two faces that
share one socket (a rank grid of extent 2 sends both directions to the
same peer) can be matched out of order.
"""

from __future__ import annotations

import pickle
import socket
import struct
import zlib

from repro.comm.errors import CommPeerError, CommTimeoutError, TornFrameError

__all__ = [
    "FRAME_MAGIC",
    "TAG_OBJ",
    "TAG_RAW",
    "face_tag",
    "send_frame",
    "recv_frame",
    "send_obj",
    "recv_obj",
    "send_msg",
    "recv_msg",
]

FRAME_MAGIC = b"RPF1"
_HEADER = struct.Struct("<4sBII")

#: Pickled control objects (commands, acks, handshakes).
TAG_OBJ = 0
#: Raw array bytes (block uploads/downloads, reduction payloads).
TAG_RAW = 1
#: Halo-face frames start here: tag = _TAG_FACE0 + mu * 2 + (role == src_hi).
_TAG_FACE0 = 8


def face_tag(mu: int, high: bool) -> int:
    """Frame tag of the ``src_hi`` (``high``) or ``src_lo`` slab along ``mu``."""
    return _TAG_FACE0 + 2 * mu + (1 if high else 0)


def send_frame(sock: socket.socket, payload, tag: int = TAG_RAW) -> None:
    """Send one framed message; never leaves a half-written header behind
    silently — transport errors surface as typed comm faults."""
    payload = bytes(payload) if not isinstance(payload, (bytes, bytearray, memoryview)) else payload
    header = _HEADER.pack(FRAME_MAGIC, tag, len(payload), zlib.crc32(payload))
    try:
        sock.sendall(header)
        if len(payload):
            sock.sendall(payload)
    except (TimeoutError, socket.timeout) as e:
        raise CommTimeoutError(f"send timed out after {sock.gettimeout()}s") from e
    except OSError as e:
        raise CommPeerError(f"peer gone during send ({e})") from e


def _recv_exact(sock: socket.socket, n: int, mid_frame: bool) -> bytes:
    """Read exactly ``n`` bytes or raise the typed fault for why we couldn't."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except (TimeoutError, socket.timeout) as e:
            raise CommTimeoutError(
                f"recv timed out after {sock.gettimeout()}s ({got}/{n} bytes)"
            ) from e
        except OSError as e:
            raise CommPeerError(f"peer gone during recv ({e})") from e
        if not chunk:
            if mid_frame or got:
                raise TornFrameError(
                    f"connection closed mid-frame ({got}/{n} bytes arrived)"
                )
            raise CommPeerError("peer closed the connection")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Receive one complete, checksum-verified frame as ``(tag, payload)``."""
    header = _recv_exact(sock, _HEADER.size, mid_frame=False)
    magic, tag, length, crc = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise TornFrameError(f"bad frame magic {magic!r}")
    payload = _recv_exact(sock, length, mid_frame=True) if length else b""
    if zlib.crc32(payload) != crc:
        raise TornFrameError(
            f"frame CRC mismatch on {length}-byte payload (tag {tag})"
        )
    return tag, payload


def send_obj(sock: socket.socket, obj) -> None:
    """Send one pickled control object as a :data:`TAG_OBJ` frame."""
    send_frame(sock, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), TAG_OBJ)


def recv_obj(sock: socket.socket):
    """Receive one :data:`TAG_OBJ` frame and unpickle it.

    A frame with a good CRC whose payload is not a pickle is as torn as a
    short one: it raises :class:`TornFrameError`, never a bare pickle error.
    """
    tag, payload = recv_frame(sock)
    if tag != TAG_OBJ:
        raise TornFrameError(f"expected control frame, got tag {tag}")
    try:
        return pickle.loads(payload)
    except Exception as e:
        raise TornFrameError(f"control frame payload is not a pickle ({e!r})") from e


def send_msg(sock: socket.socket, head, raw: bytes | None = None) -> None:
    """Send a control object and, when given, the raw bytes that go with it."""
    send_obj(sock, (head, raw is not None))
    if raw is not None:
        send_frame(sock, raw, TAG_RAW)


def recv_msg(sock: socket.socket) -> tuple:
    """Receive one :func:`send_msg` pair as ``(head, raw_or_None)``."""
    obj = recv_obj(sock)
    if not (isinstance(obj, tuple) and len(obj) == 2):
        raise TornFrameError(f"expected a (head, has_raw) control pair, got {type(obj).__name__}")
    head, has_raw = obj
    if not has_raw:
        return head, None
    tag, raw = recv_frame(sock)
    if tag != TAG_RAW:
        raise TornFrameError(f"expected raw frame, got tag {tag}")
    return head, raw
