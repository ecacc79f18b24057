"""Wire protocol of the broker/worker sweep fabric.

Every message travelling between a :class:`~repro.cluster.broker.ClusterBroker`
and a worker is one *frame*: a fixed header (magic tag, CRC32 of the body,
body length) followed by a pickled ``(kind, payload)`` tuple.  The framing
discipline is the same one the on-disk :class:`~repro.analysis.runcache.RunCache`
v2 entries use — a truncated, bit-flipped, or foreign byte stream is
*detected* (:class:`FrameError`), never mis-decoded: the receiving side drops
the connection and the broker requeues whatever that worker had in flight,
so a damaged frame costs one recomputation, not a wrong figure.

Work is addressed by **(spec fingerprint, run key)**: the broker stamps its
fingerprint into the config handshake and every ``work`` frame, and a worker
refuses to compute for a fingerprint it was not built for — a stale worker
is rejected loudly instead of silently contributing garbage.

The payload is a pickle, so the protocol is for a **trusted fabric only**
(the broker and its workers run as one user on one machine or one private
network), exactly like the pickles the process-pool executor already ships.

Message kinds::

    worker -> broker   hello    {version, fingerprint | None}
    broker -> worker   config   {config: HarnessConfig, fingerprint, }
    worker -> broker   ready    {fingerprint}
    broker -> worker   reject   {reason}
    broker -> worker   work     {tasks: [RunTask, ...], fingerprint}
    worker -> broker   result   {task, outcome, entries: [(run_key, stats)],
                                 elapsed: seconds}
    worker -> broker   error    {task, message}
    broker -> worker   shutdown {}

A ``work`` frame carries a *claim*: one expensive task, or several cheap
ones chunked together (the broker's cost model decides — see
:mod:`repro.cluster.costs`); the worker answers with one ``result`` or
``error`` frame per task, in claim order, each stamped with the observed
``elapsed`` seconds that feed the broker's online cost model.
"""

from __future__ import annotations

import errno
import os
import pickle
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

#: Bump on any incompatible change to the message schema.
#: v2: ``work`` carries a task list (chunked claims) and ``result`` is
#: stamped with the worker's observed ``elapsed`` seconds.
#: v3: ``RunTask`` lost its ``group`` field (lockstep batch tasks are gone).
PROTOCOL_VERSION = 3

#: Frame header: magic, CRC32 of the body, body length.
_FRAME_MAGIC = b"RCLU"
_FRAME_HEADER = struct.Struct("<4sIQ")

#: Upper bound on one frame body; anything larger is a corrupt length field
#: (the biggest legitimate frame is a config or RunStatistics pickle, far
#: below this).
MAX_FRAME_BYTES = 1 << 30

# Message kinds.
HELLO = "hello"
CONFIG = "config"
READY = "ready"
REJECT = "reject"
WORK = "work"
RESULT = "result"
ERROR = "error"
SHUTDOWN = "shutdown"


class ProtocolError(Exception):
    """Base class of everything that can go wrong on the wire."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection at a clean frame boundary."""


class FrameError(ProtocolError):
    """A frame arrived truncated, corrupted, or foreign.

    The connection is unusable after this (the stream position is lost);
    the broker requeues the worker's in-flight point and recomputes it.
    """


def send_message(sock: socket.socket, kind: str, **payload) -> None:
    """Serialise and send one ``(kind, payload)`` frame."""

    body = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    header = _FRAME_HEADER.pack(_FRAME_MAGIC, zlib.crc32(body), len(body))
    sock.sendall(header + body)


def _recv_exact(sock: socket.socket, count: int,
                boundary: bool = False) -> bytes:
    """Read exactly ``count`` bytes.

    ``boundary=True`` marks a read that starts a new frame: EOF there is a
    clean :class:`ConnectionClosed`; EOF anywhere else means the peer died
    mid-frame and raises :class:`FrameError`.
    """

    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise FrameError(f"socket error mid-frame: {exc}") from exc
        if not chunk:
            if boundary and remaining == count:
                raise ConnectionClosed("peer closed the connection")
            raise FrameError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                "bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Tuple[str, dict]:
    """Receive one frame; validate magic, length, and CRC before unpickling."""

    header = _recv_exact(sock, _FRAME_HEADER.size, boundary=True)
    magic, crc, length = _FRAME_HEADER.unpack(header)
    if magic != _FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the protocol bound")
    body = _recv_exact(sock, length)
    if zlib.crc32(body) != crc:
        raise FrameError("frame CRC mismatch (corrupt body)")
    try:
        message = pickle.loads(body)
    except Exception as exc:
        raise FrameError(f"frame body does not unpickle: {exc!r}") from exc
    if (not isinstance(message, tuple) or len(message) != 2
            or not isinstance(message[0], str)
            or not isinstance(message[1], dict)):
        raise FrameError(f"malformed message {type(message).__name__}")
    return message


# ---------------------------------------------------------------------- #
# Addresses: "host:port" TCP endpoints or "unix:/path" sockets.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Address:
    """A broker endpoint: TCP ``host:port`` or a Unix domain socket path."""

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def parse_address(text) -> Address:
    """Parse ``host:port`` / ``unix:/path`` (an :class:`Address` passes through)."""

    if isinstance(text, Address):
        return text
    text = str(text).strip()
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError("unix: address needs a socket path")
        return Address(kind="unix", path=path)
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(
            f"broker address {text!r} is neither 'host:port' nor 'unix:/path'"
        )
    try:
        return Address(kind="tcp", host=host or "127.0.0.1", port=int(port))
    except ValueError as exc:
        raise ValueError(f"bad port in broker address {text!r}") from exc


def _unix_socket_is_live(path: str) -> bool:
    """Whether something is actually accepting on a Unix socket path."""

    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except OSError:
        return False
    else:
        return True
    finally:
        probe.close()


def bind_listener(address: Address) -> Tuple[socket.socket, Address]:
    """Bind + listen on ``address``; returns (socket, the bound address).

    TCP port 0 binds an ephemeral port; the returned address carries the
    real one, which is what workers must be pointed at.
    """

    if address.kind == "unix":
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(address.path)
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE:
                listener.close()
                raise
            if _unix_socket_is_live(address.path):
                listener.close()
                raise
            # A previous broker died without unlinking its socket file;
            # nobody is listening behind it, so reclaim the path (a
            # crash-restarted broker must be able to resume).
            os.unlink(address.path)
            listener.bind(address.path)
        listener.listen(16)
        return listener, address
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((address.host or "127.0.0.1", address.port))
    listener.listen(16)
    host, port = listener.getsockname()[:2]
    return listener, Address(kind="tcp", host=host, port=port)


def connect(address: Address, timeout: Optional[float] = None
            ) -> socket.socket:
    """Open a client connection to a broker endpoint."""

    address = parse_address(address)
    if address.kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if timeout is not None:
            sock.settimeout(timeout)
        sock.connect(address.path)
    else:
        sock = socket.create_connection((address.host, address.port),
                                        timeout=timeout)
    sock.settimeout(None)
    return sock
