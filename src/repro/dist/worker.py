"""Worker entry point: ``python -m repro.dist.worker``.

One worker serves one driver at a time, executing allowlisted tasks
(:mod:`repro.dist.registry`) it receives as protocol frames
(:mod:`repro.dist.protocol`).

Two transports:

- ``--stdio`` — frames on stdin/stdout (what :class:`~repro.dist.node.
  SubprocessNode` spawns).  All logging goes to stderr; nothing else may
  touch stdout.
- ``--port N`` (optionally ``--host``) — a TCP listener.  ``--port 0``
  binds an OS-assigned port and announces it as the first stdout line
  (``DIST-WORKER READY port=N``) so a spawner can connect without a
  race.  Connections are served sequentially; a dropped connection puts
  the worker back into ``accept`` for the next driver.

Lifecycle: a ``["shutdown"]`` frame exits the process (reply
``["bye"]`` first); EOF on stdio exits too.  Task exceptions are
*replies*, never worker crashes — the driver decides whether the error
is retryable (see :mod:`repro.dist.errors`).  So is a request of the
wrong shape (kind ``"protocol"``).  A frame that does not decode ends
its connection: a TCP worker accepts the next one, a stdio worker exits.
"""

from __future__ import annotations

import argparse
import socket
import sys
import traceback
from typing import Any, BinaryIO, Optional

import numpy as np

from repro.dist import protocol
from repro.dist.errors import ProtocolError, UnknownTaskError
from repro.dist.node import _execute
from repro.dist.registry import TASKS


def _log(message: str) -> None:
    print(f"dist-worker: {message}", file=sys.stderr, flush=True)


def _error_reply(exc: BaseException) -> list:
    kind = "protocol" if isinstance(exc, ProtocolError) else (
        "unknown-task" if isinstance(exc, UnknownTaskError) else "task"
    )
    remote_tb = "".join(traceback.format_exception(exc))
    return ["err", kind, f"{type(exc).__name__}: {exc}", remote_tb]


def _call_parts(message: Any) -> tuple:
    """``(task, arrays, args)`` of a well-formed call request."""
    if protocol.opcode(message) == "call" and len(message) == 4:
        _, task, arrays, args = message
        if (
            isinstance(task, str)
            and isinstance(args, list)
            and isinstance(arrays, dict)
            and all(isinstance(array, np.ndarray) for array in arrays.values())
        ):
            return task, arrays, args
    raise ProtocolError(f"expected ping, shutdown or a call, got {message!r:.200}")


def serve_stream(reader: BinaryIO, writer: BinaryIO) -> bool:
    """Serve one frame stream until EOF, shutdown or an undecodable frame.

    Returns ``True`` when a shutdown frame asked the whole worker to
    exit, ``False`` when the stream ended or broke (the peer went
    away; a TCP worker then accepts the next connection).
    """
    try:
        while True:
            message = protocol.read_frame(reader)
            op = protocol.opcode(message)
            if op == "shutdown":
                reply = ["bye"]
            elif op == "ping":
                reply = ["pong", {"tasks": sorted(TASKS)}]
            else:
                try:
                    reply = ["ok", _execute(*_call_parts(message))]
                except Exception as exc:
                    reply = _error_reply(exc)
            try:
                frame = protocol.encode(reply)
            except ProtocolError as exc:  # a result the codec cannot carry
                frame = protocol.encode(_error_reply(exc))
            writer.write(frame)
            writer.flush()
            if op == "shutdown":
                return True
    except EOFError:
        return False
    except (OSError, ProtocolError) as exc:
        _log(f"dropping the connection: {type(exc).__name__}: {exc}")
        return False


def serve_stdio() -> None:
    serve_stream(sys.stdin.buffer, sys.stdout.buffer)


def serve_tcp(host: str, port: int, announce: bool = True) -> None:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(4)
    bound = listener.getsockname()[1]
    if announce:
        # The spawner blocks on this exact line; flush before accept.
        print(f"DIST-WORKER READY port={bound}", flush=True)
    _log(f"listening on {host}:{bound}")
    try:
        while True:
            conn, peer = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _log(f"serving {peer[0]}:{peer[1]}")
            stream = conn.makefile("rwb")
            try:
                should_exit = serve_stream(stream, stream)
            finally:
                try:
                    stream.close()
                    conn.close()
                except OSError:  # pragma: no cover - peer already gone
                    pass
            if should_exit:
                _log("shutdown requested")
                return
    finally:
        listener.close()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--stdio", action="store_true", help="serve frames on stdin/stdout"
    )
    mode.add_argument(
        "--port", type=int, default=None,
        help="serve a TCP listener (0 = OS-assigned, announced on stdout)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    args = parser.parse_args(argv)
    if args.stdio:
        serve_stdio()
    else:
        if not 0 <= args.port < 65536:
            parser.error(f"--port out of range 0..65535: {args.port}")
        serve_tcp(args.host, args.port)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
