"""Node abstraction: one place a shard kernel can execute.

Three transports behind one interface:

- :class:`LocalNode` — in-process execution.  The degenerate cluster
  (``hosts=("local",)``): zero serialization, byte-identical to the
  inline shard executor.  Also the cheapest way to run the
  dist-differential suite.
- :class:`SubprocessNode` — a worker process on the same machine,
  speaking frames over its stdin/stdout pipes.  No sockets, no ports;
  the process dies with the node.
- :class:`TcpNode` — a worker anywhere reachable over TCP, speaking the
  same frames on a socket.  :func:`spawn_local_tcp` boots one on
  ``127.0.0.1`` with an OS-assigned port — what CI and the bench use to
  exercise the full network stack without real remote hosts.

The contract every transport honors (see :mod:`repro.dist.errors` for
the failure split):

- :meth:`Node.call` executes one allowlisted task and returns its
  result; transport trouble raises :class:`NodeFailure` (the cluster
  then retries the shard elsewhere), a task exception raises
  :class:`TaskError` (propagates — retrying a deterministic bug
  elsewhere would fail identically).
- :meth:`Node.ping` is the health check: ``True`` iff the node
  round-trips a frame within its timeout.
- A node that raised :class:`NodeFailure` is marked ``alive = False``
  and never dispatched to again.

Host-spec strings (the ``--hosts`` grammar) map onto these via
:func:`parse_host`:  ``local`` | ``subprocess`` | ``spawn`` |
``tcp://HOST:PORT`` (or bare ``HOST:PORT``).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import traceback
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dist import protocol
from repro.dist.errors import (
    HostSpecError,
    NodeFailure,
    ProtocolError,
    TaskError,
    UnknownTaskError,
)
from repro.dist.registry import resolve_task
from repro.parallel.shm import mem_ref

#: Seconds a health-check ping may take before the node counts as dead.
PING_TIMEOUT = 5.0

#: Seconds one task call may take end to end (generous: shard kernels
#: are sub-second at every tested scale; this bounds hung transports,
#: not slow math).
CALL_TIMEOUT = 600.0


def _execute(task: str, arrays: Dict[str, np.ndarray], args: Sequence) -> Any:
    """Run one allowlisted task against plain arrays (both sides use
    this: LocalNode directly, workers after decoding a frame)."""
    from repro.parallel import tasks

    fn = resolve_task(task)
    refs = {name: mem_ref(np.asarray(array)) for name, array in arrays.items()}
    return tasks.invoke(fn, refs, tuple(args))


def _error_reply(exc: BaseException) -> tuple:
    kind = "unknown-task" if isinstance(exc, UnknownTaskError) else "task"
    return ("err", kind, f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _raise_remote(reply, node: str) -> Any:
    """Turn a reply frame into a return value or the right exception."""
    if not isinstance(reply, (tuple, list)) or not reply:
        raise ProtocolError(f"malformed reply from node {node}: {reply!r}")
    op = reply[0]
    if op == "ok":
        return reply[1]
    if op == "err":
        _, kind, message, remote_tb = reply
        cls = UnknownTaskError if kind == "unknown-task" else TaskError
        raise cls(message, node=node, remote_traceback=remote_tb)
    raise ProtocolError(f"unexpected reply op {op!r} from node {node}")


class Node(ABC):
    """One execution location; see the module docstring for the contract."""

    name: str = "node"

    def __init__(self) -> None:
        self.alive = True
        self.calls = 0

    @abstractmethod
    def call(self, task: str, arrays: Dict[str, np.ndarray], args: Sequence) -> Any:
        """Execute one allowlisted task; see the failure split above."""

    @abstractmethod
    def ping(self) -> bool:
        """Round-trip the transport; ``False`` marks the node dead."""

    def close(self) -> None:  # pragma: no cover - trivial default
        self.alive = False

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"{type(self).__name__}({self.name}, {state}, calls={self.calls})"


class LocalNode(Node):
    """In-process execution; cannot fail at the transport level."""

    _counter = 0

    def __init__(self, name: str = "") -> None:
        super().__init__()
        LocalNode._counter += 1
        self.name = name or f"local-{LocalNode._counter}"

    def call(self, task, arrays, args):
        self.calls += 1
        return _execute(task, arrays, args)

    def ping(self) -> bool:
        return self.alive


class _FrameNode(Node):
    """Shared frame-speaking machinery of the subprocess/TCP transports."""

    def __init__(self) -> None:
        super().__init__()
        self._tag = protocol.default_codec_tag()

    # Subclasses provide the byte streams.
    def _reader(self):  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def _writer(self):  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def _set_timeout(self, seconds: Optional[float]) -> None:
        """Transports with a tunable deadline override this (TCP)."""

    def _roundtrip(self, message: tuple, timeout: float) -> Any:
        if not self.alive:
            raise NodeFailure("already marked dead", node=self.name)
        try:
            self._set_timeout(timeout)
            protocol.write_frame(self._writer(), message, self._tag)
            reply, _tag = protocol.read_frame(self._reader())
        except Exception as exc:
            # ProtocolError included: a desynced stream is a dead node.
            self.alive = False
            raise NodeFailure(
                f"{type(exc).__name__}: {exc}", node=self.name
            ) from exc
        return reply

    def call(self, task, arrays, args):
        self.calls += 1
        reply = self._roundtrip(("call", task, dict(arrays), list(args)), CALL_TIMEOUT)
        try:
            return _raise_remote(reply, self.name)
        except ProtocolError as exc:
            self.alive = False
            raise NodeFailure(str(exc), node=self.name) from exc

    def ping(self) -> bool:
        if not self.alive:
            return False
        try:
            reply = self._roundtrip(("ping",), PING_TIMEOUT)
        except NodeFailure:
            return False
        ok = isinstance(reply, (tuple, list)) and reply and reply[0] == "pong"
        if not ok:
            self.alive = False
        return bool(ok)

    def _shutdown_frame(self) -> None:
        """Best-effort polite shutdown; transports close pipes after."""
        if self.alive:
            try:
                self._set_timeout(PING_TIMEOUT)
                protocol.write_frame(self._writer(), ("shutdown",), self._tag)
                protocol.read_frame(self._reader())
            except Exception:
                pass
        self.alive = False


def _worker_env() -> Dict[str, str]:
    """Child environment with ``repro`` importable (prepends our own
    package root to ``PYTHONPATH`` — workers may start from any cwd)."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class SubprocessNode(_FrameNode):
    """A same-machine worker process; frames over stdin/stdout pipes."""

    _counter = 0

    def __init__(self, name: str = "") -> None:
        super().__init__()
        SubprocessNode._counter += 1
        self.name = name or f"proc-{SubprocessNode._counter}"
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.dist.worker", "--stdio"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_worker_env(),
        )

    def _reader(self):
        return self._proc.stdout

    def _writer(self):
        return self._proc.stdin

    def close(self) -> None:
        self._shutdown_frame()
        try:
            self._proc.stdin.close()
            self._proc.stdout.close()
        except Exception:  # pragma: no cover - already-dead pipes
            pass
        try:
            self._proc.wait(timeout=PING_TIMEOUT)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung worker
            self._proc.kill()
            self._proc.wait()


class TcpNode(_FrameNode):
    """A worker reachable over TCP.  ``proc`` (optional) is a locally
    spawned worker process this node owns and reaps on close."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "",
        proc: Optional[subprocess.Popen] = None,
        connect_timeout: float = PING_TIMEOUT,
    ) -> None:
        super().__init__()
        self.host = host
        self.port = int(port)
        self.name = name or f"tcp-{host}:{port}"
        self._proc = proc
        try:
            self._sock = socket.create_connection(
                (host, self.port), timeout=connect_timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._file = self._sock.makefile("rwb")
        except OSError as exc:
            self.alive = False
            raise NodeFailure(
                f"connect to {host}:{port} failed: {exc}", node=self.name
            ) from exc

    def _reader(self):
        return self._file

    def _writer(self):
        return self._file

    def _set_timeout(self, seconds: Optional[float]) -> None:
        self._sock.settimeout(seconds)

    def close(self) -> None:
        self._shutdown_frame()
        try:
            self._file.close()
            self._sock.close()
        except Exception:  # pragma: no cover - already-closed socket
            pass
        if self._proc is not None:
            try:
                self._proc.wait(timeout=PING_TIMEOUT)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung worker
                self._proc.kill()
                self._proc.wait()


def spawn_local_tcp(count: int = 1) -> List[TcpNode]:
    """Boot ``count`` TCP workers on 127.0.0.1 (OS-assigned ports) and
    connect a :class:`TcpNode` to each.

    The worker announces its bound port as the first stdout line
    (``DIST-WORKER READY port=N``); everything after that line is the
    worker's ordinary logging.  Each returned node owns its process:
    ``close()`` shuts the worker down and reaps it.
    """
    if count < 1:
        raise ValueError(f"need at least one worker, got {count}")
    nodes: List[TcpNode] = []
    try:
        for index in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.dist.worker", "--port", "0"],
                stdout=subprocess.PIPE,
                env=_worker_env(),
            )
            line = proc.stdout.readline().decode("utf-8", "replace").strip()
            if not line.startswith("DIST-WORKER READY port="):
                proc.kill()
                raise NodeFailure(
                    f"worker announced {line!r} instead of a port",
                    node=f"spawn-{index}",
                )
            port = int(line.rsplit("=", 1)[1])
            nodes.append(
                TcpNode("127.0.0.1", port, name=f"spawn-{index}:{port}", proc=proc)
            )
    except BaseException:
        for node in nodes:
            node.close()
        raise
    return nodes


# ----------------------------------------------------------------------
# Host-spec grammar (the --hosts strings)
# ----------------------------------------------------------------------
def parse_host(spec: str) -> Node:
    """One ``--hosts`` entry → a connected :class:`Node`.

    Grammar: ``local`` (in-process) | ``subprocess`` (stdio worker on
    this machine) | ``spawn`` (local TCP worker on an ephemeral port) |
    ``tcp://HOST:PORT`` or bare ``HOST:PORT`` (connect to a running
    ``python -m repro.dist.worker --port PORT``).
    """
    text = spec.strip()
    if not text:
        raise HostSpecError("empty host spec", spec)
    lowered = text.lower()
    if lowered == "local":
        return LocalNode()
    if lowered in ("subprocess", "proc"):
        return SubprocessNode()
    if lowered == "spawn":
        return spawn_local_tcp(1)[0]
    if lowered.startswith("tcp://"):
        text = text[len("tcp://") :]
    if ":" not in text:
        raise HostSpecError(
            "expected local | subprocess | spawn | tcp://HOST:PORT", spec
        )
    host, _, port_text = text.rpartition(":")
    if not host:
        raise HostSpecError("missing host before ':'", spec)
    try:
        port = int(port_text)
    except ValueError:
        raise HostSpecError(f"port {port_text!r} is not an integer", spec)
    if not 0 < port < 65536:
        raise HostSpecError(f"port {port} out of range 1..65535", spec)
    return TcpNode(host, port)


def parse_hosts(specs: Sequence[str]) -> List[Node]:
    """All entries parsed and connected; closes the partial set on error."""
    nodes: List[Node] = []
    try:
        for spec in specs:
            nodes.append(parse_host(spec))
    except BaseException:
        for node in nodes:
            node.close()
        raise
    return nodes


def validate_host_specs(specs: Sequence[str]) -> Tuple[str, ...]:
    """Syntax-check host specs *without* connecting (CLI validation).

    Returns the normalized tuple; raises :class:`HostSpecError` on the
    first malformed entry.  ``local``/``subprocess``/``spawn`` are
    always valid; address specs must parse as ``HOST:PORT``.
    """
    normalized = []
    for spec in specs:
        text = spec.strip()
        if not text:
            raise HostSpecError("empty host spec", spec)
        lowered = text.lower()
        if lowered not in ("local", "subprocess", "proc", "spawn"):
            address = text[len("tcp://") :] if lowered.startswith("tcp://") else text
            host, _, port_text = address.rpartition(":")
            if not host:
                raise HostSpecError(
                    "expected local | subprocess | spawn | tcp://HOST:PORT", spec
                )
            try:
                port = int(port_text)
            except ValueError:
                raise HostSpecError(f"port {port_text!r} is not an integer", spec)
            if not 0 < port < 65536:
                raise HostSpecError(f"port {port} out of range 1..65535", spec)
        normalized.append(text)
    return tuple(normalized)
