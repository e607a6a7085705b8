"""The benchmark's own HTTP client and server-process handle.

One keep-alive connection per client; every call returns the status,
the decoded JSON body and the latency the client saw. The server runs
as a child process; a reader thread copies its output to a log file as
it comes, so the pipe never fills up, and signals the moment the server
announces its address — set-up is timed without polling.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import threading
import time
from pathlib import Path

from ncbench.common import ROOT, BenchError, child_env

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class HttpClient:
    """A keep-alive JSON client for one server."""

    def __init__(self, host: str, port: int, *, timeout: float = 120.0) -> None:
        self._connection = http.client.HTTPConnection(host, port, timeout=timeout)

    def call(
        self, method: str, path: str, body: "bytes | None" = None
    ) -> "tuple[int, object, float]":
        """``(status, decoded body, seconds)`` for one request."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()
            raise
        elapsed = time.perf_counter() - started
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw), elapsed
        return response.status, raw.decode("utf-8", "replace"), elapsed

    def search(self, query: "list[str] | tuple[str, ...]") -> "tuple[int, object, float]":
        """``POST /v1/search`` for ``query`` (entity names)."""
        return self.call("POST", "/v1/search", json.dumps({"query": list(query)}).encode())

    def get(self, path: str) -> object:
        """GET ``path``; raise on a non-200 answer."""
        status, payload, _ = self.call("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}: {payload}")
        return payload

    def close(self) -> None:
        self._connection.close()


class ServerProcess:
    """A ``repro serve`` child: launch, wait until listening, stop.

    ``launched_at`` is the ``CLOCK_MONOTONIC`` instant just before the
    process was started — the origin of ``setup_s``.
    """

    def __init__(self, argv: "list[str]", log_path: Path) -> None:
        self.argv = argv
        self.log_path = log_path
        self.process: "subprocess.Popen | None" = None
        self.launched_at = 0.0
        self.host = ""
        self.port = 0

    def start(self, *, timeout: float = 150.0) -> None:
        self.launched_at = time.monotonic()
        self.process = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=child_env(),
        )
        listening = threading.Event()
        self._reader = threading.Thread(
            target=self._copy_output, args=(listening,), daemon=True
        )
        self._reader.start()
        # the reader also sets the event at end of output (the server died)
        listening.wait(timeout)
        if self.port:
            return
        self.stop()
        tail = self.log_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"server did not start ({self.argv}):\n{tail}")

    def _copy_output(self, listening: threading.Event) -> None:
        """Copy the server's output to the log; note its address once seen."""
        with open(self.log_path, "wb") as log:
            for line in self.process.stdout:
                log.write(line)
                log.flush()
                if not self.port:
                    match = _LISTENING.search(line.decode("utf-8", "replace"))
                    if match:
                        self.host, self.port = match.group(1), int(match.group(2))
                        listening.set()
        listening.set()

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def client(self) -> HttpClient:
        return HttpClient(self.host, self.port)

    def stop(self, *, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL; waits for the exit."""
        process = self.process
        if process is None:
            return 0
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._reader.join(timeout)
        process.stdout.close()
        return process.returncode
