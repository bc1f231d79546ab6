"""Lifecycle of the ``python -m repro serve`` process under test.

The server is spawned unmodified (or, for a traced run, through
``perfbench/traced_serve.py``, which wraps public functions and then
hands control to ``repro.cli.main``).  Set-up time runs from the spawn
to the first OK ``OP_PING``.  CPU time and peak RSS are read from
``/proc``; the process is stopped with SIGTERM and waited for.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import List, Optional

from repro.server import protocol
from wire import Client

HERE = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``serve`` process: spawn, wait until it answers, stop."""

    def __init__(self, args: List[str], workdir: str, env: dict,
                 spans: Optional[str] = None) -> None:
        self.port = free_port()
        argv = ["serve", *args, "--port", str(self.port)]
        if spans:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans, *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        self.log_path = os.path.join(workdir, "serve.log")
        self._log = open(self.log_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        try:
            self.client = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self) -> Client:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited early:\n{self.log()}")
            try:
                client = Client(self.port, 1)
            except OSError:
                time.sleep(0.01)
                continue
            payload = client.call(protocol.OP_PING)
            if payload[1] == protocol.STATUS_OK:
                return client
            client.close()
        raise RuntimeError(f"serve not ready after {READY_TIMEOUT_S} s:\n{self.log()}")

    def log(self) -> str:
        with open(self.log_path) as stream:
            return stream.read()[-4000:]

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stats(self) -> dict:
        import json

        payload = self.client.call(protocol.OP_STATS)
        return json.loads(payload[16:].decode())

    def stop(self) -> int:
        """SIGTERM, wait, and check the process really is gone."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("serve ignored SIGTERM")
        self._log.close()
        if _alive(self.proc.pid):
            raise RuntimeError(f"serve process {self.proc.pid} outlived its wait")
        return self.proc.returncode


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def orphans(marker: str) -> List[int]:
    """Processes whose command line mentions ``marker`` (the run's
    private directory), other than this one."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as stream:
                if marker.encode() in stream.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found
