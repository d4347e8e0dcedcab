"""Run ``repro-classify`` as a child process: train, serve, stop.

Every child is started with ``PYTHONPATH`` pointing at the checkout's
``src`` (the code under test), waited for, and reaped — a server that
does not exit on SIGTERM within the drain timeout is killed.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

#: How long a server may take from spawn to its first 200 /healthz.
STARTUP_TIMEOUT_S = 60.0
#: How long a SIGTERM'd server may drain before it is killed.
STOP_TIMEOUT_S = 30.0

_LISTEN_LINE = re.compile(r"on http://[^:]+:(\d+)")


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_FAULTS", None)
    return env


def run_train(root: Path, tree: Path, out: Path, seed: int
              ) -> tuple[float, float]:
    """``repro-classify train`` as a subprocess: ``(wall s, peak RSS MiB)``."""

    command = [sys.executable, "-m", "repro.cli", "train", str(tree),
               "-o", str(out), "--seed", str(seed)]
    log = out.with_suffix(".train.log")
    with open(log, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=cli_env(root),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # wait4 reaped the child (and gave its peak RSS); tell Popen so.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"train exited {proc.returncode}: "
                           f"{log.read_text(errors='replace').strip()}")
    return wall, usage.ru_maxrss / 1024.0


class Server:
    """One ``repro-classify serve`` child and the time it took to start."""

    def __init__(self, root: Path, model: Path, *, trace: bool = False
                 ) -> None:
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--model", str(model), "--port", "0",
                   "--trace-sample", "1" if trace else "0"]
        if trace:
            # Keep every trace of the run, so each client call can be
            # joined to its server-side breakdown.
            command += ["--trace-ring", "100000", "--slow-request-ms", "0"]
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, env=cli_env(root),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        try:
            self.port = self._read_port(start)
            self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_port(self, start: float) -> int:
        stdout = self.proc.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = STARTUP_TIMEOUT_S - (time.perf_counter() - start)
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("server did not announce its port "
                                   f"(exit code {self.proc.poll()})")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    continue
                line += chunk
        match = _LISTEN_LINE.search(line.decode("utf-8", "replace"))
        if match is None:
            raise RuntimeError(f"unexpected serve banner: {line!r}")
        return int(match.group(1))

    def _wait_healthy(self, start: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz", timeout=5.0)
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - start > STARTUP_TIMEOUT_S:
                raise RuntimeError("server never answered /healthz with 200")
            time.sleep(0.002)

    def get(self, path: str, *, timeout: float = 30.0) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        return response.status, json.loads(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""

        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
