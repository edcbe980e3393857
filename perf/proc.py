"""Child processes whose output lines the benchmark waits on."""

from __future__ import annotations

import queue
import subprocess
import threading
import time
from pathlib import Path


class Child:
    """A subprocess with one output stream (``stdout`` or ``stderr``)
    pumped line by line into a queue, so waits can time out."""

    def __init__(self, cmd: list[str], *, cwd: Path, env: dict, stream: str = "stdout"):
        pipes = (
            {"stdout": subprocess.PIPE} if stream == "stdout"
            else {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE}
        )
        self.proc = subprocess.Popen(cmd, cwd=cwd, env=env, text=True, **pipes)
        pipe = self.proc.stdout if stream == "stdout" else self.proc.stderr
        self.log: list[str] = []
        self._lines: queue.Queue[str | None] = queue.Queue()

        def pump() -> None:
            for line in pipe:
                self.log.append(line)
                self._lines.put(line)
            self._lines.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()

    def expect(self, marker: str, timeout_s: float) -> str:
        """The next line containing ``marker``; raises ``RuntimeError`` if
        the stream ends or ``timeout_s`` passes first."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(
                    f"no {marker!r} from {' '.join(self.proc.args)}:\n"
                    + "".join(self.log[-40:])
                )
            if marker in line:
                return line

    def wait(self, timeout_s: float) -> int:
        """Wait for the exit (killing the child after ``timeout_s``)."""
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self.proc.returncode
        self._pump.join(timeout=10)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
