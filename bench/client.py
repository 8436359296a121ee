"""Closed-loop client: one request at a time, each in a forked child.

The parent has imported ``higgsbetti.cli`` and computed nothing, so every
``lru_cache`` in the program is empty when a child starts, as it is for a
user who runs ``higgsbetti`` from a shell.  The child times ``cli.main(argv)``
itself and sends the result back over a pipe; the parent takes the child's
peak RSS and total CPU time from ``wait4``.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field

import tracing


@dataclass
class Outcome:
    exit_code: int | None  # None: the request crashed or timed out
    seconds: float  # wall time of cli.main in the child; the timeout if it hung
    wall: float = 0.0  # the parent's wall time from fork to reaping the child
    cpu_seconds: float = 0.0  # CPU time of cli.main in the child
    child_cpu: float = 0.0  # the child's whole CPU time, user and system, from wait4
    stdout: str = ""
    error: str = ""  # traceback, "timeout", or the child's stderr
    peak_rss_kib: int = 0
    warm_cache_entries: int = 0  # lru_cache entries already present at child start
    spans: list = field(default_factory=list)
    mul_terms: int = 0
    absent: list = field(default_factory=list)
    cache_stats: dict = field(default_factory=dict)  # "module.name" -> (hits, misses)


def program_caches() -> dict:
    """Every ``lru_cache`` reachable as a ``higgsbetti.*`` module attribute,
    so caches a later version adds are covered too."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "higgsbetti" or name.startswith("higgsbetti."):
            for attr, value in list(vars(module).items()):
                if callable(getattr(value, "cache_info", None)):
                    out.setdefault(f"{value.__module__}.{getattr(value, '__qualname__', attr)}", value)
    return out


def _child(argv: list[str], traced: bool) -> dict:
    import higgsbetti.cli

    caches = program_caches()
    result = {"warm_cache_entries": sum(c.cache_info().currsize for c in caches.values())}
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    code = None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        code = higgsbetti.cli.main(argv)
    except BaseException:  # the request crashed; report it, the run continues
        err.write(traceback.format_exc())
    end = time.perf_counter()
    cpu_seconds = time.process_time() - cpu_start
    result.update(
        exit_code=code, seconds=end - start, cpu_seconds=cpu_seconds, stdout=out.getvalue(), error=err.getvalue()
    )
    if tracer is not None:
        tracer.close_root(start, end)
        info = {name: c.cache_info() for name, c in caches.items()}
        result.update(
            spans=tracer.spans,
            mul_terms=tracer.mul_terms,
            absent=tracer.absent,
            cache_stats={name: (i.hits, i.misses) for name, i in info.items()},
        )
    return result


def run_request(argv: list[str], traced: bool, timeout: float) -> Outcome:
    start = time.perf_counter()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into the parent's code
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(_child(argv, traced), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks, timed_out = [], False
    deadline = time.monotonic() + timeout
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    usage_fields = {"peak_rss_kib": usage.ru_maxrss, "child_cpu": usage.ru_utime + usage.ru_stime}
    if timed_out:
        return Outcome(None, timeout, wall, timeout, error="timeout", **usage_fields)
    if status != 0 or not chunks:
        return Outcome(None, wall, wall, wall, error=f"child exited with status {status}", **usage_fields)
    # only bytes our own child wrote are unpickled
    return Outcome(wall=wall, **usage_fields, **pickle.loads(b"".join(chunks)))
