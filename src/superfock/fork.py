"""Two processes for two independent pieces of work: one child made by
POSIX `os.fork` and the calling process.

`both(child, here)` is the one fork of the package.  `all` runs its parts
in it, and `modes.l0_spectra` splits the L(0) diagonals with it.  The
child's result goes back over a pipe as `marshal` data, so it must be made
of ints, strings, tuples, lists and dicts.  The rules are those of a
serial run: the child is always reaped and leaves through `os._exit`, a
`SuperfockError` in it is raised in the caller with its class kept, and a
child that dies or sends nothing raises RuntimeError, never a result.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, Tuple

from . import errors
from .errors import SuperfockError


def rebuilt_error(name: str, message: str) -> SuperfockError:
    """The package error of class `name` (a SuperfockError subclass of
    `errors`, else SuperfockError itself) with `message`: an error sent
    across the pipe as (class name, message)."""
    cls = getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, SuperfockError)):
        cls = SuperfockError
    return cls(message)


def _child(child: Callable[[], object], read_fd: int, write_fd: int):
    """The child's side of `both`: send ("done", child()) or ("error",
    class name, message) down the pipe and leave through os._exit, with
    status 1 and a traceback on stderr when nothing was sent."""
    sent = False
    try:
        os.close(read_fd)
        try:
            result = ("done", child())
        except SuperfockError as exc:
            result = ("error", type(exc).__name__, str(exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(result))
        sent = True
    finally:
        if not sent:
            import traceback  # not loaded at start-up; only a failed child needs it

            traceback.print_exception(*sys.exc_info())
            sys.stderr.flush()
        os._exit(0 if sent else 1)


def both(child: Callable[[], object], here: Callable[[], object]) -> Tuple[object, object]:
    """(child(), here()): child() runs in one child made by os.fork while
    here() runs in this process.  The child is always reaped, also when
    here() raises, whose error is then raised and the child's dropped; a
    SuperfockError in the child is raised here with its class, and a
    child that sends no result raises RuntimeError naming its exit
    status."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(child, read_fd, write_fd)
    os.close(write_fd)
    try:
        mine = here()
    finally:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        raise RuntimeError(f"the forked child sent no result (child exit status {status})")
    kind, *value = marshal.loads(data)
    if kind == "error":
        raise rebuilt_error(*value)
    return value[0], mine
