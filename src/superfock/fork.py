"""The package's one fork, `split(sides, run)`: a serial run's results and
errors from two processes, one of them a child made by POSIX `os.fork`.
`all` splits its parts with it, and `modes.l0_spectra` the L(0) diagonal
entries.  The child's results go back over a pipe as `marshal` data, so
they must be made of ints, strings, tuples, lists and dicts.  An error
that a share stops at is a `SuperfockError` or a `MemoryError`.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from . import errors
from .errors import ChildLost, SuperfockError

# the errors a share stops at, as a serial run would
STOPS = (SuperfockError, MemoryError)


def rebuilt_error(name: str, message: str) -> Exception:
    """The error of class `name` (MemoryError, or a SuperfockError subclass
    of `errors`, else SuperfockError itself) with `message`: an error sent
    across the pipe as (class name, message)."""
    cls = MemoryError if name == "MemoryError" else getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, STOPS)):
        cls = SuperfockError
    return cls(message)


def _share(run: Callable[[int], object],
           positions: List[int]) -> Tuple[list, Optional[Exception]]:
    """(results, error): run(i) for the positions in order, up to the first
    SuperfockError or MemoryError, which then fails the position after the
    results."""
    results = []
    try:
        for i in positions:
            results.append(run(i))
    except STOPS as exc:
        return results, exc
    return results, None


def _child(run: Callable[[int], object], positions: List[int], read_fd: int,
           write_fd: int):
    """The child's side of `split`: send (results, None) or (results, (error
    class name, message)) down the pipe and leave through os._exit, with
    status 1 when nothing was sent, and a traceback on stderr unless memory
    ran out or the calling process, failing itself, stopped reading."""
    sent = False
    try:
        os.close(read_fd)
        results, exc = _share(run, positions)
        reply = (results, None if exc is None else (type(exc).__name__, str(exc)))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(reply))
        sent = True
    finally:
        try:
            if not (sent or isinstance(sys.exc_info()[1], (MemoryError, BrokenPipeError))):
                import traceback  # not loaded at start-up; only a failed child needs it

                traceback.print_exception(*sys.exc_info())
                sys.stderr.flush()
        finally:
            # never returns, even if the report above fails
            os._exit(0 if sent else 1)


def split(sides: Sequence[object], run: Callable[[int], object]) -> list:
    """[run(i) for i in range(len(sides))]: the positions with a true side
    run in one forked child, the others here, each share in position order
    up to its first SuperfockError or MemoryError; with no true side
    nothing is forked.  The error at the earlier position is raised, the
    child's with its class kept.  The child is always reaped and leaves
    through os._exit; any other error here is raised once it is, and a
    child that sends no result, or a reply of the wrong length, raises
    ChildLost naming its exit status, ahead of any error here."""
    child = [i for i, side in enumerate(sides) if side]
    if not child:
        return [run(i) for i in range(len(sides))]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(run, child, read_fd, write_fd)
    os.close(write_fd)
    here = [i for i, side in enumerate(sides) if not side]
    try:
        mine, my_error = _share(run, here)
    finally:
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            # reaped even when the read fails (out of memory): the closed
            # pipe ends the child
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        theirs, their_error = marshal.loads(data) if status == 0 and data else (None, None)
        # a complete reply has a result for each of the child's positions,
        # or for those before the one its error fails
        if theirs is None or not (len(theirs) < len(child) if their_error
                                  else len(theirs) == len(child)):
            raise ChildLost(f"the forked child sent no complete result "
                            f"(child exit status {status})")
    if my_error is not None and (their_error is None or here[len(mine)] < child[len(theirs)]):
        raise my_error
    if their_error is not None:
        raise rebuilt_error(*their_error)
    mine, theirs = iter(mine), iter(theirs)
    return [next(theirs if side else mine) for side in sides]
