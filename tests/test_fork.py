"""The one fork of the package (`fork.split`) and the L(0) spectra split
over it (`modes.l0_spectra`): the split equals the serial loop, an error is
the one the serial loop raises first, a child that dies never yields a
spectrum, and no child is left behind."""

import os
import signal

import pytest

import superfock.modes as modes
from superfock import fork
from superfock.errors import NonDiagonal, NonHomogeneous, SuperfockError
from superfock.modes import l0_spectra
from superfock.twisted import MirrorModule, SigmaModule
from superfock.vosa import TensorVosa, Vosa


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stack(V5, tensor, n2, levels):
    sigma = SigmaModule(V5, levels=levels)
    return sigma, MirrorModule(sigma, tensor, n2)


def _serial(engines):
    """The serial loop the split replaces: engine by engine, column by column."""
    out = []
    for engine in engines:
        L = engine.L()
        out.append([engine._l0_entry(L, col) for col in range(len(engine.col_w2))])
    return out


def _columns(engine, parity, after=-1):
    """The columns after `after` whose fermion count has this parity."""
    return [col for col in range(after + 1, engine.space.dim)
            if len(engine.space.codes[col][1]) % 2 == parity]


def _raise(exc):
    raise exc


# fork.split -------------------------------------------------------------------

def _in(lane, value):
    """run(i) that returns value, refusing to run outside its lane:
    "child" (the forked child) or "here" (the calling process)."""
    caller = os.getpid()

    def run():
        assert (os.getpid() == caller) == (lane == "here"), f"ran outside the {lane} lane"
        return value

    return run


def test_split_returns_each_result_in_position_order_and_reaps_its_child():
    work = [_in("child", 2 ** 80), _in("here", "a"), _in("here", {(1, "a"): [2 ** 81]}),
            _in("child", {"b": (3, -4)}), _in("here", None)]
    assert fork.split([1, 0, 0, 1, 0], lambda i: work[i]()) == [
        2 ** 80, "a", {(1, "a"): [2 ** 81]}, {"b": (3, -4)}, None]
    assert_no_child_left()


@pytest.mark.parametrize("exc", [NonDiagonal("planted"), NonHomogeneous("planted"),
                                 SuperfockError("planted")])
def test_an_error_in_the_child_keeps_its_class(exc):
    with pytest.raises(SuperfockError, match="^planted$") as info:
        fork.split([True, False], lambda i: _raise(exc) if i == 0 else None)
    assert type(info.value) is type(exc)
    assert_no_child_left()


def test_an_error_here_still_reaps_the_child():
    # not a package error, so not a share's stop: raised once the child is reaped
    with pytest.raises(ValueError, match="here"):
        fork.split([True, False], lambda i: _raise(ValueError("here")) if i else 1)
    assert_no_child_left()


@pytest.mark.parametrize("sides", [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]])
def test_split_raises_the_serial_first_error_whichever_share_holds_it(sides):
    # positions 1 and 3 fail; a serial run stops at 1, and so does the split
    ran, caller = [], os.getpid()

    def run(i):
        ran.append(i)
        if i in (1, 3):
            raise (NonDiagonal if i == 1 else NonHomogeneous)(f"position {i}")
        return i

    with pytest.raises(NonDiagonal, match="^position 1$"):
        fork.split(sides, run)
    # this process's share stopped at its first error
    here = [i for i, side in enumerate(sides) if not side]
    stop = min([i for i in here if i in (1, 3)], default=len(sides))
    assert ran == [i for i in here if i <= stop]
    assert_no_child_left()


@pytest.mark.parametrize("sides", [[1, 0, 1, 0], [0, 1, 0, 1]])
@pytest.mark.parametrize("first, later", [(MemoryError, NonHomogeneous),
                                          (NonDiagonal, MemoryError)])
def test_running_out_of_memory_follows_the_serial_first_rule(sides, first, later):
    # a MemoryError stops a share as a package error does, in either process
    def run(i):
        if i in (1, 3):
            raise (first if i == 1 else later)(f"position {i}")
        return i

    with pytest.raises(first, match="^position 1$") as info:
        fork.split(sides, run)
    assert type(info.value) is first
    assert_no_child_left()


def test_a_read_that_runs_out_of_memory_still_reaps_the_child(capfd, monkeypatch):
    # the child, its pipe closed, leaves without a traceback
    real = os.fdopen

    class Starved:
        def __init__(self, fd, mode):
            self.pipe = real(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.pipe.close()

        def read(self):
            raise MemoryError()

    monkeypatch.setattr(os, "fdopen",
                        lambda fd, mode: Starved(fd, mode) if mode == "rb" else real(fd, mode))
    with pytest.raises(MemoryError):
        fork.split([True, False], lambda i: "x" * 100000)
    assert_no_child_left()
    assert capfd.readouterr().err == ""


def test_no_child_is_forked_without_a_child_position(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked")))
    assert fork.split([0, False, None], lambda i: i * i) == [0, 1, 4]
    assert fork.split([], lambda i: i) == []


def test_a_dead_child_is_not_hidden_by_an_error_here():
    with pytest.raises(RuntimeError, match=r"child exit status 1\)") as info:
        fork.split([True, False], lambda i: _raise(ValueError("here")) if i else os._exit(1))
    assert isinstance(info.value.__context__, ValueError)
    assert_no_child_left()


def test_a_rebuilt_error_is_a_package_error():
    assert type(fork.rebuilt_error("NonDiagonal", "m")) is NonDiagonal
    assert type(fork.rebuilt_error("MemoryError", "m")) is MemoryError
    # a name that is no package error class comes back as the base class
    for name in ("ValueError", "Fraction", "missing"):
        err = fork.rebuilt_error(name, "m")
        assert type(err) is SuperfockError and str(err) == "m"


# the L(0) spectra split ------------------------------------------------------------

@pytest.mark.parametrize("levels", range(4, 9))
def test_split_spectra_equal_the_serial_loop(V5, tensor, n2, levels):
    sigma, mirror = _stack(V5, tensor, n2, levels)
    got = l0_spectra([sigma, mirror])
    assert _columns(sigma, 1), "the child's share is empty"
    assert got == _serial([sigma, mirror])
    # kept per engine: a second call, or one engine alone, forks no more
    assert l0_spectra([mirror])[0] is got[1] and sigma.l0_eigenvalues() is got[0]
    assert_no_child_left()


def test_the_spectrum_L_keeps_no_column_memo(V5, tensor, n2, monkeypatch):
    sigma, mirror = _stack(V5, tensor, n2, 5)
    want, built, exact = _serial([sigma, mirror]), [], modes.Engine.L

    def L(engine):
        built.append(exact(engine))
        return built[-1]

    monkeypatch.setattr(modes.Engine, "L", L)
    assert l0_spectra([sigma, mirror]) == want
    # one L per engine in this process, each column computed and not kept
    assert len(built) == 2 and all(fam._cols == {} for fam in built)
    assert_no_child_left()


def test_the_tensor_square_splits_on_its_factors_fermion_counts(capfd):
    tensor = TensorVosa(Vosa(3), 3)
    assert tensor.l0_eigenvalues() == _serial([tensor])[0]
    assert capfd.readouterr().err == ""
    assert 1 in tensor.space.fermion_parities, "the child's share is empty"
    assert_no_child_left()


def test_no_child_is_forked_for_an_empty_share(V5, monkeypatch):
    # at one level the two Ramond ground states are the only columns, and
    # neither holds a fermion mode
    sigma = SigmaModule(V5, levels=1)
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked")))
    assert l0_spectra([sigma]) == _serial([sigma])


def _planted(monkeypatch, bad):
    """Make `_l0_entry` raise NonDiagonal, with the message of a mixing
    L(0), at each (engine, column) of bad, in every process."""
    exact = modes.Engine._l0_entry

    def entry(engine, L, col):
        if (engine, col) in bad:
            raise NonDiagonal(f"operator mixes basis state {col}")
        return exact(engine, L, col)

    monkeypatch.setattr(modes.Engine, "_l0_entry", entry)


def _bad_columns(sigma, mirror, case):
    """Two planted (engine, column) pairs, one in each share."""
    odd = _columns(sigma, 1)[0]
    even = _columns(sigma, 0)[2]  # past the two ground columns
    return {"child first": {(sigma, odd), (sigma, _columns(sigma, 0, odd)[0])},
            "parent first": {(sigma, even), (sigma, _columns(sigma, 1, even)[0])},
            # the mirror's column comes first, but all of sigma's columns
            # are checked before any of the mirror's
            "sigma before mirror": {(mirror, even), (sigma, _columns(sigma, 1, even)[0])},
            "mirror only": {(mirror, odd), (mirror, even)}}[case]


@pytest.mark.parametrize("case", ["child first", "parent first", "sigma before mirror",
                                  "mirror only"])
def test_the_split_raises_the_serial_error(V5, tensor, n2, monkeypatch, case):
    sigma, mirror = _stack(V5, tensor, n2, 5)
    bad = _bad_columns(sigma, mirror, case)
    assert {len(sigma.space.codes[col][1]) % 2 for _, col in bad} == {0, 1}
    _planted(monkeypatch, bad)
    with pytest.raises(NonDiagonal) as serial:
        _serial([sigma, mirror])
    with pytest.raises(NonDiagonal) as split:
        l0_spectra([sigma, mirror])
    assert str(split.value) == str(serial.value)
    assert "l0-spectrum" not in sigma._tables and "l0-spectrum" not in mirror._tables
    assert_no_child_left()


@pytest.mark.parametrize("crash, status", [
    (lambda: os._exit(1), 1),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
])
def test_a_child_that_dies_mid_share_yields_no_spectrum(V5, tensor, n2, monkeypatch,
                                                        crash, status):
    sigma, mirror = _stack(V5, tensor, n2, 4)
    caller, exact = os.getpid(), modes.Engine._l0_entry
    last = _columns(sigma, 1)[2]

    def entry(engine, L, col):
        if os.getpid() != caller and col == last:
            crash()
        return exact(engine, L, col)

    monkeypatch.setattr(modes.Engine, "_l0_entry", entry)
    with pytest.raises(RuntimeError, match=rf"child exit status {status}\)"):
        l0_spectra([sigma, mirror])
    assert_no_child_left()
