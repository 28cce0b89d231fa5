"""The one fork of the package (`fork.both`) and the L(0) spectra split
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
        out.append([engine._l0_entry(L, col) for col in range(engine.space.dim)])
    return out


def _columns(engine, parity, after=-1):
    """The columns after `after` whose fermion count has this parity."""
    return [col for col in range(after + 1, engine.space.dim)
            if len(engine.space.codes[col][1]) % 2 == parity]


def _raise(exc):
    raise exc


# fork.both -------------------------------------------------------------------

def test_both_returns_each_side_and_reaps_its_child():
    caller = os.getpid()
    child, here = fork.both(lambda: (os.getpid() != caller, {(1, "a"): [2 ** 80]}),
                            lambda: os.getpid() == caller)
    assert child == (True, {(1, "a"): [2 ** 80]}) and here is True
    assert_no_child_left()


@pytest.mark.parametrize("exc", [NonDiagonal("planted"), NonHomogeneous("planted"),
                                 SuperfockError("planted")])
def test_an_error_in_the_child_keeps_its_class(exc):
    with pytest.raises(SuperfockError, match="^planted$") as info:
        fork.both(lambda: _raise(exc), lambda: None)
    assert type(info.value) is type(exc)
    assert_no_child_left()


def test_an_error_here_still_reaps_the_child():
    with pytest.raises(NonDiagonal, match="here"):
        fork.both(lambda: 1, lambda: _raise(NonDiagonal("here")))
    assert_no_child_left()


def test_a_rebuilt_error_is_a_package_error():
    assert type(fork.rebuilt_error("NonDiagonal", "m")) is NonDiagonal
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
