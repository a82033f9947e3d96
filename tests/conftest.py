"""Shared helpers: reproducible RNGs, random quantum objects, and the rows
that a sweep command writes."""

import pathlib
import pickle

import numpy as np
import pytest

from measurement_coherence import Effect, Observable, QState, cli


@pytest.fixture(autouse=True)
def _no_sweep_head():
    """Every test starts with an empty sweep head memo, so that a test that
    spies on a head kernel sees it run."""
    cli._HEADS.clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def random_density(rng: np.random.Generator, dim: int = 2) -> QState:
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return QState(mat / np.trace(mat).real)


def random_pure(rng: np.random.Generator, dim: int = 2) -> QState:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return QState(np.outer(vec, vec.conj()))


def random_state(rng: np.random.Generator, dim: int) -> QState:
    return random_pure(rng, dim) if rng.random() < 0.5 else random_density(rng, dim)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def observable(values, effects) -> Observable:
    return Observable(tuple((v, Effect(hermitian_part(e))) for v, e in zip(values, effects)))


def random_povm(rng: np.random.Generator, dim: int, outcomes: int | None = None) -> Observable:
    """E_x = T^-1/2 A_x T^-1/2 with Ginibre A_x and T = sum_x A_x; 2 to 4
    outcomes unless given.

    The last effect is I minus the sum of the others, so the effects sum
    to I to round-off whatever the condition number of T; a lone effect
    is I itself.
    """
    if outcomes is None:
        outcomes = rng.integers(2, 5)
    gs = rng.normal(size=(outcomes, dim, dim)) + 1j * rng.normal(size=(outcomes, dim, dim))
    parts = gs @ gs.conj().transpose(0, 2, 1)
    eigenvalues, vectors = np.linalg.eigh(parts.sum(axis=0))
    inv_root = (vectors / np.sqrt(eigenvalues)) @ vectors.conj().T
    effects = [hermitian_part(e) for e in (inv_root @ parts @ inv_root)[:-1]]
    effects.append(np.eye(dim) - sum(effects))
    return observable(rng.normal(size=outcomes), effects)


def random_sharp(rng: np.random.Generator, dim: int) -> Observable:
    """Sharp measurement: the rank-1 projectors onto a random unitary's columns."""
    unitary = random_unitary(rng, dim)
    return Observable(tuple(
        (float(k), Effect(np.outer(unitary[:, k], unitary[:, k].conj()))) for k in range(dim)
    ))


def diagonal_povm(rng: np.random.Generator, dim: int = 2) -> Observable:
    """Random unsharp two-outcome POVM that is diagonal in the H/V basis."""
    diag = rng.uniform(0.05, 0.95, size=dim)
    first = Effect(np.diag(diag).astype(complex))
    second = Effect(np.eye(dim) - np.diag(diag))
    return Observable(((-1.0, first), (+1.0, second)))


def _matrices(value) -> list[np.ndarray]:
    if isinstance(value, QState):
        return [value.matrix]
    return [effect.matrix for effect in value.effects]


def assert_passes_public_checks(value) -> None:
    """A QState or Observable a builder made without the matrix checks
    holds read-only arrays, passes its public constructor with the same
    matrices, and survives a pickle round trip, both bit for bit."""
    if isinstance(value, QState):
        rebuilt = QState(value.matrix)
    else:
        rebuilt = Observable(tuple((v, Effect(e.matrix)) for v, e in value.outcomes))
    for other in (rebuilt, pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value)
        if isinstance(value, Observable):
            assert other.values == value.values
        for built, checked in zip(_matrices(value), _matrices(other), strict=True):
            assert built.flags.writeable is False
            assert checked.flags.writeable is False
            assert (built.dtype, built.shape) == (checked.dtype, checked.shape)
            assert built.tobytes() == checked.tobytes()


def read_csv(path):
    """The header of a CSV sweep file and its rows, each a dict of floats
    keyed by column."""
    lines = pathlib.Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


def sweep_rows(argv, path) -> list[dict[str, float]]:
    """Run a command through cli.main, with --out path, and read back the
    rows it wrote.  Pass a flag's value as "--flag=value": argparse takes a
    separate negative value with an exponent, such as -1e-05, for a flag."""
    assert cli.main([str(arg) for arg in argv] + ["--out", str(path)]) == 0
    return read_csv(path)[1]
