"""The channel and the criterion at d = 3 (a qutrit) and d = 4 (two qubits).

Random POVMs and states; nothing here is specific to the qubit family.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from measurement_coherence import (
    Effect,
    Observable,
    commutator_norm,
    delta_v,
    entropy_difference,
    luders_channel,
    moment_difference,
    outcome_distribution,
    total_probability_residual,
)
from conftest import random_density, random_pure

TOL = 1e-12

dims = st.sampled_from([3, 4])
seeds = st.integers(0, 2**32 - 1)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def observable(values, effects) -> Observable:
    return Observable(tuple((v, Effect(hermitian_part(e))) for v, e in zip(values, effects)))


def random_povm(rng: np.random.Generator, dim: int) -> Observable:
    """E_x = T^-1/2 A_x T^-1/2 with Ginibre A_x and T = sum_x A_x."""
    outcomes = rng.integers(2, 5)
    gs = rng.normal(size=(outcomes, dim, dim)) + 1j * rng.normal(size=(outcomes, dim, dim))
    parts = gs @ gs.conj().transpose(0, 2, 1)
    eigenvalues, vectors = np.linalg.eigh(parts.sum(axis=0))
    inv_root = (vectors / np.sqrt(eigenvalues)) @ vectors.conj().T
    return observable(rng.normal(size=outcomes), inv_root @ parts @ inv_root)


def random_state(rng: np.random.Generator, dim: int):
    return random_pure(rng, dim) if rng.random() < 0.5 else random_density(rng, dim)


def psd_root(mat: np.ndarray) -> np.ndarray:
    eigenvalues, vectors = np.linalg.eigh(mat)
    return (vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ vectors.conj().T


@settings(max_examples=100, deadline=None)
@given(dim=dims, seed=seeds)
def test_cached_channel_is_the_sum_over_outcomes(dim, seed):
    rng = np.random.default_rng(seed)
    obs, state = random_povm(rng, dim), random_state(rng, dim)
    roots = [psd_root(e.matrix) for e in obs.effects]
    explicit = sum(s @ state.matrix @ s for s in roots)
    out = luders_channel(state, obs).matrix
    np.testing.assert_allclose(out, explicit, rtol=0.0, atol=TOL)
    assert abs(np.trace(out) - 1.0) <= TOL


@settings(max_examples=100, deadline=None)
@given(dim=dims, seed=seeds, data=st.data())
def test_channel_is_idempotent_for_a_sharp_measurement(dim, seed, data):
    rng = np.random.default_rng(seed)
    labels = data.draw(st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim))
    blocks = sorted(set(labels))  # projector k spans the basis vectors labelled k
    unitary = random_unitary(rng, dim)
    projectors = [(unitary * (np.array(labels) == k)) @ unitary.conj().T for k in blocks]
    first = observable(range(len(blocks)), projectors)
    state = random_state(rng, dim)
    once = luders_channel(state, first)
    twice = luders_channel(once, first)
    np.testing.assert_allclose(twice.matrix, once.matrix, rtol=0.0, atol=TOL)
    assert abs(np.trace(once.matrix) - 1.0) <= TOL


@settings(max_examples=100, deadline=None)
@given(dim=dims, seed=seeds)
def test_no_violation_when_the_second_commutes_with_every_first_effect(dim, seed):
    rng = np.random.default_rng(seed)
    unitary = random_unitary(rng, dim)

    def diagonal_in_unitary(outcomes):
        weights = rng.uniform(0.05, 1.0, size=(outcomes, dim))
        weights /= weights.sum(axis=0)  # each column is a distribution over x
        effects = (unitary[None] * weights[:, None, :]) @ unitary.conj().T
        return observable(rng.normal(size=outcomes), effects)

    first = diagonal_in_unitary(rng.integers(2, 5))
    second = diagonal_in_unitary(rng.integers(2, 5))
    for eff_x in first.effects:
        for eff_y in second.effects:
            assert commutator_norm(eff_x, eff_y) <= TOL
    report = delta_v(random_state(rng, dim), first, second)
    assert abs(report.delta_v) <= TOL


@settings(max_examples=100, deadline=None)
@given(dim=dims, seed=seeds)
def test_violation_is_bounded_by_the_trace_distance(dim, seed):
    """|delta_v| <= 3 r^2 ||rho - rho'||_1 with r the half-range of the
    second measurement's values: shift the values to [-r, r], then
    |tr(X (rho' - rho))| <= ||X|| ||rho' - rho||_1 bounds the second
    moment's change by r^2 and the squared mean's by 2 r^2."""
    rng = np.random.default_rng(seed)
    first, second = random_povm(rng, dim), random_povm(rng, dim)
    report = delta_v(random_state(rng, dim), first, second)
    half_range = (max(second.values) - min(second.values)) / 2.0
    bound = 3.0 * half_range**2 * math.sqrt(report.trace_norm_sq)
    assert abs(report.delta_v) <= bound + 1e-12


def central_moment(dist, k: int) -> float:
    deviations = np.array(dist.values) - dist.mean()
    return float(np.sum(deviations**k * dist.probabilities))


def shannon_entropy(dist) -> float:
    probs = dist.probabilities[dist.probabilities > 0.0]
    return float(-np.sum(probs * np.log(probs)))


@settings(max_examples=100, deadline=None)
@given(dim=dims, seed=seeds)
def test_comparisons_match_the_object_path(dim, seed):
    rng = np.random.default_rng(seed)
    first, second = random_povm(rng, dim), random_povm(rng, dim)
    state = random_density(rng, dim)
    direct = outcome_distribution(state, second)
    dephased = outcome_distribution(luders_channel(state, first), second)
    residual = np.max(np.abs(direct.probabilities - dephased.probabilities))
    assert abs(total_probability_residual(state, first, second) - residual) <= TOL
    for k in (2, 3, 4):
        expected = central_moment(dephased, k) - central_moment(direct, k)
        assert abs(moment_difference(state, first, second, k) - expected) <= TOL
    expected = shannon_entropy(dephased) - shannon_entropy(direct)
    assert abs(entropy_difference(state, first, second) - expected) <= TOL
    report = delta_v(state, first, second)
    assert abs(moment_difference(state, first, second, 2) - report.delta_v) <= TOL
