"""Unit tests + property tests for the noise/imbalance model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.config import NoiseConfig
from repro.simmpi.noise import NoiseModel


def test_quiet_config_is_identity():
    m = NoiseModel(NoiseConfig(persistent_skew=0.0, quantum_fraction=0.0), 8)
    for rank in range(8):
        assert m.persistent_factor(rank) == 1.0
        assert m.inflate(rank, 1.0) == 1.0


def test_persistent_factor_at_least_one():
    m = NoiseModel(NoiseConfig(persistent_skew=0.1), 256)
    factors = [m.persistent_factor(r) for r in range(256)]
    assert all(f >= 1.0 for f in factors)
    assert max(factors) > 1.0  # some rank actually drew a slowdown


def test_persistent_factor_is_cached_and_deterministic():
    m1 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=7), 64)
    m2 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=7), 64)
    for r in range(64):
        f = m1.persistent_factor(r)
        assert f == m1.persistent_factor(r)  # cached
        assert f == m2.persistent_factor(r)  # seeded


def test_different_seeds_differ():
    m1 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=1), 64)
    m2 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=2), 64)
    assert [m1.persistent_factor(r) for r in range(64)] != [
        m2.persistent_factor(r) for r in range(64)
    ]


def test_inflate_zero_duration_is_zero():
    m = NoiseModel(NoiseConfig(), 4)
    assert m.inflate(0, 0.0) == 0.0


def test_transient_noise_mean_matches_expectation():
    """LLN check: over many long intervals, realized inflation approaches
    quantum_fraction."""
    cfg = NoiseConfig(persistent_skew=0.0, quantum_fraction=0.05, seed=3)
    m = NoiseModel(cfg, 1)
    nominal = 1.0
    samples = [m.inflate(0, nominal) for _ in range(200)]
    mean = np.mean(samples)
    assert mean == pytest.approx(nominal * 1.05, rel=0.05)
    assert m.expected_inflation(nominal) == pytest.approx(1.05)


def test_expected_max_factor_grows_with_scale():
    m = NoiseModel(NoiseConfig(persistent_skew=0.05), 1)
    f32 = m.expected_max_factor(32)
    f8192 = m.expected_max_factor(8192)
    assert 1.0 < f32 < f8192


def test_expected_max_factor_trivial_cases():
    m0 = NoiseModel(NoiseConfig(persistent_skew=0.0), 1)
    assert m0.expected_max_factor(10_000) == 1.0
    m1 = NoiseModel(NoiseConfig(persistent_skew=0.5), 1)
    assert m1.expected_max_factor(1) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(persistent_skew=-0.1).validate()
    with pytest.raises(ValueError):
        NoiseConfig(quantum_fraction=1.0).validate()
    with pytest.raises(ValueError):
        NoiseConfig(quantum=0.0).validate()


@given(
    duration=st.floats(min_value=1e-6, max_value=10.0,
                       allow_nan=False, allow_infinity=False),
    skew=st.floats(min_value=0.0, max_value=0.3),
    frac=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_inflation_never_shrinks_work(duration, skew, frac):
    """Invariant: noise can only add time, never remove it."""
    m = NoiseModel(NoiseConfig(persistent_skew=skew, quantum_fraction=frac), 4)
    for rank in range(4):
        assert m.inflate(rank, duration) >= duration * 0.999999


@given(rank=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_any_rank_id_is_valid(rank):
    m = NoiseModel(NoiseConfig(persistent_skew=0.05), 16)
    assert m.persistent_factor(rank) >= 1.0


def test_draws_follow_each_ranks_seed_sequence():
    """The batch-derived generators draw exactly what
    ``default_rng(SeedSequence(seed, spawn_key=(rank,)))`` draws, for
    ranks inside and outside the model's range."""
    cfg = NoiseConfig(persistent_skew=0.3, quantum_fraction=0.05, seed=11)
    m = NoiseModel(cfg, 8)
    for rank in (0, 5, 7, 8, 123):
        ref = np.random.default_rng(
            np.random.SeedSequence(entropy=11, spawn_key=(rank,)))
        factor = max(1.0, float(ref.lognormal(0.0, 0.3)))
        assert m.persistent_factor(rank) == factor
        expected = 0.25 * factor
        n_events = int(ref.poisson(0.25 / cfg.quantum))
        if n_events > 0:
            expected += float(ref.exponential(
                0.05 * cfg.quantum, size=n_events).sum())
        assert m.inflate(rank, 0.25) == expected
