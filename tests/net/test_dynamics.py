"""Tests for the fluctuation models."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.dynamics import (
    FluctuationModel,
    StaticModel,
    _link_hash,
    _normal_draw,
    _uniform_draw,
)
from weather_reference import uncached_weather


def reference_factor(model: FluctuationModel, i: int, j: int, t: float) -> float:
    """``FluctuationModel.factor`` without memoization: a fresh
    generator per draw, numpy floor and clip."""
    if i == j:
        return 1.0
    return uncached_weather(model, i, j, t)


def reference_jitter(
    model: FluctuationModel, i: int, j: int, t: float, window_s: float
) -> float:
    """``FluctuationModel.snapshot_jitter`` without memoization."""
    if window_s >= 20.0:
        return 1.0
    scale = model.sigma * 0.6 * (1.0 - window_s / 20.0)
    rng = _link_hash(model.seed ^ 0x5EED, i, j, int(t * 1000) % (1 << 31))
    return float(np.clip(1.0 + rng.normal(0.0, scale), 0.5, 1.5))


#: Non-default weather models: seed, noise scale, grid, daily cycle
#: and clamp bounds all vary.
models = st.builds(
    FluctuationModel,
    seed=st.integers(min_value=0, max_value=2**20),
    sigma=st.floats(min_value=0.01, max_value=1.5),
    diurnal_amplitude=st.floats(min_value=0.0, max_value=0.5),
    noise_period_s=st.sampled_from([1.0, 7.5, 60.0, 300.0, 3600.0]),
    floor=st.floats(min_value=0.05, max_value=0.9),
    ceiling=st.floats(min_value=1.1, max_value=3.0),
)
links = st.tuples(
    st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)
)


@st.composite
def times(draw, period: float) -> float:
    """Arbitrary times, exact noise-bucket boundaries (and their float
    neighbours), negative times and large offsets."""
    kind = draw(st.sampled_from(["any", "boundary", "large"]))
    if kind == "any":
        return draw(st.floats(min_value=-1e6, max_value=1e6))
    if kind == "boundary":
        edge = draw(st.integers(min_value=-5000, max_value=5000)) * period
        return float(edge + draw(st.sampled_from([-1e-9, 0.0, 1e-9])))
    return draw(st.floats(min_value=1e8, max_value=5e9)) * draw(
        st.sampled_from([-1.0, 1.0])
    )


class TestDeterminism:
    def test_same_seed_same_factors(self):
        a = FluctuationModel(seed=5)
        b = FluctuationModel(seed=5)
        for t in (0.0, 100.0, 12345.6):
            assert a.factor(0, 1, t) == b.factor(0, 1, t)

    def test_different_seeds_differ(self):
        a = FluctuationModel(seed=5)
        b = FluctuationModel(seed=6)
        samples_a = [a.factor(0, 1, t) for t in range(0, 10000, 500)]
        samples_b = [b.factor(0, 1, t) for t in range(0, 10000, 500)]
        assert samples_a != samples_b

    def test_links_are_independent(self):
        m = FluctuationModel(seed=5)
        samples_01 = [m.factor(0, 1, t) for t in range(0, 10000, 500)]
        samples_12 = [m.factor(1, 2, t) for t in range(0, 10000, 500)]
        assert samples_01 != samples_12


class TestShape:
    def test_mean_near_one(self):
        m = FluctuationModel(seed=7)
        samples = [
            m.factor(0, 1, t) for t in np.linspace(0, 7 * 86400, 2000)
        ]
        assert 0.9 < np.mean(samples) < 1.1

    def test_bounded_by_floor_and_ceiling(self):
        m = FluctuationModel(seed=7, sigma=1.0)  # violent weather
        for t in np.linspace(0, 86400, 500):
            f = m.factor(0, 1, t)
            assert m.floor <= f <= m.ceiling

    def test_intra_dc_unaffected(self):
        m = FluctuationModel(seed=7)
        assert m.factor(2, 2, 1234.0) == 1.0

    def test_continuity_within_grid_cell(self):
        # Linear interpolation: nearby times give nearby factors.
        m = FluctuationModel(seed=7)
        f1 = m.factor(0, 1, 1000.0)
        f2 = m.factor(0, 1, 1001.0)
        assert abs(f1 - f2) < 0.05

    def test_weather_persists_within_noise_period(self):
        # [38]: predictable on the scale of minutes.
        m = FluctuationModel(seed=7)
        f0 = m.factor(0, 1, 600.0)
        f1 = m.factor(0, 1, 600.0 + m.noise_period_s / 10)
        assert abs(f0 - f1) < 0.15


class TestSnapshotJitter:
    def test_long_windows_have_no_jitter(self):
        m = FluctuationModel(seed=7)
        assert m.snapshot_jitter(0, 1, 50.0, 20.0) == 1.0

    def test_short_windows_jitter(self):
        m = FluctuationModel(seed=7)
        jitters = {
            m.snapshot_jitter(0, 1, t, 1.0) for t in np.linspace(0, 100, 50)
        }
        assert len(jitters) > 10  # actually varies
        assert all(0.5 <= j <= 1.5 for j in jitters)


class TestMemoizedParity:
    """The cached draws return exactly what a fresh generator does."""

    @given(models, links, st.data())
    def test_factor_equals_unmemoized_reference(self, model, link, data):
        i, j = link
        t = data.draw(times(model.noise_period_s))
        # Twice: the first call may fill the caches, the second hits them.
        assert model.factor(i, j, t) == reference_factor(model, i, j, t)
        assert model.factor(i, j, t) == reference_factor(model, i, j, t)

    @given(models, links, st.data(), st.floats(min_value=0.0, max_value=25.0))
    def test_jitter_equals_unmemoized_reference(self, model, link, data, window):
        i, j = link
        t = data.draw(times(model.noise_period_s))
        expected = reference_jitter(model, i, j, t, window)
        assert model.snapshot_jitter(i, j, t, window) == expected
        assert model.snapshot_jitter(i, j, t, window) == expected

    def test_models_differing_only_in_sigma_do_not_share_draws(self):
        calm = FluctuationModel(seed=11, sigma=0.05, diurnal_amplitude=0.0)
        rough = FluctuationModel(seed=11, sigma=0.4, diurnal_amplitude=0.0)
        for t in (10.0, 350.0, 2000.0):
            # Same generator, different scale: the noise term scales.
            calm_noise = calm.factor(0, 1, t) - 1.0
            rough_noise = rough.factor(0, 1, t) - 1.0
            assert rough_noise != calm_noise
            assert rough.factor(0, 1, t) == reference_factor(rough, 0, 1, t)
            assert calm.factor(0, 1, t) == reference_factor(calm, 0, 1, t)

    def test_caches_stay_within_their_bounds(self):
        m = FluctuationModel(seed=3)
        noise_max = _normal_draw.cache_info().maxsize
        for bucket in range(noise_max + 50):
            m.factor(0, 1, bucket * m.noise_period_s + 1.0)
        uniform_max = _uniform_draw.cache_info().maxsize
        side = int(np.ceil(np.sqrt(uniform_max + 50)))
        for i in range(side):
            for j in range(side):
                m.factor(i, j, 0.0)
        for cached in (_normal_draw, _uniform_draw):
            info = cached.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize
        assert _normal_draw.cache_info().currsize == noise_max
        assert _uniform_draw.cache_info().currsize == uniform_max


class TestStaticModel:
    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=1e6),
    )
    def test_always_one(self, i, j, t):
        m = StaticModel()
        assert m.factor(i, j, t) == 1.0
        assert m.snapshot_jitter(i, j, t, 1.0) == 1.0
