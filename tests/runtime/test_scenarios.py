"""Tests for the bandwidth-dynamics scenario library."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.circuits import flap_quality, select_path
from repro.net.dynamics import FluctuationModel, StaticModel, _link_hash
from repro.net.simulator import NetworkSimulator
from repro.runtime.scenarios import (
    _SELECT_SALT,
    FACTOR_FLOOR,
    SCENARIOS,
    CircuitFailover,
    ComposedScenario,
    DiurnalSwing,
    FlappingLink,
    FlashCrowd,
    LinkDegradation,
    PathPolicySwitch,
    ScenarioModel,
    StepDrop,
    _ramp,
    scenario,
    scenario_names,
)
from weather_reference import uncached_weather


def reference_base(base, i: int, j: int, t: float) -> float:
    """Base weather without memoization (a fresh generator per draw)."""
    if isinstance(base, StaticModel) or i == j:
        return 1.0
    return uncached_weather(base, i, j, t)


def reference_shape(part: ScenarioModel, i: int, j: int, t: float) -> float:
    """Every built-in scenario shape, its per-link values drawn from a
    fresh generator each call."""

    def draw(bucket: int, low: float = 0.0, high: float = 1.0) -> float:
        rng = _link_hash(part.seed ^ _SELECT_SALT, i, j, bucket)
        return float(rng.uniform(low, high))

    def selected(fraction: float) -> bool:
        if fraction >= 1.0:
            return True
        if fraction <= 0.0:
            return False
        rng = _link_hash(part.seed ^ _SELECT_SALT, i, j, -3)
        return bool(rng.uniform() < fraction)

    if isinstance(part, ComposedScenario):
        combined = 1.0
        for member in part.parts:
            combined *= reference_shape(member, i, j, t)
        return combined
    if isinstance(part, DiurnalSwing):
        phase = draw(-4, -part.phase_spread, part.phase_spread)
        wave = np.sin(2.0 * np.pi * t / part.period_s + phase)
        return 1.0 - part.amplitude * (0.5 + 0.5 * wave)
    if isinstance(part, FlashCrowd):
        if not selected(part.hit_fraction):
            return 1.0
        onset = _ramp(t, part.start_s, part.ramp_s)
        recovery = _ramp(t, part.start_s + part.duration_s, part.ramp_s)
        return 1.0 - (1.0 - part.depth) * max(0.0, onset - recovery)
    if isinstance(part, LinkDegradation):
        hit = (i, j) in part.links if part.links else selected(part.hit_fraction)
        if not hit:
            return 1.0
        return 1.0 - (1.0 - part.residual) * _ramp(t, part.start_s, part.ramp_s)
    if isinstance(part, StepDrop):
        return part.level if t >= part.at_s else 1.0
    if isinstance(part, CircuitFailover):
        if not selected(part.hit_fraction):
            return 1.0
        fail_at = part.fail_at_s
        if part.spread_s > 0.0:
            fail_at += draw(-5, -part.spread_s, part.spread_s)
        return part.circuit.quality_at(t - fail_at)[0]
    if isinstance(part, FlappingLink):
        if t < part.start_s or not selected(part.hit_fraction):
            return 1.0
        return flap_quality(
            t - part.start_s,
            part.period_s,
            part.duty,
            up_quality=1.0,
            down_quality=part.down_quality,
            phase_s=draw(-6, 0.0, part.period_s),
        )
    if isinstance(part, PathPolicySwitch):
        primary = reference_base(part.base, i, j, t)
        if select_path(primary, part.min_capacity_fraction) == "primary":
            return 1.0
        return part.secondary_quality / max(primary, FACTOR_FLOOR)
    assert type(part) is ScenarioModel, f"no reference for {type(part)}"
    return 1.0


def reference_factor(model: ScenarioModel, i: int, j: int, t: float) -> float:
    """``ScenarioModel.factor`` without memoization."""
    if i == j:
        return 1.0
    combined = reference_base(model.base, i, j, t) * reference_shape(model, i, j, t)
    return float(max(combined, FACTOR_FLOOR))


#: Every name registered at import (the built-ins), the advertised
#: compositions, and arbitrary ``+``-joins of the built-ins.
ATOMIC_NAMES = scenario_names()
scenario_spellings = st.one_of(
    st.sampled_from(scenario_names(include_composed=True)),
    st.lists(st.sampled_from(ATOMIC_NAMES), min_size=2, max_size=3).map("+".join),
)
weather = st.one_of(
    st.just(None),
    st.builds(
        FluctuationModel,
        seed=st.integers(min_value=0, max_value=2**16),
        sigma=st.floats(min_value=0.01, max_value=1.0),
        noise_period_s=st.sampled_from([30.0, 300.0, 900.0]),
    ),
)
scenario_times = st.one_of(
    st.floats(min_value=-5000.0, max_value=2e5),
    st.floats(min_value=0.0, max_value=2500.0),  # the scenarios' events
    st.integers(min_value=-20, max_value=400).map(lambda k: k * 150.0),
    st.floats(min_value=1e8, max_value=1e9),
)
links = st.tuples(
    st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
)


class TestRegistry:
    def test_at_least_four_named_scenarios(self):
        assert len(SCENARIOS) >= 4

    def test_expected_names_present(self):
        names = scenario_names()
        for expected in (
            "diurnal",
            "flash-crowd",
            "link-degradation",
            "link-failure",
            "step-drop",
        ):
            assert expected in names

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="step-drop"):
            scenario("no-such-thing")

    def test_factories_are_deterministic(self):
        for name in scenario_names():
            a = scenario(name, seed=9)
            b = scenario(name, seed=9)
            for t in (0.0, 500.0, 2000.0):
                assert a.factor(0, 1, t) == b.factor(0, 1, t)

    def test_factors_positive_and_floored(self):
        for name in scenario_names():
            model = scenario(name, seed=3)
            for t in (0.0, 700.0, 5000.0, 90000.0):
                for i, j in ((0, 1), (1, 2), (2, 0)):
                    assert model.factor(i, j, t) >= FACTOR_FLOOR

    def test_diagonal_is_identity(self):
        for name in scenario_names():
            assert scenario(name, seed=3).factor(2, 2, 1234.0) == 1.0


class TestShapes:
    def test_step_drop_steps_once(self):
        model = StepDrop(StaticModel(), seed=1, at_s=100.0, level=0.5)
        assert model.factor(0, 1, 99.0) == pytest.approx(1.0)
        assert model.factor(0, 1, 101.0) == pytest.approx(0.5)
        assert model.factor(0, 1, 1e6) == pytest.approx(0.5)

    def test_degradation_ramps_to_residual_and_stays(self):
        model = LinkDegradation(
            StaticModel(),
            seed=1,
            start_s=100.0,
            ramp_s=100.0,
            residual=0.2,
            links=((0, 1),),
        )
        assert model.factor(0, 1, 50.0) == pytest.approx(1.0)
        assert model.factor(0, 1, 150.0) == pytest.approx(0.6)
        assert model.factor(0, 1, 500.0) == pytest.approx(0.2)
        # Untargeted links are untouched.
        assert model.factor(1, 0, 500.0) == pytest.approx(1.0)

    def test_flash_crowd_recovers(self):
        model = FlashCrowd(
            StaticModel(),
            seed=1,
            start_s=100.0,
            duration_s=200.0,
            ramp_s=50.0,
            depth=0.4,
            hit_fraction=1.0,
        )
        assert model.factor(0, 1, 0.0) == pytest.approx(1.0)
        assert model.factor(0, 1, 200.0) == pytest.approx(0.4)
        assert model.factor(0, 1, 1000.0) == pytest.approx(1.0)

    def test_diurnal_swings_within_amplitude(self):
        model = DiurnalSwing(StaticModel(), seed=1, amplitude=0.35)
        values = [model.factor(0, 1, t * 3600.0) for t in range(48)]
        assert min(values) >= 1.0 - 0.35 - 1e-9
        assert max(values) <= 1.0 + 1e-9
        assert max(values) - min(values) > 0.2  # actually swings

    def test_shape_composes_with_base_weather(self):
        base = FluctuationModel(seed=5)
        model = StepDrop(base, seed=5, at_s=0.0, level=0.5)
        t = 1000.0
        assert model.factor(0, 1, t) == pytest.approx(
            max(base.factor(0, 1, t) * 0.5, FACTOR_FLOOR)
        )

    def test_snapshot_jitter_delegates_to_base(self):
        base = FluctuationModel(seed=5)
        model = ScenarioModel(base, seed=5)
        assert model.snapshot_jitter(0, 1, 10.0, 1.0) == base.snapshot_jitter(
            0, 1, 10.0, 1.0
        )


class TestMemoizedParity:
    """Memoized per-link draws change no scenario value."""

    @given(
        scenario_spellings,
        st.integers(min_value=0, max_value=2**16),
        weather,
        links,
        scenario_times,
        st.floats(min_value=0.5, max_value=25.0),
    )
    def test_factor_and_jitter_equal_unmemoized_reference(
        self, name, seed, base, link, t, window
    ):
        model = scenario(name, seed=seed, base=base)
        i, j = link
        for _ in range(2):  # cold caches, then warm ones
            assert model.factor(i, j, t) == reference_factor(model, i, j, t)
        jitter = model.snapshot_jitter(i, j, t, window)
        assert jitter == model.base.snapshot_jitter(i, j, t, window)

    @given(
        st.integers(min_value=0, max_value=2**16),
        links,
        scenario_times,
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=1.0, max_value=600.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_non_default_per_link_parameters(
        self, seed, link, t, spread, jitter_s, period, fraction
    ):
        i, j = link
        models = [
            DiurnalSwing(StaticModel(), seed, phase_spread=spread),
            CircuitFailover(
                StaticModel(), seed, spread_s=jitter_s, hit_fraction=fraction
            ),
            FlappingLink(
                StaticModel(), seed, start_s=0.0, period_s=period, hit_fraction=fraction
            ),
            FlashCrowd(StaticModel(), seed, hit_fraction=fraction),
        ]
        for model in models:
            assert model.factor(i, j, t) == reference_factor(model, i, j, t)

    @pytest.mark.parametrize("name", scenario_names(include_composed=True))
    def test_event_window_grid(self, name):
        """Every built-in scenario over its event window (ramps,
        failovers, flaps, steps at 300–1800 s) on a dense grid, where
        a wrong per-link offset or phase shows."""
        model = scenario(name, seed=13)
        links = [(i, j) for i in range(4) for j in range(4) if i != j]
        for t in np.arange(250.0, 1900.0, 9.7):
            for i, j in links:
                assert model.factor(i, j, t) == reference_factor(model, i, j, t)

    def test_per_link_draws_keyed_by_their_bounds(self):
        narrow = DiurnalSwing(StaticModel(), seed=4, phase_spread=0.1)
        wide = dataclasses.replace(narrow, phase_spread=1.4)
        t = 5000.0
        assert narrow.factor(0, 1, t) != wide.factor(0, 1, t)
        for model in (narrow, wide):
            assert model.factor(0, 1, t) == reference_factor(model, 0, 1, t)


class TestPluggableIntoSimulator:
    def test_simulator_consumes_scenario(self, triad):
        """Transfers run slower after a step drop than before it."""
        model = StepDrop(StaticModel(), seed=1, at_s=50.0, level=0.25)
        net = NetworkSimulator(triad, fluctuation=model)
        before = net.pair_capacity("us-east-1", "us-west-1", 1)
        net.sim.run(until=60.0)
        after = net.pair_capacity("us-east-1", "us-west-1", 1)
        assert after == pytest.approx(before * 0.25, rel=1e-6)
