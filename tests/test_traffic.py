"""Tests for repro.traffic."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.sim.runner import SimulationConfig, _check_columns, run_simulation
from repro.traffic import (
    BurstSource,
    DeterministicSource,
    OCT89_SIZE_MIX,
    ParetoOnOffSource,
    PoissonSource,
    SizeMix,
    TraceSource,
    bellcore_like_source,
    hurst_estimate,
    pareto_samples,
    read_bellcore_trace,
    write_bellcore_trace,
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda value: PoissonSource(value),
        lambda value: DeterministicSource(value),
        lambda value: BurstSource(value, 1),
        lambda value: ParetoOnOffSource(packet_rate_on=value),
        lambda value: ParetoOnOffSource(mean_on=value),
        lambda value: ParetoOnOffSource(mean_off=value),
        lambda value: ParetoOnOffSource(alpha=value),
        lambda value: bellcore_like_source(mean_rate=value),
    ],
    ids=["poisson", "deterministic", "burst", "rate_on", "mean_on", "mean_off",
         "alpha", "bellcore"],
)
def test_non_finite_rates_rejected_at_construction(build, value):
    """A NaN rate passes ``<= 0`` and an infinite one breaks arrival
    generation later (an infinite burst rate never advances time), so
    both are refused up front; nothing here iterates a source."""
    with pytest.raises(ConfigurationError, match="finite"):
        build(value)


class TestArrival:
    """Every run checks its stream once, whatever source drew it."""

    def test_validation(self):
        source = DeterministicSource(100.0)
        for columns, match in (
            ({"time": [0.0, -1.0], "size": [100, 100]}, "non-negative: -1.0"),
            ({"time": [math.nan], "size": [100]}, "finite and non-negative: nan"),
            ({"time": [0.1, math.inf], "size": [100, 100]}, "non-negative: inf"),
            ({"time": [0.0, 0.1], "size": [100, 0]}, "size must be positive: 0"),
            ({"time": [0.0], "size": [100, 100]}, "differ in length"),
            ({"time": [0.0], "size": [100], "flow": []}, "differ in length"),
        ):
            with pytest.raises(ConfigurationError, match=match):
                run_simulation(source, SimulationConfig(duration=0.01), columns=columns)

    def test_overflowing_sum_is_not_an_error(self):
        """Two huge finite times sum to infinity; neither is rejected."""
        _check_columns({"time": [1e308, 1e308], "size": [100, 100]})


class TestPoisson:
    def test_rate_approximately_met(self):
        source = PoissonSource(5000, rng=0)
        times = source.arrival_columns(2.0)["time"]
        assert 9000 < len(times) < 11000

    def test_sorted_and_bounded(self):
        times = PoissonSource(1000, rng=1).arrival_columns(0.5)["time"]
        assert times == sorted(times)
        assert all(0 <= t < 0.5 for t in times)

    def test_fixed_size(self):
        sizes = PoissonSource(1000, size=552, rng=2).arrival_columns(0.1)["size"]
        assert sizes and all(size == 552 for size in sizes)

    def test_reproducible(self):
        a = PoissonSource(1000, rng=3).arrival_columns(0.2)
        b = PoissonSource(1000, rng=3).arrival_columns(0.2)
        assert a == b

    def test_exponential_gaps(self):
        gaps = np.diff(PoissonSource(10000, rng=4).arrival_columns(1.0)["time"])
        # Exponential: std ~ mean.
        assert abs(gaps.std() / gaps.mean() - 1.0) < 0.1

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            PoissonSource(0)
        with pytest.raises(ConfigurationError):
            PoissonSource(100, size=0)

    def test_zero_duration(self):
        assert PoissonSource(1000, rng=0).arrival_columns(0) == {"time": [], "size": []}


def _per_gap_poisson(rate, duration, seed):
    """The per-gap generator loop the array path replaced: ``time += gap``
    over blocks of exponential gaps until the horizon.  Returns the
    times, the number of blocks drawn and the generator."""
    rng = np.random.default_rng(seed)
    times, blocks, time = [], 0, 0.0
    block = max(16, int(rate * duration * 1.2))
    while True:
        gaps = rng.exponential(1.0 / rate, size=block)
        blocks += 1
        for gap in gaps:
            time += gap
            if time >= duration:
                return times, blocks, rng
            times.append(time)


class TestPoissonArrays:
    """The array path (one seeded ``np.add.accumulate`` per block, the
    carry prepended) is the per-gap loop, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("rate,duration", [(2000, 0.2), (9000, 0.2), (12000, 0.05), (300, 1.0)])
    def test_matches_per_gap_loop(self, rate, duration, seed):
        expected, blocks, rng = _per_gap_poisson(rate, duration, seed)
        source = PoissonSource(rate, rng=seed)
        times = source.arrival_times(duration)
        assert times.dtype == np.float64
        assert np.array_equal(times.view(np.uint64), np.array(expected).view(np.uint64))
        # The same number of gaps was drawn: the generators agree.
        assert source.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("seed,count", [(11, 16), (20, 23)])
    def test_second_block(self, seed, count):
        """At 1000 msg/s over 13 ms the block is 16 gaps, and these seeds
        need more: seed 11 uses the whole first block and stops on the
        second block's first gap; seed 20 takes 7 times from it."""
        expected, blocks, rng = _per_gap_poisson(1000, 0.013, seed)
        assert (len(expected), blocks) == (count, 2)
        source = PoissonSource(1000, rng=seed)
        assert source.arrival_times(0.013).tolist() == expected
        assert source.rng.bit_generator.state == rng.bit_generator.state

    def test_arrivals_and_columns_derive_from_the_array(self):
        expected, _, _ = _per_gap_poisson(5000, 0.1, 3)
        columns = PoissonSource(5000, size=100, rng=3).arrival_columns(0.1)
        assert columns == {"time": expected, "size": [100] * len(expected)}
        assert all(type(time) is float for time in columns["time"])

    def test_base_columns_match_arrivals(self):
        """Deterministic arrivals are ``k * (1 / rate)`` for ``k = 1, 2...``
        up to the horizon, as Python floats."""
        columns = DeterministicSource(100, size=64).arrival_columns(0.1)
        interval = 1.0 / 100
        expected = [k * interval for k in range(1, 11)]
        expected = [time for time in expected if time < 0.1]
        assert columns == {"time": expected, "size": [64] * len(expected)}
        assert all(type(time) is float for time in columns["time"])


class TestDeterministic:
    def test_exact_count(self):
        times = DeterministicSource(100).arrival_columns(1.0)["time"]
        assert len(times) == 99  # last lands exactly at the horizon
        gaps = np.diff(times)
        assert np.allclose(gaps, 0.01)


class TestBurst:
    def test_burst_structure(self):
        source = BurstSource(burst_rate=10, burst_size=5)
        times = source.arrival_columns(0.5)["time"]
        assert len(times) == 25
        assert times[0] == times[4]

    def test_burst_starts_accumulate(self):
        """Burst starts add ``1 / burst_rate`` to the previous start, as a
        running float sum: at 7 bursts/s the sum of seven gaps stays
        below 1.0, where ``7 * (1 / 7)`` would land on the horizon."""
        columns = BurstSource(burst_rate=7, burst_size=2, size=64).arrival_columns(1.0)
        starts, time = [], 0.0
        while time < 1.0:
            starts.append(time)
            time += 1 / 7
        assert len(starts) == 8 and 7 * (1 / 7) == 1.0
        assert columns == {
            "time": [start for start in starts for _ in range(2)],
            "size": [64] * 16,
        }


class TestPareto:
    def test_mean_matches(self):
        rng = np.random.default_rng(0)
        samples = pareto_samples(rng, alpha=1.5, mean=2.0, count=200_000)
        # Heavy-tailed: generous tolerance.
        assert abs(samples.mean() - 2.0) < 0.25

    def test_alpha_must_exceed_one(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            pareto_samples(rng, alpha=1.0, mean=1.0, count=10)

    def test_heavy_tail(self):
        rng = np.random.default_rng(1)
        samples = pareto_samples(rng, alpha=1.2, mean=1.0, count=100_000)
        # Pareto with alpha 1.2 has samples far beyond 20x the mean.
        assert samples.max() > 20


class TestOnOff:
    def test_mean_rate_property(self):
        source = ParetoOnOffSource(
            num_sources=10, packet_rate_on=1000, mean_on=0.02, mean_off=0.08,
            rng=0,
        )
        assert source.mean_rate == pytest.approx(2000.0)

    def test_generated_rate_in_ballpark(self):
        source = ParetoOnOffSource(
            num_sources=20, packet_rate_on=500, mean_on=0.02, mean_off=0.08,
            rng=1,
        )
        rate = len(source.arrival_columns(5.0)["time"]) / 5.0
        assert 0.4 * source.mean_rate < rate < 2.0 * source.mean_rate

    def test_sorted_times(self):
        source = ParetoOnOffSource(num_sources=5, rng=2)
        times = source.arrival_columns(1.0)["time"]
        assert times == sorted(times)

    def test_self_similar_burstier_than_poisson(self):
        """The Hurst estimate of the ON/OFF aggregate exceeds Poisson's."""
        duration, bins = 30.0, 4096
        onoff = ParetoOnOffSource(
            num_sources=24, packet_rate_on=800, mean_on=0.05, mean_off=0.15,
            alpha=1.3, rng=3,
        )
        target_rate = onoff.mean_rate
        poisson = PoissonSource(target_rate, rng=3)

        def counts(source):
            edges = np.linspace(0, duration, bins + 1)
            times = source.arrival_columns(duration)["time"]
            return np.histogram(times, bins=edges)[0]

        h_onoff = hurst_estimate(counts(onoff))
        h_poisson = hurst_estimate(counts(poisson))
        assert h_poisson < 0.65
        assert h_onoff > h_poisson + 0.1

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ParetoOnOffSource(num_sources=0)
        with pytest.raises(ConfigurationError):
            ParetoOnOffSource(mean_on=0)

    def test_hurst_needs_samples(self):
        with pytest.raises(ConfigurationError):
            hurst_estimate(np.ones(10))


class TestSizeMix:
    def test_sampling_respects_support(self):
        rng = np.random.default_rng(0)
        sizes = OCT89_SIZE_MIX.sample(rng, 1000)
        assert set(sizes) <= set(OCT89_SIZE_MIX.sizes)

    def test_mean(self):
        mix = SizeMix(sizes=(100, 300), weights=(0.5, 0.5))
        assert mix.mean == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SizeMix(sizes=(), weights=())
        with pytest.raises(ConfigurationError):
            SizeMix(sizes=(1,), weights=(-1.0,))

    @pytest.mark.parametrize(
        "sizes, weights",
        [
            ((64,), (math.nan,)),
            ((64, 64), (math.inf, 1.0)),
            ((0, -5), (1, 1)),
        ],
    )
    def test_rejects_invalid_mix(self, sizes, weights):
        """Non-finite weights used to pass validation and fail in numpy at
        sampling time; non-positive sizes yielded impossible packets."""
        with pytest.raises(ConfigurationError):
            SizeMix(sizes=sizes, weights=weights)


def _reference_arrivals(source, duration):
    """The per-packet synthesis: heapq.merge, then one size draw per packet."""
    streams = [
        source._one_source_times(duration, source.rng)
        for _ in range(source.num_sources)
    ]
    arrivals = []
    for time in heapq.merge(*[iter(stream) for stream in streams]):
        if isinstance(source.size, SizeMix):
            size = source.size.sample(source.rng, 1)[0]
        else:
            size = source.size
        arrivals.append((float(time), int(size)))
    return arrivals


def _pairs(columns):
    return list(zip(columns["time"], columns["size"]))


_SIZE_MIXES = st.lists(
    st.tuples(st.integers(1, 1518), st.floats(0.01, 10.0)), min_size=1, max_size=6
).map(lambda pairs: SizeMix(*map(tuple, zip(*pairs))))


class TestSynthesisEquivalence:
    """Whole-array synthesis reproduces the per-packet reference exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        duration=st.floats(0.001, 0.4),
        num_sources=st.integers(1, 40),
        size=st.one_of(st.integers(1, 1518), st.just(OCT89_SIZE_MIX), _SIZE_MIXES),
    )
    def test_matches_per_packet_reference(self, seed, duration, num_sources, size):
        fast = ParetoOnOffSource(num_sources=num_sources, size=size, rng=seed)
        slow = ParetoOnOffSource(num_sources=num_sources, size=size, rng=seed)
        assert _pairs(fast.arrival_columns(duration)) == _reference_arrivals(
            slow, duration
        )
        assert fast.rng.random() == slow.rng.random()

    def test_ties_keep_source_order(self, monkeypatch):
        """Equal timestamps from two sources both survive, in source order.

        0.0 and -0.0 compare equal but are distinguishable, which makes
        the tie break at t=0 observable.
        """
        trains = iter(
            [np.array([0.0, 0.002, 0.004]), np.array([-0.0, 0.002, 0.003])] * 2
        )
        monkeypatch.setattr(
            ParetoOnOffSource, "_one_source_times", lambda self, d, rng: next(trains)
        )
        fast = ParetoOnOffSource(num_sources=2, size=OCT89_SIZE_MIX, rng=7)
        slow = ParetoOnOffSource(num_sources=2, size=OCT89_SIZE_MIX, rng=7)
        got = _pairs(fast.arrival_columns(0.01))
        assert got == _reference_arrivals(slow, 0.01)
        assert [time for time, _ in got] == [0.0, 0.0, 0.002, 0.002, 0.003, 0.004]
        assert [math.copysign(1.0, time) for time, _ in got[:2]] == [1.0, -1.0]


class TestBellcore:
    def test_file_roundtrip(self, tmp_path):
        columns = {"time": [0.001, 0.005], "size": [64, 1518]}
        path = tmp_path / "trace.txt"
        write_bellcore_trace(columns, path)
        assert read_bellcore_trace(path) == columns

    def test_limit_truncates(self, tmp_path):
        # The paper uses "the first 1000 seconds" of the trace.
        columns = {"time": [float(t) for t in range(10)], "size": [64] * 10}
        path = tmp_path / "trace.txt"
        write_bellcore_trace(columns, path)
        assert read_bellcore_trace(path, limit=5.0) == {
            "time": columns["time"][:5], "size": [64] * 5,
        }

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 64 extra\n")
        with pytest.raises(TraceError):
            read_bellcore_trace(path)
        path.write_text("abc 64\n")
        with pytest.raises(TraceError):
            read_bellcore_trace(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n0.5 64\n")
        assert read_bellcore_trace(path) == {"time": [0.5], "size": [64]}

    def test_synthesize(self):
        columns = bellcore_like_source(mean_rate=500, rng=0).arrival_columns(2.0)
        assert columns["time"]
        rate = len(columns["time"]) / 2.0
        assert 100 < rate < 2000
        assert all(size in OCT89_SIZE_MIX.sizes for size in columns["size"])

    def test_synthesize_validation(self):
        with pytest.raises(ConfigurationError):
            bellcore_like_source(mean_rate=0)
        with pytest.raises(ConfigurationError):
            bellcore_like_source(mean_rate=-1.0)

    def test_trace_source_replay(self):
        """Replay sorts by time, stably, keeps every column, and cuts at
        the horizon."""
        columns = {
            "time": [0.2, 0.1, 0.9, 0.1],
            "size": [64, 65, 66, 67],
            "flow": [1, 2, 3, 4],
        }
        source = TraceSource(columns)
        assert source.arrival_columns(0.5) == {
            "time": [0.1, 0.1, 0.2], "size": [65, 67, 64], "flow": [2, 4, 1],
        }
        assert source.arrival_columns(0.5) == source.arrival_columns(0.5)
        assert source.arrival_columns(0.0) == {"time": [], "size": [], "flow": []}
        assert columns["time"] == [0.2, 0.1, 0.9, 0.1]
        assert len(source) == 4
