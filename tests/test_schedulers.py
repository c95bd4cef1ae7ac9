"""Tests for repro.core: schedulers, batching, blocking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import MachineSpec
from repro.core import (
    BatchPolicy,
    ConventionalScheduler,
    CountingLayer,
    ILPScheduler,
    LDLPScheduler,
    Layer,
    MachineBinding,
    Message,
    PassthroughLayer,
    SinkLayer,
    blocked_schedule,
    conventional_schedule,
    estimate_block_cost,
    estimate_blocking_factor,
    group_layers_for_cache,
    process_blocked,
)
from repro.core.layer import arrival_messages
from repro.core.overload import DROP_POLICIES, make_drop_policy
from repro.errors import ConfigurationError, SchedulerError
from repro.sim import SimulationConfig, run_simulation
from repro.traffic import PoissonSource
from repro.units import kb


def stack_of(n=3):
    return [CountingLayer(f"L{i}") for i in range(n)]


class TestMessage:
    def test_size_from_payload(self):
        assert Message(payload=b"12345").size == 5

    def test_explicit_size_wins(self):
        assert Message(payload=b"12345", size=99).size == 99

    def test_negative_size_rejected(self):
        with pytest.raises(SchedulerError):
            Message(size=-1)

    def test_bulk_arrival_messages_match_constructor(self):
        times, sizes = [0.5, 0.25, 1.0], [552, 0, 64]
        built = arrival_messages(times, sizes)
        ids = [message.msg_id for message in built]
        assert ids == list(range(ids[0], ids[0] + 3))
        assert ids[0] < Message().msg_id
        assert built == [
            Message(size=size, arrival_time=time, msg_id=msg_id)
            for time, size, msg_id in zip(times, sizes, ids)
        ]
        assert all(
            message.arrival_cycle is None and message.buffer is None
            for message in built
        )
        assert arrival_messages([], []) == []

    def test_bulk_arrival_messages_reject_negative_size_as_constructor(self):
        with pytest.raises(SchedulerError) as constructed:
            Message(size=-1)
        with pytest.raises(SchedulerError) as bulk:
            arrival_messages([0.0, 0.1, 0.2], [64, -1, -2])
        assert str(bulk.value) == str(constructed.value)

    def test_unique_ids(self):
        assert Message().msg_id != Message().msg_id

    def test_buffer_assigned_once_and_not_compared(self):
        binding = MachineBinding()
        binding.bind(stack_of(1))
        message = Message(size=64, msg_id=1)
        buffer = binding.buffer_of(message)
        assert message.buffer is buffer
        assert binding.buffer_of(message) is buffer
        assert message == Message(size=64, msg_id=1)


class TestSchedulerBasics:
    def test_empty_stack_rejected(self):
        with pytest.raises(SchedulerError):
            ConventionalScheduler([])

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(SchedulerError):
            ConventionalScheduler([PassthroughLayer("a"), PassthroughLayer("a")])

    def test_input_limit_drops(self):
        scheduler = ConventionalScheduler(stack_of(1), input_limit=2)
        accepted = [scheduler.enqueue_arrival(Message()) for _ in range(4)]
        assert accepted == [True, True, False, False]
        assert scheduler.drops == 2
        assert scheduler.arrivals == 4

    @pytest.mark.parametrize("policy", sorted(DROP_POLICIES))
    @pytest.mark.parametrize("limit", [0, -1])
    def test_input_limit_below_one_rejected(self, policy, limit):
        """Every drop policy needs room for one message, so a smaller
        input buffer is refused up front, through the constructor and
        through run_simulation alike."""
        with pytest.raises(SchedulerError, match="input limit"):
            ConventionalScheduler(
                stack_of(1), input_limit=limit, drop_policy=make_drop_policy(policy)
            )
        config = SimulationConfig(drop_policy=policy, input_limit=limit, duration=0.01)
        with pytest.raises(SchedulerError, match="input limit"):
            run_simulation(PoissonSource(5000, rng=1), config)

    def test_service_step_idle(self):
        scheduler = ConventionalScheduler(stack_of(1))
        assert scheduler.service_step() == []


class TestFunctionalEquivalence:
    def test_all_messages_visit_all_layers(self):
        for cls in (ConventionalScheduler, ILPScheduler, LDLPScheduler):
            layers = stack_of(3)
            scheduler = cls(layers)
            messages = [Message() for _ in range(7)]
            completions = scheduler.run_to_completion(messages)
            assert len(completions) == 7
            assert all(c.delivered for c in completions)
            for layer in layers:
                assert sorted(layer.delivered) == sorted(m.msg_id for m in messages)

    def test_conventional_is_depth_first(self):
        layers = stack_of(2)
        scheduler = ConventionalScheduler(layers)
        a, b = Message(), Message()
        scheduler.run_to_completion([a, b])
        # Message a goes through both layers before b starts.
        assert layers[0].delivered == [a.msg_id, b.msg_id]
        assert layers[1].delivered == [a.msg_id, b.msg_id]

    def test_ldlp_is_blocked_order(self):
        layers = stack_of(2)
        scheduler = LDLPScheduler(layers, batch_policy=BatchPolicy(max_batch=10))
        a, b = Message(), Message()
        scheduler.run_to_completion([a, b])
        # Layer 0 sees both messages before layer 1 sees either.
        assert layers[0].delivered == [a.msg_id, b.msg_id]
        assert layers[1].delivered == [a.msg_id, b.msg_id]

    def test_consuming_layer_completes_with_delivered_false(self):
        class DropLayer(Layer):
            def deliver(self, message):
                return []

        for cls in (ConventionalScheduler, LDLPScheduler):
            scheduler = cls([DropLayer("drop"), CountingLayer("top")])
            completions = scheduler.run_to_completion([Message()])
            assert len(completions) == 1
            assert not completions[0].delivered

    def test_multiplying_layer_fans_out(self):
        class SplitLayer(Layer):
            def deliver(self, message):
                return [Message(), Message()]

        for cls in (ConventionalScheduler, LDLPScheduler):
            top = CountingLayer("top")
            scheduler = cls([SplitLayer("split"), top])
            scheduler.run_to_completion([Message(), Message()])
            assert len(top.delivered) == 4

    def test_flush_emits_held_messages(self):
        class Coalescer(Layer):
            """Holds every message; emits one summary at flush."""

            def __init__(self):
                super().__init__("coalesce")
                self.held = 0

            def deliver(self, message):
                self.held += 1
                return []

            def flush(self):
                if not self.held:
                    return []
                count, self.held = self.held, 0
                return [Message(size=count)]

        top = CountingLayer("top")
        scheduler = LDLPScheduler(
            [Coalescer(), top], batch_policy=BatchPolicy(max_batch=100)
        )
        scheduler.run_to_completion([Message() for _ in range(5)])
        assert len(top.delivered) == 1  # one coalesced summary

    @given(
        num_messages=st.integers(0, 30),
        num_layers=st.integers(1, 5),
        batch=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_scheduler_equivalence_property(self, num_messages, num_layers, batch):
        """Property: all three schedulers deliver the same message set
        in the same per-layer order."""
        results = []
        for cls, kwargs in (
            (ConventionalScheduler, {}),
            (ILPScheduler, {}),
            (LDLPScheduler, {"batch_policy": BatchPolicy(max_batch=batch)}),
        ):
            layers = stack_of(num_layers)
            scheduler = cls(layers, **kwargs)
            messages = [Message() for _ in range(num_messages)]
            index_of = {m.msg_id: i for i, m in enumerate(messages)}
            completions = scheduler.run_to_completion(messages)
            assert len(completions) == num_messages
            results.append(
                [tuple(index_of[mid] for mid in layer.delivered) for layer in layers]
            )
        # Same per-layer delivery order everywhere (FIFO preserved).
        assert results[0] == results[1] == results[2]


class TestLdlpBatching:
    def test_batch_cap_respected(self):
        scheduler = LDLPScheduler(
            stack_of(1), batch_policy=BatchPolicy(max_batch=4), input_limit=100
        )
        for _ in range(10):
            scheduler.enqueue_arrival(Message())
        scheduler.service_step()
        assert scheduler.batch_sizes == [4]
        assert scheduler.pending() == 6

    def test_light_load_processes_singly(self):
        scheduler = LDLPScheduler(stack_of(2))
        scheduler.enqueue_arrival(Message())
        scheduler.service_step()
        assert scheduler.batch_sizes == [1]

    def test_default_policy_from_machine(self):
        scheduler = LDLPScheduler(stack_of(1), MachineBinding(rng=0))
        assert scheduler.batch_limit == 14  # 8 KB dcache / 552 B


class TestBatchPolicy:
    def test_paper_value(self):
        assert BatchPolicy.from_cache(kb(8)).max_batch == 14

    def test_bigger_cache_bigger_batches(self):
        assert BatchPolicy.from_cache(kb(64)).max_batch > 100

    def test_minimum_one(self):
        assert BatchPolicy.from_cache(256, typical_message_bytes=1024).max_batch == 1

    def test_from_machine(self):
        assert BatchPolicy.from_machine(MachineSpec()).max_batch == 14

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(0)
        with pytest.raises(ConfigurationError):
            BatchPolicy.from_cache(kb(8), typical_message_bytes=0)


class TestBlocking:
    def test_blocked_schedule_order(self):
        order = blocked_schedule(2, 4, block=2)
        assert order == [
            (0, 0), (0, 1), (1, 0), (1, 1),
            (0, 2), (0, 3), (1, 2), (1, 3),
        ]

    def test_conventional_is_block_one(self):
        assert conventional_schedule(2, 2) == blocked_schedule(2, 2, 1)

    def test_bad_block_rejected(self):
        with pytest.raises(ConfigurationError):
            blocked_schedule(2, 2, 0)

    def test_process_blocked_equals_sequential(self):
        layers = stack_of(3)
        messages = [Message() for _ in range(5)]
        outputs = process_blocked(layers, messages, block=2)
        assert len(outputs) == 5
        for layer in layers:
            assert sorted(layer.delivered) == sorted(m.msg_id for m in messages)

    def test_estimate_prefers_large_fitting_block(self):
        estimate = estimate_blocking_factor(
            layer_code_bytes=[6144] * 5,
            message_bytes=552,
            dcache_bytes=kb(8),
        )
        # The paper's rule: as many messages as fit in the data cache.
        assert estimate.block == 14
        assert estimate.fits_data_cache

    def test_estimate_monotone_code_misses(self):
        small = estimate_block_cost(1, [6144] * 5, 552, kb(8))
        large = estimate_block_cost(14, [6144] * 5, 552, kb(8))
        assert large.instruction_misses_per_message < small.instruction_misses_per_message

    def test_overflow_block_penalized(self):
        fits = estimate_block_cost(14, [6144] * 5, 552, kb(8))
        overflow = estimate_block_cost(30, [6144] * 5, 552, kb(8))
        assert not overflow.fits_data_cache
        assert overflow.data_misses_per_message > fits.data_misses_per_message

    def test_estimate_requires_layers(self):
        with pytest.raises(ConfigurationError):
            estimate_blocking_factor([], 552, kb(8))

    def test_group_layers(self):
        groups = group_layers_for_cache([6144, 6144, 6144], kb(8))
        assert groups == [[0], [1], [2]]
        groups = group_layers_for_cache([2048, 2048, 2048, 6144], kb(8))
        assert groups == [[0, 1, 2], [3]]

    def test_group_oversized_layer_alone(self):
        groups = group_layers_for_cache([16384, 1024], kb(8))
        assert groups == [[0], [1]]

    def test_group_invalid_cache(self):
        with pytest.raises(ConfigurationError):
            group_layers_for_cache([1024], 0)


class TestIlpCostModel:
    def test_ilp_charges_message_once(self):
        """ILP reads message bytes once; conventional reads per layer."""
        def run(cls):
            binding = MachineBinding(rng=5)
            scheduler = cls(
                [PassthroughLayer(f"L{i}") for i in range(5)], binding
            )
            scheduler.run_to_completion([Message(size=552) for _ in range(20)])
            return binding.cpu.dcache_misses

        conventional = run(ConventionalScheduler)
        ilp = run(ILPScheduler)
        assert ilp < conventional

    def test_ilp_same_instruction_locality_as_conventional(self):
        """ILP does not fix the outer loop: I-miss counts match."""
        def run(cls):
            binding = MachineBinding(rng=6)
            scheduler = cls(
                [PassthroughLayer(f"L{i}") for i in range(5)], binding
            )
            scheduler.run_to_completion([Message(size=552) for _ in range(20)])
            return binding.cpu.icache_misses

        assert run(ConventionalScheduler) == run(ILPScheduler)


class TestSinkAndCounting:
    def test_sink_consumes(self):
        sink = SinkLayer()
        scheduler = ConventionalScheduler([PassthroughLayer("a"), sink])
        completions = scheduler.run_to_completion([Message()])
        assert len(sink.received) == 1
        assert completions[0].delivered  # consumed by the top layer
