"""Tests for GroupedLDLPScheduler (the paper's layer-grouping advice)."""

import pytest

from repro.core import (
    BatchPolicy,
    ConventionalScheduler,
    CountingLayer,
    GroupedLDLPScheduler,
    LDLPScheduler,
    LayerFootprint,
    MachineBinding,
    Message,
    PassthroughLayer,
)
from repro.errors import SchedulerError
from repro.sim.vec import vec_stepper


def small_layers(n=5, code=2048):
    return [
        CountingLayer(f"L{i}", LayerFootprint(code_bytes=code)) for i in range(n)
    ]


class TestGrouping:
    def test_default_groups_from_icache(self):
        scheduler = GroupedLDLPScheduler(small_layers(), MachineBinding(rng=0))
        # 5 x 2 KB layers against an 8 KB I-cache: 4 + 1.
        assert scheduler.groups == [[0, 1, 2, 3], [4]]

    def test_ldlp_is_singleton_grouping(self):
        """LDLP keeps one layer per group even where the grouped default
        would pack layers into the I-cache, and the vec engine replays
        it (as the grouped template)."""
        layers = [
            PassthroughLayer(f"L{i}", LayerFootprint(code_bytes=2048))
            for i in range(5)
        ]
        scheduler = LDLPScheduler(layers, MachineBinding(rng=0))
        singletons = [[0], [1], [2], [3], [4]]
        assert scheduler.groups == singletons
        config = scheduler.describe_config()
        assert config["groups"] == singletons
        assert config["scheduler"] == "LDLPScheduler"
        assert vec_stepper(scheduler, admit_ahead=None) is not None

    def test_explicit_groups(self):
        scheduler = GroupedLDLPScheduler(
            small_layers(), groups=[[0, 1], [2], [3, 4]]
        )
        assert scheduler.groups == [[0, 1], [2], [3, 4]]

    def test_invalid_groups_rejected(self):
        with pytest.raises(SchedulerError):
            GroupedLDLPScheduler(small_layers(), groups=[[0, 2], [1], [3, 4]])
        with pytest.raises(SchedulerError):
            GroupedLDLPScheduler(small_layers(), groups=[[0, 1], [2, 3]])
        with pytest.raises(SchedulerError):
            GroupedLDLPScheduler(small_layers(), groups=[[0], [0, 1, 2, 3, 4]])


class TestFunctional:
    def test_all_messages_visit_all_layers(self):
        layers = small_layers()
        scheduler = GroupedLDLPScheduler(layers, groups=[[0, 1], [2, 3], [4]])
        messages = [Message() for _ in range(9)]
        completions = scheduler.run_to_completion(messages)
        assert len(completions) == 9
        assert all(c.delivered for c in completions)
        expected = sorted(m.msg_id for m in messages)
        for layer in layers:
            assert sorted(layer.delivered) == expected

    def test_order_is_blocked_over_groups(self):
        layers = small_layers(4)
        scheduler = GroupedLDLPScheduler(
            layers,
            groups=[[0, 1], [2, 3]],
            batch_policy=BatchPolicy(max_batch=10),
        )
        a, b = Message(), Message()
        scheduler.run_to_completion([a, b])
        # Within group 0: message a through layers 0 and 1, then b —
        # conventional order inside the group...
        assert layers[0].delivered == [a.msg_id, b.msg_id]
        assert layers[1].delivered == [a.msg_id, b.msg_id]
        # ...and the whole batch finishes group 0 before group 1 starts.
        assert layers[2].delivered == [a.msg_id, b.msg_id]

    def test_singleton_groups_match_ldlp_order(self):
        grouped_layers = small_layers(3)
        ldlp_layers = small_layers(3)
        grouped = GroupedLDLPScheduler(
            grouped_layers,
            groups=[[0], [1], [2]],
            batch_policy=BatchPolicy(max_batch=10),
        )
        ldlp = LDLPScheduler(
            ldlp_layers, batch_policy=BatchPolicy(max_batch=10)
        )
        grouped_msgs = [Message() for _ in range(6)]
        ldlp_msgs = [Message() for _ in range(6)]
        grouped.run_to_completion(grouped_msgs)
        ldlp.run_to_completion(ldlp_msgs)
        grouped_index = {m.msg_id: i for i, m in enumerate(grouped_msgs)}
        ldlp_index = {m.msg_id: i for i, m in enumerate(ldlp_msgs)}
        for g_layer, l_layer in zip(grouped_layers, ldlp_layers):
            assert [grouped_index[m] for m in g_layer.delivered] == [
                ldlp_index[m] for m in l_layer.delivered
            ]

    def test_consuming_layer_mid_group(self):
        from repro.core import Layer

        class DropOdd(Layer):
            def __init__(self):
                super().__init__("drop-odd")
                self.count = 0

            def deliver(self, message):
                self.count += 1
                return [] if self.count % 2 else [message]

        top = CountingLayer("top")
        scheduler = GroupedLDLPScheduler(
            [PassthroughLayer("bottom"), DropOdd(), top],
            groups=[[0, 1], [2]],
        )
        completions = scheduler.run_to_completion([Message() for _ in range(6)])
        assert len(completions) == 6
        assert len(top.delivered) == 3

    def test_split_and_mid_group_flush_routing(self):
        """A split inside a group runs each output through the rest of
        the group depth-first; a mid-group flush() re-enters the group
        at the next member, queue-free, before the batch moves on."""
        from repro.core import Layer

        log = []

        class Logged(Layer):
            def deliver(self, message):
                log.append((self.name, message.meta["tag"]))
                return self.emit(message)

            def emit(self, message):
                return [message]

        class Split(Logged):
            def emit(self, message):
                tag = message.meta["tag"]
                return [Message(meta={"tag": tag + "a"}),
                        Message(meta={"tag": tag + "b"})]

        class HoldB(Logged):
            def __init__(self, name):
                super().__init__(name)
                self.held = []

            def emit(self, message):
                if message.meta["tag"].endswith("b"):
                    self.held.append(message)
                    return []
                return [message]

            def flush(self):
                held, self.held = self.held, []
                return held

        layers = [Split("L0"), HoldB("L1"), Logged("L2"), Logged("L3"),
                  Logged("L4")]
        scheduler = GroupedLDLPScheduler(layers, groups=[[0, 1, 2], [3, 4]])
        completions = scheduler.run_to_completion(
            [Message(meta={"tag": "x"}), Message(meta={"tag": "y"})]
        )
        assert log == [
            ("L0", "x"), ("L1", "xa"), ("L2", "xa"), ("L1", "xb"),
            ("L0", "y"), ("L1", "ya"), ("L2", "ya"), ("L1", "yb"),
            ("L2", "xb"), ("L2", "yb"),
            ("L3", "xa"), ("L4", "xa"), ("L3", "ya"), ("L4", "ya"),
            ("L3", "xb"), ("L4", "xb"), ("L3", "yb"), ("L4", "yb"),
        ]
        assert [(c.message.meta["tag"], c.delivered) for c in completions] == [
            ("xb", False), ("yb", False),
            ("xa", True), ("ya", True), ("xb", True), ("yb", True),
        ]

    def test_batch_cap_respected(self):
        scheduler = GroupedLDLPScheduler(
            small_layers(2),
            groups=[[0], [1]],
            batch_policy=BatchPolicy(max_batch=3),
            input_limit=100,
        )
        for _ in range(8):
            scheduler.enqueue_arrival(Message())
        scheduler.service_step()
        assert scheduler.batch_sizes == [3]
        assert scheduler.pending() == 5


class TestLocality:
    def test_grouping_beats_conventional_on_small_layers(self):
        """Five 2 KB layers: grouping into cache-sized units cuts misses
        versus conventional, though per-layer LDLP is still best."""

        def run(cls, **kwargs):
            binding = MachineBinding(rng=9)
            layers = [
                PassthroughLayer(f"L{i}", LayerFootprint(code_bytes=2048))
                for i in range(5)
            ]
            scheduler = cls(layers, binding, **kwargs)
            scheduler.run_to_completion([Message(size=552) for _ in range(60)])
            return binding.cpu.icache_misses

        conventional = run(ConventionalScheduler)
        grouped = run(GroupedLDLPScheduler, groups=[[0, 1, 2], [3, 4]])
        ldlp = run(LDLPScheduler)
        assert grouped < conventional
        assert ldlp < grouped

    def test_grouping_reduces_queue_hops(self):
        """Groups pay one queue hop per group, not per layer: with zero
        miss penalty the grouped schedule is strictly cheaper than
        per-layer LDLP."""
        from repro.cache.hierarchy import MachineSpec

        def run(cls, **kwargs):
            binding = MachineBinding(
                spec=MachineSpec(miss_penalty=0), rng=9
            )
            layers = [
                PassthroughLayer(f"L{i}", LayerFootprint(code_bytes=2048))
                for i in range(6)
            ]
            scheduler = cls(layers, binding, **kwargs)
            scheduler.run_to_completion([Message(size=552) for _ in range(40)])
            return binding.cpu.cycles

        ldlp = run(LDLPScheduler)
        grouped = run(GroupedLDLPScheduler, groups=[[0, 1, 2], [3, 4, 5]])
        assert grouped < ldlp
