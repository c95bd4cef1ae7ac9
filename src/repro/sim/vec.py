"""The vectorized (columnar) service-step engine.

:func:`repro.sim.runner.drive` spends essentially all of its time in
the scalar service path: one Python-level call per (layer, message)
invocation, each performing a handful of small numpy cache probes and
float additions.  This module replaces a whole service step with a
constant number of numpy operations, while producing **bit-identical**
results — same latency samples in the same order, same cache statistics,
same obs counters, same drop decisions.

The engine is a per-core *stepper* inside the one drive loop: for each
core, :func:`vec_stepper` returns the engine's ``step`` (the step's
(message, completion cycle) pairs, plus any steps replayed ahead of
it), and the loop — admission, dispatch, obs spans, cache flushes — is
the same for both engines and every core count.  The drive call owns
the engines and their state memos; they are freed when it returns.
What an engine compiles lives in a process-level store of tables,
shared by later engines with equal inputs and bounded in bytes (see
"Table store").

How it works
------------
*Static step templates.*  For a given scheduler kind, the sequence of
(layer, message-slot) invocations a service step performs — and hence
the full reference stream it pushes through each cache — is a pure
function of the batch composition (which ring buffer holds which
message size).  A step's buffers are always one run of consecutive ring
slots: the scalar path acquires a buffer per message, in batch order,
and nothing else acquires in between.  So the engine takes them with
one :meth:`~repro.machine.executor.BufferPool.acquire_run` and keys the
compiled cache replay plus cost-addend layout on (first ring slot,
sizes); no message goes through
:meth:`~repro.core.binding.MachineBinding.buffer_of`, and the step
asserts that its first message holds no buffer.  The ring of 32 buffers
and the bounded batch cap keep the key space small, so a single-size
workload soon replays only cached templates.  A mixed-size trace does
not: on the synthesized Bellcore-like trace (nine Ethernet frame sizes)
about 0.8 templates are compiled per step (0.45 with the table store
below), so almost every compile sits on the critical path.

*Shapes.*  A composition's *shape* is its batch length plus each
slot's buffer line count.  Line counts, not sizes, fix the data
stream's segment lengths (a buffer's lines for a size depend on its
offset within its first line), so everything that depends on them is
built once per shape (:class:`_Shape`): each line's segment id and
each segment's start.  Every layer-data and buffer piece is one run of
consecutive lines, so a new ring rotation's line row is one gather of
the pieces' first lines plus one add.  The addends depend on the sizes
alone: every step rewrites slot 0, the stall slots and the flow-lookup
slots, so the templates of one size tuple share one addend array.

*Layouts.*  Everything that depends on the batch length alone — the
code stream's plan, the piece each data segment draws its lines from
(a layer's data, a slot's buffer, or none) and each addend's constant
and per-byte terms — is built for every length at once, from one
analysis per engine (:class:`_Rows`).  A batch of ``b`` runs each
group of layers ``b`` times back to back, one repetition per message
(LDLP's groups; for conventional/ILP, whose ``b``-step replay is ``b``
copies of one step, the whole stack), so its code stream is each
group's members ``b`` times over, group after group.  Its collapsed
plan (:func:`repro.cache.chunked.collapsed_plan`: a code segment that
re-runs the layer that just ran is elided, which turns LDLP's
layer-major batch into one segment per layer) follows in closed form
from the batch-2 plan, which holds a first and a later repetition of
every group:

* every first touch lies in a first repetition, and a set's last touch
  lies in the last repetition of the last group that touches it, which
  holds the same line in every repetition; so the first-touch block is
  the same at every length but for its segment ids;
* a first repetition's other touches follow either touches in the
  same repetition or the last repetition of an earlier group, so its
  static misses and elided segments are the same at every length;
* a later repetition touches exactly the sets the one before it
  touched, so none of its touches reads live state: a set's first
  touch misses when the set's first and last lines in the group differ
  (a *wrap* miss), and every later touch and elision is as in the
  repetition before.  All later repetitions are alike.

So a batch of ``b``'s plan is the batch-2 plan with each group's
second repetition repeated ``b - 1`` times, its first-touch block's
segment ids moved past the added repetitions.  The other arrays are
gathers: a batch of ``b``'s invocations are the longest batch's with a
message slot below ``b``, in order.  Compiling a composition is then
only a lookup of each slot's first buffer line and line count (cached
per ring slot and size) and of its shape's rows, one gather and add for
the line row, one :meth:`~repro.cache.chunked.FusedReplay.data_plan`
that packs the data stream straight into the replay's
:class:`~repro.cache.chunked.PackedPlan` and, for a new size tuple, one
vector expression, ``constant + per_byte * size``, for the addends: the
same IEEE products and sums
:meth:`~repro.machine.executor.LayerFootprint.compute_cycles` forms, so
the addends are bit-equal to the per-invocation ones.

*Dynamic replay.*  The split L1 keeps both tag arrays in one backing
array (:class:`~repro.cache.hierarchy.SplitCacheHierarchy`), so a step
replays its code and data plans as one plan, in ~15 numpy ops: copy
the data plan's first touches in front of the code plan's in the
table's arena (:class:`~repro.cache.chunked.ReplayArena`; a batch
length other than the last one applied first swaps in its code
segment-id row), gather the live tags, compare, scatter the final tags,
count misses per segment, scatter them as stall addends, and one
``cumsum`` over the flat addend array.  ``cumsum`` accumulates strictly
left-to-right, so seeding slot 0 with the current cycle counter
reproduces the scalar engine's float-addition *order* — which is what
makes the cycle counts (and therefore every latency sample) bit-exact,
not merely close.

*State memo.*  A direct-mapped replay is a pure function of the tag
array and the plan, so a step that starts from a (tag state, template)
pair it has seen before needs no cache model: the engine interns the
live L1 tags (``l1_tags.tobytes()`` is both the key and, through
``np.frombuffer``, the one stored copy) as a small state id, and keeps
per template key a memo of, per start state, the stall vector after the
iprefetch ``rint``, its float sum, the next state's id and the six
hit/miss/eviction deltas, cold fills included
(:class:`_StateMemo`).  A hit copies the next state's tags back into
the live array and adds the deltas; the stall values, and hence the
addend array and its ``cumsum``, are the ones the cache model would
give, so a hit is exact.  The state is unknown at engine start, after
any :meth:`~repro.cache.hierarchy.SplitCacheHierarchy.flush` (the
hierarchy counts them in ``flushes``), and after a template's first
use in the engine, which cannot hit and so is not worth an intern; a reused template
interns an unknown state before its lookup.  Paper-scale working sets
leave the cache in a few recurring states (the paper's Section 4
argument, turned on the simulator), so the table is bounded at
:data:`MAX_STATES`; once it is full, steps from a new state replay
through the cache model unrecorded.  Mixed message sizes (the
Bellcore-like trace) leave states that do not recur: once the table
fills before any step has replayed from a memo, the engine stops
interning and releases the table, and its later steps replay through
the cache model without paying for the intern and lookup.

*Table store.*  Everything an engine compiles — templates, layouts,
:class:`_Rows`, shapes, addend arrays and buffer runs — is a pure
function of the *content* of its inputs (:meth:`_VecEngine.inputs`):
the template kind and, for grouped LDLP, the groups with their queue
costs; each layer's placed code and data lines and its footprint (ILP's
integrated per-byte cost among them); each ring buffer's base, capacity
and line size; both L1s' line counts; and whether steps resolve flow
lookups ahead (a multi-step engine with a flow lookup writes the
addends' lookup slots, which one without relies on staying 0.0).  The
arrival rate, the clock and the flow-cache organization are not
inputs, nor are the miss penalty and the prefetch efficiency (they act
in the per-engine :class:`_StateMemo`), nor the batch limit or the
multi-step bound (they only bound which batch lengths an engine asks
for).  So one process keeps each input content's :class:`_Table` in a
store keyed by that content, never by object identity, and
:func:`vec_stepper` hands a new engine the stored table; a stored
table's inputs passed the placement soundness sorts, so a hit skips
them.  The paper averages each point over random placements, and a
sweep's points that differ only in rate, clock, dispatch or flow cache
share every placement: over the ``multicore`` benchmark pass this
takes compiles from ~1,540 to ~960.  Memory bounds the store: a table
counts the bytes of every array it holds plus :data:`_ENTRY_BYTES` per
entry (data-plan blocks are int32, a shape's rows are kept only from
its second use, since most shapes of a mixed-size trace are used once,
and a layout copies what it keeps of the rows, so rows rebuilt longer
free the old ones), it stops taking entries at :data:`MAX_TABLE_BYTES`
(its engines then keep what they compile to themselves), and at each
engine's start the store evicts the least recently used tables while
it counts more than :data:`MAX_TABLE_BYTES`.  A table's batch lengths
share one replay arena: their code first-touch blocks differ only in
the segment ids (see "Layouts"), so the table keeps one int64
``(4, dsets + icols)`` arena (16 KiB at the default L1s) and one
segment-id row per length (<= 2 KiB).  The budget is sized to what the
``multicore`` benchmark pass needs: its schedulers cycle over four
per-core placements, so it holds about four LDLP tables at once.
Data plans per pass (seeds 1-6 in one process, after one at seed 0)
are 685 with no bound, 691 at 1.25 MiB, 729 at 1 MiB and 902 at
768 KiB; 1.25 MiB is the smallest of the three within 5 % of the
unbounded count.  The state memo is
per engine: each engine memoizes per template key, so nothing a memo
holds outlives the drive call.

*Multi-step replay.*  A conventional or ILP step serves one message,
so its fixed Python cost is paid once per message.  Such a core's cache
behaviour depends only on the *order* of the messages it serves, not on
when they arrive, so one replay runs k = :data:`MAX_STEPS` steps back
to back: the engine pops the first message, peeks at the next k - 1
without popping them, takes all k buffers as one run of ring slots
(exactly the k slots the k scalar steps would acquire, since nothing
acquires between them), and keys the template on (first slot, the k
sizes).  When fewer than k - 1 messages are queued after the pop, the
engine asks the drive loop to *admit ahead* (the ``admit_ahead`` hook
of :func:`vec_stepper`): the loop admits exactly the next arrivals of
the core's stream that fill the run, or none (the stream has fewer
left, or the queue would then hold more than its input limit), and
then the engine replays one step.  Only full runs are replayed, so an
engine compiles at most one multi-step template per (ring slot, size
tuple), not one per run length, and a core's templates depend on
neither its clock nor its load.  The template is the k single-message
programs back to back; step j completes at its last invocation's
execute slot, addend index ``_SLOTS * num_layers * (j + 1) - 1`` (the
trailing-execute slot after it is always 0.0 for these kinds, so the
value is the scalar one), and one fused apply and one
``cumsum`` keep the scalar left fold.  A step admitted ahead may start
idle: when its arrival a_j is later than the previous completion
c_{j-1}, the scalar loop advances the clock to a_j before the step, so
the engine restarts the ``cumsum`` there, from ``fl(a_j + lookup_j)``
(its lookup slot's value added to the arrival), and folds the rest of
the run on from it.  Only steps admitted ahead are checked, so a
deep-queue run pays nothing for it.

*Light-load runs.*  At light load an LDLP or grouped core finds one
message per step and runs like conventional processing, a whole step
per message.  So when a grouped step takes a batch of one and leaves
its queue empty, the engine may replay it and the next k - 1 <=
``MAX_STEPS - 1`` steps with one template of a second family,
``singles``: the batch-of-one program k times, message-major, on k
consecutive ring slots, as in a conventional run.  It reads the next
arrivals first (the hook's ``upcoming``, which admits nothing) and
admits the k - 1 it replays ahead.  Only a core whose arrival stream
mixes message sizes runs singles (checked once, when the engine is
built).  A core that serves one size replays at most one batch-of-one
template per ring slot, compiled once per table and then served mostly
from the state memo, while its runs would be keyed on (first slot, k
sizes) for every k and replay through the cache model: running singles
on one-size streams too, the ``multicore`` benchmark pass compiled
2,398 templates over three passes instead of 1,655 and ran about 10 %
longer.  A mixed-size stream compiles most of its batch-of-one
templates anyway, one per (ring slot, size), and one run template
replaces several of those compiles.  Let step j serve m_j, arriving at
a_j, and start at s_j = max(c_{j-1}, a_j); step 0 is the step just
taken, and s_0 is the cycle count it starts at.

* Step j is a batch of one iff a_{j+1} > s_j: the loop admits every
  arrival up to s_j before the step, and ``take_batch`` takes all of
  them.  Step 0's successor has a_1 > s_0, since the loop admitted
  everything up to s_0 and the queue is empty.
* The engine gates on a bound, since s_j is known only after the
  replay: hi_s_0 = s_0, hi_s_j = max(hi_c_{j-1}, a_j), where hi_c_j is
  the left fold from hi_s_j of step j's addends with every stall slot
  at its all-miss value (the segment's lines times the miss penalty,
  the code's after the prefetch ``rint``, a buffer's lines bounded over
  its offset within its first line; ``_VecEngine._ceiling``).  No data
  plan is needed.
* A stall is a miss count times the penalty, and a segment misses at
  most once per line, so each addend is at most its ceiling.  IEEE
  addition (round to nearest), ``max`` and ``rint`` are monotone in
  each argument, and an idle step's fold restarts from its arrival
  (below), so by induction hi_c_j >= c_j and hi_s_j >= s_j.
* Step j >= 1 joins the run iff a_{j+1} > hi_s_j, or m_j is the last
  arrival of the stream.  The run ends at the first step that fails,
  at ``MAX_STEPS`` steps or at the stream's end, so every replayed step
  is provably a batch of one and no replay is ever undone.
  Same-instant arrivals never fold, since a_{j+1} = a_j <= hi_s_j.

The replay is exact:

* at s_j every earlier message has been served, m_j has arrived and
  m_{j+1} has not, so the queue holds m_j alone, and ``take_batch``
  would return ``[m_j]`` for any batch limit >= 1;
* each real arrival in the run finds an empty queue, so TailDrop drops
  nothing, and admitting k - 1 <= ``MAX_STEPS - 1`` ahead into the
  empty queue passes the hook's input-limit check;
* the served order, the ring slots and the cache-state sequence are
  therefore the scalar ones.  A step that starts idle (a_j > c_{j-1})
  restarts the fold at ``fl(a_j + x)``, x its first addend, which is
  what ``advance_to_cycle`` then the first charge give.  The restart
  slot is the one after step j - 1's completion, as for conventional,
  but it holds step j's first addend: an LDLP step ends on a queue-hop
  addend, not on a free 0.0 slot, so no lookup slot is there to reuse;
* each replayed single appends 1 to ``batch_sizes`` and counts one
  ``ldlp.batches`` and one ``ldlp.batched_messages``
  (:func:`~repro.core.scheduler.note_batches`).

The family compiles into its own table, since a run of k sizes must
share no template key, memo entry or addend array with a batch of the
same sizes: the store keys it by the family's inputs, which lead with
its kind, from the engine's first run on.  Both families replay
through the core's one state memo: a second memo over the same tags
would hold a stale state.

:func:`repro.sim.runner.drive` then settles the replayed steps of
either kind of run as one block: it pops the k - 1 replayed messages,
takes each step's start as ``max(c_{j-1}, a_j)`` and adds
``c_j - start_j`` to the core's service cycles, and records the block
in one pass.  When the queue has room for every arrival up to the last
completion, it admits them all at once; otherwise, before popping step
j >= 1's message, it admits every arrival up to step j's start, as k
separate steps would.  The envelope of both is a core the drive loop
runs on its own (one core without a dispatch policy, or each core of a
multi-core run whose cores share no L2; see
:func:`~repro.sim.runner.drive`) with no flush period or span-keeping
recorder and the arrivals in time order (the loop then offers the
hook), and exact :class:`~repro.core.overload.TailDrop`.  Light-load
runs also need an input limit of at least ``MAX_STEPS - 1``, no flow
lookup on the binding (a lookup-charging LDLP core takes few batches of
one) and a stream of mixed sizes.  Everything else replays single
steps.  Admitting a
conventional run ahead is exact:

* the i-th message admitted ahead (from 0) has at most
  ``q + i <= MAX_STEPS - 2`` messages ahead of it, q being the queue
  after the pop, and the scalar run sees at most that many at its real
  arrival; the loop admits ahead only when ``MAX_STEPS - 1`` messages
  fit the input limit, so under TailDrop neither run drops it;
* the served sequence is therefore unchanged, and so are the ring
  slots and the order of the flow lookups;
* a later arrival that either run admits before step j sees the same
  queue in both, because every message admitted ahead precedes it in
  time: at its admission, all of them have arrived in the scalar run
  too.

Equivalence boundaries
----------------------
The engine silently declines (:func:`vec_stepper` returns ``None``,
the core steps on the scalar path) whenever exact replay is not
guaranteed: unbound schedulers, non-passthrough layers (stateful
stacks), an L2 hierarchy (so a core behind a shared L2 steps scalar
while the others replay), layers whose code working set conflicts with
itself in the instruction cache (the static template would be unsound —
see :class:`~repro.cache.chunked.UnsupportedPlanError`), or a
span-keeping obs recorder (the vec path emits no per-layer ``invoke``
spans; full tracing keeps the scalar path, and the harness's
metrics-only recorder wants only the drive loop's counters).  Inside
the envelope, a core never runs ahead of its arrivals where that could
change an outcome: with an input limit below ``MAX_STEPS - 1`` (a run
admitted ahead could overflow it), under a drop policy other than
TailDrop (head drop evicts queued messages, which a replay would
already have served; ``QueueCap``'s depth limit is not the input limit
the hook checks, and ``AdaptiveBatchBackoff``'s batch cap depends on
the queue), with a flush period (a replay would have to stop at the
period boundary) or under a span-keeping recorder (whose spans are per
step).  A grouped core with a flow lookup replays its batches one step
each: light-load runs resolve no lookups ahead.

Flow-lookup charging (:mod:`repro.flows`, :mod:`repro.gossip`) is
inside the envelope, multi-step replay included.  The lookup stays
scalar — LRU state depends on access order — and runs where the
scalar schedulers run it: right after the dequeue, via
:func:`~repro.core.scheduler.charge_flow_lookups` (batched schedulers
charge inside :func:`~repro.core.scheduler.take_batch`).  Its cycles
reach ``cpu.cycles`` before the template seeds addend slot 0 from it,
so the ``cumsum`` still adds in the scalar order.  A multi-step replay
resolves the lookups of steps 1..k-1 ahead, in queue order, as k - 1
one-flow batches in one call
(:meth:`~repro.flows.lookup.FlowLookup.resolve_each`, which executes
nothing), and writes step j's cycles into the 0.0 trailing-execute slot
right after step j - 1's completion: the point in the timeline where
the scalar step j would charge them (after advancing the clock to its
arrival, when it starts idle).  Resolving ahead is exact because only
lookups touch the lookup cache (admissions never do) and TailDrop
never evicts a peeked message.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import add, sub
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..cache.cache import DirectMappedCache
from ..cache.chunked import FusedReplay, PackedPlan, ReplayArena, collapsed_plan
from ..cache.hierarchy import SplitCacheHierarchy
from ..core.dispatch import FLOW_KEY
from ..core.layer import Message, PassthroughLayer
from ..core.overload import TailDrop
from ..core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
    Scheduler,
    charge_flow_lookups,
    note_batches,
    take_batch,
)
from ..machine.executor import QUEUE_INSTRUCTIONS, BufferPool, MessageBuffer
from ..obs.runtime import span_recorder
from .runner import AdmitAhead, Completions, Stepper

if TYPE_CHECKING:
    from ..flows.lookup import FlowLookup

#: Cost-addend slots per invocation in a step template (istall, layer
#: data stall, message-buffer stall, execute, trailing execute).
_SLOTS = 5

#: Most conventional/ILP service steps one multi-step replay runs.
MAX_STEPS = 8

#: Most L1 tag states one engine interns (see "State memo"): 128 states
#: of the default 2 x 8 KiB L1 hold 512 KiB of tags.
MAX_STATES = 128

#: Most bytes of compiled tables the process keeps across drive calls
#: (see "Table store"), counted as :attr:`_Table.nbytes`: 1.25 MiB.
MAX_TABLE_BYTES = 5 << 18

#: What a table counts per entry beyond its arrays: the Python objects
#: and dict slots around them, roughly.
_ENTRY_BYTES = 256


class _StepTemplate:
    """Compiled cache replay + cost layout for one batch composition.

    ``replay``, ``positions``, ``ends`` and ``lookups`` come from the
    batch length's :class:`_Layout` and are shared by every template of
    that length, ``addends`` by every template of its sizes; only
    ``data`` belongs to the composition.
    """

    __slots__ = ("replay", "data", "addends", "positions", "ends", "lookups")

    def __init__(
        self,
        replay: FusedReplay,
        data: PackedPlan,
        addends: np.ndarray,
        positions: np.ndarray,
        ends: np.ndarray,
        lookups: np.ndarray | None = None,
    ) -> None:
        #: The batch length's code plan, fused with ``data`` per step.
        self.replay = replay
        self.data = data
        #: Flat addend array: slot 0 = live cycle counter, then _SLOTS
        #: per invocation; cumsum replays the scalar addition order.
        #: Every step rewrites slot 0, the stall slots and the lookup
        #: slots, so templates of one size tuple share it.
        self.addends = addends
        #: Addend slot of each replay segment's stall: the data and
        #: buffer stall slots, then the istall slots of the invocations
        #: the code plan kept (elided repeats never miss; their slots
        #: stay 0).
        self.positions = positions
        #: Addend index of each message slot's completion cycle (slot
        #: order is scalar completion order); for conventional/ILP, one
        #: per replayed step.
        self.ends = ends
        #: The addend slot where replayed step j >= 1's flow lookup lands
        #: (right after step j - 1's completion).
        self.lookups = lookups


@dataclass(slots=True)
class _Layout:
    """Everything about a template that depends on the batch length only.

    The length's rows of the engine's :class:`_Rows` plus its fused
    replay (over the table's shared arena), built at the length's first
    compile; compiling a
    composition is then a lookup of its buffers' line runs and shape
    (:class:`_Shape`), one :meth:`FusedReplay.data_plan` and, for a new
    size tuple, one vector expression for the addends.  ``replay``,
    ``positions``, ``ends`` and ``lookups`` are every such template's
    (see :class:`_StepTemplate`).
    """

    replay: FusedReplay
    positions: np.ndarray
    #: Each message slot's completion addend index, and each replayed
    #: step's flow-lookup slot (see :class:`_StepTemplate`).
    ends: np.ndarray
    lookups: np.ndarray
    #: Piece of each data segment, in order: with ``L`` layers, piece
    #: ``i < L`` is layer ``i``'s data lines, piece ``L`` no lines and
    #: piece ``L + 1 + j`` message slot ``j``'s buffer lines.
    pieces: np.ndarray
    #: Message slot whose size scales each addend's per-byte term.
    slots: np.ndarray
    #: Addend ``a`` is ``constant[a] + per_byte[a] * size``, the sum
    #: :meth:`LayerFootprint.compute_cycles` forms.
    constant: np.ndarray
    per_byte: np.ndarray


@dataclass(slots=True)
class _Shape:
    """The data-stream rows every composition of one *shape* shares.

    A shape is a batch length plus each slot's buffer line count: line
    counts, not sizes, fix the stream's segment lengths (a buffer's
    lines for a size depend on its offset within its first line).  Each
    piece is one run of consecutive lines, so a composition's line row
    is ``run_base[segment_ids] + iota``: ``run_base`` gathers each
    segment's piece's first line and subtracts the segment's start.
    """

    #: Each line's data segment id (int16 while the segments fit).
    segment_ids: np.ndarray
    #: Each segment's first position in the stream.
    starts: np.ndarray


@dataclass(slots=True)
class _Rows:
    """Every batch length's layout rows, built at once from one
    analysis of the code stream (see the module docs' "Layouts").

    Batch-major: batch length ``b``'s rows run from entry ``b - 1`` to
    entry ``b`` of ``row_ends``, a padding row (whose last addend is
    addend slot 0) and then one row per invocation; its code segments
    run likewise between entries of ``code_ends``.
    """

    #: Longest batch length covered.
    length: int
    row_ends: list[int]
    #: Each row's batch-1 invocation (``step`` for padding) and message
    #: slot.
    member: np.ndarray
    slots: np.ndarray
    #: Per batch-1 invocation, then padding: its ``_SLOTS`` addends'
    #: constant and per-byte terms (see :class:`_Layout`).
    constant: np.ndarray
    per_byte: np.ndarray
    #: Two data-segment pieces per row (see :attr:`_Layout.pieces`).
    pieces: np.ndarray
    #: The longest batch's data stall slots, two per invocation: a
    #: shorter batch's are a prefix.
    dpos: np.ndarray
    code_ends: list[int]
    #: Each kept code segment's istall slot and static misses.
    istall: np.ndarray
    static: np.ndarray
    #: The analysed code plan's first-touch segment ids (row 2 of its
    #: block; the other rows are the table's arena's), and what a batch
    #: of ``b`` adds ``b - 2`` times to them: ``None`` unless a group
    #: keeps second repetitions before another (see
    #: :meth:`_VecEngine._code_rows`).
    segments: np.ndarray
    shift: np.ndarray | None
    #: Code accesses per message, elided repeats included.
    accesses: int

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Every array the rows hold."""
        arrays = (
            self.member, self.slots, self.constant, self.per_byte, self.pieces,
            self.dpos, self.istall, self.static, self.segments,
        )
        return arrays if self.shift is None else arrays + (self.shift,)


class _Table:
    """Everything an engine compiles, shared by every engine whose
    inputs have equal content (see the module docs' "Table store").

    ``nbytes`` is the table's size as the store counts it: its arrays
    plus :data:`_ENTRY_BYTES` per entry.
    """

    __slots__ = (
        "templates", "layouts", "rows", "arena", "shapes", "addends",
        "layer_runs", "buffer_runs", "dtype", "nbytes",
    )

    def __init__(
        self, layer_runs: list[tuple[int, int]], dtype: type[np.signedinteger]
    ) -> None:
        #: (first ring slot, sizes) -> template: a step's buffers are the
        #: run of ring slots from the first (see the module docs).
        self.templates: dict[tuple[int, tuple[int, ...]], _StepTemplate] = {}
        self.layouts: dict[int, _Layout] = {}
        self.rows: _Rows | None = None
        #: The code plan's first touches, and the scratch columns every
        #: batch length's replay shares (see :class:`ReplayArena`).
        self.arena: ReplayArena | None = None
        #: Each piece's line count (the layers' pieces, then each slot's
        #: buffer; the count of slots fixes the batch length) -> its
        #: rows, or ``None`` while the shape has been used once.
        self.shapes: dict[tuple[int, ...], _Shape | None] = {}
        #: Sizes -> the addend array its templates share.
        self.addends: dict[tuple[int, ...], np.ndarray] = {}
        #: The first line and line count of the pieces every template
        #: shares: each layer's data lines, then no lines (see
        #: _Layout.pieces).
        self.layer_runs = layer_runs
        #: (ring slot, size) -> the first line and line count of the
        #: buffer lines a message touches.
        self.buffer_runs: dict[tuple[int, int], tuple[int, int]] = {}
        #: The data plans' block dtype: int32 while every line fits.
        self.dtype = dtype
        self.nbytes = 0

    def add(self, *arrays: np.ndarray) -> None:
        """Count one new entry holding ``arrays``."""
        self.nbytes += _ENTRY_BYTES + sum(array.nbytes for array in arrays)

    def keep(self, entries: dict, key, value, nbytes: int = 0):
        """Store ``value``, holding ``nbytes`` of arrays, as
        ``entries[key]`` (one of the table's dicts) unless the table is
        full; returns ``value``.  A full table counts
        :data:`MAX_TABLE_BYTES`: it still serves what it holds, and its
        engines keep what they compile beyond it to themselves."""
        if self.nbytes < MAX_TABLE_BYTES:
            if key not in entries:
                self.nbytes += _ENTRY_BYTES
            entries[key] = value
            self.nbytes += nbytes
        return value


#: Engine-input content -> its table, least recently used first.
_TABLES: dict[tuple, _Table] = {}


def clear_tables() -> None:
    """Empty the table store: later engines compile from scratch."""
    _TABLES.clear()  # det: allow[DET005] the store only caches what its key's content determines; results never depend on it


#: One template's memo in one engine: interned start state -> (stall
#: vector, its sum, next state, D hits/misses/evictions and I
#: hits/misses/evictions deltas).
_Memo = dict[int, tuple[np.ndarray, float, int, tuple[int, ...]]]


class _StateMemo:
    """Replays step templates against one split L1, memoized per
    (interned tag state, template); see the module docs' "State memo".

    ``state`` is the live tags' id in ``states``, or -1 while unknown.
    ``hits`` counts replays served from a memo, ``misses`` replays that
    ran :meth:`~repro.cache.chunked.FusedReplay.apply`.
    """

    __slots__ = (
        "hierarchy", "tags", "dstats", "istats", "miss_penalty",
        "iprefetch_scale", "flushes", "state", "ids", "states", "hits",
        "misses", "interning",
    )

    def __init__(
        self,
        hierarchy: SplitCacheHierarchy,
        miss_penalty: float,
        iprefetch_scale: float | None,
    ) -> None:
        self.hierarchy = hierarchy
        self.tags = hierarchy.l1_tags
        self.dstats = hierarchy.dcache.stats
        self.istats = hierarchy.icache.stats
        self.miss_penalty = miss_penalty
        self.iprefetch_scale = iprefetch_scale
        self.flushes = hierarchy.flushes
        self.state = -1
        #: Tag bytes -> state id, and each id's tags: a view of its key.
        self.ids: dict[bytes, int] = {}
        self.states: list[np.ndarray] = []
        self.hits = 0
        self.misses = 0
        #: False once a full table has served no hit (see _intern).
        self.interning = True

    def _intern(self) -> int:
        """The live tags' state id, interned while the table has room;
        -1 once it is full and the tags are new.  A table that fills
        before any replay hits shows tag states that do not recur: the
        memo then stops interning and frees the table."""
        key = self.tags.tobytes()
        state = self.ids.get(key, -1)
        if state < 0:
            if len(self.states) < MAX_STATES:
                state = self.ids[key] = len(self.states)
                self.states.append(np.frombuffer(key, dtype=self.tags.dtype))
            elif not self.hits:
                # Nothing reads the table again: release it.
                self.interning = False
                self.ids = {}
                self.states = []
        return state

    def apply(self, template: _StepTemplate) -> tuple[np.ndarray, float]:
        """Replay ``template`` through the cache model; returns its stall
        vector and sum, and leaves the state unknown."""
        self.state = -1
        self.misses += 1
        replay = template.replay
        misses = replay.apply(self.tags, template.data, self.dstats, self.istats)
        stall = misses * self.miss_penalty
        if self.iprefetch_scale is not None:
            # round() and np.rint both round half to even, so the
            # per-call prefetch discount truncates identically.
            istall = stall[replay.dsegments :]
            istall[:] = np.rint(istall * self.iprefetch_scale)
        return stall, float(stall.sum())

    def replay(self, template: _StepTemplate, memo: _Memo) -> tuple[np.ndarray, float]:
        """:meth:`apply` for a template this engine used before, served
        from ``memo``, the template's entries, when it has left this tag
        state before."""
        if not self.interning:
            return self.apply(template)
        flushes = self.hierarchy.flushes
        if flushes != self.flushes:
            self.flushes = flushes
            self.state = -1
        state = self.state
        if state < 0:
            state = self._intern()
            if state < 0:
                return self.apply(template)
        entry = memo.get(state)
        if entry is not None:
            stall, total, after, deltas = entry
            self.tags[:] = self.states[after]
            dhits, dmisses, devictions, ihits, imisses, ievictions = deltas
            dstats = self.dstats
            istats = self.istats
            dstats.hits += dhits
            dstats.misses += dmisses
            dstats.evictions += devictions
            istats.hits += ihits
            istats.misses += imisses
            istats.evictions += ievictions
            self.state = after
            self.hits += 1
            return stall, total
        before = self._counts()
        stall, total = self.apply(template)
        after = self._intern()
        if after >= 0:
            deltas = tuple(map(sub, self._counts(), before))
            memo[state] = (stall, total, after, deltas)
            self.state = after
        return stall, total

    def _counts(self) -> tuple[int, ...]:
        """The six counters a replay adds to, in memo-delta order."""
        dstats = self.dstats
        istats = self.istats
        return (
            dstats.hits, dstats.misses, dstats.evictions,
            istats.hits, istats.misses, istats.evictions,
        )


def _distinct_sets(arrays: list[np.ndarray], num_lines: int) -> bool:
    """True when each line array maps to all-distinct cache sets: one
    sort of every (array, set) key."""
    keys = np.concatenate(arrays) % num_lines
    keys += num_lines * np.repeat(
        np.arange(len(arrays)), [lines.size for lines in arrays]
    )
    keys.sort()
    return not (keys[1:] == keys[:-1]).any()


class _Compiler:
    """Compiles one template family's step templates into ``table``.

    A family is a template kind (:meth:`_program`): ``conventional`` and
    ``ilp`` (one step per message, a template of ``b`` messages being
    ``b`` steps), ``grouped`` (one step over a batch of ``b``) and
    ``singles`` (``b`` one-message grouped steps back to back; see
    "Light-load runs").  ``table`` is a fresh one unless the store hands
    over the table for the family's inputs (:meth:`inputs`).
    """

    def __init__(
        self,
        kind: str,
        placed: list,
        groups: list[list[tuple[int, float]]] | None,
        hierarchy: SplitCacheHierarchy,
        pool: BufferPool,
        longest: int,
        flow_lookup: FlowLookup | None,
        table: _Table | None = None,
    ) -> None:
        self.kind = kind
        #: One step per message, completing at its last execute, so that
        #: step's 0.0 trailing execute can carry the next step's lookup.
        self.per_message = kind in ("conventional", "ilp")
        self.placed = placed
        self.extra_per_byte = sum(
            layer.footprint.per_byte_cycles for layer in placed[1:]
        )
        #: Per group, each member's (layer index, trailing execute): the
        #: queue hop is charged on entering the group.
        self.groups = groups
        #: Longest batch a template serves, unless a drop policy's batch
        #: cap exceeds the scheduler's (see _rows).
        self.longest = longest
        #: Resolves the lookups of steps replayed after the first.
        self.flow_lookup = flow_lookup
        self.icache = hierarchy.icache
        self.dcache = hierarchy.dcache
        self.pool = pool
        if table is None:
            layer_runs = [_run(layer.data_lines) for layer in placed]
            # One past every data line: the layers' and the ring's.
            bound = max(
                [first + count for first, count in layer_runs]
                + [(buffer.base + buffer.capacity) // buffer.line_size for buffer in pool.buffers]
            )
            table = _Table(
                layer_runs + [(0, 0)],
                np.int32 if bound <= np.iinfo(np.int32).max else np.int64,
            )
        self.table = table
        #: (first ring slot, sizes) -> the template and this engine's
        #: memo of it, from the template's first use here.
        self._seen: dict[tuple[int, tuple[int, ...]], tuple[_StepTemplate, _Memo]] = {}

    def inputs(self) -> tuple:
        """The content of everything the family's table holds depends on
        (see the module docs' "Table store"): families with equal inputs
        compile equal entries.  The kind leads, so the families of one
        engine never share a table."""
        return (
            self.kind,
            # Whether steps resolve flow lookups ahead into the addends.
            self.flow_lookup is not None,
            None if self.groups is None else tuple(map(tuple, self.groups)),
            tuple(
                (layer.code_lines.tobytes(), layer.data_lines.tobytes(), layer.footprint)
                for layer in self.placed
            ),
            tuple(
                (buffer.base, buffer.capacity, buffer.line_size)
                for buffer in self.pool.buffers
            ),
            self.icache.num_lines,
            self.dcache.num_lines,
        )

    # ------------------------------------------------------------------
    # Template compilation

    def _program(self, batch: int) -> list[tuple[int, int, bool, float, float]]:
        """The step's (layer, slot, include_data, trailing execute, its
        per-byte part) list for a batch of ``batch`` messages.

        Mirrors each scalar scheduler's invocation order exactly (the
        order determines cache behaviour — it is the paper's whole
        subject): conventional/ILP are message-major (one step per
        slot, back to back); grouped is group-major with one queue hop
        per group, which with singleton groups (LDLP) is layer-major
        over the batch.  ILP's integrated loop charges the later layers'
        per-byte cycles as the first layer's trailing execute.  A run of
        singles is message-major over grouped batches of one.
        """
        num_layers = len(self.placed)
        if self.kind == "conventional":
            return [
                (index, slot, True, 0.0, 0.0)
                for slot in range(batch)
                for index in range(num_layers)
            ]
        if self.kind == "ilp":
            program = []
            for slot in range(batch):
                program.append((0, slot, True, 0.0, self.extra_per_byte))
                program += [
                    (index, slot, False, 0.0, 0.0) for index in range(1, num_layers)
                ]
            return program
        assert self.groups is not None
        if self.kind == "singles":
            return [
                (layer_index, slot, True, trailing, 0.0)
                for slot in range(batch)
                for members in self.groups
                for layer_index, trailing in members
            ]
        return [
            (layer_index, slot, True, trailing, 0.0)
            for members in self.groups
            for slot in range(batch)
            for layer_index, trailing in members
        ]

    def _invocations(self, sizes: list[int]) -> list[tuple[int, int, bool, float]]:
        """The step's (layer, slot, include_data, trailing execute) list."""
        return [
            (layer_index, slot, include_data, trailing + per_byte * sizes[slot])
            for layer_index, slot, include_data, trailing, per_byte
            in self._program(len(sizes))
        ]

    def _completion_points(self, batch: int) -> np.ndarray:
        """Each message slot's completion addend index; slot order is
        scalar completion order."""
        slots = np.arange(batch)
        if self.per_message:
            # A step's last trailing execute is 0.0 (see _addends_for), so
            # the step completes one slot early with the same value and
            # leaves that slot to the next step's flow lookup.
            return _SLOTS * len(self.placed) * (slots + 1) - 1
        if self.kind == "singles":
            # Each step completes at its last addend, the queue hop of its
            # last group's first member (or that group's 0.0 trailing).
            return _SLOTS * len(self.placed) * (slots + 1)
        assert self.groups is not None
        last = len(self.groups[-1])
        offset = batch * sum(len(members) for members in self.groups[:-1])
        return _SLOTS * (offset + slots * last + last - 1) + _SLOTS

    def _rows(self, batch: int) -> _Rows:
        """Every batch length's layout arrays, up to at least ``batch``.

        Built once per table, up to the building engine's longest batch
        (its multi-step bound, or the scheduler's batch limit); an
        engine whose batches outgrow them (a longer limit, or a drop
        policy's batch cap) rebuilds them longer.
        """
        table = self.table
        rows = table.rows
        if rows is not None:
            if rows.length >= batch:
                return rows
            # The longer rows replace these: layouts copy what they keep.
            table.nbytes -= _ENTRY_BYTES + sum(array.nbytes for array in rows.arrays())
        length = max(batch, self.longest)
        one = self._program(1)
        step = len(one)
        # Each group's first batch-1 invocation and size; a
        # conventional/ILP step, or a single, is one group.
        spans = []
        start = 0
        for members in self.groups if self.kind == "grouped" else [one]:
            spans.append((start, len(members)))
            start += len(members)
        batches = np.arange(1, length + 1)[:, None]

        # The longest program is group-major, then slot, then member: a
        # stable sort by group of the (slot, member) grid.  Each batch
        # takes its rows with a lower slot than its length, after a
        # padding row (batch-1 invocation ``step``).
        count = length * step
        member = np.empty(count + 1, dtype=np.intp)
        slots = np.empty(count + 1, dtype=np.intp)
        member[0] = step
        slots[0] = 0
        groups = np.repeat(np.arange(len(spans)), [size for _, size in spans])
        np.divmod(
            np.tile(groups, length).argsort(kind="stable"),
            step,
            out=(slots[1:], member[1:]),
        )
        picked = np.flatnonzero(slots < batches) % (count + 1)
        member = member.take(picked)
        slots = slots.take(picked)
        # Per batch-1 invocation, then padding: its addends' constant and
        # per-byte terms (columns 3 and 4 are the execute and trailing
        # execute) and its pieces, (layer, L + include * (1 + slot)) with
        # L layers.
        footprints = [self.placed[layer_index].footprint for layer_index, *_ in one]
        zeros = [0.0] * _SLOTS
        constant = np.array(
            [
                [0.0, 0.0, 0.0, footprint.base_cycles, trailing]
                for footprint, (_, _, _, trailing, _) in zip(footprints, one)
            ]
            + [zeros]
        )
        per_byte = np.array(
            [
                [0.0, 0.0, 0.0, footprint.per_byte_cycles if include else 0.0, extra]
                for footprint, (_, _, include, _, extra) in zip(footprints, one)
            ]
            + [zeros]
        )
        num_layers = len(self.placed)
        pieces = np.array(
            [(layer_index, num_layers) for layer_index, *_ in one] + [(0, 0)]
        )
        buffers = np.array([(0, include) for _, _, include, *_ in one] + [(0, 0)])
        rows = table.rows = _Rows(
            length,
            [b + step * b * (b + 1) // 2 for b in range(length + 1)],
            member,
            slots,
            constant,
            per_byte,
            (
                pieces.take(member, axis=0)
                + buffers.take(member, axis=0) * (slots + 1)[:, None]
            ).ravel(),
            (_SLOTS * np.arange(count)[:, None] + (2, 3)).ravel(),
            *self._code_rows(spans, batches),
        )
        table.add(*rows.arrays())
        return rows

    def _code_rows(
        self, spans: list[tuple[int, int]], batches: np.ndarray
    ) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, int]:
        """The code half of :class:`_Rows`, from its ``code_ends`` on:
        one analysis, of a batch of two (one for an engine whose
        batches are all single), whose plan keeps each group's first
        repetition and one copy of its second (see the module docs'
        "Layouts").  ``spans`` are the groups' first batch-1
        invocations and sizes, ``batches`` the lengths as a column.
        The table's arena takes the plan's first touches at the first
        analysis; a longer one finds the same."""
        length = len(batches)
        analysed = min(2, length)
        plan, kept = collapsed_plan(
            [
                self.placed[layer_index].code_lines
                for layer_index, *_ in self._program(analysed)
            ],
            self.icache.num_lines,
        )
        twins = [
            (group, repetition, member)
            for group, (_, size) in enumerate(spans)
            for repetition in range(analysed)
            for member in range(size)
        ]
        repetitions: list[tuple[list, list]] = [([], []) for _ in spans]
        for index, static in zip(kept, plan.static.tolist()):
            group, repetition, member = twins[index]
            repetitions[group][repetition].append((member, static))
        # The longest batch's kept segments as (slot, and in a batch of
        # b + 1, its istall slot b * scale + offset, its static misses);
        # each batch takes those with a lower slot than its length.
        code = np.array(
            [
                (slot, _SLOTS * start, _SLOTS * (start + slot * size + member) + 1, static)
                for (start, size), (first, second) in zip(spans, repetitions)
                for slot, segments in enumerate([first] + [second] * (length - 1))
                for member, static in segments
            ]
        )
        code_batch, code_row = np.divmod(
            np.flatnonzero(code[:, 0] < batches), len(code)
        )
        code = code.take(code_row, axis=0)
        seconds = [len(second) for _, second in repetitions]
        firsts = len(kept) - sum(seconds)
        # The first-touch block's segments are all first repetitions, and
        # a batch of b keeps b - 2 more second repetitions than a batch
        # of 2 in the groups before each.
        before = [sum(seconds[: twins[index][0]]) for index in kept]
        segments = plan.block[2].copy()
        shift = np.array(before)[segments] if any(before) else None
        table = self.table
        if table.arena is None:
            table.arena = ReplayArena(plan.block, self.dcache.num_lines)
            table.add(table.arena.columns)
        else:
            dsets = table.arena.dsets
            assert np.array_equal(
                table.arena.columns[[1, 3], dsets:], plan.block[[1, 3]]
            ), "a longer analysis moved a first touch"
        return (
            [b * firsts + sum(seconds) * b * (b - 1) // 2 for b in range(length + 1)],
            code_batch * code[:, 1] + code[:, 2],
            code[:, 3].copy(),
            segments,
            shift,
            plan.accesses // analysed,
        )

    def _layout(self, batch: int) -> _Layout:
        """The batch-length-only parts of a template: its rows of
        :meth:`_rows` (copied slices, and gathers of the per-invocation
        addend terms), plus the length's fused replay, which shares the
        table's arena."""
        table = self.table
        layouts = table.layouts
        layout = layouts.get(batch)
        if layout is not None:
            return layout
        rows = self._rows(batch)
        first, last = rows.row_ends[batch - 1 : batch + 1]
        start, stop = rows.code_ends[batch - 1 : batch + 1]
        count = last - first - 1
        segments = rows.segments
        if rows.shift is not None:
            segments = segments + (batch - 2) * rows.shift
        assert table.arena is not None
        replay = FusedReplay.sharing(
            table.arena, segments, rows.static[start:stop].copy(),
            batch * rows.accesses, 2 * count,
        )
        member = rows.member[first:last]
        ends = self._completion_points(batch)
        layout = _Layout(
            replay,
            np.concatenate((rows.dpos[: 2 * count], rows.istall[start:stop])),
            ends,
            ends[:-1] + 1,
            rows.pieces[2 * (first + 1) : 2 * last].copy(),
            # Row 0's last addend is addend slot 0.
            np.outer(rows.slots[first:last], (0, 0, 0, 1, 1)).ravel()[_SLOTS - 1 :].copy(),
            rows.constant.take(member, axis=0).ravel()[_SLOTS - 1 :].copy(),
            rows.per_byte.take(member, axis=0).ravel()[_SLOTS - 1 :].copy(),
        )
        layouts[batch] = layout
        table.nbytes += replay.nbytes
        table.add(
            layout.positions, layout.ends, layout.lookups, layout.pieces,
            layout.slots, layout.constant, layout.per_byte,
        )
        return layout

    def _compile(
        self, sizes: Sequence[int], buffers: list[MessageBuffer]
    ) -> _StepTemplate:
        """The template of a batch whose slot ``j`` holds a message of
        ``sizes[j]`` bytes in ``buffers[j]``."""
        batch = len(sizes)
        layout = self._layout(batch)
        table = self.table
        # Each piece's first line and line count; a slot's, computed once
        # per (ring slot, size).
        runs = table.layer_runs.copy()
        cache = table.buffer_runs
        for buffer, size in zip(buffers, sizes):
            key = (buffer.index, size)
            run = cache.get(key)
            if run is None:
                run = table.keep(
                    cache, key, _run(buffer.lines_for(min(size, buffer.capacity)))
                )
            runs.append(run)
        firsts, counts = zip(*runs)
        shape = self._shape(layout, counts)
        # Each segment's piece's first line, less the segment's start,
        # plus each line's position: the stream's lines.
        run_base = np.array(firsts).take(layout.pieces)
        run_base -= shape.starts
        lines = run_base.take(shape.segment_ids)
        lines += np.arange(lines.size)
        data = layout.replay.data_plan(
            lines, shape.segment_ids, shape.starts.size, table.dtype
        )
        sizes = tuple(sizes)
        addends = table.addends.get(sizes)
        if addends is None:
            addends = self._addends_for(layout, sizes)
            table.keep(table.addends, sizes, addends, addends.nbytes)
        return _StepTemplate(
            layout.replay, data, addends, layout.positions, layout.ends,
            layout.lookups,
        )

    def _shape(self, layout: _Layout, counts: tuple[int, ...]) -> _Shape:
        """The rows of the data streams whose pieces hold ``counts``
        lines each (the layers' pieces first; see :class:`_Shape`),
        kept from the shape's second use: most shapes of a mixed-size
        trace are used once."""
        shapes = self.table.shapes
        shape = shapes.get(counts, False)
        if shape:
            return shape
        lengths = np.array(counts).take(layout.pieces)
        ends = lengths.cumsum()
        segments = len(lengths)
        dtype = np.int16 if segments <= 1 << 15 else np.int32
        rows = _Shape(
            np.repeat(np.arange(segments, dtype=dtype), lengths), ends - lengths
        )
        if shape is None:
            self.table.keep(
                shapes, counts, rows, rows.segment_ids.nbytes + rows.starts.nbytes
            )
        else:
            self.table.keep(shapes, counts, None)
        return rows

    def _addends_for(self, layout: _Layout, sizes: tuple[int, ...]) -> np.ndarray:
        """The flat addend array of a batch of ``sizes``, free slots 0.0."""
        # The same IEEE products and sums compute_cycles forms, so the
        # addends are bit-equal to the per-invocation ones.
        slot_sizes = np.array(sizes, dtype=np.float64)
        addends = layout.constant + layout.per_byte * slot_sizes[layout.slots]
        if self.per_message:
            # The slot after each completion carries the next step's flow
            # lookup, so it must be free: the step's 0.0 trailing execute.
            per_step = _SLOTS * len(self.placed)
            assert not addends[per_step::per_step].any()
        return addends


class _VecEngine(_Compiler):
    """Per-drive-call state of the vectorized service path of one core.

    The engine is its scheduler's template family; a grouped core inside
    the light-load envelope (see "Light-load runs") has a second one,
    :attr:`runs`, for its runs of singles.  Both replay through the one
    state memo of the core's L1.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        kind: str,
        admit_ahead: Callable[[int], bool] | None = None,
    ) -> None:
        self.scheduler = scheduler
        binding = scheduler.binding
        assert binding is not None
        pool = binding.pool
        assert pool is not None
        tail = admit_ahead is not None and type(scheduler.drop_policy) is TailDrop
        per_message = kind in ("conventional", "ilp")
        #: Steps a multi-step replay runs (1: single steps only); see
        #: the module docs' envelope.
        self.max_steps = MAX_STEPS if tail and per_message else 1
        #: Whether a grouped step of one that empties the queue may run
        #: the next steps as singles (see "Light-load runs").
        self.light = (
            tail
            and kind == "grouped"
            and isinstance(admit_ahead, AdmitAhead)
            and scheduler.input_limit >= MAX_STEPS - 1
            and binding.flow_lookup is None
            and _mixes_sizes(admit_ahead.upcoming(sys.maxsize))
        )
        #: The drive loop's early admission (see "Multi-step replay").
        self.admit_ahead = admit_ahead if self.max_steps > 1 or self.light else None
        self.cpu = binding.cpu
        hierarchy = self.cpu.hierarchy
        efficiency = float(binding.spec.iprefetch_efficiency)
        # A float penalty makes the stalls float64, exactly: miss counts
        # times the penalty stay far below 2**53.
        self.memo = _StateMemo(
            hierarchy,
            float(binding.spec.miss_penalty),
            (1.0 - efficiency) if efficiency else None,
        )
        groups = None
        longest = self.max_steps
        if isinstance(scheduler, GroupedLDLPScheduler):
            queue_cost = float(QUEUE_INSTRUCTIONS)
            groups = [
                [
                    (index, queue_cost if position == 0 else 0.0)
                    for position, index in enumerate(members)
                ]
                for members in scheduler.groups
            ]
            longest = scheduler.batch_limit
        super().__init__(
            kind,
            [binding.placed_layer(layer.name) for layer in scheduler.layers],
            groups,
            hierarchy,
            pool,
            longest,
            binding.flow_lookup if self.max_steps > 1 else None,
        )
        #: The runs-of-singles family, from the engine's first run.
        self.runs: _Compiler | None = None
        #: Size -> a step of one's ceiling addends, and the terms they
        #: are built from (see _ceiling).
        self._ceilings: dict[int, list[float]] = {}
        self._terms: tuple[list[float], list[float]] | None = None

    @property
    def memo_hits(self) -> int:
        """Steps replayed from a template's memo."""
        return self.memo.hits

    @property
    def memo_misses(self) -> int:
        """Steps replayed through the cache model."""
        return self.memo.misses

    # ------------------------------------------------------------------
    # Light-load runs of singles

    def _runs(self) -> _Compiler:
        """The runs-of-singles family, built at the engine's first run
        over the store's table for its inputs, which share the
        placements this engine's table passed the soundness sorts
        with."""
        runs = self.runs
        if runs is None:
            table = self.table
            runs = self.runs = _Compiler(
                "singles", self.placed, self.groups, self.cpu.hierarchy,
                self.pool, MAX_STEPS, None, _Table(table.layer_runs, table.dtype),
            )
            key = runs.inputs()
            stored = _TABLES.pop(key, None)  # det: allow[DET005] see vec_stepper
            if stored is not None:
                runs.table = stored
            _keep(key, runs.table)
        return runs

    def _singles(self, first: Message) -> int:
        """How many steps of one message can follow ``first``'s step,
        which starts now and leaves the queue empty, in one run of
        singles: the arrivals to come, at most ``MAX_STEPS - 1`` of
        them, up to the first whose step might serve a second message
        (see "Light-load runs")."""
        ahead = self.admit_ahead
        assert isinstance(ahead, AdmitAhead)
        upcoming = ahead.upcoming(MAX_STEPS)
        # Each step's next arrival; past the stream's end none joins.
        arrivals = [message.arrival_cycle for message in upcoming[1:]]
        arrivals.append(math.inf)
        steps = min(len(upcoming), MAX_STEPS - 1)
        for count, start in enumerate(islice(self._starts(first, upcoming), steps)):
            if arrivals[count] <= start:
                return count
        return steps

    def _starts(self, first: Message, upcoming: list[Message]) -> Iterator[float]:
        """hi_s_j for j = 1, 2, ...: a bound on the start of the step that
        would serve ``upcoming[j - 1]`` as a single after ``first``'s,
        which starts now (see "Light-load runs")."""
        start = self.cpu.cycles
        size = first.size
        for message in upcoming:
            start = max(reduce(add, self._ceiling(size), start), message.arrival_cycle)
            yield start
            size = message.size

    def _ceiling(self, size: int) -> list[float]:
        """The addends of a grouped step of one ``size``-byte message,
        after slot 0, with every stall slot at its all-miss value: the
        segment's lines times the miss penalty (for code, after the
        prefetch ``rint``), a buffer's lines bounded over its offset
        within its first line.  Each is at least any replay's stall, so
        their fold from a bound on the step's start bounds its
        completion (see "Light-load runs")."""
        ceiling = self._ceilings.get(size)
        if ceiling is None:
            if self._terms is None:
                self._terms = self._ceiling_terms()
            constant, per_byte = self._terms
            # The same IEEE products and sums as _addends_for.
            ceiling = [term + rate * size for term, rate in zip(constant, per_byte)]
            # The ring's buffers share one capacity and line size.
            buffer = self.pool.buffers[0]
            line = buffer.line_size
            lines = (min(size, buffer.capacity) + line - 2) // line + 1
            ceiling[2::_SLOTS] = [lines * self.memo.miss_penalty] * (len(ceiling) // _SLOTS)
            self._ceilings[size] = ceiling
        return ceiling

    def _ceiling_terms(self) -> tuple[list[float], list[float]]:
        """A grouped step of one's constant and per-byte addend terms
        after slot 0 (see :class:`_Layout`), with the code and layer-data
        stall slots at their all-miss values."""
        layout = self._layout(1)
        memo = self.memo
        penalty = memo.miss_penalty
        layers = [self.placed[index] for index, *_ in self._program(1)]
        constant = layout.constant[1:].copy()
        code = np.array([layer.code_lines.size for layer in layers]) * penalty
        if memo.iprefetch_scale is not None:
            code = np.rint(code * memo.iprefetch_scale)
        constant[0::_SLOTS] = code
        constant[1::_SLOTS] = [layer.data_lines.size * penalty for layer in layers]
        return constant.tolist(), layout.per_byte[1:].tolist()

    # ------------------------------------------------------------------
    # Dynamic replay

    def step(self) -> tuple[Completions, Completions]:
        """Run one service step, plus any steps replayed after it: a
        conventional/ILP run, or a grouped run of singles.

        Returns the step's completions and the replayed steps, one
        (message, completion cycle) pair each, whose messages are still
        queued for the drive loop to pop.
        """
        scheduler = self.scheduler
        family: _Compiler = self
        # The batch slot of the first step admitted ahead, if any.
        early = 0
        if self.per_message:
            queue = scheduler.input_queue
            batch = [queue.popleft()]
            charge_flow_lookups(scheduler, batch)
            # A full run of max_steps or a single step: one multi-step
            # template per (ring slot, sizes), not one per run length.
            # A shallow queue is filled from the arrivals to come.
            ahead = self.max_steps - 1
            queued = len(queue)
            admit_ahead = self.admit_ahead
            if queued < ahead and admit_ahead is not None and admit_ahead(ahead - queued):
                early = queued + 1
            if len(queue) >= ahead:
                batch += islice(queue, ahead)
        else:
            batch = take_batch(scheduler)  # type: ignore[arg-type]
            if not batch:
                return [], []
            if self.light and len(batch) == 1 and not scheduler.input_queue:
                count = self._singles(batch[0])
                if count:
                    admitted = self.admit_ahead(count)  # type: ignore[misc]
                    assert admitted, "a run of singles was not admitted"
                    batch += scheduler.input_queue
                    note_batches(scheduler, 1, count)  # type: ignore[arg-type]
                    family = self._runs()
                    early = 1
        # Only the scalar path assigns buffers; this one takes the ring
        # slots the scalar steps would acquire, one run per step.
        assert batch[0].buffer is None, "vec step on a message with a buffer"
        sizes = tuple([message.size for message in batch])
        key = (self.pool.acquire_run(len(batch)), sizes)
        seen = family._seen.get(key)
        if seen is None:
            table = family.table
            template = table.templates.get(key)
            if template is None:
                buffers = self.pool.buffers
                first = key[0]
                ring = [
                    buffers[slot % len(buffers)]
                    for slot in range(first, first + len(batch))
                ]
                template = family._compile(sizes, ring)
                data = template.data
                table.keep(
                    table.templates, key, template,
                    data.block.nbytes + data.static.nbytes,
                )
            family._seen[key] = (template, {})
            # A first use cannot hit its empty memo: skip the intern.
            stall, total = self.memo.apply(template)
        else:
            template, memo = seen
            stall, total = self.memo.replay(template, memo)
        cpu = self.cpu
        addends = template.addends
        lookup = self.flow_lookup
        if lookup is not None and len(batch) > 1:
            # Steps 1..k-1's lookups, resolved ahead in queue order; each
            # lands right after the previous step's completion, where the
            # scalar step would charge it.
            addends[template.lookups] = lookup.resolve_each(
                [message.meta.get(FLOW_KEY) for message in batch[1:]]
            )
        addends[0] = cpu.cycles
        addends[template.positions] = stall
        timeline = addends.cumsum()
        if early:
            _reseed(timeline, addends, template.lookups, batch, early)
        cpu.cycles = float(timeline[-1])
        cpu.stall_cycles += total
        completions = list(zip(batch, timeline.take(template.ends).tolist()))
        if family.kind == "grouped":
            return completions, []
        return completions[:1], completions[1:]


def _reseed(
    timeline: np.ndarray,
    addends: np.ndarray,
    lookups: np.ndarray,
    batch: list[Message],
    early: int,
) -> None:
    """Restart ``timeline`` at every replayed step from ``early`` on
    that starts idle (see "Multi-step replay"): step ``j`` arrives after
    step ``j - 1`` completes, so its clock starts at its arrival plus
    its lookup cycles, ``fl(a_j + lookup_j)``, as the scalar path's
    ``advance_to_cycle`` then lookup charge leave it, and the fold runs
    on from there.  ``addends`` is left as it was."""
    for j in range(early, len(batch)):
        slot = lookups[j - 1]
        arrival = batch[j].arrival_cycle
        if arrival > timeline[slot - 1]:
            lookup = addends[slot]
            addends[slot] = arrival + lookup
            np.cumsum(addends[slot:], out=timeline[slot:])
            addends[slot] = lookup


def _mixes_sizes(messages: list[Message]) -> bool:
    """Whether ``messages`` hold more than one size (see "Light-load
    runs")."""
    return len({message.size for message in messages}) > 1


def _run(lines: np.ndarray) -> tuple[int, int]:
    """The first line and count of a run of consecutive lines."""
    if not lines.size:
        return 0, 0
    first = int(lines[0])
    assert int(lines[-1]) - first + 1 == lines.size, "lines not one run"
    return first, int(lines.size)


def vec_supported(scheduler: Scheduler) -> bool:
    """Whether the vectorized engine can replay this scheduler exactly.

    Checks everything static: scheduler kind, pure passthrough layers,
    a bound flat (no-L2) direct-mapped hierarchy (:func:`_typed_kind`),
    and self-conflict-free code/data/buffer placements
    (:func:`_sound`).  Dynamic conditions (a span-keeping recorder) are
    checked by :func:`vec_stepper` per drive call.
    """
    return _typed_kind(scheduler) is not None and _sound(scheduler)


def _typed_kind(scheduler: Scheduler) -> str | None:
    """The template kind of a scheduler that passes every static check
    but the placement sorts (see :func:`vec_supported`), else None."""
    kind = _scheduler_kind(scheduler)
    if kind is None:
        return None
    binding = scheduler.binding
    if binding is None or not binding.bound:
        return None
    if binding.spec.l2 is not None:
        return None
    hierarchy = binding.cpu.hierarchy
    for cache in (hierarchy.icache, hierarchy.dcache):
        if type(cache) is not DirectMappedCache:
            return None
        if cache.tag_array.base is not hierarchy.l1_tags:
            return None
    for layer in scheduler.layers:
        if type(layer) is not PassthroughLayer:
            return None
    if binding.pool is None:
        return None
    return kind


def _sound(scheduler: Scheduler) -> bool:
    """The static-template soundness condition: no layer's code, layer's
    data or ring buffer touches one cache set twice (one sort per
    cache).  Pure in the engine's inputs (:meth:`_VecEngine.inputs`)."""
    binding = scheduler.binding
    assert binding is not None and binding.pool is not None
    hierarchy = binding.cpu.hierarchy
    placed = [binding.placed_layer(layer.name) for layer in scheduler.layers]
    return _distinct_sets(
        [layer.code_lines for layer in placed], hierarchy.icache.num_lines
    ) and _distinct_sets(
        [layer.data_lines for layer in placed]
        + [buffer.lines_for(buffer.capacity) for buffer in binding.pool.buffers],
        hierarchy.dcache.num_lines,
    )


def _scheduler_kind(scheduler: Scheduler) -> str | None:
    """The template kind for a scheduler, or None if unsupported.

    Exact-type checks: a subclass may override service semantics, and
    silently vectorizing it would break the scalar≡vec contract.
    :class:`~repro.core.scheduler.LDLPScheduler` only fixes the grouping
    (one layer per group), so it replays the grouped template.
    """
    for cls, kind in (
        (ConventionalScheduler, "conventional"),
        (ILPScheduler, "ilp"),
        (GroupedLDLPScheduler, "grouped"),
        (LDLPScheduler, "grouped"),
    ):
        if type(scheduler) is cls:
            return kind
    return None


def vec_stepper(
    scheduler: Scheduler, admit_ahead: Callable[[int], bool] | None
) -> Stepper | None:
    """The vec engine's service step for one core, or ``None``.

    ``None`` means the caller steps this core on the scalar path: the
    configuration is outside the engine's exact-replay envelope (see
    the module docstring and :func:`vec_supported`), or a span-keeping
    recorder wants the per-layer ``invoke`` spans only the scalar path
    emits.  ``admit_ahead`` is the drive loop's early admission, given
    only inside the caller's half of the multi-step envelope (a core
    driven on its own, no flush period or span-keeping recorder,
    arrivals in time order): ``admit_ahead(count)`` admits the core's
    next ``count`` arrivals now, or none, and returns whether it did.
    Multi-step replay needs it.  Light-load runs of singles also read
    the arrivals to come before admitting, so they need an
    :class:`~repro.sim.runner.AdmitAhead`, whose ``upcoming`` shows
    them; a bare callable gives conventional/ILP runs only.  The engine
    checks the rest of the envelope (see "Multi-step replay" and
    "Light-load runs").

    The engine compiles into the store's table for its inputs (see the
    module docs' "Table store"): a stored table's inputs passed the
    soundness sorts, so a hit skips them.  The returned bound method is
    the engine's only owner, so the engine and its state memo are freed
    with it; its table stays in the store until evicted.
    """
    if span_recorder() is not None:
        return None
    kind = _typed_kind(scheduler)
    if kind is None:
        return None
    engine = _VecEngine(scheduler, kind, admit_ahead)
    key = engine.inputs()
    table = _TABLES.pop(key, None)  # det: allow[DET005] the store caches what its key's content determines, so no result depends on it
    if table is None:
        if not _sound(scheduler):
            return None
        table = engine.table
    else:
        engine.table = table
    _keep(key, table)
    return engine.step


def _keep(key: tuple, table: _Table) -> None:
    """Store ``table`` as the most recently used, then evict the least
    recently used others while the store counts more than
    :data:`MAX_TABLE_BYTES`."""
    _TABLES[key] = table  # det: allow[DET005] see vec_stepper
    total = sum([stored.nbytes for stored in _TABLES.values()])
    for stored, oldest in list(_TABLES.items()):
        if total <= MAX_TABLE_BYTES or oldest is table:
            break
        total -= oldest.nbytes
        del _TABLES[stored]  # det: allow[DET005] see vec_stepper
