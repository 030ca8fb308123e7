"""Vectorised trace-replay engine over a shared batch context.

Produces reports **identical** to :class:`repro.fetch.engine.FetchEngine`
for every configuration in the closed matrix (see
:mod:`repro.fetch.capability`), but replays the trace with NumPy array
kernels instead of one Python object call per branch.

Why this is possible at all: with wrong-path modelling off (the
paper's configuration), predictions never feed back into state —
every structure's evolution (instruction cache, PHT, BTB, NLS table,
NLS cache, Johnson index, RAS, global history) is a pure function of
the trace.  The simulation therefore decomposes into independent
exact per-structure replays followed by one vectorised
classification pass:

1. **Flush epochs** — context-switch boundaries partition the trace;
   all replays key their state on ``(epoch, slot)`` so a flush is just
   a fresh key space, never a scan.
2. **Instruction cache** — an *MRU repeat* (the previous access to
   the same ``(epoch, set)`` carried the same tag) is a hit that
   changes no state under every replacement policy.  Direct-mapped,
   every other access misses.  For associative caches a compact Python
   walk replays the replacement policy exactly over the remaining
   accesses only, once per geometry, and repeats inherit the way of
   their set's latest walked access.  Every derived query (residency
   probes, way of an access, fill *generation* of a frame) is answered
   vectorised from its output; the line-lookup half of a residency
   probe is shared by every geometry with the same line size.
3. **Front-end structures** — last-write-wins table slots (BTB /
   NLS-table / Steely–Sager) under the engine's one-block update
   delay; line-coupled predictor frames (NLS-cache, Johnson) keyed by
   their carrier frame's fill generation so an eviction retires state
   without a scan.  Associative and coupled BTBs take three steps:
   a compact LRU walk that yields only hit flags and skips the
   operations of a same-tag run that cannot change state, entry
   contents looked up vectorised from the last allocating write to
   the word, and (coupled only) the 2-bit counters as a
   :func:`~repro.predictors.kernels.counter_scan` over (word,
   residency generation) groups.  None of it depends on the cache
   geometry, and the contents are shared by every BTB size.
4. **gshare PHT** — per-conditional history registers from shifted
   masked adds; 2-bit counters replayed exactly with a segmented
   clamp-add scan (:func:`~repro.predictors.kernels.counter_scan`).
5. **RAS** — a compact Python walk over calls/returns/flushes only.
6. **Classification** — the engine's §5.2 rule table, applied as
   boolean masks; the attribution collector (when enabled) replays
   the per-break observation stream so its snapshot is byte-identical.

The unit of execution is a **batch of sweep cells sharing a packed
trace**: a :class:`TraceReplayContext` memoises every sub-replay, so
cells that share a geometry, front-end family or flush interval pay
for each expensive pass once, and :meth:`TraceReplayContext.prepare`
stacks the table variants of a batch into one sort
(:func:`~repro.predictors.kernels.batched_orders`).

Configurations outside the matrix (non-gshare direction predictors,
wrong-path modelling) fall back to the reference engine — see
:func:`repro.fetch.capability.fallback_reason` and
``ArchitectureConfig.build``.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.fetch.attribution import (
    CAUSE_BTB_WRONG_TARGET,
    CAUSE_DIRECTION,
    CAUSE_FRONTEND_MISS,
    CAUSE_NLS_DISPLACED,
    CAUSE_NLS_TYPE_MISMATCH,
    CAUSE_NLS_WRONG_LINE,
    CAUSE_NLS_WRONG_SET,
    CAUSE_RAS_MISPOP,
    AttributionCollector,
)
from repro.fetch.capability import (
    EngineClass,
    engine_class,
    fallback_reason,
)
from repro.core.nls_entry import MISMATCH_CAUSES
from repro.isa.branches import BranchKind
from repro.metrics.counters import SimulationCounters
from repro.metrics.report import SimulationReport
from repro.predictors import kernels
from repro.telemetry.core import get_registry
from repro.workloads.trace import Trace

_NOT_A_BRANCH = int(BranchKind.NOT_A_BRANCH)
_CONDITIONAL = int(BranchKind.CONDITIONAL)
_UNCONDITIONAL = int(BranchKind.UNCONDITIONAL)
_CALL = int(BranchKind.CALL)
_RETURN = int(BranchKind.RETURN)
_INDIRECT = int(BranchKind.INDIRECT)

#: branch kind -> NLS type / mechanism value (0 stands in for "no
#: entry"; the non-zero values are shared with NLSEntryType)
_KIND_TO_MECH = np.array([0, 2, 3, 3, 1, 3], dtype=np.int64)

#: integer cause codes used by the vectorised classification pass;
#: index 0 is "correct" (no cause)
_CAUSE_STRINGS: Tuple[Optional[str], ...] = (
    None,
    CAUSE_DIRECTION,
    CAUSE_FRONTEND_MISS,
    CAUSE_BTB_WRONG_TARGET,
    CAUSE_NLS_WRONG_LINE,
    CAUSE_NLS_DISPLACED,
    CAUSE_NLS_TYPE_MISMATCH,
    CAUSE_RAS_MISPOP,
    CAUSE_NLS_WRONG_SET,
)
_C_DIRECTION = 1
_C_FRONTEND_MISS = 2
_C_BTB_WRONG_TARGET = 3
_C_NLS_WRONG_LINE = 4
_C_NLS_DISPLACED = 5
_C_NLS_TYPE_MISMATCH = 6
_C_RAS_MISPOP = 7
_C_NLS_WRONG_SET = 8

#: cause code -> NLS diagnostic-histogram bucket (``mismatch_causes``)
_FAIL_BUCKETS = {
    _C_FRONTEND_MISS: "invalid",
    _C_NLS_WRONG_LINE: "line-field",
    _C_NLS_DISPLACED: "displaced",
    _C_NLS_WRONG_SET: "wrong-way",
}


def unsupported_reason(config) -> Optional[str]:
    """Why *config* cannot run on the fast engine (``None`` = it can).

    Compatibility wrapper over
    :func:`repro.fetch.capability.fallback_reason`: returns the stable
    machine-readable reason string the harness stamps into run
    manifests.
    """
    reason = fallback_reason(config)
    return None if reason is None else reason.value


def _frontend_name(config) -> str:
    """The reference front-end's ``name`` for this config (labels)."""
    if config.frontend == "btb":
        return f"btb-{config.entries}e-{config.btb_assoc}w"
    if config.frontend == "coupled-btb":
        return f"coupled-btb-{config.entries}e-{config.btb_assoc}w"
    if config.frontend == "nls-table":
        return f"nls-table-{config.entries}e"
    if config.frontend == "steely-sager":
        return f"steely-sager-{config.entries}e"
    if config.frontend == "nls-cache":
        return (
            f"nls-cache-{config.predictors_per_line}pl-"
            f"{config.nls_cache_policy}"
        )
    if config.frontend == "johnson":
        return f"johnson-{config.predictors_per_line}pl"
    return config.frontend


def _geom_key(geometry) -> Tuple[int, int, int]:
    """Hashable identity of a cache geometry (memo keys)."""
    return (geometry.size_bytes, geometry.line_bytes, geometry.associativity)


def _flush_epochs(
    counts: np.ndarray, interval: Optional[int]
) -> Tuple[np.ndarray, list]:
    """Per-event flush-epoch ids and the list of flush events.

    A flush triggers at the first event whose cumulative count since
    the previous flush reaches *interval*, *before* that event's
    fetches (so the event itself runs on cold state).
    """
    n = len(counts)
    flush_events: list = []
    epoch = np.zeros(n, dtype=np.int64)
    if interval is None or n == 0:
        return epoch, flush_events
    cumulative = np.cumsum(counts)
    base = 0
    while True:
        position = int(np.searchsorted(cumulative, base + interval, side="left"))
        if position >= n:
            break
        flush_events.append(position)
        base = int(cumulative[position])
    if flush_events:
        epoch = np.searchsorted(
            np.asarray(flush_events, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            side="right",
        )
    return epoch, flush_events


class _FrontendReplay(NamedTuple):
    """Per-break front-end answers, ready for classification."""

    #: prediction mechanism per break (0 = no entry)
    mech: np.ndarray
    #: would :meth:`target_matches` succeed for the resolved target?
    match: np.ndarray
    #: cause code reported when a consulted entry fails to match
    cause: np.ndarray
    #: implicit direction prediction (Johnson / coupled BTB), else None
    implied: Optional[np.ndarray]


def _assoc_cache_walk(
    access_set: np.ndarray,
    access_tag: np.ndarray,
    n_sets: int,
    assoc: int,
    replacement: str,
    flush_accesses: list,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact scalar replay of a set-associative instruction cache.

    Runs once per (geometry, replacement, flush-interval) and is
    memoised by the batch context, which feeds it only the accesses
    that are not MRU repeats (dropping a repeat changes no answer);
    everything downstream (hit flags, ways, residency probes, fill
    generations) is derived from its output with array passes.
    *flush_accesses* are positions in the given stream.  Reproduces
    ``InstructionCache.access`` exactly: probe scan, LRU touch / FIFO
    rotation / seeded-random victim selection, and full resets at
    context-switch flushes.
    """
    total = len(access_set)
    hit = np.zeros(total, dtype=bool)
    way_out = np.zeros(total, dtype=np.int64)
    lru = replacement == "lru"
    fifo = replacement == "fifo"
    tags = [[-1] * assoc for _ in range(n_sets)]
    orders = [list(range(assoc)) for _ in range(n_sets)] if lru else None
    nxt = [0] * n_sets if fifo else None
    rng = random.Random(0) if not (lru or fifo) else None
    sets_list = access_set.tolist()
    tags_list = access_tag.tolist()
    cursor = 0
    n_flushes = len(flush_accesses)
    for i in range(total):
        while cursor < n_flushes and flush_accesses[cursor] <= i:
            tags = [[-1] * assoc for _ in range(n_sets)]
            if lru:
                orders = [list(range(assoc)) for _ in range(n_sets)]
            elif fifo:
                nxt = [0] * n_sets
            else:
                rng = random.Random(0)
            cursor += 1
        s = sets_list[i]
        t = tags_list[i]
        row = tags[s]
        try:
            w = row.index(t)
        except ValueError:
            w = -1
        if w >= 0:
            hit[i] = True
            if lru:
                order = orders[s]
                if order[0] != w:
                    order.remove(w)
                    order.insert(0, w)
        else:
            if lru:
                order = orders[s]
                w = order[-1]
                if order[0] != w:
                    order.remove(w)
                    order.insert(0, w)
            elif fifo:
                w = nxt[s]
                nxt[s] = (w + 1) % assoc
            else:
                w = rng.randrange(assoc)
            row[w] = t
        way_out[i] = w
    return hit, way_out


def _btb_lru_walk(
    sets: list,
    tags: list,
    allocates: list,
    n_sets: int,
    assoc: int,
    splits: list,
) -> list:
    """Hit flags of a stream of BTB LRU operations.

    One MRU-first tag list per set: a hit moves its tag to the front;
    a miss inserts the tag at the front (evicting the LRU tag of a
    full set) only if the operation allocates.  The sets start empty
    and are cleared at every position in *splits* (flush epochs).
    """
    hits: list = []
    record = hits.append
    bounds = [0] + splits + [len(sets)]
    for low, high in zip(bounds, bounds[1:]):
        rows = [[] for _ in range(n_sets)]
        for s, t, a in zip(sets[low:high], tags[low:high], allocates[low:high]):
            row = rows[s]
            if t in row:
                record(True)
                if row[0] != t:
                    row.remove(t)
                    row.insert(0, t)
            else:
                record(False)
                if a:
                    row.insert(0, t)
                    if len(row) > assoc:
                        row.pop()
    return hits


class _IcacheReplay:
    """Replayed instruction-cache history for one geometry.

    Per line access: hit flag, landing way and the carrier frame's
    *fill generation* (inclusive count of fills the frame has seen —
    front-end state bound to an evicted line is retired simply by
    keying it with the generation it was written under).  Residency
    probes (:meth:`probe`) answer ``cache.probe(addr)`` at any access
    timestamp without replaying anything.
    """

    __slots__ = (
        "hit",
        "way",
        "gen",
        "frame_key",
        "total",
        "first_access",
        "end_access",
        "max_gen",
        "fill_index",
        "fill_times",
    )

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            setattr(self, name, value)

    def probe(
        self, last: np.ndarray, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised ``cache.probe``: is each address resident at its
        timestamp, and in which way / frame generation?

        *last* is the address's last access at or before its timestamp
        (-1 if none this epoch), from
        :meth:`TraceReplayContext.last_line_access`.  An address is
        resident iff it has such an access and no later fill into its
        frame displaced it.
        """
        safe_last = np.maximum(last, 0)
        frame = self.frame_key[safe_last]
        fill = self.fill_index.query(frame, times)
        safe_fill = np.maximum(fill, 0)
        resident = (
            (last >= 0) & (fill >= 0) & (self.fill_times[safe_fill] <= safe_last)
        )
        way = np.where(resident, self.way[safe_last], 0)
        generation = np.where(resident, self.gen[safe_last], 0)
        return resident, way, generation


# === batch context ====================================================


class TraceReplayContext:
    """Memoised sub-replays of one packed trace, shared by a batch.

    Every expensive pass — flush epochs, break columns, the
    instruction-cache replay per geometry, residency probes, the
    gshare counter scan, each front-end structure's replay — is built
    on demand and cached, so a batch of sweep cells over the same
    trace pays for each pass once.  :meth:`prepare` additionally
    stacks the slot keys of same-family table variants into one
    stable sort (:func:`~repro.predictors.kernels.batched_orders`).

    The context holds no per-cell state; any number of
    :class:`FastEngine` cells may attach to it (serially).
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        packed = trace.packed()
        self.starts = packed["starts"]
        self.counts = packed["counts"]
        self.kinds = packed["kinds"].astype(np.int64)
        self.takens = packed["takens"]
        self.targets = packed["targets"]
        self.n_events = len(self.starts)
        self.branch_pc = self.starts + (self.counts - 1) * 4
        self._memo: dict = {}
        #: pre-computed sort orders from :meth:`prepare`, consumed by
        #: the replay builders (one-shot: popped on first use)
        self._orders: dict = {}

    def _get(self, key, build):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # --- trace-level sub-replays --------------------------------------

    def flush(self, interval: Optional[int]):
        """(per-event epoch ids, flush event list) for *interval*."""
        return self._get(
            ("flush", interval), lambda: _flush_epochs(self.counts, interval)
        )

    def breaks(self, interval: Optional[int]):
        """Break (branch) columns: events, kind, taken, target, pc,
        fall-through, word address, epoch and query time."""

        def _build():
            epoch, _ = self.flush(interval)
            events = np.nonzero(self.kinds != _NOT_A_BRANCH)[0]
            pc = self.branch_pc[events]
            return SimpleNamespace(
                events=events,
                n=len(events),
                kind=self.kinds[events],
                taken=np.asarray(self.takens[events], dtype=bool),
                target=self.targets[events],
                pc=pc,
                ft=pc + 4,
                word=pc >> 2,
                epoch=epoch[events],
                qtime=events - 1,  # table writes land one block late
            )

        return self._get(("breaks", interval), _build)

    def lines(self, line_bytes: int):
        """Flat line-access stream for one line size (all geometries
        sharing the line size share it)."""

        def _build():
            offset_bits = line_bytes.bit_length() - 1
            first_line = self.starts & ~(line_bytes - 1)
            last_line = self.branch_pc & ~(line_bytes - 1)
            lines_per_event = ((last_line - first_line) >> offset_bits) + 1
            row_ids, offsets, first_access = kernels.ragged_ranges(lines_per_event)
            access_addr = first_line[row_ids] + (offsets << offset_bits)
            return SimpleNamespace(
                row_ids=row_ids,
                first_access=first_access,
                end_access=first_access + lines_per_event - 1,
                access_addr=access_addr,
                total=len(access_addr),
            )

        return self._get(("lines", line_bytes), _build)

    def line_index(self, line_bytes: int, interval: Optional[int]):
        """Last-access-to-this-line index (epoch-keyed), shared by the
        residency probes of every cache size with this line size."""

        def _build():
            accesses = self.lines(line_bytes)
            epoch, _ = self.flush(interval)
            offset_bits = line_bytes.bit_length() - 1
            line_word = accesses.access_addr >> offset_bits
            space = int(line_word.max()) + 1 if accesses.total else 1
            key = epoch[accesses.row_ids] * space + line_word
            index = kernels.LastWriteIndex(
                key, np.arange(accesses.total, dtype=np.int64)
            )
            return index, space

        return self._get(("lineidx", line_bytes, interval), _build)

    def last_line_access(
        self, line_bytes: int, interval: Optional[int], probe: str
    ):
        """Per break, the last access to the line holding the probed
        address at the probe's time, or -1: ``"target"`` at
        classification time (after the break's own fetches), ``"pc"``
        when its deferred update lands (the next event's first line
        access; junk for the final break).  The query half of
        :meth:`_IcacheReplay.probe`, shared by every cache geometry
        with this line size."""

        def _build():
            br = self.breaks(interval)
            accesses = self.lines(line_bytes)
            if probe == "target":
                addr = br.target
                times = accesses.end_access[br.events]
            else:
                addr = br.pc
                next_event = br.events + 1
                safe = np.where(next_event < self.n_events, next_event, 0)
                times = accesses.first_access[safe]
            index, space = self.line_index(line_bytes, interval)
            line_word = addr >> (line_bytes.bit_length() - 1)
            out_of_bounds = (line_word < 0) | (line_word >= space)
            safe_word = np.where(out_of_bounds, 0, line_word)
            last = index.query(br.epoch * space + safe_word, times)
            return np.where(out_of_bounds, -1, last)

        return self._get(("lastline", line_bytes, interval, probe), _build)

    def icache(self, geometry, replacement: str, interval: Optional[int]):
        """The :class:`_IcacheReplay` for one cache configuration."""
        key = ("icache", _geom_key(geometry), replacement, interval)

        def _build():
            accesses = self.lines(geometry.line_bytes)
            total = accesses.total
            epoch, flush_events = self.flush(interval)
            offset_bits = geometry.offset_bits
            n_sets = geometry.n_sets
            assoc = geometry.associativity
            tag_shift = offset_bits + geometry.set_index_bits
            access_addr = accesses.access_addr
            access_set = (access_addr >> offset_bits) & (n_sets - 1)
            access_tag = access_addr >> tag_shift
            set_key = epoch[accesses.row_ids] * n_sets + access_set
            sets = kernels.LastWriteIndex(
                set_key, np.arange(total, dtype=np.int64)
            )
            previous = sets.previous_in_key()
            # an MRU repeat (the previous access to the same (epoch,
            # set) carried the same tag) hits and changes no state under
            # every policy: LRU already holds it at MRU, FIFO and random
            # act only on misses.  Direct-mapped, every other access
            # misses and lands in way 0.
            repeat = (previous >= 0) & (
                access_tag[np.maximum(previous, 0)] == access_tag
            )
            if assoc == 1:
                hit = repeat
                way = np.zeros(total, dtype=np.int64)
            else:
                walked = np.nonzero(~repeat)[0]
                # a flush opens a fresh epoch, so its first access is
                # never a repeat and has a position in the walked stream
                flush_accesses = np.searchsorted(
                    walked, accesses.first_access[flush_events]
                ).tolist()
                walked_hit, walked_way = _assoc_cache_walk(
                    access_set[walked], access_tag[walked], n_sets, assoc,
                    replacement, flush_accesses,
                )
                hit = repeat.copy()
                hit[walked] = walked_hit
                # a repeat sits in the way of the latest walked access
                # to its set (each set's first access is walked)
                latest = np.empty(total, dtype=np.int64)
                latest[sets.order] = sets.filtered_last(~repeat)
                way = np.zeros(total, dtype=np.int64)
                way[walked] = walked_way
                way = way[latest]
            frame_key = set_key * assoc + way
            generation = kernels.segmented_counts(frame_key, ~hit)
            fills = np.nonzero(~hit)[0]
            return _IcacheReplay(
                hit=hit,
                way=way,
                gen=generation,
                frame_key=frame_key,
                total=total,
                first_access=accesses.first_access,
                end_access=accesses.end_access,
                max_gen=int(generation.max()) if total else 0,
                fill_index=kernels.LastWriteIndex(frame_key[fills], fills),
                fill_times=fills,
            )

        return self._get(key, _build)

    def target_probe(self, geometry, replacement: str, interval: Optional[int]):
        """``cache.probe(target)`` for every break, at classification
        time (after the break's own line fetches): (resident, way),
        shared by every NLS-family front-end on this cache."""
        key = ("tprobe", _geom_key(geometry), replacement, interval)

        def _build():
            cache = self.icache(geometry, replacement, interval)
            br = self.breaks(interval)
            last = self.last_line_access(geometry.line_bytes, interval, "target")
            resident, way, _ = cache.probe(last, cache.end_access[br.events])
            return resident, way

        return self._get(key, _build)

    def next_way(self, geometry, replacement: str, interval: Optional[int]):
        """Per break, the ``next_way`` its deferred update carries: the
        way of the next event's first line access.  Junk for writes
        that never apply (final break, flush-dropped) — those are
        invisible to every query."""
        key = ("nextway", _geom_key(geometry), replacement, interval)

        def _build():
            cache = self.icache(geometry, replacement, interval)
            br = self.breaks(interval)
            next_event = br.events + 1
            has = next_event < self.n_events
            safe = np.where(has, next_event, 0)
            return np.where(has, cache.way[cache.first_access[safe]], 0)

        return self._get(key, _build)

    def _frame_writers(self, geometry, replacement: str, interval: Optional[int]):
        """Breaks whose deferred update lands in a line-coupled
        structure (NLS-cache / Johnson): the update applies after the
        next event's first access, in the same epoch, and only while
        the branch's carrier line is still resident."""
        key = ("framewriters", _geom_key(geometry), replacement, interval)

        def _build():
            cache = self.icache(geometry, replacement, interval)
            br = self.breaks(interval)
            epoch, _ = self.flush(interval)
            next_event = br.events + 1
            has = next_event < self.n_events
            safe = np.where(has, next_event, 0)
            same_epoch = has & (epoch[safe] == br.epoch)
            write_time = cache.first_access[safe]
            last = self.last_line_access(geometry.line_bytes, interval, "pc")
            resident, way, generation = cache.probe(last, write_time)
            writer = same_epoch & resident
            widx = np.nonzero(writer)[0]
            return SimpleNamespace(
                widx=widx, times=write_time[widx], way=way, gen=generation
            )

        return self._get(key, _build)

    def _frame_base(self, geometry, replacement: str, interval: Optional[int]):
        """Shared frame-keyed coordinates for the line-coupled
        replays: per-break set/offset, lookup and update frame keys
        (epoch, set, way, fill generation) and line fields."""
        key = ("framebase", _geom_key(geometry), replacement, interval)

        def _build():
            cache = self.icache(geometry, replacement, interval)
            br = self.breaks(interval)
            writers = self._frame_writers(geometry, replacement, interval)
            n_sets = geometry.n_sets
            assoc = geometry.associativity
            generations = cache.max_gen + 1
            bset = (br.pc >> geometry.offset_bits) & (n_sets - 1)
            boff = (br.pc >> 2) & (geometry.instructions_per_line - 1)
            look_time = cache.end_access[br.events]
            look_frame = (
                (br.epoch * n_sets + bset) * assoc + cache.way[look_time]
            ) * generations + cache.gen[look_time]
            widx = writers.widx
            upd_frame = (
                (br.epoch[widx] * n_sets + bset[widx]) * assoc + writers.way[widx]
            ) * generations + writers.gen[widx]
            lf_mask = (1 << geometry.line_field_bits) - 1
            return SimpleNamespace(
                bset=bset,
                boff=boff,
                look_time=look_time,
                look_frame=look_frame,
                upd_frame=upd_frame,
                widx=widx,
                times=writers.times,
                target_lf=(br.target >> 2) & lf_mask,
                ft_lf=(br.ft >> 2) & lf_mask,
            )

        return self._get(key, _build)

    # --- direction predictor ------------------------------------------

    def _gshare_keys(self, pht_entries: int, interval: Optional[int]):
        """Per-conditional history registers and PHT cell keys (shared
        by the counter scan and any stacked sort over PHT sizes)."""

        def _build():
            br = self.breaks(interval)
            mask = pht_entries - 1
            bits = pht_entries.bit_length() - 1
            cond_positions = np.nonzero(br.kind == _CONDITIONAL)[0]
            cond_events = br.events[cond_positions]
            cond_taken = br.taken[cond_positions].astype(np.int64)
            cond_epoch = br.epoch[cond_positions]
            segment_first = kernels.segment_starts(cond_epoch)
            history_before = kernels.gshare_histories(
                cond_taken, segment_first, bits
            )
            history_after = ((history_before << 1) | cond_taken) & mask
            cells = (br.word[cond_positions] ^ history_before) & mask
            return SimpleNamespace(
                mask=mask,
                cond_positions=cond_positions,
                cond_events=cond_events,
                cond_taken=cond_taken,
                cond_epoch=cond_epoch,
                history_after=history_after,
                cell_key=cond_epoch * pht_entries + cells,
            )

        return self._get(("gsharekeys", pht_entries, interval), _build)

    def gshare(self, pht_entries: int, interval: Optional[int]):
        """Exact 2-bit-counter PHT replay for one table size."""

        def _build():
            br = self.breaks(interval)
            keys = self._gshare_keys(pht_entries, interval)
            order = self._orders.pop(("gshare", pht_entries, interval), None)
            if order is None:
                order = kernels.stable_order(keys.cell_key)
            before_sorted, after_sorted = kernels.counter_scan(
                keys.cell_key[order], keys.cond_taken[order].astype(bool), 1, 3
            )
            n_cond = len(keys.cond_positions)
            state_before = np.empty(n_cond, dtype=np.int64)
            state_before[order] = before_sorted
            state_after = np.empty(n_cond, dtype=np.int64)
            state_after[order] = after_sorted
            pht_pred = np.zeros(br.n, dtype=bool)
            pht_pred[keys.cond_positions] = state_before >= 2
            return SimpleNamespace(
                entries=pht_entries,
                mask=keys.mask,
                cond_positions=keys.cond_positions,
                cond_events=keys.cond_events,
                cond_epoch=keys.cond_epoch,
                history_after=keys.history_after,
                state_after=state_after,
                pht_pred=pht_pred,
                cell_index=kernels.LastWriteIndex(
                    keys.cell_key, keys.cond_events, order=order
                ),
            )

        return self._get(("gshare", pht_entries, interval), _build)

    # --- return address stack -----------------------------------------

    def ras(self, capacity: int, interval: Optional[int]) -> np.ndarray:
        """Exact RAS replay: per-break popped address (-1 = underflow).

        Walks only calls, returns and flushes in event order — a tiny
        fraction of the trace — reproducing the circular buffer's
        overwrite-on-overflow behaviour.
        """

        def _build():
            br = self.breaks(interval)
            _, flush_events = self.flush(interval)
            popped = np.full(br.n, -1, dtype=np.int64)
            interesting = np.nonzero(
                (br.kind == _CALL) | (br.kind == _RETURN)
            )[0]
            slots = [0] * capacity
            top = 0
            depth = 0
            flush_cursor = 0
            n_flushes = len(flush_events)
            events = br.events[interesting].tolist()
            kinds = br.kind[interesting].tolist()
            values = br.ft[interesting].tolist()
            for i, event in enumerate(events):
                while (
                    flush_cursor < n_flushes
                    and flush_events[flush_cursor] <= event
                ):
                    top = 0
                    depth = 0
                    flush_cursor += 1
                if kinds[i] == _CALL:
                    slots[top] = values[i]
                    top = (top + 1) % capacity
                    if depth < capacity:
                        depth += 1
                else:  # RETURN: pop during classification
                    if depth:
                        top = (top - 1) % capacity
                        depth -= 1
                        popped[interesting[i]] = slots[top]
            return popped

        return self._get(("ras", capacity, interval), _build)

    # --- front-end replays --------------------------------------------

    def frontend_replay(self, config) -> _FrontendReplay:
        """The per-break front-end outcome columns for *config*."""
        frontend = config.frontend
        interval = config.flush_interval
        if frontend == "oracle":

            def _build():
                br = self.breaks(interval)
                return _FrontendReplay(
                    _KIND_TO_MECH[br.kind],
                    np.ones(br.n, dtype=bool),
                    np.zeros(br.n, dtype=np.int64),
                    None,
                )

            return self._get(("fe-oracle", interval), _build)
        if frontend == "fall-through":

            def _build():
                br = self.breaks(interval)
                return _FrontendReplay(
                    np.zeros(br.n, dtype=np.int64),
                    np.zeros(br.n, dtype=bool),
                    np.zeros(br.n, dtype=np.int64),
                    None,
                )

            return self._get(("fe-ft", interval), _build)
        if frontend == "btb":
            if config.btb_assoc == 1:
                return self._btb_direct_replay(
                    config.entries, config.btb_allocate, interval
                )
            return self._btb_assoc_replay(
                False, config.entries, config.btb_assoc,
                config.btb_allocate, interval,
            )
        if frontend == "coupled-btb":
            return self._btb_assoc_replay(
                True, config.entries, config.btb_assoc, None, interval
            )
        geometry = config.geometry
        replacement = config.cache_replacement
        if frontend in ("nls-table", "steely-sager"):
            return self._table_replay(config)
        if frontend == "johnson":
            return self._frame_replay(
                "johnson", config.predictors_per_line, geometry,
                replacement, interval,
            )
        if frontend == "nls-cache":
            if config.nls_cache_policy == "lru":
                return self._nls_lru_replay(
                    config.predictors_per_line, geometry, replacement,
                    interval,
                )
            return self._frame_replay(
                "partition", config.predictors_per_line, geometry,
                replacement, interval,
            )
        raise ValueError(f"unknown frontend {frontend!r}")

    def _btb_direct_replay(self, entries, allocate, interval):
        """Vectorised direct-mapped BTB: pure last-write-wins slots."""
        key = ("fe-btb", entries, allocate, interval)

        def _build():
            br = self.breaks(interval)
            nb = br.n
            n_btb_sets = entries
            set_bits = n_btb_sets.bit_length() - 1
            btb_set = br.word & (n_btb_sets - 1)
            btb_tag = br.word >> set_bits
            writers = np.nonzero(self._btb_allocates(allocate, interval))[0]
            mech = np.zeros(nb, dtype=np.int64)
            match = np.zeros(nb, dtype=bool)
            if len(writers):
                order = self._orders.pop(
                    ("btb", allocate, entries, interval), None
                )
                windex = kernels.LastWriteIndex(
                    br.epoch[writers] * n_btb_sets + btb_set[writers],
                    br.events[writers],
                    order=order,
                )
                last = windex.query(
                    br.epoch * n_btb_sets + btb_set, br.qtime
                )
                source = writers[np.maximum(last, 0)]
                hit = (last >= 0) & (btb_tag[source] == btb_tag)
                mech = np.where(hit, _KIND_TO_MECH[br.kind[source]], 0)
                match = hit & (br.target[source] == br.target)
            cause = np.full(nb, _C_BTB_WRONG_TARGET, dtype=np.int64)
            return _FrontendReplay(mech, match, cause, None)

        return self._get(key, _build)

    def _btb_allocates(self, allocate, interval) -> np.ndarray:
        """Per break, does its deferred BTB update allocate an entry?
        Taken branches always do; under ``"all"`` so does a not-taken
        branch with a decode-computed target."""
        br = self.breaks(interval)
        if allocate == "all":
            return br.taken | (br.target != 0)
        return br.taken

    def _btb_word_index(self, interval):
        """Every break keyed by (epoch, word address): one sort shared
        by the entry-content and coupled-counter queries of every
        associative BTB geometry."""

        def _build():
            br = self.breaks(interval)
            space = int(br.word.max()) + 1
            return kernels.LastWriteIndex(br.epoch * space + br.word, br.events)

        return self._get(("btbwords", interval), _build)

    def _btb_sources(self, allocate, interval) -> np.ndarray:
        """Per break, the last allocating break to the same word in the
        same epoch strictly before it, or -1.  A lookup that hits finds
        the entry that write last filled (every write to a resident
        tag updates it, and a re-insertion is itself such a write), so
        its kind and target answer the lookup for every geometry."""

        def _build():
            index = self._btb_word_index(interval)
            latest = index.filtered_last(self._btb_allocates(allocate, interval))
            before = np.full(index.n, -1, dtype=np.int64)
            same = index.sorted_keys[1:] == index.sorted_keys[:-1]
            before[1:][same] = latest[:-1][same]
            source = np.empty(index.n, dtype=np.int64)
            source[index.order] = before
            return source

        return self._get(("btbsource", allocate, interval), _build)

    def _btb_hits(self, entries, assoc, allocate, interval) -> np.ndarray:
        """Per break, does its lookup hit in an associative LRU BTB?

        Each break is one LRU operation on its (epoch, set, tag): the
        lookup moves a hit to MRU and the deferred update, which
        applies before anything else touches the BTB (a flush between
        them drops it but also opens a new epoch), inserts the tag at
        MRU on a miss if the break allocates.  Within one (epoch, set)
        stream, a *run* of consecutive operations on one tag changes
        state only at its head and at its first allocating operation,
        so only those are walked; every other operation hits iff the
        head hit or an earlier operation of the run allocated.
        """

        def _build():
            br = self.breaks(interval)
            n_sets = entries // assoc
            btb_set = br.word & (n_sets - 1)
            tag = br.word >> (n_sets.bit_length() - 1)
            allocates = self._btb_allocates(allocate, interval)
            sets = kernels.LastWriteIndex(br.epoch * n_sets + btb_set, br.events)
            previous = sets.previous_in_key()
            head = (previous < 0) | (tag[np.maximum(previous, 0)] != tag)
            run_head = np.empty(br.n, dtype=np.int64)
            run_head[sets.order] = sets.filtered_last(head)
            last_allocating = np.empty(br.n, dtype=np.int64)
            last_allocating[sets.order] = sets.filtered_last(allocates)
            earlier = np.where(
                previous >= 0, last_allocating[np.maximum(previous, 0)], -1
            )
            allocated = earlier >= run_head
            walked = np.nonzero(head | (allocates & ~allocated))[0]
            # a flush opens a fresh epoch, whose first operations are
            # heads: split the walk where the walked epoch changes
            splits = np.nonzero(np.diff(br.epoch[walked]))[0] + 1
            hit = np.zeros(br.n, dtype=bool)
            hit[walked] = _btb_lru_walk(
                btb_set[walked].tolist(),
                tag[walked].tolist(),
                allocates[walked].tolist(),
                n_sets,
                assoc,
                splits.tolist(),
            )
            return hit[run_head] | allocated

        return self._get(("btbhits", entries, assoc, allocate, interval), _build)

    def _btb_assoc_replay(self, coupled, entries, assoc, allocate, interval):
        """Exact replay of an associative (or coupled) LRU BTB: the
        filtered LRU walk for hits, entry contents from the last
        allocating write to the word, and — for the coupled BTB, which
        allocates on taken only — its 2-bit counters as a counter scan
        over (word, residency generation) groups."""
        if coupled:
            allocate = "taken-only"
        key = ("fe-btb-assoc", coupled, entries, assoc, allocate, interval)

        def _build():
            br = self.breaks(interval)
            nb = br.n
            if nb == 0:
                empty = np.zeros(0, dtype=np.int64)
                return _FrontendReplay(
                    empty, empty.astype(bool), empty,
                    empty.astype(bool) if coupled else None,
                )
            hit = self._btb_hits(entries, assoc, allocate, interval)
            source = np.maximum(self._btb_sources(allocate, interval), 0)
            mech = np.where(hit, _KIND_TO_MECH[br.kind[source]], 0)
            match = hit & (br.target[source] == br.target)
            if not coupled:
                cause = np.full(nb, _C_BTB_WRONG_TARGET, dtype=np.int64)
                return _FrontendReplay(mech, match, cause, None)
            # a group starts at each insertion (a taken miss) of a word
            # in an epoch; the insertion's +1 from initial 1 gives the
            # weakly-taken 2, then taken hits count up and not-taken
            # hits count down.  Operations after an eviction miss, so
            # their counter values are never read.
            index = self._btb_word_index(interval)
            order = index.order
            boundary = (~hit & br.taken)[order]
            boundary[0] = True
            boundary[1:] |= index.sorted_keys[1:] != index.sorted_keys[:-1]
            before_sorted, _ = kernels.counter_scan(
                np.cumsum(boundary), br.taken[order], 1, 3
            )
            counter = np.empty(nb, dtype=np.int64)
            counter[order] = before_sorted
            implied = hit & (br.kind[source] == _CONDITIONAL) & (counter >= 2)
            # the coupled BTB's match cause distinguishes a missed
            # lookup (frontend-miss) from a stale stored target
            cause = np.where(mech == 0, _C_FRONTEND_MISS, _C_BTB_WRONG_TARGET)
            return _FrontendReplay(mech, match, cause, implied)

        return self._get(key, _build)

    def _table_slots(self, frontend, entries, interval):
        """Per break, the last write to its NLS-table / Steely–Sager
        slot (any kind, or -1), the mechanism that write stored, and
        the last *taken* write that set the line field (or -1), under
        the one-block visibility delay.  Independent of the cache
        geometry, so shared by every cache the table front-end is swept
        over."""

        def _build():
            br = self.breaks(interval)
            slot_key = br.epoch * entries + (br.word & (entries - 1))
            # one sorted index answers both queries
            order = self._orders.pop(("table", entries, interval), None)
            slot_index = kernels.LastWriteIndex(
                slot_key, br.events, order=order
            )
            slot_pos = slot_index.positions(slot_key, br.qtime)
            # line field: only taken writes (Steely–Sager: indirect
            # branches write the shared goto register instead)
            if frontend == "steely-sager":
                line_flag = br.taken & (br.kind != _INDIRECT)
            else:
                line_flag = br.taken
            filtered = slot_index.filtered_last(line_flag)
            last_line = np.where(
                slot_pos >= 0, filtered[np.maximum(slot_pos, 0)], -1
            )
            last_any = slot_index.resolve(slot_pos)
            mech = np.where(
                last_any >= 0, _KIND_TO_MECH[br.kind[np.maximum(last_any, 0)]], 0
            )
            return last_any, mech, last_line

        return self._get(("table-slots", frontend, entries, interval), _build)

    def _table_replay(self, config):
        """Vectorised NLS table / Steely–Sager replay (PC-indexed
        last-write-wins slots; the stored *way* is the next event's
        first-access way, matching the engine's deferred update)."""
        frontend = config.frontend
        entries = config.entries
        geometry = config.geometry
        replacement = config.cache_replacement
        interval = config.flush_interval
        key = (
            "fe-table", frontend, entries, _geom_key(geometry),
            replacement, interval,
        )

        def _build():
            br = self.breaks(interval)
            nb = br.n
            last_any, mech, last_line_w = self._table_slots(
                frontend, entries, interval
            )
            lf_mask = (1 << geometry.line_field_bits) - 1
            target_lf = (br.target >> 2) & lf_mask
            has_line = last_line_w >= 0
            safe_line = np.maximum(last_line_w, 0)
            stored_lf = np.where(
                has_line, (br.target[safe_line] >> 2) & lf_mask, 0
            )
            nw = self.next_way(geometry, replacement, interval)
            stored_way = np.where(has_line, nw[safe_line], 0)
            if frontend == "steely-sager":
                indirect_slot = (last_any >= 0) & (
                    br.kind[np.maximum(last_any, 0)] == _INDIRECT
                )
                goto_writers = np.nonzero(
                    br.taken & (br.kind == _INDIRECT)
                )[0]
                if len(goto_writers):
                    last_goto = kernels.last_write_lookup(
                        br.epoch[goto_writers],
                        br.events[goto_writers],
                        br.epoch,
                        br.qtime,
                    )
                    goto_valid = last_goto >= 0
                    goto_lf = np.where(
                        goto_valid,
                        (br.target[goto_writers[np.maximum(last_goto, 0)]] >> 2)
                        & lf_mask,
                        0,
                    )
                else:
                    goto_valid = np.zeros(nb, dtype=bool)
                    goto_lf = np.zeros(nb, dtype=np.int64)
                stored_lf = np.where(indirect_slot, goto_lf, stored_lf)
                # indirect-marked slot with an invalid goto register
                # yields an INVALID prediction (no mechanism at all)
                mech = np.where(indirect_slot & ~goto_valid, 0, mech)
            resident, t_way = self.target_probe(
                geometry, replacement, interval
            )
            lf_eq = stored_lf == target_lf
            if geometry.associativity > 1:
                way_ok = t_way == stored_way
            else:
                way_ok = np.ones(nb, dtype=bool)
            fe_match = lf_eq & resident & way_ok
            fe_cause = np.where(
                ~lf_eq,
                _C_NLS_WRONG_LINE,
                np.where(~resident, _C_NLS_DISPLACED, _C_NLS_WRONG_SET),
            )
            return _FrontendReplay(mech, fe_match, fe_cause, None)

        return self._get(key, _build)

    def _frame_replay(self, flavor, per_line, geometry, replacement, interval):
        """Vectorised line-coupled replay: partitioned NLS cache or
        Johnson successor index.  Both address a fixed slot by
        instruction offset within a (set, way, fill-generation) frame,
        so last-write-wins queries over frame-keyed slots are exact."""
        key = (
            "fe-frame", flavor, per_line, _geom_key(geometry),
            replacement, interval,
        )

        def _build():
            br = self.breaks(interval)
            nb = br.n
            fb = self._frame_base(geometry, replacement, interval)
            widx = fb.widx
            assoc = geometry.associativity
            resident, t_way = self.target_probe(
                geometry, replacement, interval
            )
            if len(widx) == 0:
                mech = np.zeros(nb, dtype=np.int64)
                stored_lf = np.zeros(nb, dtype=np.int64)
                stored_way = np.zeros(nb, dtype=np.int64)
                has_entry = np.zeros(nb, dtype=bool)
            else:
                slice_ = geometry.instructions_per_line // per_line
                bslot = fb.boff // slice_
                look_key = fb.look_frame * per_line + bslot
                upd_key = fb.upd_frame * per_line + bslot[widx]
                order = self._orders.pop(
                    (
                        "frame", _geom_key(geometry), replacement,
                        interval, per_line,
                    ),
                    None,
                )
                windex = kernels.LastWriteIndex(
                    upd_key, fb.times, order=order
                )
                pos = windex.positions(look_key, fb.look_time)
                last_any = windex.resolve(pos)
                has_entry = last_any >= 0
                wb = widx[np.maximum(last_any, 0)]
                nw = self.next_way(geometry, replacement, interval)
                if flavor == "johnson":
                    # Johnson slots store target or fall-through line
                    # on every write; the way is always the next way
                    line_val = np.where(br.taken, fb.target_lf, fb.ft_lf)
                    mech = np.where(has_entry, 3, 0)
                    stored_lf = np.where(has_entry, line_val[wb], 0)
                    stored_way = np.where(has_entry, nw[wb], 0)
                else:  # partitioned NLS cache
                    mech = np.where(
                        has_entry, _KIND_TO_MECH[br.kind[wb]], 0
                    )
                    filtered = windex.filtered_last(br.taken[widx])
                    last_line = np.where(
                        pos >= 0, filtered[np.maximum(pos, 0)], -1
                    )
                    has_line = last_line >= 0
                    twb = widx[np.maximum(last_line, 0)]
                    stored_lf = np.where(has_line, fb.target_lf[twb], 0)
                    stored_way = np.where(has_line, nw[twb], 0)
            lf_eq = stored_lf == fb.target_lf
            if assoc > 1:
                way_ok = t_way == stored_way
            else:
                way_ok = np.ones(nb, dtype=bool)
            if flavor == "johnson":
                implied = has_entry & (stored_lf != fb.ft_lf)
                fe_match = has_entry & lf_eq & resident & way_ok
                fe_cause = np.where(
                    ~has_entry,
                    _C_FRONTEND_MISS,
                    np.where(
                        ~lf_eq,
                        _C_NLS_WRONG_LINE,
                        np.where(
                            ~resident, _C_NLS_DISPLACED, _C_NLS_WRONG_SET
                        ),
                    ),
                )
                return _FrontendReplay(mech, fe_match, fe_cause, implied)
            fe_match = lf_eq & resident & way_ok
            fe_cause = np.where(
                ~lf_eq,
                _C_NLS_WRONG_LINE,
                np.where(~resident, _C_NLS_DISPLACED, _C_NLS_WRONG_SET),
            )
            return _FrontendReplay(mech, fe_match, fe_cause, None)

        return self._get(key, _build)

    def _nls_lru_replay(self, per_line, geometry, replacement, interval):
        """Exact scalar replay of the LRU-slotted NLS cache.

        Slot choice depends on each frame's recency order, which every
        lookup mutates — inherently order-sensitive, so this merges
        the update and lookup streams by access time (updates first at
        ties, matching the apply-after-first-access hand-off) and
        walks them against lazily created frame states."""
        key = (
            "fe-frame", "lru", per_line, _geom_key(geometry),
            replacement, interval,
        )

        def _build():
            br = self.breaks(interval)
            nb = br.n
            fb = self._frame_base(geometry, replacement, interval)
            widx = fb.widx
            n_upd = len(widx)
            resident, t_way = self.target_probe(
                geometry, replacement, interval
            )
            nw = self.next_way(geometry, replacement, interval)
            mech = np.zeros(nb, dtype=np.int64)
            stored_lf = np.zeros(nb, dtype=np.int64)
            stored_way = np.zeros(nb, dtype=np.int64)
            seq_key = np.concatenate([fb.upd_frame, fb.look_frame])
            seq_off = np.concatenate([fb.boff[widx], fb.boff])
            seq_time = np.concatenate([fb.times, fb.look_time])
            is_look = np.concatenate(
                [
                    np.zeros(n_upd, dtype=np.int64),
                    np.ones(nb, dtype=np.int64),
                ]
            )
            merged = kernels.stable_order(seq_time * 2 + is_look)
            keys = seq_key.tolist()
            offsets = seq_off.tolist()
            kinds_u = br.kind[widx].tolist()
            taken_u = br.taken[widx].tolist()
            target_lf_u = fb.target_lf[widx].tolist()
            nw_u = nw[widx].tolist()
            mech_of = _KIND_TO_MECH.tolist()
            # frame state: [offsets, types, lines, ways, recency]
            states: dict = {}
            for s in merged.tolist():
                frame = keys[s]
                offset = offsets[s]
                if s < n_upd:  # update
                    state = states.get(frame)
                    if state is None:
                        state = states[frame] = [
                            [-1] * per_line,
                            [0] * per_line,
                            [0] * per_line,
                            [0] * per_line,
                            list(range(per_line)),
                        ]
                    s_off, s_typ, s_lin, s_way, s_rec = state
                    try:
                        slot = s_off.index(offset)
                    except ValueError:
                        slot = s_rec[-1]
                    s_typ[slot] = mech_of[kinds_u[s]]
                    s_off[slot] = offset
                    if taken_u[s]:
                        s_lin[slot] = target_lf_u[s]
                        s_way[slot] = nw_u[s]
                    if s_rec[0] != slot:
                        s_rec.remove(slot)
                        s_rec.insert(0, slot)
                else:  # lookup
                    j = s - n_upd
                    state = states.get(frame)
                    if state is None:
                        continue  # untouched frame: INVALID, no touch
                    s_off, s_typ, s_lin, s_way, s_rec = state
                    try:
                        slot = s_off.index(offset)
                    except ValueError:
                        continue  # no slot caches this offset
                    if s_rec[0] != slot:
                        s_rec.remove(slot)
                        s_rec.insert(0, slot)
                    mech[j] = s_typ[slot]
                    stored_lf[j] = s_lin[slot]
                    stored_way[j] = s_way[slot]
            lf_eq = stored_lf == fb.target_lf
            if geometry.associativity > 1:
                way_ok = t_way == stored_way
            else:
                way_ok = np.ones(nb, dtype=bool)
            fe_match = lf_eq & resident & way_ok
            fe_cause = np.where(
                ~lf_eq,
                _C_NLS_WRONG_LINE,
                np.where(~resident, _C_NLS_DISPLACED, _C_NLS_WRONG_SET),
            )
            return _FrontendReplay(mech, fe_match, fe_cause, None)

        return self._get(key, _build)

    # --- batched preparation ------------------------------------------

    def prepare(self, configs) -> None:
        """Pre-compute shared sort orders for a batch of sweep cells.

        Groups the configs' table-structure families (same key layout,
        different table size) and runs **one** stacked stable sort per
        family (:func:`~repro.predictors.kernels.batched_orders`)
        instead of one argsort per cell; the per-variant orders are
        stashed for the replay builders to consume (one-shot).  Purely
        an optimisation — replays build their own order when none was
        prepared — so unknown or unsupported configs are skipped.
        """
        gshare_fams: dict = {}
        table_fams: dict = {}
        btb_fams: dict = {}
        frame_fams: dict = {}
        for config in configs:
            if fallback_reason(config) is not None:
                continue
            interval = config.flush_interval
            frontend = config.frontend
            if frontend not in ("johnson", "coupled-btb"):
                gshare_fams.setdefault(interval, set()).add(
                    config.pht_entries
                )
            if frontend in ("nls-table", "steely-sager"):
                table_fams.setdefault(interval, set()).add(config.entries)
            elif frontend == "btb" and config.btb_assoc == 1:
                btb_fams.setdefault(
                    (config.btb_allocate, interval), set()
                ).add(config.entries)
            elif frontend == "johnson" or (
                frontend == "nls-cache"
                and config.nls_cache_policy == "partition"
            ):
                geometry = config.geometry
                per_line = config.predictors_per_line
                if not 1 <= per_line <= geometry.instructions_per_line:
                    continue
                fkey = (
                    _geom_key(geometry), config.cache_replacement, interval
                )
                entry = frame_fams.setdefault(fkey, (geometry, set()))
                entry[1].add(per_line)
        for interval, sizes in table_fams.items():
            variants = sorted(sizes)
            if len(variants) < 2:
                continue
            br = self.breaks(interval)
            stacked = np.stack(
                [br.epoch * e + (br.word & (e - 1)) for e in variants]
            )
            for e, order in zip(variants, kernels.batched_orders(stacked)):
                self._orders[("table", e, interval)] = order
        for (allocate, interval), sizes in btb_fams.items():
            variants = sorted(sizes)
            if len(variants) < 2:
                continue
            br = self.breaks(interval)
            writers = np.nonzero(self._btb_allocates(allocate, interval))[0]
            if not len(writers):
                continue
            stacked = np.stack(
                [
                    br.epoch[writers] * e + (br.word[writers] & (e - 1))
                    for e in variants
                ]
            )
            for e, order in zip(variants, kernels.batched_orders(stacked)):
                self._orders[("btb", allocate, e, interval)] = order
        for (gk, replacement, interval), (geometry, pls) in frame_fams.items():
            variants = sorted(pls)
            if len(variants) < 2:
                continue
            fb = self._frame_base(geometry, replacement, interval)
            if not len(fb.widx):
                continue
            ipl = geometry.instructions_per_line
            boff_w = fb.boff[fb.widx]
            stacked = np.stack(
                [
                    fb.upd_frame * pl + boff_w // (ipl // pl)
                    for pl in variants
                ]
            )
            for pl, order in zip(variants, kernels.batched_orders(stacked)):
                self._orders[("frame", gk, replacement, interval, pl)] = order
        for interval, sizes in gshare_fams.items():
            variants = sorted(sizes)
            if len(variants) < 2:
                continue
            stacked = np.stack(
                [
                    self._gshare_keys(e, interval).cell_key
                    for e in variants
                ]
            )
            for e, order in zip(variants, kernels.batched_orders(stacked)):
                self._orders[("gshare", e, interval)] = order


# === engine ===========================================================


class FastEngine:
    """Vectorised drop-in for :class:`~repro.fetch.engine.FetchEngine`.

    Built from an :class:`~repro.harness.config.ArchitectureConfig`
    (via ``config.build()`` when ``config.engine == "fast"``); exposes
    the same :meth:`run` contract and produces identical
    :class:`~repro.metrics.report.SimulationReport` objects.

    For batch execution the harness attaches a shared
    :class:`TraceReplayContext` (:meth:`attach_context`) so all cells
    of a sweep group reuse each other's sub-replays; a bare
    ``engine.run(trace)`` builds a private context and behaves exactly
    as before.
    """

    engine_name = "fast"

    def __init__(self, config) -> None:
        reason = fallback_reason(config)
        if reason is not None:
            raise ValueError(
                f"config not supported by the fast engine: {reason.value}"
            )
        # build (and discard) the reference structures so invalid
        # parameter combinations raise exactly the reference's errors
        config._build_reference()
        self.config = config
        self.penalties = config.penalties
        self.flush_interval = config.flush_interval
        self.frontend_name = _frontend_name(config)
        self.uses_ras = config.frontend != "johnson"
        self.engine_class = engine_class(config)
        self.attribution = (
            AttributionCollector(sample=config.attribution_sample)
            if config.attribution
            else None
        )
        self._context: Optional[TraceReplayContext] = None

    def attach_context(self, context: TraceReplayContext) -> None:
        """Attach a shared batch context (used when the next
        :meth:`run` call replays ``context.trace``)."""
        self._context = context

    # ------------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        label: Optional[str] = None,
        warmup_fraction: float = 0.0,
    ) -> SimulationReport:
        """Simulate *trace* and return the derived report.

        Mirrors ``FetchEngine.run`` exactly: same warmup semantics,
        same telemetry span and per-phase counters, same report
        construction — the differential-equivalence tests assert the
        results are identical object-for-object.
        """
        context = self._context
        if context is None or context.trace is not trace:
            context = TraceReplayContext(trace)
        registry = get_registry()
        run_label = label if label is not None else self.frontend_name
        with registry.span(
            "engine.run",
            label=run_label,
            program=trace.name,
            frontend=self.frontend_name,
        ):
            counters, stats, accesses = self._simulate(
                context, warmup_fraction
            )
        if registry.enabled:
            kinds = trace.kinds
            blocks = len(kinds)
            predicts = blocks - kinds.count(_NOT_A_BRANCH)
            if self.uses_ras:
                ras_ops = kinds.count(_CALL) + kinds.count(_RETURN)
            else:
                ras_ops = 0
            registry.counter("engine.blocks_decoded").add(blocks)
            registry.counter("engine.icache_probes").add(accesses)
            registry.counter("engine.frontend_predicts").add(predicts)
            registry.counter("engine.ras_ops").add(ras_ops)
        collector = self.attribution
        if collector is not None and registry.enabled:
            for cause_name, count in collector.causes.items():
                if count:
                    registry.counter(f"engine.cause.{cause_name}").add(count)
            registry.histogram("engine.penalty_gap").absorb(
                collector.gap_histogram
            )
        return SimulationReport.from_counters(
            counters,
            label=run_label,
            program=trace.name,
            penalties=self.penalties,
            frontend_stats=stats,
            attribution=collector.snapshot() if collector is not None else None,
        )

    # ------------------------------------------------------------------

    def _empty_stats(self) -> Optional[dict]:
        """The mismatch-cause histogram an untouched front-end reports."""
        if self.config.frontend in ("nls-table", "steely-sager", "nls-cache"):
            return {cause: 0 for cause in MISMATCH_CAUSES}
        return None

    def _simulate(
        self, context: TraceReplayContext, warmup_fraction: float = 0.0
    ) -> Tuple[SimulationCounters, Optional[dict], int]:
        """Replay the context's trace; returns (counters, stats, accesses)."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        config = self.config
        collector = self.attribution
        if collector is not None:
            collector.reset()
        counters = SimulationCounters()
        n = context.n_events
        if n == 0:
            return counters, self._empty_stats(), 0
        interval = self.flush_interval
        geometry = config.geometry
        replacement = config.cache_replacement
        warmup_boundary = int(n * warmup_fraction)

        # --- instruction cache ----------------------------------------
        cache = context.icache(geometry, replacement, interval)
        base_access = (
            int(cache.first_access[warmup_boundary]) if warmup_boundary else 0
        )
        counters.icache_accesses = cache.total - base_access
        counters.icache_misses = int(
            np.count_nonzero(~cache.hit[base_access:])
        )
        counters.n_instructions = int(context.counts[warmup_boundary:].sum())

        # --- break columns --------------------------------------------
        br = context.breaks(interval)
        nb = br.n
        if nb == 0:
            return counters, self._empty_stats(), cache.total
        bkind = br.kind
        btaken = br.taken
        btarget = br.target

        # --- front-end replay -----------------------------------------
        fe = context.frontend_replay(config)
        mech = fe.mech
        fe_match = fe.match
        fe_cause = fe.cause
        implicit = config.frontend in ("johnson", "coupled-btb")

        # --- direction predictor --------------------------------------
        consult_pred = np.zeros(nb, dtype=bool)
        if implicit:
            # the PHT exists but is never trained: every consult by a
            # conditional-typed entry sees the weakly-not-taken init
            pht_pred = None
        else:
            gs = context.gshare(config.pht_entries, interval)
            pht_pred = gs.pht_pred
            # non-conditional breaks whose entry is conditional-typed
            # consult (but never train) the PHT at its current state
            consults = np.nonzero((bkind != _CONDITIONAL) & (mech == 2))[0]
            if len(consults) and len(gs.cond_positions):
                events = br.events[consults]
                prior = np.searchsorted(gs.cond_events, events, side="left") - 1
                prior_safe = np.maximum(prior, 0)
                in_epoch = (prior >= 0) & (
                    gs.cond_epoch[prior_safe] == br.epoch[consults]
                )
                history_at = np.where(
                    in_epoch, gs.history_after[prior_safe], 0
                )
                query_cell = (br.word[consults] ^ history_at) & gs.mask
                last_update = gs.cell_index.query(
                    br.epoch[consults] * gs.entries + query_cell, events - 1
                )
                state = np.where(
                    last_update >= 0,
                    gs.state_after[np.maximum(last_update, 0)],
                    1,
                )
                consult_pred[consults] = state >= 2

        # --- RAS replay -----------------------------------------------
        ras_pop = (
            context.ras(config.ras_entries, interval)
            if self.uses_ras
            else None
        )

        # --- classification (the engine's §5.2 rule table) ------------
        misfetch = np.zeros(nb, dtype=bool)
        mispredict = np.zeros(nb, dtype=bool)
        cause = np.zeros(nb, dtype=np.int64)
        fe_called = np.zeros(nb, dtype=bool)

        is_cond = bkind == _CONDITIONAL
        is_direct = (bkind == _UNCONDITIONAL) | (bkind == _CALL)
        is_return = bkind == _RETURN
        is_indirect = bkind == _INDIRECT
        mech_none = mech == 0
        mech_return = mech == 1
        mech_cond = mech == 2
        mech_other = mech == 3
        miss_code = np.where(mech_none, _C_FRONTEND_MISS, _C_NLS_TYPE_MISMATCH)

        def _classify(mask, outcome, code):
            outcome |= mask
            np.copyto(cause, code, where=mask)

        # conditionals: direction first, then the fetch path
        if implicit:
            direction_wrong = is_cond & (fe.implied != btaken)
            dir_code = np.where(mech_none, _C_FRONTEND_MISS, _C_DIRECTION)
            _classify(direction_wrong, mispredict, dir_code)
            steered = is_cond & ~direction_wrong & btaken
            fe_called |= steered
            _classify(steered & ~fe_match, misfetch, fe_cause)
        else:
            direction_wrong = is_cond & (pht_pred != btaken)
            _classify(direction_wrong, mispredict, _C_DIRECTION)
            cond_taken_right = is_cond & ~direction_wrong & btaken
            entry_steered = cond_taken_right & (mech_cond | mech_other)
            fe_called |= entry_steered
            _classify(entry_steered & ~fe_match, misfetch, fe_cause)
            _classify(
                cond_taken_right & (mech_none | mech_return),
                misfetch,
                miss_code,
            )
            cond_nt = is_cond & ~direction_wrong & ~btaken
            _classify(
                cond_nt & (mech_other | mech_return),
                misfetch,
                _C_NLS_TYPE_MISMATCH,
            )

        # unconditional / call
        direct_other = is_direct & mech_other
        fe_called |= direct_other
        _classify(direct_other & ~fe_match, misfetch, fe_cause)
        direct_cond = is_direct & mech_cond
        _classify(direct_cond & ~consult_pred, misfetch, _C_NLS_TYPE_MISMATCH)
        direct_consulted = direct_cond & consult_pred
        fe_called |= direct_consulted
        _classify(direct_consulted & ~fe_match, misfetch, fe_cause)
        _classify(is_direct & (mech_none | mech_return), misfetch, miss_code)

        # returns
        if self.uses_ras:
            pop_matches = ras_pop == btarget
            _classify(
                is_return & mech_return & ~pop_matches,
                mispredict,
                _C_RAS_MISPOP,
            )
            return_unidentified = is_return & ~mech_return
            _classify(return_unidentified & pop_matches, misfetch, miss_code)
            _classify(
                return_unidentified & ~pop_matches, mispredict, _C_RAS_MISPOP
            )
        else:
            # no RAS: the front-end's line prediction stands alone
            fe_called |= is_return
            _classify(is_return & ~fe_match, mispredict, fe_cause)

        # indirect: like unconditional, but failures are mispredicts
        indirect_other = is_indirect & mech_other
        fe_called |= indirect_other
        _classify(indirect_other & ~fe_match, mispredict, fe_cause)
        indirect_cond = is_indirect & mech_cond
        _classify(
            indirect_cond & ~consult_pred, mispredict, _C_NLS_TYPE_MISMATCH
        )
        indirect_consulted = indirect_cond & consult_pred
        fe_called |= indirect_consulted
        _classify(indirect_consulted & ~fe_match, mispredict, fe_cause)
        _classify(is_indirect & (mech_none | mech_return), mispredict, miss_code)

        # --- front-end mismatch histogram (whole run, warmup incl.) ---
        stats = self._empty_stats()
        if stats is not None:
            failed = fe_called & ~fe_match
            for code, bucket in _FAIL_BUCKETS.items():
                stats[bucket] = int(
                    np.count_nonzero(failed & (fe_cause == code))
                )

        # --- counters (post-warmup events only) -----------------------
        counted = br.events >= warmup_boundary
        executed = np.bincount(bkind[counted], minlength=6)
        misfetched = np.bincount(bkind[counted & misfetch], minlength=6)
        mispredicted = np.bincount(bkind[counted & mispredict], minlength=6)
        for kind, kind_counter in counters.by_kind.items():
            kind_counter.executed = int(executed[int(kind)])
            kind_counter.misfetched = int(misfetched[int(kind)])
            kind_counter.mispredicted = int(mispredicted[int(kind)])

        # --- attribution replay ---------------------------------------
        if collector is not None:
            observe = collector.observe
            outcome = misfetch.astype(np.int64) + 2 * mispredict.astype(
                np.int64
            )
            sel = np.nonzero(counted)[0]
            pcs = br.pc[sel].tolist()
            kinds_list = bkind[sel].tolist()
            takens_list = btaken[sel].tolist()
            outcomes = outcome[sel].tolist()
            codes = cause[sel].tolist()
            if ras_pop is not None:
                underflows = (ras_pop[sel] < 0).tolist()
            else:
                underflows = [False] * len(sel)
            for pc, kind, taken, out, code, under in zip(
                pcs, kinds_list, takens_list, outcomes, codes, underflows
            ):
                detail = {"underflow": under} if code == _C_RAS_MISPOP else None
                observe(pc, kind, taken, out, _CAUSE_STRINGS[code], detail)

        return counters, stats, cache.total
