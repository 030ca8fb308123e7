"""CFG interpreter: executes a synthetic program into a trace.

The interpreter walks the program's basic blocks with a seeded RNG,
maintaining a call stack, and emits one block-compressed trace event
per executed block.  All control transfers are *consistent* — the next
event always starts where the previous one's break actually went —
which :meth:`repro.workloads.trace.Trace.validate` can verify.

The program is flattened once into per-block parallel lists (address,
instruction count, branch kind, an integer site code, global successor
ids and the site's parameters), so the execution loop is one integer
dispatch per block with no attribute lookups or type tests; it records
only the executed block ids, outcomes and targets, and the trace
columns are gathered from the block lists at the end.  Per-site state
(a sticky conditional's last outcome, a counted loop's remaining
trips, an indirect jump's last target) is keyed by site identity, so
blocks that share one site object share its state.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.isa.geometry import INSTRUCTION_BYTES
from repro.workloads.program import (
    CallSite,
    ConditionalSite,
    IndirectSite,
    LoopSite,
    ReturnSite,
    SyntheticProgram,
    UnconditionalSite,
)
from repro.workloads.trace import Trace

# site codes of the flattened program; the conditional codes come
# first so one comparison separates them from the rest
_SITE_COND = 0  # i.i.d. conditional
_SITE_COND_STICKY = 1  # conditional that may repeat its last outcome
_SITE_COND_CORRELATED = 2  # conditional hashed from global history
_SITE_LOOP = 3  # loop branch with a geometric trip count
_SITE_LOOP_FIXED = 4  # counted loop branch
_SITE_CALL = 5
_SITE_RETURN = 6
_SITE_JUMP = 7  # direct unconditional jump
_SITE_INDIRECT = 8
_SITE_INVALID = 9  # raises the block's stored exception when executed


class _IndirectChooser:
    """Per-site cumulative weights for indirect-target selection."""

    __slots__ = ("cumulative", "targets")

    def __init__(self, site: IndirectSite) -> None:
        total = 0.0
        self.cumulative: List[float] = []
        for weight in site.weights:
            total += weight
            self.cumulative.append(total)
        self.targets = list(site.target_blocks)

    def choose(self, rng: random.Random) -> int:
        u = rng.random() * self.cumulative[-1]
        for position, threshold in enumerate(self.cumulative):
            if u <= threshold:
                return self.targets[position]
        return self.targets[-1]


def _local_block(blocks, base: int, index: int):
    """Global id and address of block *index* of a procedure whose
    first block has global id *base* (Python list indexing rules)."""
    address = blocks[index].address
    return base + (index if index >= 0 else index + len(blocks)), address


def _decode(site, blocks, base: int, procedures, bases) -> tuple:
    """(code, taken successor id, taken target, param, extra) of one
    site; raises the error its execution raised for a malformed one."""
    if isinstance(site, ConditionalSite):
        successor, target = _local_block(blocks, base, site.target_block)
        if site.correlation_bits:
            history = ((1 << site.correlation_bits) - 1, site.salt)
            threshold = site.taken_prob * 65536.0
            return _SITE_COND_CORRELATED, successor, target, threshold, history
        if site.sticky:
            return _SITE_COND_STICKY, successor, target, site.taken_prob, site.sticky
        return _SITE_COND, successor, target, site.taken_prob, None
    if isinstance(site, LoopSite):
        successor, target = _local_block(blocks, base, site.head_block)
        if site.fixed_trips is not None:
            return _SITE_LOOP_FIXED, successor, target, site.fixed_trips, None
        return _SITE_LOOP, successor, target, site.continue_prob, None
    if isinstance(site, CallSite):
        target = procedures[site.callee].entry
        return _SITE_CALL, bases[site.callee], target, None, None
    if isinstance(site, ReturnSite):
        return _SITE_RETURN, None, 0, None, None
    if isinstance(site, UnconditionalSite):
        successor, target = _local_block(blocks, base, site.target_block)
        return _SITE_JUMP, successor, target, None, None
    if isinstance(site, IndirectSite):
        return _SITE_INDIRECT, None, 0, _IndirectChooser(site), None
    raise TypeError(f"unknown site type {type(site).__name__}")


#: site codes that keep per-site state
_STATEFUL = (_SITE_COND_STICKY, _SITE_LOOP_FIXED, _SITE_INDIRECT)


def _flatten(program: SyntheticProgram):
    """Per-block parallel columns of *program*, blocks numbered in
    procedure order: address, instruction count, kind, fall-through
    id, state slot (-1: stateless), procedure's first id, then the
    :func:`_decode` fields.  Also returns the stored errors, the entry
    block id and the number of state slots.

    One extra *missing* block (the last id) is the fall-through of a
    procedure's final block and the entry of an empty or absent main,
    so a malformed program fails with the ``IndexError`` the nested
    lookup raised, when (and only if) that path executes.  A block
    whose site or shape is invalid gets ``_SITE_INVALID`` and raises
    its stored error when it executes, as when the checks ran per
    executed block.
    """
    procedures = program.procedures
    bases = [0]
    for procedure in procedures:
        bases.append(bases[-1] + len(procedure.blocks))
    missing = bases.pop()
    errors = {missing: IndexError("list index out of range")}
    slots: dict = {}
    rows = []
    for base, procedure in zip(bases, procedures):
        blocks = procedure.blocks
        for index, block in enumerate(blocks):
            site = block.site
            try:
                decoded = _decode(site, blocks, base, procedures, bases)
                # the checks Trace.append makes on every event
                if block.n_instructions < 1:
                    raise ValueError(
                        "a block must contain at least one instruction: "
                        f"{block.n_instructions}"
                    )
                if block.address % INSTRUCTION_BYTES:
                    raise ValueError(
                        f"block start {block.address:#x} is not "
                        "instruction-aligned"
                    )
            except (IndexError, TypeError, ValueError) as error:
                errors[base + index] = error
                decoded = (_SITE_INVALID, None, 0, None, None)
            slot = -1
            if decoded[0] in _STATEFUL:
                slot = slots.setdefault(id(site), len(slots))
            fall = base + index + 1 if index + 1 < len(blocks) else missing
            kind = int(getattr(site, "kind", 0))
            rows.append(
                (block.address, block.n_instructions, kind, fall, slot, base)
                + decoded
            )
    rows.append((0, 0, 0, None, -1, 0, _SITE_INVALID, None, 0, None, None))
    try:
        entry = bases[program.main] if procedures[program.main].blocks else missing
    except IndexError:
        entry = missing
    return [list(column) for column in zip(*rows)], errors, entry, len(slots)


def execute(
    program: SyntheticProgram,
    instructions: int,
    seed: int = 0,
    name: Optional[str] = None,
    profile_indirect_repeat: Optional[float] = None,
) -> Trace:
    """Execute *program* for about *instructions* dynamic instructions.

    The budget is checked at block granularity, so the trace may
    overshoot by at most one block.  Execution is deterministic given
    (*program*, *seed*).  *profile_indirect_repeat* sets the sticky
    indirect-target probability (defaults to 0.60).
    """
    if instructions < 1:
        raise ValueError("instruction budget must be positive")
    rng = random.Random(seed)
    random_ = rng.random
    columns, errors, block, n_slots = _flatten(program)
    (
        address, count, kinds, fall_next, slot_of, proc_base,
        code, taken_next, target_of, param, extra,
    ) = columns
    missing = len(address) - 1
    #: per-site state: sticky outcome, remaining trips or last target
    state: list = [None] * n_slots
    indirect_repeat = (
        profile_indirect_repeat if profile_indirect_repeat is not None else 0.60
    )
    # resume points (global block ids)
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    # executed block ids, with their outcomes and taken targets
    ids: List[int] = []
    takens: List[bool] = []
    targets: List[int] = []
    emit = ids.append
    emit_taken = takens.append
    emit_target = targets.append
    emitted = 0
    ghist = 0  # global history of conditional outcomes (1 = taken)

    while emitted < instructions:
        site = code[block]
        if site <= _SITE_LOOP_FIXED:
            if site == _SITE_COND:
                taken = random_() < param[block]
            elif site == _SITE_COND_STICKY:
                slot = slot_of[block]
                last = state[slot]
                if last is not None and random_() < extra[block]:
                    taken = last
                else:
                    taken = random_() < param[block]
                state[slot] = taken
            elif site == _SITE_COND_CORRELATED:
                # outcome is a salted hash of the recent global
                # conditional history: deterministic per history value,
                # Bernoulli(taken_prob) across history values
                mask, salt = extra[block]
                h = (((ghist & mask) ^ salt) * 0x9E3779B1) & 0xFFFFFFFF
                taken = ((h >> 16) & 0xFFFF) < param[block]
            elif site == _SITE_LOOP:
                taken = random_() < param[block]
            else:
                # counted loop: the branch executes fixed_trips times
                # per loop entry (taken on all but the last)
                slot = slot_of[block]
                remaining = state[slot]
                if remaining is None:
                    remaining = param[block]
                remaining -= 1
                taken = remaining > 0
                state[slot] = remaining if taken else None
            ghist = ((ghist << 1) | taken) & 0xFFFF
            emit(block)
            emit_taken(taken)
            emit_target(target_of[block])
            emitted += count[block]
            block = taken_next[block] if taken else fall_next[block]
        elif site == _SITE_CALL:
            push(fall_next[block])
            emit(block)
            emit_taken(True)
            emit_target(target_of[block])
            emitted += count[block]
            block = taken_next[block]
        elif site == _SITE_RETURN:
            emit(block)
            emit_taken(True)
            if not stack:
                # main returned: emit the final event and stop
                emit_target(0)
                break
            resume = pop()
            if resume == missing:
                raise errors[missing]
            emit_target(address[resume])
            emitted += count[block]
            block = resume
        elif site == _SITE_JUMP:
            emit(block)
            emit_taken(True)
            emit_target(target_of[block])
            emitted += count[block]
            block = taken_next[block]
        elif site == _SITE_INDIRECT:
            # sticky targets: real indirect jumps (virtual calls,
            # interpreter dispatch) repeat their previous destination
            # far more often than an i.i.d. draw would
            slot = slot_of[block]
            chosen = state[slot]
            if not (chosen is not None and random_() < indirect_repeat):
                chosen = state[slot] = param[block].choose(rng)
            chosen += proc_base[block]
            emit(block)
            emit_taken(True)
            emit_target(address[chosen])
            emitted += count[block]
            block = chosen
        else:
            raise errors[block]

    trace = Trace(name if name is not None else program.name)
    trace.starts = list(map(address.__getitem__, ids))
    trace.counts = list(map(count.__getitem__, ids))
    trace.kinds = list(map(kinds.__getitem__, ids))
    trace.takens = takens
    trace.targets = targets
    return trace
