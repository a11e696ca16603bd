"""Basic blocks and the control-flow graph.

Blocks are identified by small integers; branch instructions name their
targets by block id, so blocks can be created before their contents are
known (needed for forward GOTOs). Successors are derived from the block's
terminator; predecessors are recomputed on demand via :meth:`refresh`,
which leaves each block's ``preds`` as a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import CJump, Instr, Jump, Phi, Return, Stop


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    id: int
    instrs: list[Instr] = field(default_factory=list)
    #: predecessor block ids, in the order :meth:`ControlFlowGraph.refresh`
    #: found them; replaced, never mutated, so copies may share it.
    preds: tuple[int, ...] = ()

    @property
    def terminator(self) -> Instr | None:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> list[int]:
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, CJump):
            if term.if_true == term.if_false:
                return [term.if_true]
            return [term.if_true, term.if_false]
        return []  # Return, Stop, or unterminated

    def phis(self) -> list[Phi]:
        found = []
        for instr in self.instrs:
            if isinstance(instr, Phi):
                found.append(instr)
            else:
                break
        return found

    def non_phi_instrs(self) -> list[Instr]:
        return self.instrs[len(self.phis()) :]

    def append(self, instr: Instr) -> None:
        assert not self.is_terminated, f"appending past terminator in block {self.id}"
        self.instrs.append(instr)

    def __repr__(self) -> str:
        return f"BasicBlock(B{self.id}, {len(self.instrs)} instrs)"


class ControlFlowGraph:
    """The CFG of one procedure.

    ``entry`` receives control on procedure entry; ``exit`` contains the
    single :class:`Return`. Lowering routes every source ``return`` through
    a jump to ``exit`` so SSA merges exit values with phis — exactly what
    return-jump-function construction needs. ``stop`` paths fall out of the
    graph (no successors), so values on never-returning paths do not pollute
    return jump functions.
    """

    def __init__(self) -> None:
        self.blocks: dict[int, BasicBlock] = {}
        self.entry_id: int = -1
        self.exit_id: int = -1
        self._next_id = 0

    # -- construction -------------------------------------------------------

    def new_block(self) -> BasicBlock:
        block = BasicBlock(self._next_id)
        self.blocks[self._next_id] = block
        self._next_id += 1
        return block

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_id]

    @property
    def exit(self) -> BasicBlock:
        return self.blocks[self.exit_id]

    # -- derived structure ---------------------------------------------------

    def refresh(self) -> None:
        """Recompute predecessor tuples from terminators."""
        preds: dict[int, list[int]] = {block_id: [] for block_id in self.blocks}
        for block in self.blocks.values():
            for succ_id in block.successors():
                found = preds[succ_id]
                if block.id not in found:
                    found.append(block.id)
        for block_id, block in self.blocks.items():
            block.preds = tuple(preds[block_id])

    def reachable_ids(self) -> set[int]:
        """Block ids reachable from entry."""
        seen: set[int] = set()
        stack = [self.entry_id]
        while stack:
            block_id = stack.pop()
            if block_id in seen:
                continue
            seen.add(block_id)
            stack.extend(self.blocks[block_id].successors())
        return seen

    def reverse_postorder(self) -> list[int]:
        """Reachable block ids in reverse postorder (forward dataflow order)."""
        order: list[int] = []
        seen: set[int] = set()

        def visit(block_id: int) -> None:
            # Iterative DFS to avoid recursion limits on long chains.
            stack: list[tuple[int, int]] = [(block_id, 0)]
            while stack:
                current, child_index = stack.pop()
                if child_index == 0:
                    if current in seen:
                        continue
                    seen.add(current)
                succs = self.blocks[current].successors()
                if child_index < len(succs):
                    stack.append((current, child_index + 1))
                    child = succs[child_index]
                    if child not in seen:
                        stack.append((child, 0))
                else:
                    order.append(current)

        visit(self.entry_id)
        return list(reversed(order))

    def remove_unreachable(self) -> list[int]:
        """Drop unreachable blocks (except exit); returns removed ids."""
        keep = self.reachable_ids()
        keep.add(self.exit_id)
        removed = [bid for bid in self.blocks if bid not in keep]
        for block_id in removed:
            del self.blocks[block_id]
        # Phi inputs from removed blocks are stale; prune them.
        removed_set = set(removed)
        for block in self.blocks.values():
            for phi in block.phis():
                phi.incoming = {
                    b: v for b, v in phi.incoming.items() if b not in removed_set
                }
        self.refresh()
        return removed

    def instructions(self):
        """Yield (block, instr) over all blocks in id order."""
        for block_id in sorted(self.blocks):
            for instr in self.blocks[block_id].instrs:
                yield self.blocks[block_id], instr

    def __len__(self) -> int:
        return len(self.blocks)


def build_cfg_index(cfg: ControlFlowGraph) -> dict[int, BasicBlock]:
    """Convenience: id -> block mapping (a copy; safe to mutate)."""
    return dict(cfg.blocks)
