"""Dominators and dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm
("A Simple, Fast Dominance Algorithm") and Cytron et al.'s dominance
frontier computation — the ingredients of SSA phi placement.

Only blocks reachable from the CFG entry participate; callers should prune
unreachable blocks first (lowering already does).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import ControlFlowGraph


@dataclass
class DominatorTree:
    """Immediate dominators, children lists, and dominance frontiers."""

    entry: int
    idom: dict[int, int]  # block -> immediate dominator (entry -> entry)
    children: dict[int, list[int]] = field(default_factory=dict)
    frontier: dict[int, set[int]] = field(default_factory=dict)

    def dominates(self, a: int, b: int) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        node = b
        while True:
            if node == a:
                return True
            parent = self.idom[node]
            if parent == node:
                return node == a
            node = parent

    def strictly_dominates(self, a: int, b: int) -> bool:
        return a != b and self.dominates(a, b)

    def preorder(self) -> list[int]:
        """Dominator-tree preorder (parents before children)."""
        order: list[int] = []
        stack = [self.entry]
        while stack:
            node = stack.pop()
            order.append(node)
            # Reverse so children pop in ascending order (determinism).
            stack.extend(sorted(self.children.get(node, ()), reverse=True))
        return order


def compute_dominators(cfg: ControlFlowGraph) -> DominatorTree:
    """Compute the dominator tree and dominance frontiers of ``cfg``."""
    cfg.refresh()
    rpo = cfg.reverse_postorder()
    index = {block_id: i for i, block_id in enumerate(rpo)}
    reachable = set(rpo)

    idom: dict[int, int] = {cfg.entry_id: cfg.entry_id}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block_id in rpo:
            if block_id == cfg.entry_id:
                continue
            preds = [p for p in cfg.blocks[block_id].preds
                     if p in reachable and p in idom]
            if not preds:
                continue
            new_idom = preds[0]
            for pred in preds[1:]:
                new_idom = intersect(new_idom, pred)
            if idom.get(block_id) != new_idom:
                idom[block_id] = new_idom
                changed = True

    children: dict[int, list[int]] = {block_id: [] for block_id in rpo}
    for block_id in rpo:
        if block_id == cfg.entry_id:
            continue
        children[idom[block_id]].append(block_id)

    frontier: dict[int, set[int]] = {block_id: set() for block_id in rpo}
    entry = cfg.entry_id
    for block_id in rpo:
        preds = [p for p in cfg.blocks[block_id].preds if p in reachable]
        # No >=2-preds shortcut, and the walk must not stop at idom(entry)
        # == entry prematurely: a back edge into the entry block puts the
        # entry in its own dominance frontier.
        for pred in preds:
            runner = pred
            while True:
                if block_id != entry and runner == idom[block_id]:
                    break
                frontier[runner].add(block_id)
                if runner == idom[runner]:
                    break  # reached the entry
                runner = idom[runner]

    return DominatorTree(
        entry=cfg.entry_id,
        idom=idom,
        children=children,
        frontier=frontier,
    )


def iterated_frontier(tree: DominatorTree, blocks: set[int]) -> set[int]:
    """DF+ — the iterated dominance frontier of a set of blocks."""
    result: set[int] = set()
    worklist = [b for b in blocks if b in tree.frontier]
    on_list = set(worklist)
    while worklist:
        block = worklist.pop()
        for frontier_block in tree.frontier.get(block, ()):
            if frontier_block not in result:
                result.add(frontier_block)
                if frontier_block not in on_list:
                    worklist.append(frontier_block)
                    on_list.add(frontier_block)
    return result
