"""Unit tests for basic blocks and CFG structure."""

from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import (
    CJump,
    Copy,
    Jump,
    Phi,
    Return,
    Stop,
    Temp,
    bool_const,
    int_const,
)


def make_diamond():
    """entry -> (left | right) -> join -> exit."""
    cfg = ControlFlowGraph()
    entry = cfg.new_block()
    cfg.entry_id = entry.id
    exit_block = cfg.new_block()
    exit_block.append(Return())
    cfg.exit_id = exit_block.id
    left = cfg.new_block()
    right = cfg.new_block()
    join = cfg.new_block()
    entry.append(CJump(cond=bool_const(True), if_true=left.id, if_false=right.id))
    left.append(Jump(join.id))
    right.append(Jump(join.id))
    join.append(Jump(exit_block.id))
    cfg.refresh()
    return cfg, entry, left, right, join, exit_block


class TestBlocks:
    def test_successors_of_jump(self):
        cfg = ControlFlowGraph()
        a = cfg.new_block()
        b = cfg.new_block()
        a.append(Jump(b.id))
        assert a.successors() == [b.id]

    def test_successors_of_cjump(self):
        cfg, entry, left, right, *_ = make_diamond()
        assert set(entry.successors()) == {left.id, right.id}

    def test_cjump_same_target_single_successor(self):
        cfg = ControlFlowGraph()
        a = cfg.new_block()
        b = cfg.new_block()
        a.append(CJump(cond=bool_const(True), if_true=b.id, if_false=b.id))
        assert a.successors() == [b.id]

    def test_return_has_no_successors(self):
        cfg = ControlFlowGraph()
        a = cfg.new_block()
        a.append(Return())
        assert a.successors() == []

    def test_stop_has_no_successors(self):
        cfg = ControlFlowGraph()
        a = cfg.new_block()
        a.append(Stop())
        assert a.successors() == []

    def test_terminator_detection(self):
        cfg = ControlFlowGraph()
        a = cfg.new_block()
        assert not a.is_terminated
        a.append(Copy(src=int_const(1), result=Temp(0)))
        assert not a.is_terminated
        a.append(Return())
        assert a.is_terminated

    def test_phis_prefix(self):
        cfg = ControlFlowGraph()
        a = cfg.new_block()
        phi = Phi(incoming={0: int_const(1)}, result=Temp(0))
        a.instrs = [phi, Copy(src=int_const(2), result=Temp(1)), Return()]
        assert a.phis() == [phi]
        assert len(a.non_phi_instrs()) == 2


class TestGraph:
    def test_predecessors(self):
        cfg, entry, left, right, join, exit_block = make_diamond()
        assert sorted(join.preds) == sorted([left.id, right.id])
        assert exit_block.preds == (join.id,)

    def test_reachable_ids(self):
        cfg, entry, *_ = make_diamond()
        unreachable = cfg.new_block()
        unreachable.append(Return())
        assert unreachable.id not in cfg.reachable_ids()
        assert entry.id in cfg.reachable_ids()

    def test_reverse_postorder_starts_at_entry(self):
        cfg, entry, *_ = make_diamond()
        order = cfg.reverse_postorder()
        assert order[0] == entry.id

    def test_reverse_postorder_preds_before_succs_in_dag(self):
        cfg, entry, left, right, join, exit_block = make_diamond()
        order = cfg.reverse_postorder()
        position = {bid: i for i, bid in enumerate(order)}
        assert position[entry.id] < position[left.id]
        assert position[left.id] < position[join.id]
        assert position[right.id] < position[join.id]
        assert position[join.id] < position[exit_block.id]

    def test_remove_unreachable_keeps_exit(self):
        cfg = ControlFlowGraph()
        entry = cfg.new_block()
        cfg.entry_id = entry.id
        exit_block = cfg.new_block()
        exit_block.append(Return())
        cfg.exit_id = exit_block.id
        entry.append(Stop())  # exit unreachable
        dead = cfg.new_block()
        dead.append(Jump(exit_block.id))
        removed = cfg.remove_unreachable()
        assert dead.id in removed
        assert exit_block.id in cfg.blocks

    def test_remove_unreachable_prunes_phi_inputs(self):
        cfg = ControlFlowGraph()
        entry = cfg.new_block()
        cfg.entry_id = entry.id
        exit_block = cfg.new_block()
        cfg.exit_id = exit_block.id
        dead = cfg.new_block()
        dead.append(Jump(exit_block.id))
        entry.append(Jump(exit_block.id))
        phi = Phi(incoming={entry.id: int_const(1), dead.id: int_const(2)},
                  result=Temp(0))
        exit_block.instrs = [phi, Return()]
        cfg.remove_unreachable()
        assert list(phi.incoming) == [entry.id]

    def test_instructions_iterates_in_block_order(self):
        cfg, *_ = make_diamond()
        pairs = list(cfg.instructions())
        block_ids = [block.id for block, _ in pairs]
        assert block_ids == sorted(block_ids)
