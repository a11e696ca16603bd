"""SCC condensation edge cases for the region scheduler.

Each shape the scheduler must get right — self-recursion, mutual
recursion spanning 3+ procedures, a procedure unreachable from the main
program, one giant SCC — is checked three ways: the region order is a
caller-first topological order of the condensation, the region count
matches the component structure, and the region-scheduled solve is
result-equivalent to the dense reference solver.
"""

from repro import analyze
from repro.core.solver import solve_dense


def run(source):
    result = analyze(source)
    return result, result.call_graph.schedule


def assert_dense_equivalent(result):
    dense = solve_dense(result.lowered, result.call_graph, result.forward)
    assert result.solved.reached == dense.reached
    assert result.solved.val == dense.val
    assert result.solved.all_constants() == dense.all_constants()


def assert_topological(schedule, graph):
    """Every reachable cross-region call edge goes caller -> later region."""
    reached = graph.reached
    for caller in graph.nodes:
        if caller not in reached:
            continue
        for callee in graph.callees(caller):
            ci, ei = schedule.region_of[caller], schedule.region_of[callee]
            assert ci <= ei, (caller, callee)


class TestSelfRecursion:
    SOURCE = """
program m
  call f(3)
end
subroutine f(n)
  integer n
  if (n .gt. 0) then
    call f(n - 1)
  endif
end
"""

    def test_region_structure(self):
        result, schedule = run(self.SOURCE)
        assert schedule.order() == [("m",), ("f",)]
        assert not schedule.region("m").recursive
        assert schedule.region("f").recursive
        assert result.solved.regions == 2
        assert_topological(schedule, result.call_graph)

    def test_dense_equivalence(self):
        result, _ = run(self.SOURCE)
        assert_dense_equivalent(result)


class TestMutualRecursionThreeWide:
    SOURCE = """
program m
  call a(9)
end
subroutine a(n)
  integer n
  if (n .gt. 0) then
    call b(n - 1)
  endif
end
subroutine b(n)
  integer n
  call c(n)
end
subroutine c(n)
  integer n
  if (n .gt. 1) then
    call a(n - 2)
  endif
end
"""

    def test_region_structure(self):
        result, schedule = run(self.SOURCE)
        order = [tuple(sorted(members)) for members in schedule.order()]
        assert order == [("m",), ("a", "b", "c")]
        assert schedule.region("a") is schedule.region("c")
        assert schedule.region("b").recursive
        assert result.solved.regions == 2
        # the cycle needs at least one local re-sweep to stabilize
        assert result.solved.passes >= 2
        assert_topological(schedule, result.call_graph)

    def test_dense_equivalence(self):
        result, _ = run(self.SOURCE)
        assert_dense_equivalent(result)


class TestUnreachableProcedure:
    SOURCE = """
program m
  call f(5)
end
subroutine f(n)
  integer n
  write n
end
subroutine orphan(k)
  integer k
  call f(k)
end
"""

    def test_region_structure(self):
        result, schedule = run(self.SOURCE)
        assert len(schedule.regions) == 3
        # the unreachable region sorts after every reachable one, and the
        # solver never processes it (no seed ever activates it)
        assert schedule.regions[-1].members == ("orphan",)
        assert result.solved.regions == 2
        assert "orphan" not in result.solved.reached

    def test_dense_equivalence(self):
        result, _ = run(self.SOURCE)
        assert_dense_equivalent(result)
        # the orphan's edge into f must not pollute f's environment:
        # only main's constant argument reaches it
        assert result.solved.val["f"]["n"] == 5


class TestGiantSCC:
    @staticmethod
    def source(width=6):
        procs = [f"p{i}" for i in range(width)]
        lines = ["program m", "  call p0(40)", "end"]
        for i, name in enumerate(procs):
            succ = procs[(i + 1) % width]
            lines += [
                f"subroutine {name}(n)",
                "  integer n",
                "  if (n .gt. 0) then",
                f"    call {succ}(n - 1)",
                "  endif",
                "end",
            ]
        return "\n".join(lines) + "\n"

    def test_region_structure(self):
        result, schedule = run(self.source())
        order = [tuple(sorted(members)) for members in schedule.order()]
        assert order == [
            ("m",),
            ("p0", "p1", "p2", "p3", "p4", "p5"),
        ]
        assert schedule.regions[1].recursive
        assert result.solved.regions == 2
        assert_topological(schedule, result.call_graph)

    def test_dense_equivalence(self):
        result, _ = run(self.source())
        assert_dense_equivalent(result)


class TestPassReduction:
    """The region schedule strictly beats the legacy global worklist on a
    chain of two SCCs with an internal echo: upstream {a, z} decrements
    toward ⊥ while downstream {p, q} echoes p's first formal into its
    second (``call p(n, n)``). In the legacy schedule q's requeue of p
    pops backward mid-run and upstream's late ⊥ forces yet another
    sweep — three ascending runs, with p evaluated three times. The
    region schedule converges {a, z} first, seeds {p, q} exactly once
    with the final environment, and finishes in two local sweeps."""

    SOURCE = """
program m
  call a(50)
end
subroutine a(n)
  integer n
  call z(n)
end
subroutine z(n)
  integer n
  call a(n - 1)
  call p(n, 7)
end
subroutine p(n, k)
  integer n, k
  call q(n)
end
subroutine q(n)
  integer n
  call p(n, n)
end
"""

    def test_region_passes_strictly_lower(self):
        # the dense reference re-evaluates every site of each popped caller
        result = analyze(self.SOURCE)
        legacy = solve_dense(result.lowered, result.call_graph, result.forward)
        assert result.solved.reached == legacy.reached
        assert result.solved.val == legacy.val
        assert result.solved.passes < legacy.passes
        assert result.solved.evaluations < legacy.evaluations

    def test_dense_equivalence(self):
        result = analyze(self.SOURCE)
        assert_dense_equivalent(result)
