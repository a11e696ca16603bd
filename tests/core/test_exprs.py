"""Tests for value expressions, including property-based evaluation laws."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.exprs import (
    BOTTOM_EXPR,
    INTERN_TABLE,
    ConstExpr,
    EntryExpr,
    OpExpr,
    clear_intern_table,
    compile_slab_expr,
    const_expr,
    constant_only_value,
    entry_expr,
    make_binary,
    make_intrinsic,
    make_unary,
    substitute,
)
from repro.core.lattice import BOTTOM, TOP, is_constant


class TestConstruction:
    def test_const_folding(self):
        assert make_binary("+", const_expr(2), const_expr(3)) == ConstExpr(5)
        assert make_binary("*", const_expr(4), const_expr(5)) == ConstExpr(20)

    def test_fortran_division_folds(self):
        assert make_binary("/", const_expr(-7), const_expr(2)) == ConstExpr(-3)

    def test_division_by_zero_becomes_bottom(self):
        assert make_binary("/", const_expr(1), const_expr(0)).is_bottom

    def test_bottom_propagates(self):
        assert make_binary("+", BOTTOM_EXPR, const_expr(1)).is_bottom
        assert make_unary("-", BOTTOM_EXPR).is_bottom
        assert make_intrinsic("mod", [BOTTOM_EXPR, const_expr(2)]).is_bottom

    def test_multiply_by_zero_beats_bottom(self):
        assert make_binary("*", const_expr(0), BOTTOM_EXPR) == ConstExpr(0)
        assert make_binary("*", BOTTOM_EXPR, const_expr(0)) == ConstExpr(0)

    def test_identity_add_zero(self):
        e = entry_expr("k")
        assert make_binary("+", e, const_expr(0)) == e
        assert make_binary("+", const_expr(0), e) == e

    def test_identity_mul_one(self):
        e = entry_expr("k")
        assert make_binary("*", e, const_expr(1)) == e
        assert make_binary("*", const_expr(1), e) == e

    def test_x_minus_x_is_zero(self):
        e = entry_expr("k")
        assert make_binary("-", e, e) == ConstExpr(0)

    def test_self_comparison_folds(self):
        e = entry_expr("k")
        assert make_binary("==", e, e) == ConstExpr(True)
        assert make_binary("<", e, e) == ConstExpr(False)

    def test_bool_not_confused_with_int_in_identities(self):
        # ConstExpr(False) must not be treated as the integer 0
        e = entry_expr("k")
        result = make_binary("+", e, ConstExpr(False))
        assert result != e  # no 'x + 0' identity for booleans

    def test_double_negation(self):
        e = entry_expr("k")
        assert make_unary("-", make_unary("-", e)) == e

    def test_unary_plus_transparent(self):
        e = entry_expr("k")
        assert make_unary("+", e) == e

    def test_intrinsic_folding(self):
        assert make_intrinsic("mod", [const_expr(7), const_expr(3)]) == ConstExpr(1)
        assert make_intrinsic("max", [const_expr(2), const_expr(9)]) == ConstExpr(9)

    def test_oversize_expression_collapses(self):
        expr = entry_expr("k")
        for i in range(300):
            expr = make_binary("+", expr, entry_expr(f"v{i}"))
        assert expr.is_bottom


class TestSupport:
    def test_const_support_empty(self):
        assert const_expr(5).support() == frozenset()

    def test_entry_support(self):
        assert entry_expr("k").support() == {"k"}

    def test_op_support_union(self):
        expr = make_binary("+", entry_expr("a"), entry_expr("b"))
        assert expr.support() == {"a", "b"}

    def test_support_is_exact_after_simplification(self):
        # (a - a) + b has support {b}, not {a, b}
        expr = make_binary(
            "+", make_binary("-", entry_expr("a"), entry_expr("a")), entry_expr("b")
        )
        assert expr.support() == {"b"}


class TestEvaluation:
    def test_entry_reads_env(self):
        assert entry_expr("k").evaluate({"k": 9}) == 9

    def test_missing_key_is_bottom(self):
        assert entry_expr("k").evaluate({}) is BOTTOM

    def test_top_propagates_optimistically(self):
        expr = make_binary("+", entry_expr("k"), const_expr(1))
        assert expr.evaluate({"k": TOP}) is TOP

    def test_bottom_beats_top(self):
        expr = make_binary("+", entry_expr("a"), entry_expr("b"))
        assert expr.evaluate({"a": TOP, "b": BOTTOM}) is BOTTOM

    def test_polynomial_evaluation(self):
        # 2*k + 1 at k = 20
        expr = make_binary(
            "+", make_binary("*", const_expr(2), entry_expr("k")), const_expr(1)
        )
        assert expr.evaluate({"k": 20}) == 41

    def test_division_by_zero_at_eval_time(self):
        expr = make_binary("/", const_expr(10), entry_expr("k"))
        assert expr.evaluate({"k": 0}) is BOTTOM

    def test_constant_only_value_is_gcp(self):
        assert constant_only_value(const_expr(5)) == 5
        assert constant_only_value(entry_expr("k")) is BOTTOM
        expr = make_binary("+", entry_expr("k"), const_expr(1))
        assert constant_only_value(expr) is BOTTOM

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_evaluate_agrees_with_python_on_add(self, a, b):
        expr = make_binary("+", entry_expr("x"), entry_expr("y"))
        assert expr.evaluate({"x": a, "y": b}) == a + b

    @given(st.integers(-100, 100))
    def test_simplified_equals_unsimplified(self, k):
        # (x * 1) + 0 must evaluate exactly like x
        expr = make_binary(
            "+", make_binary("*", entry_expr("x"), const_expr(1)), const_expr(0)
        )
        assert expr.evaluate({"x": k}) == k


class TestZeroAbsorptionAtEvalTime:
    """``0 * x`` is 0 for ANY lattice x — including ⊥ and ⊤ — when the
    zero arrives at *evaluate* time rather than build time. The build-time
    rule (``test_multiply_by_zero_beats_bottom``) alone missed the case
    where the zero flows in through the environment."""

    def setup_method(self):
        self.product = make_binary("*", entry_expr("a"), entry_expr("b"))

    def test_zero_times_bottom(self):
        assert self.product.evaluate({"a": 0, "b": BOTTOM}) == 0
        assert self.product.evaluate({"a": BOTTOM, "b": 0}) == 0

    def test_zero_times_top(self):
        assert self.product.evaluate({"a": 0, "b": TOP}) == 0
        assert self.product.evaluate({"a": TOP, "b": 0}) == 0

    def test_zero_times_missing_key(self):
        # an absent binding evaluates as ⊥ — still absorbed
        half = make_binary("*", entry_expr("a"), entry_expr("missing"))
        assert half.evaluate({"a": 0}) == 0

    def test_logical_false_does_not_absorb(self):
        # LOGICAL .false. == 0 in Python but is NOT the integer zero:
        # no absorption, so ⊥ wins as usual
        assert self.product.evaluate({"a": False, "b": BOTTOM}) is BOTTOM

    def test_ordinary_products_unchanged(self):
        assert self.product.evaluate({"a": 6, "b": 7}) == 42
        assert self.product.evaluate({"a": TOP, "b": 7}) is TOP
        assert self.product.evaluate({"a": BOTTOM, "b": 7}) is BOTTOM


class TestCompiledKernels:
    """compile_slab_expr builds closure kernels over slab codes (0 = ⊤,
    1 = ⊥, k >= 2 = constant pool entry k - 2) that must agree with the
    ``evaluate`` tree walk on every lattice input."""

    ENVS = [
        {"x": 3, "y": 4},
        {"x": 0, "y": BOTTOM},
        {"x": BOTTOM, "y": 0},
        {"x": TOP, "y": 5},
        {"x": BOTTOM, "y": TOP},
        {"x": False, "y": BOTTOM},
        {},
    ]

    SLOTS = {"x": 0, "y": 1}

    @staticmethod
    def encode(env, constants):
        codes = []
        for key in ("x", "y"):
            value = env.get(key, BOTTOM)
            if value is TOP:
                codes.append(0)
            elif value is BOTTOM:
                codes.append(1)
            else:
                constants.append(value)
                codes.append(len(constants) + 1)
        return codes

    def assert_kernel_agrees(self, expr):
        constants = []
        kernel = compile_slab_expr(expr, self.SLOTS, constants)
        for env in self.ENVS:
            got = kernel(self.encode(env, constants))
            want = expr.evaluate(env)
            assert (got.__class__, got) == (want.__class__, want), env

    def test_polynomial_kernel(self):
        expr = make_binary(
            "+",
            make_binary("*", const_expr(2), entry_expr("x")),
            entry_expr("y"),
        )
        self.assert_kernel_agrees(expr)

    def test_product_kernel_zero_absorption(self):
        self.assert_kernel_agrees(
            make_binary("*", entry_expr("x"), entry_expr("y"))
        )

    def test_division_kernel(self):
        self.assert_kernel_agrees(
            make_binary("/", const_expr(10), entry_expr("x"))
        )

    def test_unary_and_intrinsic_kernels(self):
        self.assert_kernel_agrees(make_unary("-", entry_expr("x")))
        self.assert_kernel_agrees(
            make_intrinsic("max", [entry_expr("x"), entry_expr("y")])
        )

    def test_bottom_kernel(self):
        assert compile_slab_expr(BOTTOM_EXPR, {}, [])([]) is BOTTOM

    def test_clear_bumps_generation_and_kernels_survive(self):
        # id-keyed caches must not outlive a clear that lets a new
        # expression recycle an old id; slab kernels close over slot
        # offsets and the pool, never over interned expressions, so a
        # clear leaves them valid
        expr = make_binary("+", entry_expr("x"), const_expr(777002))
        constants = []
        kernel = compile_slab_expr(expr, self.SLOTS, constants)
        generation = INTERN_TABLE.generation
        clear_intern_table()
        assert INTERN_TABLE.generation == generation + 1
        assert kernel(self.encode({"x": 1, "y": 0}, constants)) == 777003


class TestSubstitution:
    def test_substitute_entry(self):
        expr = make_binary("+", entry_expr("a"), const_expr(1))
        composed = substitute(expr, {"a": const_expr(4)})
        assert composed == ConstExpr(5)

    def test_substitute_with_expression(self):
        expr = make_binary("*", entry_expr("a"), const_expr(2))
        composed = substitute(expr, {"a": entry_expr("outer")})
        assert composed.support() == {"outer"}

    def test_missing_binding_is_bottom(self):
        expr = make_binary("+", entry_expr("a"), entry_expr("b"))
        assert substitute(expr, {"a": const_expr(1)}).is_bottom

    def test_substitute_resimplifies(self):
        expr = make_binary("-", entry_expr("a"), entry_expr("b"))
        composed = substitute(
            expr, {"a": entry_expr("z"), "b": entry_expr("z")}
        )
        assert composed == ConstExpr(0)


class TestDisplay:
    def test_strings(self):
        assert str(const_expr(5)) == "5"
        assert str(entry_expr("k")) == "entry(k)"
        assert str(BOTTOM_EXPR) == "⊥"
        expr = make_binary("+", entry_expr("a"), const_expr(1))
        assert "entry(a)" in str(expr)
        assert "+" in str(expr)

    def test_sizes(self):
        assert const_expr(1).size == 1
        expr = make_binary("+", entry_expr("a"), const_expr(1))
        assert expr.size == 3
