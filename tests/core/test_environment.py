"""Unit tests for typing environments and the distance lattice."""

import pytest

from repro.core.environment import (
    BOOL,
    NUM,
    TypeEnv,
    VarEntry,
    distance_leq,
    env_from_function,
    join_distance,
)
from repro.core.errors import ShadowDPTypeError
from repro.lang import ast
from repro.lang.parser import parse_expr, parse_function


class TestDistanceLattice:
    def test_equal_distances_join_to_themselves(self):
        d = parse_expr("x + 1")
        assert join_distance(d, parse_expr("1 + x")) is not ast.STAR or True
        assert join_distance(d, d) == d

    def test_syntactically_equal_after_simplify(self):
        assert join_distance(parse_expr("x + 0"), parse_expr("x")) == ast.Var("x")

    def test_different_distances_join_to_star(self):
        assert ast.is_star(join_distance(parse_expr("3"), parse_expr("4")))

    def test_star_is_top(self):
        assert ast.is_star(join_distance(ast.STAR, parse_expr("3")))
        assert ast.is_star(join_distance(parse_expr("3"), ast.STAR))

    def test_order(self):
        assert distance_leq(parse_expr("3"), ast.STAR)
        assert not distance_leq(ast.STAR, parse_expr("3"))
        assert distance_leq(parse_expr("3"), parse_expr("3"))
        assert not distance_leq(parse_expr("3"), parse_expr("4"))


class TestTypeEnv:
    def test_set_and_lookup(self):
        env = TypeEnv().set("x", VarEntry(NUM, parse_expr("1"), ast.ZERO))
        assert env.lookup("x").aligned == ast.Real(1)

    def test_lookup_unbound_raises(self):
        with pytest.raises(ShadowDPTypeError):
            TypeEnv().lookup("ghost")

    def test_set_is_persistent(self):
        env1 = TypeEnv()
        env2 = env1.set("x", VarEntry(NUM))
        assert "x" not in env1
        assert "x" in env2

    def test_distances_normalised_on_set(self):
        env = TypeEnv().set("x", VarEntry(NUM, parse_expr("y + 0"), ast.ZERO))
        assert env.lookup("x").aligned == ast.Var("y")

    def test_aligned_expr_resolves_star_to_hat(self):
        env = TypeEnv().set("x", VarEntry(NUM, ast.STAR, ast.STAR))
        assert env.aligned_expr("x") == ast.Hat("x", ast.ALIGNED)
        assert env.shadow_expr("x") == ast.Hat("x", ast.SHADOW)

    def test_element_expr_for_star_list(self):
        env = TypeEnv().set("q", VarEntry(NUM, ast.STAR, ast.STAR, is_list=True))
        idx = ast.Var("i")
        resolved = env.element_expr("q", idx, ast.ALIGNED)
        assert resolved == ast.Index(ast.Hat("q", ast.ALIGNED), idx)

    def test_element_expr_for_constant_list(self):
        env = TypeEnv().set("q", VarEntry(NUM, ast.ONE, ast.ONE, is_list=True))
        assert env.element_expr("q", ast.Var("i"), ast.ALIGNED) == ast.ONE

    def test_join_pointwise(self):
        a = TypeEnv().set("x", VarEntry(NUM, parse_expr("1"), ast.ZERO))
        b = TypeEnv().set("x", VarEntry(NUM, parse_expr("2"), ast.ZERO))
        joined = a.join(b)
        assert ast.is_star(joined.lookup("x").aligned)
        assert joined.lookup("x").shadow == ast.ZERO

    def test_join_keeps_one_sided_vars(self):
        a = TypeEnv().set("x", VarEntry(NUM))
        b = TypeEnv().set("y", VarEntry(BOOL))
        joined = a.join(b)
        assert "x" in joined and "y" in joined

    def test_join_kind_conflict_raises(self):
        a = TypeEnv().set("x", VarEntry(NUM))
        b = TypeEnv().set("x", VarEntry(BOOL))
        with pytest.raises(ShadowDPTypeError):
            a.join(b)

    def test_leq(self):
        low = TypeEnv().set("x", VarEntry(NUM, parse_expr("1"), ast.ZERO))
        high = TypeEnv().set("x", VarEntry(NUM, ast.STAR, ast.ZERO))
        assert low.leq(high)
        assert not high.leq(low)

    def test_join_is_upper_bound(self):
        a = TypeEnv().set("x", VarEntry(NUM, parse_expr("1"), parse_expr("2")))
        b = TypeEnv().set("x", VarEntry(NUM, parse_expr("1"), parse_expr("3")))
        joined = a.join(b)
        assert a.leq(joined) and b.leq(joined)

    def test_bool_vars(self):
        env = TypeEnv().set("f", VarEntry(BOOL)).set("x", VarEntry(NUM))
        assert env.bool_vars() == frozenset({"f"})

    def test_map_distances(self):
        env = TypeEnv().set("x", VarEntry(NUM, parse_expr("c + 0"), ast.STAR))
        mapped = env.map_distances(lambda d: ast.BinOp("+", d, ast.ONE))
        assert mapped.lookup("x").aligned == parse_expr("c + 1")
        assert ast.is_star(mapped.lookup("x").shadow)  # stars untouched

    def test_map_distances_keeps_unchanged_entries(self):
        env = TypeEnv().set("x", VarEntry(NUM, parse_expr("c"), ast.ZERO))
        env = env.set("y", VarEntry(NUM, parse_expr("d"), ast.STAR))
        assert env.map_distances(lambda d: d) is env
        mapped = env.map_distances(
            lambda d: ast.ONE if d == parse_expr("c") else d
        )
        assert mapped.lookup("x").aligned == ast.ONE
        assert mapped.get("y") is env.get("y")


class TestEnvFromFunction:
    def test_parameters_enter_with_declared_distances(self):
        fn = parse_function(
            """
            function F(eps: num<0,0>, q: list num<*,*>) returns y: num<0,0>
            { y := 0; return y; }
            """
        )
        env = env_from_function(fn)
        assert env.lookup("eps").aligned == ast.ZERO
        q = env.lookup("q")
        assert q.is_list and ast.is_star(q.aligned)

    def test_list_return_variable_is_seeded(self):
        fn = parse_function(
            """
            function F(x: num) returns out: list bool
            { out := true :: out; return out; }
            """
        )
        env = env_from_function(fn)
        assert env.lookup("out").is_list
        assert env.lookup("out").kind == BOOL

    def test_scalar_return_variable_not_seeded(self):
        fn = parse_function(
            "function F(x: num) returns y: num { y := 0; return y; }"
        )
        assert "y" not in env_from_function(fn)
