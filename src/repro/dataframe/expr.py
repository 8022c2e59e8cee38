"""Vectorized column expressions for the lazy query engine.

An :class:`Expr` is a small immutable DAG built by operator overloading::

    col("variant") == "RAJA_CUDA"
    (col("Avg time/rank") * col("reps")) > 1.0
    col("machine").is_in(["m0", "m1"]) & ~(col("tuning") == "block_128")

Expressions evaluate *vectorized* against a mapping of column name ->
NumPy array — never per row — and they know their referenced columns
(:meth:`Expr.references`) and their top-level conjuncts
(:meth:`Expr.conjuncts`), which is what lets the planner prune unused
columns and push predicates into scans.

Dictionary-encoded columns participate without being decoded: a scan
may bind a name to a :class:`DictColumn` (``u4`` codes + unique
values), and equality / membership comparisons against literals then
compare *codes*, not objects. Any other operation transparently decodes
first, so semantics never depend on the encoding.

:func:`parse_expr` turns the small ``--where`` predicate language
(Python comparison syntax over column names and literals) into an
expression tree.
"""

from __future__ import annotations

import ast
import operator
from collections.abc import Iterable, Mapping
from typing import Any

import numpy as np

__all__ = [
    "DictColumn",
    "Expr",
    "col",
    "lit",
    "parse_expr",
]


class DictColumn:
    """A dictionary-encoded column: ``u4`` codes into unique ``values``.

    The ingest cache stores string columns this way; scans hand them to
    expressions as-is so equality predicates run over the code array.
    ``decode()`` materializes the plain object array.
    """

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: np.ndarray) -> None:
        self.codes = codes
        self.values = values

    def __len__(self) -> int:
        return len(self.codes)

    def code_of(self, value: Any) -> int | None:
        """The code for ``value``, or None when it never occurs."""
        for i, v in enumerate(self.values):
            if v == value or (v is None and value is None):
                return i
        return None

    def decode(self) -> np.ndarray:
        if not len(self.values):
            return np.empty(len(self.codes), dtype=object)
        return self.values[self.codes]

    def take(self, indices: np.ndarray) -> "DictColumn":
        return DictColumn(self.codes[indices], self.values)


def _materialize(value: Any) -> Any:
    """Decode a :class:`DictColumn` operand; pass everything else through."""
    if isinstance(value, DictColumn):
        return value.decode()
    return value


def _object_compare(a: Any, b: Any, op: str) -> Any:
    """Elementwise ==/!= that never errors on mixed object columns."""
    result = np.equal(a, b) if op == "eq" else np.not_equal(a, b)
    return result


_ORDER = {
    "lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


def _ordered(a: Any, b: Any, op: str) -> Any:
    """Elementwise ordering; in object operands a missing value matches nothing.

    An object column holds None where a profile lacks the attribute, and
    ``None < 3`` raises; here it is simply False. Typed operands keep
    NumPy's vectorized compare.
    """
    fn = _ORDER[op]
    if not any(isinstance(v, np.ndarray) and v.dtype == object for v in (a, b)):
        return fn(a, b)
    row = np.frompyfunc(
        lambda x, y: x is not None and y is not None and bool(fn(x, y)), 2, 1
    )
    return row(a, b).astype(bool)


class Expr:
    """Base class: operator overloads build the tree."""

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Cmp(self, _wrap(other), "eq")

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Cmp(self, _wrap(other), "ne")

    def __lt__(self, other: Any) -> "Expr":
        return Cmp(self, _wrap(other), "lt")

    def __le__(self, other: Any) -> "Expr":
        return Cmp(self, _wrap(other), "le")

    def __gt__(self, other: Any) -> "Expr":
        return Cmp(self, _wrap(other), "gt")

    def __ge__(self, other: Any) -> "Expr":
        return Cmp(self, _wrap(other), "ge")

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return BinOp(self, _wrap(other), "add")

    def __radd__(self, other: Any) -> "Expr":
        return BinOp(_wrap(other), self, "add")

    def __sub__(self, other: Any) -> "Expr":
        return BinOp(self, _wrap(other), "sub")

    def __rsub__(self, other: Any) -> "Expr":
        return BinOp(_wrap(other), self, "sub")

    def __mul__(self, other: Any) -> "Expr":
        return BinOp(self, _wrap(other), "mul")

    def __rmul__(self, other: Any) -> "Expr":
        return BinOp(_wrap(other), self, "mul")

    def __truediv__(self, other: Any) -> "Expr":
        return BinOp(self, _wrap(other), "div")

    def __rtruediv__(self, other: Any) -> "Expr":
        return BinOp(_wrap(other), self, "div")

    # -- boolean combinators ----------------------------------------------
    def __and__(self, other: Any) -> "Expr":
        return BoolOp(self, _wrap(other), "and")

    def __rand__(self, other: Any) -> "Expr":
        return BoolOp(_wrap(other), self, "and")

    def __or__(self, other: Any) -> "Expr":
        return BoolOp(self, _wrap(other), "or")

    def __ror__(self, other: Any) -> "Expr":
        return BoolOp(_wrap(other), self, "or")

    def __invert__(self) -> "Expr":
        return Not(self)

    def __bool__(self) -> bool:
        # Truth-testing an expression is always a bug (``and``/``or``/
        # ``if`` in would-be-vectorized predicates); the loud TypeError
        # is also how Frame.filter detects a non-vectorizable callable
        # and falls back to its row path.
        raise TypeError(
            "Expr has no truth value; combine with & | ~ instead of "
            "and/or/not"
        )

    def __hash__(self) -> int:  # __eq__ is overloaded; identity hash
        return id(self)

    # -- convenience methods ----------------------------------------------
    def is_in(self, values: Iterable[Any]) -> "Expr":
        return IsIn(self, list(values))

    def is_null(self) -> "Expr":
        return IsNull(self)

    # -- analysis ----------------------------------------------------------
    def references(self) -> set[str]:
        """Every column name this expression reads."""
        out: set[str] = set()
        self._collect_refs(out)
        return out

    def _collect_refs(self, out: set[str]) -> None:
        raise NotImplementedError

    def conjuncts(self) -> list["Expr"]:
        """Split a top-level ``&`` chain into its factors."""
        if isinstance(self, BoolOp) and self.op == "and":
            return self.left.conjuncts() + self.right.conjuncts()
        return [self]

    # -- evaluation --------------------------------------------------------
    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        """Vectorized evaluation over ``columns`` (arrays or DictColumns)."""
        raise NotImplementedError


class Col(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _collect_refs(self, out: set[str]) -> None:
        out.add(self.name)

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        try:
            return columns[self.name]
        except KeyError:
            raise KeyError(
                f"no column {self.name!r}; have {sorted(columns)}"
            ) from None

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def _collect_refs(self, out: set[str]) -> None:
        pass

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Cmp(Expr):
    __slots__ = ("left", "right", "op")

    _OPS = {
        "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    }

    def __init__(self, left: Expr, right: Expr, op: str) -> None:
        self.left = left
        self.right = right
        self.op = op

    def _collect_refs(self, out: set[str]) -> None:
        self.left._collect_refs(out)
        self.right._collect_refs(out)

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        a = self.left.evaluate(columns)
        b = self.right.evaluate(columns)
        # Code-space equality: compare u4 codes against the literal's
        # code without decoding a single string.
        if self.op in ("eq", "ne"):
            dict_side, other = None, None
            if isinstance(a, DictColumn) and not isinstance(b, (DictColumn, np.ndarray)):
                dict_side, other = a, b
            elif isinstance(b, DictColumn) and not isinstance(a, (DictColumn, np.ndarray)):
                dict_side, other = b, a
            if dict_side is not None:
                code = dict_side.code_of(other)
                if code is None:
                    full = np.zeros(len(dict_side), dtype=bool)
                else:
                    full = dict_side.codes == code
                return full if self.op == "eq" else ~full
        a, b = _materialize(a), _materialize(b)
        if self.op == "eq":
            return _object_compare(a, b, "eq")
        if self.op == "ne":
            return _object_compare(a, b, "ne")
        return _ordered(a, b, self.op)

    def __repr__(self) -> str:
        return f"({self.left!r} {self._OPS[self.op]} {self.right!r})"


class BinOp(Expr):
    __slots__ = ("left", "right", "op")

    _OPS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}

    def __init__(self, left: Expr, right: Expr, op: str) -> None:
        self.left = left
        self.right = right
        self.op = op

    def _collect_refs(self, out: set[str]) -> None:
        self.left._collect_refs(out)
        self.right._collect_refs(out)

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        a = _materialize(self.left.evaluate(columns))
        b = _materialize(self.right.evaluate(columns))
        if self.op == "add":
            return a + b
        if self.op == "sub":
            return a - b
        if self.op == "mul":
            return a * b
        return a / b

    def __repr__(self) -> str:
        return f"({self.left!r} {self._OPS[self.op]} {self.right!r})"


class BoolOp(Expr):
    __slots__ = ("left", "right", "op")

    def __init__(self, left: Expr, right: Expr, op: str) -> None:
        self.left = left
        self.right = right
        self.op = op

    def _collect_refs(self, out: set[str]) -> None:
        self.left._collect_refs(out)
        self.right._collect_refs(out)

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        a = np.asarray(_materialize(self.left.evaluate(columns)), dtype=bool)
        b = np.asarray(_materialize(self.right.evaluate(columns)), dtype=bool)
        return (a & b) if self.op == "and" else (a | b)

    def __repr__(self) -> str:
        symbol = "&" if self.op == "and" else "|"
        return f"({self.left!r} {symbol} {self.right!r})"


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def _collect_refs(self, out: set[str]) -> None:
        self.operand._collect_refs(out)

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        return ~np.asarray(_materialize(self.operand.evaluate(columns)), dtype=bool)

    def __repr__(self) -> str:
        return f"~{self.operand!r}"


class IsIn(Expr):
    __slots__ = ("operand", "values")

    def __init__(self, operand: Expr, values: list[Any]) -> None:
        self.operand = operand
        self.values = values

    def _collect_refs(self, out: set[str]) -> None:
        self.operand._collect_refs(out)

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        target = self.operand.evaluate(columns)
        if isinstance(target, DictColumn):
            codes = [
                c for c in (target.code_of(v) for v in self.values)
                if c is not None
            ]
            if not codes:
                return np.zeros(len(target), dtype=bool)
            return np.isin(target.codes, np.asarray(codes, dtype=target.codes.dtype))
        target = np.asarray(target)
        mask = np.zeros(len(target), dtype=bool)
        for v in self.values:
            mask |= np.asarray(_object_compare(target, v, "eq"), dtype=bool)
        return mask

    def __repr__(self) -> str:
        return f"{self.operand!r}.is_in({self.values!r})"


class IsNull(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def _collect_refs(self, out: set[str]) -> None:
        self.operand._collect_refs(out)

    def evaluate(self, columns: Mapping[str, Any]) -> Any:
        target = self.operand.evaluate(columns)
        if isinstance(target, DictColumn):
            code = target.code_of(None)
            if code is None:
                return np.zeros(len(target), dtype=bool)
            return target.codes == code
        target = np.asarray(target)
        if target.dtype.kind == "f":
            return np.isnan(target)
        if target.dtype == object:
            none_mask = np.frompyfunc(lambda v: v is None, 1, 1)(target)
            nan_mask = np.frompyfunc(
                lambda v: isinstance(v, float) and v != v, 1, 1
            )(target)
            return (none_mask | nan_mask).astype(bool)
        return np.zeros(len(target), dtype=bool)

    def __repr__(self) -> str:
        return f"{self.operand!r}.is_null()"


def col(name: str) -> Col:
    """A reference to the column ``name``."""
    return Col(str(name))


def lit(value: Any) -> Lit:
    """A literal constant operand."""
    return Lit(value)


def _wrap(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Lit(value)


# ----------------------------------------------------------- --where parser
_CMP_NODES = {
    ast.Eq: "eq", ast.NotEq: "ne", ast.Lt: "lt", ast.LtE: "le",
    ast.Gt: "gt", ast.GtE: "ge",
}
_ARITH_NODES = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}


def parse_expr(text: str) -> Expr:
    """Parse the ``--where`` predicate language into an :class:`Expr`.

    Supported: column names as bare identifiers, string/number/bool/None
    literals, the six comparisons, ``in (…)`` membership, arithmetic
    ``+ - * /``, and ``and`` / ``or`` / ``not``. Anything else (calls,
    subscripts, attribute access) is rejected — the predicate runs over
    untrusted CLI input and must stay declarative.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"invalid --where expression: {exc.msg}") from exc
    return _from_ast(tree.body)


def _from_ast(node: ast.AST) -> Expr:
    if isinstance(node, ast.BoolOp):
        op = "and" if isinstance(node.op, ast.And) else "or"
        expr = _from_ast(node.values[0])
        for value in node.values[1:]:
            expr = BoolOp(expr, _from_ast(value), op)
        return expr
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return Not(_from_ast(node.operand))
        if isinstance(node.op, ast.USub):
            operand = _from_ast(node.operand)
            if isinstance(operand, Lit) and isinstance(operand.value, (int, float)):
                return Lit(-operand.value)
        raise ValueError(f"unsupported operator in --where: {ast.dump(node.op)}")
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1:
            raise ValueError("chained comparisons are not supported in --where")
        left = _from_ast(node.left)
        op_node, right_node = node.ops[0], node.comparators[0]
        if isinstance(op_node, ast.In):
            return IsIn(left, _literal_list(right_node))
        if isinstance(op_node, ast.NotIn):
            return Not(IsIn(left, _literal_list(right_node)))
        op = _CMP_NODES.get(type(op_node))
        if op is None:
            raise ValueError(
                f"unsupported comparison in --where: {type(op_node).__name__}"
            )
        return Cmp(left, _from_ast(right_node), op)
    if isinstance(node, ast.BinOp):
        op = _ARITH_NODES.get(type(node.op))
        if op is None:
            raise ValueError(
                f"unsupported operator in --where: {type(node.op).__name__}"
            )
        return BinOp(_from_ast(node.left), _from_ast(node.right), op)
    if isinstance(node, ast.Name):
        return Col(node.id)
    if isinstance(node, ast.Constant):
        if node.value is None or isinstance(node.value, (str, int, float, bool)):
            return Lit(node.value)
        raise ValueError(f"unsupported literal in --where: {node.value!r}")
    raise ValueError(f"unsupported syntax in --where: {type(node).__name__}")


def _literal_list(node: ast.AST) -> list[Any]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        raise ValueError("'in' in --where requires a literal list/tuple")
    out = []
    for element in node.elts:
        expr = _from_ast(element)
        if not isinstance(expr, Lit):
            raise ValueError("'in' in --where requires literal members")
        out.append(expr.value)
    return out
