"""Tiny expression language for scalar functions of time.

Grammar (one variable ``t``, fixed function set):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | 't' | name '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^', so "-2^2" evaluates to -4.  Expressions
nest at most MAX_DEPTH levels deep (groups, call arguments, unary minus
signs, exponents), and their trees are at most MAX_DEPTH levels deep.
Evaluation is numpy-based and works elementwise on arrays of t values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExprSyntaxError, NonFiniteResult, UnbalancedParens, UnknownFunction

FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

DERIV_STEP = 1e-6
MAX_DEPTH = 200  # nesting levels of an expression, and levels of its tree


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Unary:
    operand: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    name: str
    argument: "ExprAst"


ExprAst = Union[Number, Variable, Unary, Binary, Call]


class _Parser:
    """Recursive descent: three frames per nesting level, MAX_DEPTH levels."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def parse(self) -> ExprAst:
        node = self.expr()
        if self.peek():
            if self.peek() == ")":
                raise UnbalancedParens("unmatched ')'", self.pos)
            self.error(f"unexpected character {self.peek()!r}")
        # evaluation recurses once per tree level; long + - * / chains deepen the tree too
        level, depth, fields = [node], 0, ("operand", "left", "right", "argument")
        while level:
            level, depth = [getattr(n, k) for n in level for k in fields if hasattr(n, k)], depth + 1
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
        return node

    def expr(self) -> ExprAst:
        # term (('+' | '-') term)*, term := unary (('*' | '/') unary)*, both left-associative
        total, add = None, ""
        while True:
            node = self.unary()
            while self.peek() and self.peek() in "*/":
                op = self.take()
                node = Binary(op, node, self.unary())
            total = node if total is None else Binary(add, total, node)
            if not (self.peek() and self.peek() in "+-"):
                return total
            add = self.take()

    def unary(self) -> ExprAst:
        # '-' unary | atom ('^' unary)?
        if self.depth >= MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        if self.peek() == "-":
            self.take()
            node = Unary(self.unary())
        else:
            node = self.atom()
            if self.peek() == "^":
                self.take()
                node = Binary("^", node, self.unary())
        self.depth -= 1
        return node

    def atom(self) -> ExprAst:
        c = self.peek()
        start, function = self.pos, None
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            function = self.name()
            if function is None:
                return Variable()
        elif c != "(":
            if not c:
                self.error("unexpected end of expression")
            self.error(f"unexpected character {c!r}")
        self.take()
        node = self.expr()
        if self.peek() != ")":
            raise UnbalancedParens("missing ')'", start)
        self.take()
        return node if function is None else Call(function, node)

    def number(self) -> Number:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        # allow scientific notation
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        try:
            return Number(float(self.text[start : self.pos]))
        except ValueError:
            raise ExprSyntaxError(f"bad number {self.text[start:self.pos]!r}", start)

    def name(self):
        """None for the variable t, else a function name followed by '('."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        word = self.text[start : self.pos]
        if word == "t":
            return None
        if self.peek() != "(":
            if word in FUNCTIONS:
                raise ExprSyntaxError(f"function {word!r} needs an argument", start)
            raise UnknownFunction(f"unknown name {word!r}", start)
        if word not in FUNCTIONS:
            raise UnknownFunction(f"unknown function {word!r}", start)
        return word


def parse_expr(text: str) -> ExprAst:
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    if not text.isascii():
        raise ExprSyntaxError("expression must be ASCII", 0)
    return _Parser(text).parse()


def eval_ast(node: ExprAst, t):
    """Evaluate at a scalar or ndarray t. Non-finite values propagate."""
    with np.errstate(all="ignore"):
        return _eval(node, t)


def _eval(node: ExprAst, t):
    if isinstance(node, Number):
        return node.value if np.isscalar(t) else np.full(np.shape(t), node.value)
    if isinstance(node, Variable):
        return t
    if isinstance(node, Unary):
        return -_eval(node.operand, t)
    if isinstance(node, Binary):
        left = _eval(node.left, t)
        right = _eval(node.right, t)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return np.divide(left, right)
        return np.power(np.float64(left) if np.isscalar(left) else left, right)
    return FUNCTIONS[node.name](np.float64(0.0) + _eval(node.argument, t))


@dataclass(frozen=True)
class ScalarFn:
    """A parsed scalar function of t."""

    ast: ExprAst
    source: str = ""

    @classmethod
    def parse(cls, text: str) -> "ScalarFn":
        return cls(parse_expr(text), text)

    @classmethod
    def constant(cls, value: float) -> "ScalarFn":
        return cls(Number(float(value)), repr(float(value)))

    def __call__(self, t):
        return eval_ast(self.ast, t)

    def eval_finite(self, t) -> float:
        v = float(eval_ast(self.ast, float(t)))
        if not math.isfinite(v):
            raise NonFiniteResult(f"{self.source or 'expression'} is not finite at t={t}")
        return v


def numeric_derivative(f: ScalarFn, t, h: float = DERIV_STEP):
    """Central difference, O(h^2) error, at a float or an array of times."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite d raises below
        d = (np.asarray(f(t + h), dtype=float) - f(t - h)) / (2 * h)
    if not np.all(np.isfinite(d)):
        raise NonFiniteResult(f"derivative not finite at t={np.broadcast_to(t, d.shape)[~np.isfinite(d)].flat[0]}")
    return d
