"""Run configuration: parameter box, eigenvalue window, coefficient family,
mesh resolution, matching weights, verification tolerances and level caps.

Configs are read from INI-style files with sections [problem], [tolerances],
[grid] and [output]; see the repository README for the full schema.
Coefficient entries are small arithmetic expressions over mu1..mud.  Python's
own parser (``ast.parse``) reads them, and a whitelist walk turns its tree into
the Num/Var/Neg/BinOp/Pow nodes below; nothing is passed to eval().
"""
from __future__ import annotations

import ast
import configparser
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


class ConfigError(ValueError):
    """Schema or invariant violation in a run configuration."""


class CoefficientError(ValueError):
    """Evaluation failure of a coefficient matrix (division by zero, not SPD)."""


# ---------------------------------------------------------------------------
# Coefficient expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float

    def __call__(self, mu):
        return self.value


@dataclass(frozen=True)
class Var:
    index: int  # 0-based parameter axis

    def __call__(self, mu):
        return mu[self.index]


@dataclass(frozen=True)
class Neg:
    arg: "Expr"

    def __call__(self, mu):
        return -self.arg(mu)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"

    def __call__(self, mu):
        a, b = self.left(mu), self.right(mu)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b == 0.0:
            raise CoefficientError("division by zero in coefficient expression")
        return a / b


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    def __call__(self, mu):
        v = self.base(mu)
        if v == 0.0 and self.exponent < 0:
            raise CoefficientError("division by zero in coefficient expression")
        return v ** self.exponent


Expr = Num | Var | Neg | BinOp | Pow


_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}

# Evaluating, comparing and pickling an Expr recurse about twice per level, so
# 100 levels stay well below Python's default recursion limit of 1000.
MAX_EXPRESSION_DEPTH = 100


def _build(node: ast.expr, dim: int) -> Expr:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return Num(float(node.value))
    if isinstance(node, ast.Name):
        index = re.fullmatch(r"mu([0-9]+)", node.id)
        if index is None or not 1 <= int(index[1]) <= dim:
            raise ConfigError(f"{node.id!r} is not one of mu1..mu{dim}")
        return Var(int(index[1]) - 1)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        arg = _build(node.operand, dim)
        return arg if isinstance(node.op, ast.UAdd) else Neg(arg)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exponent = ast.unparse(node.right)   # an integer literal prints as one, sign included
        if not re.fullmatch(r"[-+]?[0-9]+", exponent):
            raise ConfigError(f"exponent {exponent} is not an integer")
        return Pow(_build(node.left, dim), int(exponent))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return BinOp(_BINOPS[type(node.op)], _build(node.left, dim), _build(node.right, dim))
    raise ConfigError(f"unsupported {type(getattr(node, 'op', node)).__name__}")


def parse_expression(text: str, dim: int) -> Expr:
    """Parse a coefficient expression over mu1..mu<dim> into an Expr tree.

    ``^`` is the power operator.  Python's parser reads the text with ``^``
    rewritten to ``**``, and the walk accepts only numbers, mu1..mu<dim>,
    unary + and -, + - * / and powers with an integer literal exponent.
    Python's expression tree may be at most MAX_EXPRESSION_DEPTH levels deep
    (``mu1`` is one level, ``-mu1`` two).
    """
    if "**" in text:
        raise ConfigError(f"expression {text!r}: write powers with ^, not **")
    source = " ".join(text.split()).replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval").body
        depth, level = 0, [tree]
        while level:   # breadth first, so that no recursion precedes the check
            depth += 1
            level = [c for node in level for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)]
        if depth > MAX_EXPRESSION_DEPTH:
            raise ConfigError(f"nested {depth} levels deep, more than {MAX_EXPRESSION_DEPTH}")
        return _build(tree, dim)
    except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
        # ValueError covers ConfigError from the walk and null bytes in the text;
        # RecursionError comes from Python's own parser
        raise ConfigError(f"expression {text!r}: {exc}") from None


_ENTRIES = ("c11", "c12", "c21", "c22")


@dataclass(frozen=True)
class CoeffSpec:
    """The four entries of the 2x2 coefficient matrix as expression trees.

    The off-diagonal sources must parse to the same expression, which makes
    every evaluation symmetric by construction.
    """

    dim: int
    sources: tuple[str, str, str, str]  # c11, c12, c21, c22
    entries: tuple[Expr, Expr, Expr, Expr]

    @classmethod
    def from_sources(cls, dim: int, c11: str, c12: str, c21: str, c22: str) -> "CoeffSpec":
        entries = []
        for key, text in zip(_ENTRIES, (c11, c12, c21, c22)):
            try:
                entries.append(parse_expression(text, dim))
            except ConfigError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
        if entries[1] != entries[2]:
            raise ConfigError("c12 and c21 must parse to the same expression")
        return cls(dim=dim, sources=(c11, c12, c21, c22), entries=tuple(entries))


def eval_coefficient(spec: CoeffSpec, mu: Sequence[float]) -> np.ndarray:
    """Evaluate the coefficient matrix at a physical parameter value.

    Returns a symmetric 2x2 array; raises CoefficientError if the result is
    not symmetric positive definite (checked via trace and determinant).
    """
    c11, c12, c21, c22 = (e(mu) for e in spec.entries)
    mat = np.array([[c11, c12], [c21, c22]], dtype=float)
    trace = mat[0, 0] + mat[1, 1]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if not (np.isfinite(mat).all() and trace > 0.0 and det > 0.0):
        raise CoefficientError(f"coefficient matrix at mu={tuple(mu)} is not SPD: {mat.tolist()}")
    return mat


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated, immutable description of one tracking run."""

    dim: int
    box: tuple[tuple[float, float], ...]
    window: tuple[float, float]
    coefficient: CoeffSpec
    mesh_n: int
    w1: float
    w2: float
    t_pi: float
    t_lambda: float
    initial_level: int
    max_level: int
    cache_dir: Path
    output_dir: Path

    def __post_init__(self):
        for key in ("box", "window", "w1", "w2", "t_pi", "t_lambda"):
            numbers = np.ravel(getattr(self, key))
            if not np.isfinite(numbers).all():
                raise ConfigError(f"key {key!r}: numbers must be finite, got {numbers.tolist()}")
        for a, b in self.box:
            if not a < b:
                raise ConfigError(f"degenerate box axis [{a}, {b}]")
        if not self.window[0] < self.window[1]:
            raise ConfigError(f"degenerate window {self.window}")
        if self.w1 < 0 or self.w2 < 0 or self.w1 + self.w2 <= 0:
            raise ConfigError("weights must be nonnegative with w1 + w2 > 0")
        if not 0.0 < self.t_pi < 1.0:
            raise ConfigError("t_pi must lie in (0, 1)")
        if self.t_lambda <= 0.0:
            raise ConfigError("t_lambda must be positive")
        if self.mesh_n < 3:
            raise ConfigError("mesh_n must be at least 3")
        if self.initial_level < 0:
            raise ConfigError("initial_level must be nonnegative")
        if self.max_level < 0:
            raise ConfigError("max_level must be nonnegative")


def _intervals(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in text.split(";"):
        pieces = [p.strip() for p in part.split(",")]
        if len(pieces) != 2:
            raise ConfigError(f"expected 'lo, hi' pairs, got {part!r}")
        try:
            out.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ConfigError(f"non-numeric bound in {part!r}") from None
    return tuple(out)


def _window(text: str) -> tuple[float, float]:
    intervals = _intervals(text)
    if len(intervals) != 1:
        raise ConfigError("expected a single interval")
    return intervals[0]


def _number(convert, noun: str):
    def read(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"expected {noun}, got {text!r}") from None

    return read


_FLOAT, _INT = _number(float, "a number"), _number(int, "an integer")

# section -> key -> (reader, default); a default of None marks a required key.
# A reader turns the key's text into its value or raises ConfigError.
_KEYS = {
    "problem": {
        "box": (_intervals, None),
        "window": (_window, None),
        **{key: (str, None) for key in _ENTRIES},
        "mesh_n": (_INT, 65),
    },
    "tolerances": {key: (_FLOAT, None) for key in ("w1", "w2", "t_pi", "t_lambda")},
    "grid": {"initial_level": (_INT, 1), "max_level": (_INT, 10)},
    "output": {
        "cache_dir": (Path, Path(".eigentrack_cache")),
        "output_dir": (Path, Path("eigentrack_out")),
    },
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Values are taken literally: no ``%`` interpolation.  No section can be
    named ``""``, so ``[DEFAULT]`` is an ordinary section here, and an
    unknown one.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    for name, keys in _KEYS.items():
        for key in sorted(k for k, (_, default) in keys.items() if default is None):
            if name not in parser:
                raise ConfigError(f"missing section [{name}]")
            if key not in parser[name]:
                raise ConfigError(f"missing key {key!r} in section [{name}]")

    values = {}
    for name, keys in _KEYS.items():
        for key, (read, default) in keys.items():
            try:
                values[key] = read(parser[name][key]) if parser.has_option(name, key) else default
            except ConfigError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
    box = values.pop("box")
    coefficient = CoeffSpec.from_sources(len(box), *(values.pop(key) for key in _ENTRIES))
    return RunConfig(dim=len(box), box=box, coefficient=coefficient, **values)


def parse_config_file(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())
