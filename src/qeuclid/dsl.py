"""A small expression language over the symbolic carriers.

Grammar (LL(1), whitespace-insensitive, ASCII only):

    pipeline := sum | operator '|>' pipeline
    sum      := product (('+' | '-') product)*
    product  := atom ('*' atom)*
    atom     := coordinate | literal | call | operator '(' pipeline ')'
              | '(' pipeline ')' | '-' atom
    call     := 'star' '(' pipeline ',' pipeline ')'
              | 'exp' '[' NAME ']' '(' INT ')'
              | 'conj' '(' pipeline ')'
              | 'translate' ['[' NAME ']'] '(' pipeline ')'
              | 'invert' ['[' NAME ']'] '(' pipeline ')'
    operator := ('d' | 'dhat' | 'dinv') '[' INDEX ']'
    coordinate := x+ | x3 | x- | t | p- | p3 | p+
    literal  := INT | INT '/' INT | 'i' | 'q' ['^' SIGNED_INT]

``op |> expr`` and ``op(expr)`` both apply an operator.  Syntax errors
carry the offending position.  Parsing then printing a canonical-form
expression is the identity.  Expressions nest at most ``MAX_DEPTH`` deep.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .qarith import QScalar, I, GRat
from .starcalc import Poly, coord_variable, star_product
from .qcalculus import DerivativeLabel, apply_derivative, inverse_partial
from .qexp import build_exponential, q_translate, q_invert, VARIANTS


class SyntaxErr(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_TOKEN = re.compile(
    r"\s*(x\+|x3|x-|p\+|p3|p-|\|>|\^|[0-9]+|[A-Za-z_]+|[()\[\],+*/-])"
)

COORDS = ("x+", "x3", "x-", "t", "p-", "p3", "p+")
OPS = ("d", "dhat", "dinv")
CALLS = ("star", "conj", "translate", "invert", "exp")
INDICES = ("+", "3", "-", "0")

#: the deepest nesting the parser accepts, both in brackets, calls and
#: operators around a token and in syntax-tree height (a chain a + b + c
#: nests to the left).  It keeps the parser (four frames per bracket),
#: ``evaluate`` and the printers well inside Python's recursion limit.
MAX_DEPTH = 100


def tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            raise SyntaxErr(f"unexpected character {src[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(src)))
    return tokens


# AST: tuples
#   ("coord", name) ("lit", QScalar) ("neg", a) ("add", a, b) ("sub", a, b)
#   ("mul", a, b) ("star", a, b) ("conj", a) ("exp", variant, N)
#   ("translate", kind, a) ("invert", kind, a) ("apply", op, index, a)


class Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.k = 0
        self.depth = 0  # brackets, calls and operators open at the cursor
        self.heights = {}  # id(node) -> (height, node) for inner nodes

    def node(self, pos, *parts):
        """An inner AST node; leaves are the children not in ``heights``."""
        height = 1 + max(
            (self.heights.get(id(p), (1,))[0] for p in parts if isinstance(p, tuple)),
            default=0,
        )
        if height > MAX_DEPTH:
            raise SyntaxErr("expression nested too deeply", pos)
        self.heights[id(parts)] = (height, parts)  # holding it keeps its id unique
        return parts

    def nested(self, parse):
        """Run ``parse`` one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise SyntaxErr("expression nested too deeply", self.pos())
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.k][0]

    def pos(self):
        return self.tokens[self.k][1]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, what):
        tok, pos = self.next()
        if tok != what:
            raise SyntaxErr(f"expected {what!r}, found {tok!r}", pos)
        return tok

    def parse(self):
        node = self.pipeline()
        tok, pos = self.tokens[self.k]
        if tok is not None:
            raise SyntaxErr(f"trailing input {tok!r}", pos)
        return node

    def pipeline(self):
        if self.peek() in OPS:
            save, pos = self.k, self.pos()
            op, index = self.operator()
            if self.peek() == "|>":
                self.next()
                return self.node(pos, "apply", op, index, self.nested(self.pipeline))
            self.k = save  # operator used in call form; re-parse as atom
        return self.sum()

    def operator(self):
        op, _ = self.next()
        self.expect("[")
        tok, pos = self.next()
        if tok not in INDICES:
            raise SyntaxErr(f"bad derivative index {tok!r}", pos)
        self.expect("]")
        return op, tok

    def sum(self):
        node = self.product()
        while self.peek() in ("+", "-"):
            op, pos = self.next()
            node = self.node(pos, "add" if op == "+" else "sub", node, self.product())
        return node

    def product(self):
        node = self.atom()
        while self.peek() == "*":
            _, pos = self.next()
            node = self.node(pos, "mul", node, self.atom())
        return node

    def atom(self):
        return self.nested(self._atom)

    def _atom(self):
        tok = self.peek()
        pos = self.pos()
        if tok == "-":
            self.next()
            return self.node(pos, "neg", self.atom())
        if tok == "(":
            self.next()
            node = self.pipeline()
            self.expect(")")
            return node
        if tok in COORDS:
            self.next()
            return ("coord", tok)
        if tok == "i":
            self.next()
            return ("lit", I)
        if tok == "q":
            self.next()
            e = 1
            if self.peek() == "^":
                self.next()
                e = self.signed_int()
            return ("lit", QScalar.q(e))
        if tok is not None and tok.isdigit():
            self.next()
            num = int(tok)
            if self.peek() == "/":
                self.next()
                dtok, dpos = self.next()
                if not (dtok or "").isdigit():
                    raise SyntaxErr("expected denominator", dpos)
                if int(dtok) == 0:
                    raise SyntaxErr("zero denominator", dpos)
                return ("lit", QScalar.from_rational(Fraction(num, int(dtok))))
            return ("lit", QScalar.from_rational(num))
        if tok in OPS:
            op, index = self.operator()
            self.expect("(")
            inner = self.pipeline()
            self.expect(")")
            return self.node(pos, "apply", op, index, inner)
        if tok == "star":
            self.next()
            self.expect("(")
            a = self.pipeline()
            self.expect(",")
            b = self.pipeline()
            self.expect(")")
            return self.node(pos, "star", a, b)
        if tok == "conj":
            self.next()
            self.expect("(")
            a = self.pipeline()
            self.expect(")")
            return self.node(pos, "conj", a)
        if tok in ("translate", "invert"):
            self.next()
            kind = None
            if self.peek() == "[":
                self.next()
                kind, kpos = self.next()
                self.expect("]")
            if tok == "translate":
                kind = kind or "plus"
                if kind not in ("plus", "plusbar"):
                    raise SyntaxErr(f"bad translation kind {kind!r}", pos)
            else:
                kind = kind or "minus"
                if kind not in ("minus", "minusbar"):
                    raise SyntaxErr(f"bad inversion kind {kind!r}", pos)
            self.expect("(")
            a = self.pipeline()
            self.expect(")")
            return self.node(pos, tok, kind, a)
        if tok == "exp":
            self.next()
            self.expect("[")
            variant, vpos = self.next()
            if variant not in VARIANTS:
                raise SyntaxErr(f"unknown exponential variant {variant!r}", vpos)
            self.expect("]")
            self.expect("(")
            ntok, npos = self.next()
            if not (ntok or "").isdigit():
                raise SyntaxErr("expected truncation order", npos)
            self.expect(")")
            return ("exp", variant, int(ntok))
        raise SyntaxErr(f"unexpected token {tok!r}", pos)

    def signed_int(self):
        tok, pos = self.next()
        sign = 1
        if tok == "-":
            sign = -1
            tok, pos = self.next()
        if not (tok or "").isdigit():
            raise SyntaxErr("expected integer exponent", pos)
        return sign * int(tok)


def parse_expression(src: str):
    return Parser(src).parse()


#: how tightly each node kind binds as an operand; leaves, calls and
#: negation bind tightest (3), a pipeline ``op[i] |> a`` loosest
_BINDING = {"apply": 0, "add": 1, "sub": 1, "mul": 2}


def _operand(node, binding: int) -> str:
    """``print_expression(node)``, bracketed if it binds looser than the
    context needs (sums and products associate to the left)."""
    text = print_expression(node)
    return f"({text})" if _BINDING.get(node[0], 3) < binding else text


def print_expression(node) -> str:
    kind = node[0]
    if kind == "coord":
        return node[1]
    if kind == "lit":
        s = node[1]
        if s == I:
            return "i"
        if s.is_polynomial() and len(s.numerator_terms()) == 1:
            ((e, c),) = s.numerator_terms().items()
            if c == GRat(Fraction(1)) and e != 0:
                return "q" if e == 1 else f"q^{e}"
            if e == 0 and c.im == 0:
                return str(c.re)
        return f"({s})"
    if kind == "neg":
        return f"-{_operand(node[1], 3)}"
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        return f"{_operand(node[1], 1)} {op} {_operand(node[2], 2)}"
    if kind == "mul":
        return f"{_operand(node[1], 2)}*{_operand(node[2], 3)}"
    if kind == "star":
        return f"star({print_expression(node[1])}, {print_expression(node[2])})"
    if kind == "conj":
        return f"conj({print_expression(node[1])})"
    if kind in ("translate", "invert"):
        return f"{kind}[{node[1]}]({print_expression(node[2])})"
    if kind == "exp":
        return f"exp[{node[1]}]({node[2]})"
    if kind == "apply":
        return f"{node[1]}[{node[2]}] |> {print_expression(node[3])}"
    raise ValueError(f"unknown node {kind!r}")


def to_sexp(node) -> str:
    if node[0] in ("coord",):
        return node[1]
    if node[0] == "lit":
        return f"(lit {node[1]})"
    parts = [node[0]]
    for item in node[1:]:
        parts.append(to_sexp(item) if isinstance(item, tuple) else str(item))
    return "(" + " ".join(parts) + ")"


# -- evaluation --------------------------------------------------------------------


class EvalError(ValueError):
    pass


def _coerce_pair(a, b):
    """Lift scalars to the partner's carrier for mixed arithmetic."""
    if isinstance(a, QScalar) and isinstance(b, Poly):
        return Poly.scalar(b.sectors, a, b.convention), b
    if isinstance(b, QScalar) and isinstance(a, Poly):
        return a, Poly.scalar(a.sectors, b, a.convention)
    return a, b


def evaluate(node):
    """Evaluate an AST to a QScalar or a symbolic Poly."""
    kind = node[0]
    if kind == "coord":
        return coord_variable(node[1])
    if kind == "lit":
        return node[1]
    if kind == "neg":
        return -evaluate(node[1])
    if kind in ("add", "sub", "mul", "star"):
        a, b = _coerce_pair(evaluate(node[1]), evaluate(node[2]))
        if isinstance(a, QScalar):
            return {
                "add": a + b,
                "sub": a - b,
                "mul": a * b,
                "star": a * b,
            }[kind]
        if a.sectors != b.sectors:
            a, b = _unify_sectors(a, b)
        if a.convention != b.convention:
            raise EvalError(
                f"operands use different orderings: {a.convention} vs {b.convention}"
            )
        if kind == "add":
            return a + b
        if kind == "sub":
            return a - b
        if kind == "mul":
            return a.mul_pointwise(b)
        return star_product(a, b)
    if kind == "conj":
        v = evaluate(node[1])
        return v.conjugate()
    if kind == "exp":
        return build_exponential(node[1], node[2]).body
    if kind == "translate":
        v = evaluate(node[2])
        _require_position(v, "translate")
        return q_translate(v, node[1]).polynomial
    if kind == "invert":
        v = evaluate(node[2])
        _require_position(v, "invert")
        return q_invert(v, node[1])
    if kind == "apply":
        v = evaluate(node[3])
        if not isinstance(v, Poly):
            raise EvalError("derivatives act on polynomials")
        op, index = node[1], node[2]
        if op == "d":
            label = DerivativeLabel(index, "plain", "left", "lower")
            return apply_derivative(label, _as_w(v))
        if op == "dhat":
            label = DerivativeLabel(index, "hat", "left_bar", "lower")
            return apply_derivative(label, _as_wt(v)).with_convention(v.convention)
        if op == "dinv":
            if v.sectors[0].kind != "x":
                raise EvalError("dinv acts on position-sector polynomials")
            label = DerivativeLabel(index, "plain", "left", "lower")
            return inverse_partial(label, _as_w(v))
        raise EvalError(f"unknown operator {op!r}")
    raise EvalError(f"cannot evaluate node {kind!r}")


def _as_w(v: Poly) -> Poly:
    return v if v.convention == "W" else v.with_convention("W")


def _as_wt(v: Poly) -> Poly:
    return v if v.convention == "Wt" else v.with_convention("Wt")


def _require_position(v, what):
    if not isinstance(v, Poly) or len(v.sectors) != 1 or v.sectors[0].kind != "x":
        raise EvalError(f"{what} acts on single position-sector polynomials")


def _unify_sectors(a: Poly, b: Poly):
    """Lift (x)- or (p)-carriers into the common (x, p) phase space."""
    from .starcalc import to_phase_space

    def lift(v):
        if len(v.sectors) == 2:
            return v
        return to_phase_space(v, v.sectors[0].kind)

    a2, b2 = lift(a), lift(b)
    if a2.sectors != b2.sectors:
        raise EvalError("operands live on incompatible carriers")
    return a2, b2
