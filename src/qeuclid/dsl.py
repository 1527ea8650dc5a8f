"""A small expression language over the symbolic carriers.

Grammar (LL(1), whitespace-insensitive, ASCII only):

    pipeline := sum | operator '|>' pipeline
    sum      := product (('+' | '-') product)*
    product  := atom ('*' atom)*
    atom     := coordinate | literal | call | '(' pipeline ')' | '-' atom
    call     := NAME ['[' WORD ']'] '(' arg (',' arg)* ')'
    operator := NAME '[' WORD ']'
    coordinate := x+ | x3 | x- | t | p- | p3 | p+
    literal  := INT | INT '/' INT | 'i' | 'q' ['^' SIGNED_INT]

Each call form is declared once, in ``FORMS``: the words its bracket takes,
the word an omitted bracket stands for, its args (pipelines, or exp's INT
order) and whether it is an operator.  ``op |> expr`` and ``op(expr)`` both
apply an operator.  A syntax error names the offset of the offending word.
Parsing then printing a canonical-form expression is the identity.
Expressions nest at most ``MAX_DEPTH`` deep, and an exponential is
truncated at order ``MAX_ORDER`` at most.

Parsing and printing need only ``qarith``; ``evaluate`` loads the layer a
node needs (``starcalc``, ``qcalculus``, ``qexp``) when it meets one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING

from . import MAX_ORDER  # the cap on exp[...](N), also read as dsl.MAX_ORDER
from .qarith import QScalar, I, VARIANTS, _Frozen

if TYPE_CHECKING:
    from .starcalc import Poly


class SyntaxErr(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_TOKEN = re.compile(
    r"\s*(x\+|x3|x-|p\+|p3|p-|\|>|\^|[0-9]+|[A-Za-z_]+|[()\[\],+*/-])"
)

COORDS = ("x+", "x3", "x-", "t", "p-", "p3", "p+")


class Form(_Frozen):
    """A call form NAME[WORD](args): what its bracket names, its words (none:
    no bracket), the word an omitted bracket stands for (None: required),
    its args ("expr" or exp's "order") and whether it is an operator, whose
    node is ("apply", NAME, WORD, arg) and which may head a pipeline."""

    __slots__ = ("bracket", "words", "default", "args", "operator")


_DERIVATIVE = Form("derivative index", ("+", "3", "-", "0"), None, ("expr",), True)

#: every call form, by name
FORMS = {
    "d": _DERIVATIVE,
    "dhat": _DERIVATIVE,
    "dinv": _DERIVATIVE,
    "star": Form(None, (), None, ("expr", "expr"), False),
    "conj": Form(None, (), None, ("expr",), False),
    "translate": Form("translation kind", ("plus", "plusbar"), "plus", ("expr",), False),
    "invert": Form("inversion kind", ("minus", "minusbar"), "minus", ("expr",), False),
    "exp": Form("exponential variant", VARIANTS, None, ("order",), False),
}

#: the deepest nesting the parser accepts, both in brackets, calls and
#: operators around a token and in syntax-tree height (a chain a + b + c
#: nests to the left).  It keeps the parser (six frames per level),
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
        form = FORMS.get(self.peek())
        if form is not None and form.operator:
            save = self.k
            pos, head = self.head()
            if self.peek() == "|>":
                self.next()
                return self.node(pos, *head, self.nested(self.pipeline))
            self.k = save  # operator used in call form; re-parse as atom
        return self.sum()

    def head(self):
        """The call form at the cursor up to its args: its offset and the
        node's leading parts, its bracket word among them."""
        name, pos = self.next()
        form = FORMS[name]
        head = ("apply", name) if form.operator else (name,)
        if form.words:
            word = form.default
            if word is None or self.peek() == "[":
                self.expect("[")
                word, wpos = self.next()
                if word not in form.words:
                    raise SyntaxErr(f"bad {form.bracket} {word!r}", wpos)
                self.expect("]")
            head += (word,)
        return pos, head

    def call(self):
        form = FORMS[self.peek()]
        pos, node = self.head()
        self.expect("(")
        for n, arg in enumerate(form.args):
            if n:
                self.expect(",")
            node += (self.order() if arg == "order" else self.pipeline(),)
        self.expect(")")
        return self.node(pos, *node)

    def order(self):
        tok, pos = self.next()
        if not (tok or "").isdigit():
            raise SyntaxErr("expected truncation order", pos)
        order = _integer(tok, pos)
        if order > MAX_ORDER:
            raise SyntaxErr(f"truncation order above {MAX_ORDER}", pos)
        return order

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
        return self.nested(self.call if self.peek() in FORMS else self._atom)

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
            num = _integer(tok, pos)
            if self.peek() == "/":
                self.next()
                dtok, dpos = self.next()
                if not (dtok or "").isdigit():
                    raise SyntaxErr("expected denominator", dpos)
                den = _integer(dtok, dpos)
                if den == 0:
                    raise SyntaxErr("zero denominator", dpos)
                return ("lit", QScalar.from_rational(Fraction(num, den)))
            return ("lit", QScalar.from_rational(num))
        raise SyntaxErr(f"unexpected token {tok!r}", pos)

    def signed_int(self):
        tok, pos = self.next()
        sign = 1
        if tok == "-":
            sign = -1
            tok, pos = self.next()
        if not (tok or "").isdigit():
            raise SyntaxErr("expected integer exponent", pos)
        return sign * _integer(tok, pos)


def _integer(tok: str, pos: int) -> int:
    """The digit token ``tok`` as an int; one longer than Python converts
    (``sys.get_int_max_str_digits``) is a syntax error."""
    try:
        return int(tok)
    except ValueError:
        raise SyntaxErr(f"integer of {len(tok)} digits is too long", pos) from None


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
        terms = s.to_json().get("terms", ())
        if len(terms) == 1:
            ((e, real, imag),) = terms
            if (real, imag) == ("1", "0") and e != 0:
                return "q" if e == 1 else f"q^{e}"
            if e == 0 and imag == "0":
                return real
        return f"({s})"
    if kind == "neg":
        return f"-{_operand(node[1], 3)}"
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        return f"{_operand(node[1], 1)} {op} {_operand(node[2], 2)}"
    if kind == "mul":
        return f"{_operand(node[1], 2)}*{_operand(node[2], 3)}"
    if kind in FORMS:
        n = 2 if FORMS[kind].words else 1
        bracket = f"[{node[1]}]" if n == 2 else ""
        args = (print_expression(a) if isinstance(a, tuple) else str(a) for a in node[n:])
        return f"{kind}{bracket}({', '.join(args)})"
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
    """Lift a scalar to its partner's carrier (a ``Poly``) for mixed
    arithmetic."""
    if isinstance(a, QScalar) and not isinstance(b, QScalar):
        return b.scalar(b.sectors, a, b.convention), b
    if isinstance(b, QScalar) and not isinstance(a, QScalar):
        return a, a.scalar(a.sectors, b, a.convention)
    return a, b


def evaluate(node):
    """Evaluate an AST to a QScalar or a symbolic Poly."""
    kind = node[0]
    if kind == "coord":
        from .starcalc import coord_variable

        return coord_variable(node[1])
    if kind == "lit":
        return node[1]
    if kind == "neg":
        return -evaluate(node[1])
    if kind in ("add", "sub", "mul", "star"):
        a, b = _coerce_pair(evaluate(node[1]), evaluate(node[2]))
        if isinstance(a, QScalar):
            if kind == "add":
                return a + b
            return a - b if kind == "sub" else a * b
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
        from .starcalc import star_product

        return star_product(a, b)
    if kind == "conj":
        v = evaluate(node[1])
        return v.conjugate()
    if kind == "exp":
        from .qexp import build_exponential

        return build_exponential(node[1], node[2]).body
    if kind == "translate":
        from .qexp import q_translate

        v = evaluate(node[2])
        _require_position(v, "translate")
        return q_translate(v, node[1]).polynomial
    if kind == "invert":
        from .qexp import q_invert

        v = evaluate(node[2])
        _require_position(v, "invert")
        return q_invert(v, node[1])
    if kind == "apply":
        from .qcalculus import DerivativeLabel, apply_derivative, inverse_partial

        v = evaluate(node[3])
        if isinstance(v, QScalar):
            raise EvalError("derivatives act on polynomials")
        op, index = node[1], node[2]
        if op == "d":
            label = DerivativeLabel(index, "plain", "left", "lower")
            return apply_derivative(label, _as_w(v))
        if op == "dhat":
            # relabels, not re-orderings: wrong on ordered products (ROADMAP item 1)
            label = DerivativeLabel(index, "hat", "left_bar", "lower")
            return apply_derivative(label, _as_wt(v)).with_convention(v.convention)
        if op == "dinv":
            if v.sectors[0].kind != "x":
                raise EvalError("dinv acts on position-sector polynomials")
            label = DerivativeLabel(index, "plain", "left", "lower")
            return inverse_partial(label, _as_w(v))
        raise EvalError(f"unknown operator {op!r}")
    raise EvalError(f"cannot evaluate node {kind!r}")


# relabels, not re-orderings: wrong on ordered products (ROADMAP item 1)
def _as_w(v: Poly) -> Poly:
    return v if v.convention == "W" else v.with_convention("W")


def _as_wt(v: Poly) -> Poly:
    return v if v.convention == "Wt" else v.with_convention("Wt")


def _require_position(v, what):
    if isinstance(v, QScalar) or len(v.sectors) != 1 or v.sectors[0].kind != "x":
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
