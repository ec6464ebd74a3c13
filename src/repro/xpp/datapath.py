"""Datapath primitives shared by every ALU-PAE backend.

Each pure ALU-PAE op writes its arithmetic once, as a ``datapath``
method that uses only Python operators and the primitives below.  That
one method runs three ways:

* on Python ints: the interpreter (``AluPae.compute``);
* on int64 numpy arrays: the fastpath value pass, one call per stream;
* on :class:`Sym` words, whose operators return Python source text: the
  fastpath epoch-kernel generator, which inlines the result.

The primitives are branchless in the data (no ``if`` on a token value),
exact on ints of any width, and exact on int64 arrays for words of up
to 62 bits, which is the width the fastpath classifier admits.
"""

from __future__ import annotations

import numpy as np


def fold(x, bits: int):
    """Two's-complement wrap of ``x`` into ``bits`` bits."""
    s = 1 << (bits - 1)
    return ((x + s) & ((1 << bits) - 1)) - s


def shift(x, amount: int):
    """Arithmetic shift by a constant: positive = left, negative = right."""
    if amount > 0:
        return x << amount
    if amount < 0:
        return x >> -amount
    return x


def pack(re, im, half_bits: int):
    """One packed complex word, ``re`` in the high half (each half is
    masked, which equals wrapping it first)."""
    m = (1 << half_bits) - 1
    return ((re & m) << half_bits) | (im & m)


def unpack(word, half_bits: int) -> tuple:
    """Signed ``(re, im)`` halves of a packed complex word."""
    return fold(word >> half_bits, half_bits), fold(word, half_bits)


def select(sel, a, b):
    """``b`` where ``sel`` is nonzero, else ``a``."""
    if isinstance(sel, np.ndarray):
        return np.where(sel != 0, b, a)
    if isinstance(sel, Sym):
        return Sym(f"({b} if {sel} else {a})")
    return b if sel else a


class Sym:
    """A symbolic word: each operator returns a new ``Sym`` holding the
    fully parenthesised source text of the operation."""

    __slots__ = ("src",)

    def __init__(self, src: str):
        self.src = src

    def __str__(self) -> str:
        return self.src

    def __neg__(self):
        return Sym(f"(-{self})")

    def __invert__(self):
        return Sym(f"(~{self})")

    def __abs__(self):
        return Sym(f"abs({self})")

    def __getitem__(self, index):
        return Sym(f"{self}[{index}]")


def _binop(op: str):
    return lambda x, y: Sym(f"({x} {op} {y})")


# a Sym is always the left operand in a datapath (port ``a`` is bound);
# a comparison with a constant on the left reflects, e.g. ``1 < w``
# becomes ``w > 1``
for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"), ("mod", "%"),
                   ("and", "&"), ("or", "|"), ("xor", "^"),
                   ("lshift", "<<"), ("rshift", ">>"), ("eq", "=="),
                   ("ne", "!="), ("lt", "<"), ("le", "<="), ("gt", ">"),
                   ("ge", ">=")):
    setattr(Sym, f"__{_name}__", _binop(_op))
