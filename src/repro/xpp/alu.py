"""ALU processing array elements (ALU-PAEs).

Each ALU-PAE executes one configured operation of a DSP-oriented
instruction set on 24-bit words, firing under the token handshake rules.
The instruction set covers:

* scalar arithmetic/logic (``ADD``, ``SUB``, ``MUL``, shifts, compares...),
* packed complex arithmetic on 12/12-bit I/Q words (``CADD``, ``CMUL``,
  ``CCONJ``...) — the 'complex-arithmetic ALUs' of the paper's Fig. 9,
* data steering (``MUX``, ``DEMUX``, ``MERGE``, ``SWAP``, ``GATE``),
* sequence generators (``COUNTER``, ``CONST``, ``SEQ``) and
* stateful elements (``ACC``, ``REG``).

Use :func:`make_alu` (or the higher level ``ConfigBuilder``) to
instantiate an operation by opcode name.

Every pure op (one output set per input set) defines its arithmetic once
in a ``datapath`` method built from the :mod:`repro.xpp.datapath`
primitives; the interpreter and both fastpath lowerings call it.  Its
``PARAMS`` name the attributes that method reads, which the fastpath
compile cache fingerprints.
"""

from __future__ import annotations

from typing import Optional

from repro.fixed import wrap
from repro.xpp.datapath import fold, pack, select, shift, unpack
from repro.xpp.errors import ConfigurationError
from repro.xpp.objects import DataflowObject

WORD_BITS = 24


class AluPae(DataflowObject):
    """Base class for all ALU-PAE operations."""

    KIND = "alu"
    OPCODE = "?"

    def __init__(self, name: str, n_in: int, n_out: int, *,
                 bits: int = WORD_BITS,
                 in_names: Optional[list] = None,
                 out_names: Optional[list] = None):
        super().__init__(name, n_in, n_out, in_names, out_names)
        self.bits = bits

    def compute(self, args: list) -> list:
        return self.datapath(*args)

    def _w(self, value: int) -> int:
        return wrap(value, self.bits)


# ---------------------------------------------------------------------------
# regular function ops: consume all connected inputs, produce one output
# ---------------------------------------------------------------------------

_BINARY_FUNCS = {
    "ADD": lambda a, b: a + b,
    "SUB": lambda a, b: a - b,
    "MUL": lambda a, b: a * b,
    "MIN": lambda a, b: select(b < a, a, b),
    "MAX": lambda a, b: select(b > a, a, b),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: a << b,
    "SHR": lambda a, b: a >> b,
    "CMPEQ": lambda a, b: select(a == b, 0, 1),
    "CMPNE": lambda a, b: select(a != b, 0, 1),
    "CMPLT": lambda a, b: select(a < b, 0, 1),
    "CMPLE": lambda a, b: select(a <= b, 0, 1),
    "CMPGT": lambda a, b: select(a > b, 0, 1),
    "CMPGE": lambda a, b: select(a >= b, 0, 1),
}

_UNARY_FUNCS = {
    "NEG": lambda a: -a,
    "NOT": lambda a: ~a,
    "ABS": abs,
    "PASS": lambda a: a,
}


class BinaryAlu(AluPae):
    """Two-operand ALU op.  If input B is left unconnected, the ``const``
    parameter provides the second operand (a PAE register constant)."""

    PARAMS = ("OPCODE", "const", "shift", "bits")

    def __init__(self, name: str, opcode: str, *, const: Optional[int] = None,
                 shift: int = 0, bits: int = WORD_BITS):
        super().__init__(name, 2, 1, bits=bits, in_names=["a", "b"])
        if opcode not in _BINARY_FUNCS:
            raise ConfigurationError(f"unknown binary opcode {opcode!r}")
        self.OPCODE = opcode
        self._fn = _BINARY_FUNCS[opcode]
        self.const = const
        self.shift = shift
        if opcode == "MUL":
            self.ENERGY = 2.0       # the multiplier array dominates

    def required_inputs(self) -> list:
        # the register constant stands in for input b
        return self.inputs if self.const is None else self.inputs[:1]

    def datapath(self, a, b=None) -> list:
        if b is None:
            if self.const is None:
                raise ConfigurationError(
                    f"{self.name}: input b unconnected and no const set")
            b = self.const
        return [fold(shift(self._fn(a, b), -self.shift), self.bits)]


class UnaryAlu(AluPae):
    """One-operand ALU op."""

    PARAMS = ("OPCODE", "bits")

    def __init__(self, name: str, opcode: str, *, bits: int = WORD_BITS):
        super().__init__(name, 1, 1, bits=bits, in_names=["a"])
        if opcode not in _UNARY_FUNCS:
            raise ConfigurationError(f"unknown unary opcode {opcode!r}")
        self.OPCODE = opcode
        self._fn = _UNARY_FUNCS[opcode]

    def datapath(self, a) -> list:
        return [fold(self._fn(a), self.bits)]


class ShiftAlu(AluPae):
    """Constant arithmetic shift (positive = left, negative = right)."""

    OPCODE = "SHIFT"
    PARAMS = ("amount", "bits")

    def __init__(self, name: str, *, amount: int, bits: int = WORD_BITS):
        super().__init__(name, 1, 1, bits=bits, in_names=["a"])
        self.amount = amount

    def datapath(self, a) -> list:
        return [fold(shift(a, self.amount), self.bits)]


class LutAlu(AluPae):
    """Small lookup table (PAE register file used as a LUT).

    The paper's Fig. 5 uses this to translate the 2-bit scrambling code
    into the packed constants ±1±j.  The table contents are data: the
    compiled backends pass them in (``table``), only the size is baked.
    """

    OPCODE = "LUT"
    PARAMS = ("bits", "size")

    def __init__(self, name: str, *, table, bits: int = WORD_BITS):
        super().__init__(name, 1, 1, bits=bits, in_names=["index"])
        self.table = [int(v) for v in table]
        if not self.table:
            raise ConfigurationError(f"{self.name}: empty LUT")

    @property
    def size(self) -> int:
        return len(self.table)

    def datapath(self, index, table=None) -> list:
        table = self.table if table is None else table
        return [fold(table[index % self.size], self.bits)]


# ---------------------------------------------------------------------------
# packed complex ops (the Fig. 9 complex-arithmetic ALUs)
# ---------------------------------------------------------------------------

class ComplexAlu(AluPae):
    """Base for packed complex ops: tokens carry I (high half) and Q (low
    half) as two ``half_bits``-wide two's-complement fields."""

    PARAMS = ("half_bits",)

    def __init__(self, name: str, n_in: int, *, half_bits: int = 12,
                 in_names: Optional[list] = None):
        super().__init__(name, n_in, 1, bits=2 * half_bits, in_names=in_names)
        self.half_bits = half_bits


class ComplexAdd(ComplexAlu):
    OPCODE = "CADD"
    PARAMS = ("half_bits", "shift")

    def __init__(self, name: str, *, half_bits: int = 12, shift: int = 0):
        super().__init__(name, 2, half_bits=half_bits, in_names=["a", "b"])
        self.shift = shift

    def datapath(self, a, b) -> list:
        hb = self.half_bits
        (ar, ai), (br, bi) = unpack(a, hb), unpack(b, hb)
        return [pack(shift(ar + br, -self.shift),
                     shift(ai + bi, -self.shift), hb)]


class ComplexSub(ComplexAlu):
    OPCODE = "CSUB"
    PARAMS = ("half_bits", "shift")

    def __init__(self, name: str, *, half_bits: int = 12, shift: int = 0):
        super().__init__(name, 2, half_bits=half_bits, in_names=["a", "b"])
        self.shift = shift

    def datapath(self, a, b) -> list:
        hb = self.half_bits
        (ar, ai), (br, bi) = unpack(a, hb), unpack(b, hb)
        return [pack(shift(ar - br, -self.shift),
                     shift(ai - bi, -self.shift), hb)]


class ComplexMul(ComplexAlu):
    """Packed complex multiply ``a * b`` (or ``a * conj(b)``) with a result
    right-shift to renormalise the fixed-point product.

    ``round_shift=True`` uses the DSP rounding shift (add half an LSB
    before shifting) instead of plain truncation — removing the
    toward-minus-infinity bias that otherwise accumulates through
    integrate-and-dump stages.
    """

    OPCODE = "CMUL"
    PARAMS = ("half_bits", "shift", "conj_b", "round_shift")
    ENERGY = 4.0        # four scalar multiplies per firing

    def __init__(self, name: str, *, half_bits: int = 12, shift: int = 0,
                 conj_b: bool = False, round_shift: bool = False):
        super().__init__(name, 2, half_bits=half_bits, in_names=["a", "b"])
        self.shift = shift
        self.conj_b = conj_b
        self.round_shift = round_shift

    def datapath(self, a, b) -> list:
        hb = self.half_bits
        (ar, ai), (br, bi) = unpack(a, hb), unpack(b, hb)
        if self.conj_b:
            bi = -bi
        re = ar * br - ai * bi
        im = ar * bi + ai * br
        if self.shift:
            if self.round_shift:
                half = 1 << (self.shift - 1)
                re, im = re + half, im + half
            re, im = re >> self.shift, im >> self.shift
        return [pack(re, im, hb)]


class ComplexConj(ComplexAlu):
    OPCODE = "CCONJ"

    def __init__(self, name: str, *, half_bits: int = 12):
        super().__init__(name, 1, half_bits=half_bits, in_names=["a"])

    def datapath(self, a) -> list:
        re, im = unpack(a, self.half_bits)
        return [pack(re, -im, self.half_bits)]


class ComplexNeg(ComplexAlu):
    OPCODE = "CNEG"

    def __init__(self, name: str, *, half_bits: int = 12):
        super().__init__(name, 1, half_bits=half_bits, in_names=["a"])

    def datapath(self, a) -> list:
        re, im = unpack(a, self.half_bits)
        return [pack(-re, -im, self.half_bits)]


class ComplexMulJ(ComplexAlu):
    """Multiply by +j (``sign=+1``) or -j (``sign=-1``) — a swap/negate,
    used by the radix-4 butterfly."""

    OPCODE = "CMULJ"
    PARAMS = ("half_bits", "sign")

    def __init__(self, name: str, *, sign: int = 1, half_bits: int = 12):
        super().__init__(name, 1, half_bits=half_bits, in_names=["a"])
        if sign not in (1, -1):
            raise ConfigurationError(f"{self.name}: sign must be +/-1")
        self.sign = sign

    def datapath(self, a) -> list:
        re, im = unpack(a, self.half_bits)
        if self.sign > 0:       # (re + j im) * j = -im + j re
            return [pack(-im, re, self.half_bits)]
        return [pack(im, -re, self.half_bits)]


class ComplexShift(ComplexAlu):
    """Shift both halves (the per-FFT-stage 2-bit right scaling)."""

    OPCODE = "CSHIFT"
    PARAMS = ("half_bits", "amount")

    def __init__(self, name: str, *, amount: int, half_bits: int = 12):
        super().__init__(name, 1, half_bits=half_bits, in_names=["a"])
        self.amount = amount

    def datapath(self, a) -> list:
        re, im = unpack(a, self.half_bits)
        return [pack(shift(re, self.amount), shift(im, self.amount),
                     self.half_bits)]


class Pack(AluPae):
    """Join two scalar words into a packed complex token."""

    OPCODE = "PACK"
    PARAMS = ("half_bits",)

    def __init__(self, name: str, *, half_bits: int = 12):
        super().__init__(name, 2, 1, bits=2 * half_bits, in_names=["re", "im"])
        self.half_bits = half_bits

    def datapath(self, re, im) -> list:
        return [pack(re, im, self.half_bits)]


class Unpack(AluPae):
    """Split a packed complex token into scalar ``re``/``im`` words."""

    OPCODE = "UNPACK"
    PARAMS = ("half_bits",)

    def __init__(self, name: str, *, half_bits: int = 12):
        super().__init__(name, 1, 2, bits=2 * half_bits,
                         in_names=["a"], out_names=["re", "im"])
        self.half_bits = half_bits

    def datapath(self, a) -> list:
        return list(unpack(a, self.half_bits))


# ---------------------------------------------------------------------------
# data steering
# ---------------------------------------------------------------------------

class Mux(AluPae):
    """Select one of two inputs by a select token; consumes all three."""

    OPCODE = "MUX"

    def __init__(self, name: str, *, bits: int = WORD_BITS):
        super().__init__(name, 3, 1, bits=bits, in_names=["sel", "a", "b"])

    def datapath(self, sel, a, b) -> list:
        return [select(sel, a, b)]


class Demux(AluPae):
    """Route the data token to output ``sel``; the other output is idle."""

    OPCODE = "DEMUX"

    def __init__(self, name: str, *, bits: int = WORD_BITS):
        super().__init__(name, 2, 2, bits=bits, in_names=["sel", "a"],
                         out_names=["o0", "o1"])

    def plan(self) -> bool:
        sel_p, a_p = self.inputs
        if sel_p.available < 1 or a_p.available < 1:
            return False
        out = self.outputs[1 if sel_p.peek() else 0]
        return not out.bound or out.space >= 1

    def commit(self) -> None:
        sel = self.inputs[0].pop()
        a = self.inputs[1].pop()
        self.outputs[1 if sel else 0].push(a)
        self.fired += 1


class Merge(AluPae):
    """Take a token from input ``sel`` only (the Fig. 5 'Merge 2x1')."""

    OPCODE = "MERGE"

    def __init__(self, name: str, *, bits: int = WORD_BITS):
        super().__init__(name, 3, 1, bits=bits, in_names=["sel", "a", "b"])

    def plan(self) -> bool:
        sel_p = self.inputs[0]
        if sel_p.available < 1:
            return False
        src = self.inputs[2 if sel_p.peek() else 1]
        if src.available < 1:
            return False
        return self.outputs[0].space >= 1

    def commit(self) -> None:
        sel = self.inputs[0].pop()
        value = self.inputs[2 if sel else 1].pop()
        self.outputs[0].push(value)
        self.fired += 1


class Swap(AluPae):
    """Pass two streams straight (sel=0) or crossed (sel=1) — the 'Swap'
    element of the paper's channel-correction unit (Fig. 7)."""

    OPCODE = "SWAP"

    def __init__(self, name: str, *, bits: int = WORD_BITS):
        super().__init__(name, 3, 2, bits=bits, in_names=["sel", "a", "b"],
                         out_names=["x", "y"])

    def datapath(self, sel, a, b) -> list:
        return [select(sel, a, b), select(sel, b, a)]


class Gate(AluPae):
    """Pass the data token when ``ctrl`` is truthy, discard it otherwise.

    Used to shift out only the completed despreader results (Fig. 6's
    'Comparator (result shift out)')."""

    OPCODE = "GATE"

    def __init__(self, name: str, *, bits: int = WORD_BITS):
        super().__init__(name, 2, 1, bits=bits, in_names=["ctrl", "a"])

    def plan(self) -> bool:
        ctrl_p, a_p = self.inputs
        if ctrl_p.available < 1 or a_p.available < 1:
            return False
        if ctrl_p.peek():
            return self.outputs[0].space >= 1
        return True     # discarding needs no output space

    def commit(self) -> None:
        ctrl = self.inputs[0].pop()
        a = self.inputs[1].pop()
        if ctrl:
            self.outputs[0].push(a)
        self.fired += 1


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class Counter(AluPae):
    """Free-running counter.

    Emits ``start, start+step, ...``; at ``limit`` (exclusive) it wraps
    (``mode='wrap'``) or stops (``mode='stop'``).  The optional second
    output emits 1 on the token that wraps and 0 otherwise, giving the
    symbol-boundary event the despreader's comparators use.
    ``count`` bounds the total number of tokens produced.
    """

    OPCODE = "COUNTER"

    def __init__(self, name: str, *, start: int = 0, step: int = 1,
                 limit: Optional[int] = None, mode: str = "wrap",
                 count: Optional[int] = None, bits: int = WORD_BITS):
        super().__init__(name, 0, 2, bits=bits, out_names=["value", "wrapev"])
        if mode not in ("wrap", "stop"):
            raise ConfigurationError(f"{self.name}: bad counter mode {mode!r}")
        self.start = start
        self.step = step
        self.limit = limit
        self.mode = mode
        self.count = count
        self._value = start
        self._emitted = 0
        self._stopped = False

    def reset(self) -> None:
        super().reset()
        self._value = self.start
        self._emitted = 0
        self._stopped = False

    def _has_work(self) -> bool:
        if self._stopped:
            return False
        return self.count is None or self._emitted < self.count

    def commit(self) -> None:
        value = self._value
        nxt = value + self.step
        wrapped = 0
        if self.limit is not None and nxt >= self.limit:
            if self.mode == "wrap":
                nxt = self.start
                wrapped = 1
            else:
                self._stopped = True
                wrapped = 1
        self._value = nxt
        self._emitted += 1
        self.outputs[0].push(self._w(value))
        self.outputs[1].push(wrapped)
        self.fired += 1


class Const(AluPae):
    """Emit a constant, ``count`` times (or forever)."""

    OPCODE = "CONST"

    def __init__(self, name: str, *, value: int, count: Optional[int] = None,
                 bits: int = WORD_BITS):
        super().__init__(name, 0, 1, bits=bits)
        self.value = value
        self.count = count
        self._emitted = 0

    def _has_work(self) -> bool:
        return self.count is None or self._emitted < self.count

    def reset(self) -> None:
        super().reset()
        self._emitted = 0

    def compute(self, args: list) -> list:
        self._emitted += 1
        return [self._w(self.value)]


class Seq(AluPae):
    """Emit a fixed sequence of values, optionally circularly.

    Models a preloaded PAE register bank; larger circular tables belong in
    a RAM-PAE FIFO.
    """

    OPCODE = "SEQ"

    def __init__(self, name: str, *, values, circular: bool = False,
                 bits: int = WORD_BITS):
        super().__init__(name, 0, 1, bits=bits)
        self.values = list(values)
        if not self.values:
            raise ConfigurationError(f"{self.name}: empty sequence")
        self.circular = circular
        self._pos = 0

    def _has_work(self) -> bool:
        return self.circular or self._pos < len(self.values)

    def reset(self) -> None:
        super().reset()
        self._pos = 0

    def compute(self, args: list) -> list:
        value = self.values[self._pos % len(self.values)]
        self._pos += 1
        return [self._w(value)]


# ---------------------------------------------------------------------------
# stateful elements
# ---------------------------------------------------------------------------

class Acc(AluPae):
    """Accumulate ``length`` tokens, then emit the sum and reset.

    A single-finger despreader integrate-and-dump.  ``shift`` is applied
    to the dumped sum.
    """

    OPCODE = "ACC"
    PARAMS = ("length", "shift", "bits")

    def __init__(self, name: str, *, length: int, shift: int = 0,
                 bits: int = WORD_BITS):
        super().__init__(name, 1, 1, bits=bits, in_names=["a"])
        if length < 1:
            raise ConfigurationError(f"{self.name}: length must be >= 1")
        self.length = length
        self.shift = shift
        self._sum = 0
        self._n = 0

    def reset(self) -> None:
        super().reset()
        self._sum = 0
        self._n = 0

    def plan(self) -> bool:
        if self.inputs[0].available < 1:
            return False
        if self._n + 1 >= self.length:      # this firing dumps
            return self.outputs[0].space >= 1
        return True

    def commit(self) -> None:
        self._sum += self.inputs[0].pop()
        self._n += 1
        if self._n >= self.length:
            self.outputs[0].push(self.dump(self._sum))
            self._sum = 0
            self._n = 0
        self.fired += 1

    def dump(self, total):
        """The word emitted for an integrated ``total``."""
        return fold(shift(total, -self.shift), self.bits)


class ComplexAcc(ComplexAlu):
    """Packed-complex integrate-and-dump over ``length`` tokens."""

    OPCODE = "CACC"
    PARAMS = ("length", "shift", "half_bits")

    def __init__(self, name: str, *, length: int, shift: int = 0,
                 half_bits: int = 12):
        super().__init__(name, 1, half_bits=half_bits, in_names=["a"])
        if length < 1:
            raise ConfigurationError(f"{self.name}: length must be >= 1")
        self.length = length
        self.shift = shift
        self._re = 0
        self._im = 0
        self._n = 0

    def reset(self) -> None:
        super().reset()
        self._re = 0
        self._im = 0
        self._n = 0

    def plan(self) -> bool:
        if self.inputs[0].available < 1:
            return False
        if self._n + 1 >= self.length:
            return self.outputs[0].space >= 1
        return True

    def commit(self) -> None:
        re, im = unpack(self.inputs[0].pop(), self.half_bits)
        self._re += re
        self._im += im
        self._n += 1
        if self._n >= self.length:
            self.outputs[0].push(self.dump(self._re, self._im))
            self._re = 0
            self._im = 0
            self._n = 0
        self.fired += 1

    def dump(self, re, im):
        """The packed word emitted for integrated ``(re, im)`` totals."""
        return pack(shift(re, -self.shift), shift(im, -self.shift),
                    self.half_bits)


class Integrator(AluPae):
    """Running sum: emits the accumulated total on every input token.

    Models an ALU with its accumulator register fed back internally —
    single-cycle initiation interval, unlike an external REG feedback
    loop.  Used by the preamble correlator's windowed sum.
    """

    OPCODE = "INTEG"
    PARAMS = ("bits",)

    def __init__(self, name: str, *, init: int = 0, bits: int = WORD_BITS):
        super().__init__(name, 1, 1, bits=bits, in_names=["a"])
        self.init = int(init)
        self._sum = self.init

    def reset(self) -> None:
        super().reset()
        self._sum = self.init

    def compute(self, args: list) -> list:
        self._sum = fold(self._sum + args[0], self.bits)
        return [self._sum]


class ComplexIntegrator(ComplexAlu):
    """Packed-complex running sum (per-component accumulator feedback)."""

    OPCODE = "CINTEG"

    def __init__(self, name: str, *, half_bits: int = 12):
        super().__init__(name, 1, half_bits=half_bits, in_names=["a"])
        self._re = 0
        self._im = 0

    def reset(self) -> None:
        super().reset()
        self._re = 0
        self._im = 0

    def compute(self, args: list) -> list:
        hb = self.half_bits
        re, im = unpack(args[0], hb)
        self._re = fold(self._re + re, hb)
        self._im = fold(self._im + im, hb)
        return [pack(self._re, self._im, hb)]


class Reg(AluPae):
    """Pipeline register with optional preloaded initial tokens.

    Essential for feedback loops: the initial token breaks the
    chicken-and-egg deadlock of a cycle in the dataflow graph.
    """

    OPCODE = "REG"
    PARAMS = ("bits",)

    def __init__(self, name: str, *, init=(), bits: int = WORD_BITS):
        super().__init__(name, 1, 1, bits=bits, in_names=["a"])
        self.init = tuple(int(v) for v in init)
        self._preload = list(self.init)

    def reset(self) -> None:
        super().reset()
        self._preload = list(self.init)

    def plan(self) -> bool:
        if self._preload:
            return self.outputs[0].space >= 1
        return (self.inputs[0].available >= 1
                and self.outputs[0].space >= 1)

    def commit(self) -> None:
        token = self._preload.pop(0) if self._preload else self.inputs[0].pop()
        self.outputs[0].push(fold(token, self.bits))
        self.fired += 1


# ---------------------------------------------------------------------------
# opcode registry
# ---------------------------------------------------------------------------

_SPECIAL = {
    "SHIFT": ShiftAlu,
    "LUT": LutAlu,
    "CADD": ComplexAdd,
    "CSUB": ComplexSub,
    "CMUL": ComplexMul,
    "CCONJ": ComplexConj,
    "CNEG": ComplexNeg,
    "CMULJ": ComplexMulJ,
    "CSHIFT": ComplexShift,
    "PACK": Pack,
    "UNPACK": Unpack,
    "MUX": Mux,
    "DEMUX": Demux,
    "MERGE": Merge,
    "SWAP": Swap,
    "GATE": Gate,
    "COUNTER": Counter,
    "CONST": Const,
    "SEQ": Seq,
    "ACC": Acc,
    "CACC": ComplexAcc,
    "INTEG": Integrator,
    "CINTEG": ComplexIntegrator,
    "REG": Reg,
}


def opcodes() -> list:
    """All opcode names understood by :func:`make_alu`."""
    return sorted(set(_BINARY_FUNCS) | set(_UNARY_FUNCS) | set(_SPECIAL))


def make_alu(name: str, opcode: str, **params) -> AluPae:
    """Instantiate an ALU-PAE operation by opcode name."""
    if opcode in _SPECIAL:
        return _SPECIAL[opcode](name, **params)
    if opcode in _BINARY_FUNCS:
        return BinaryAlu(name, opcode, **params)
    if opcode in _UNARY_FUNCS:
        if params:
            raise ConfigurationError(
                f"{name}: opcode {opcode} takes no parameters, got {params}")
        return UnaryAlu(name, opcode)
    raise ConfigurationError(f"unknown opcode {opcode!r}")
