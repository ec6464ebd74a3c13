"""Compile-time IR of a captured dataflow graph.

The fastpath backend compiles the *structure* of the resident
configurations — objects, wires, port bindings and firing rules — into
a small intermediate representation.  A :class:`Graph` is a flat,
index-addressed view of the netlist: node ``i`` wraps one
``DataflowObject``, edge ``j`` wraps one ``Wire`` (every wire has
exactly one producer port and one consumer port), and the per-kind
lowering templates in :mod:`repro.fastpath.lower` key off
``Node.kind``.

Only graphs whose firing semantics the compiler can prove are
accepted: a fixed table of object types (exact type match — subclasses
may override anything), word widths and parameter ranges that keep the
vectorized int64 arithmetic exact.  Everything else raises
:class:`UnsupportedGraphError`, which the runtime turns into a
transparent fallback to the event scheduler.

Cyclic wiring is *not* a rejection: feedback rings (the despreader's
integrate-and-dump loop, self-loop accumulators) are grouped into
strongly-connected components and lowered by a second strategy — a
generated time-stepped *epoch kernel* per SCC (see
:func:`repro.fastpath.lower.emit_epoch`) — while the acyclic remainder
keeps the whole-trace numpy value pass.  :func:`build_schedule`
computes the condensation order that interleaves both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xpp import alu, io, objects as xobjects, ram


#: Machine-readable rejection reasons.  Every ``UnsupportedGraphError``
#: raised by the compiler carries exactly one of these on ``.code``;
#: :mod:`repro.fastpath.explain` and the fallback warning surface them,
#: and campaign rollups key per-kernel fallback rates off them.
REASON_UNSUPPORTED_TYPE = "unsupported-type"
REASON_INSTANCE_OVERRIDE = "instance-override"
REASON_UNBOUND_INPUT = "unbound-input"
REASON_DYNAMIC_SHIFT = "dynamic-shift"
REASON_SHIFT_RANGE = "shift-range"
REASON_CONST_RANGE = "const-range"
REASON_COUNTER_STEP = "counter-step"
REASON_COUNTER_RANGE = "counter-range"
REASON_CIRCULAR_FIFO = "circular-fifo-input"
REASON_EMPTY_NETLIST = "empty-netlist"
REASON_DANGLING_WIRE = "dangling-wire"
REASON_FAULT_TAP = "fault-tap"
REASON_WORD_WIDTH = "word-width"
REASON_RAM_HAZARD = "ram-hazard"

#: All reason codes, for docs/CLI validation.
REASON_CODES = (
    REASON_UNSUPPORTED_TYPE, REASON_INSTANCE_OVERRIDE,
    REASON_UNBOUND_INPUT, REASON_DYNAMIC_SHIFT, REASON_SHIFT_RANGE,
    REASON_CONST_RANGE, REASON_COUNTER_STEP, REASON_COUNTER_RANGE,
    REASON_CIRCULAR_FIFO, REASON_EMPTY_NETLIST, REASON_DANGLING_WIRE,
    REASON_FAULT_TAP, REASON_WORD_WIDTH, REASON_RAM_HAZARD,
)


class UnsupportedGraphError(Exception):
    """The captured graph cannot be compiled; run it on the golden path.

    ``code`` is the machine-readable rejection reason (one of
    :data:`REASON_CODES`); the message stays the human explanation.
    """

    def __init__(self, message: str, *, code: str = REASON_UNSUPPORTED_TYPE):
        super().__init__(message)
        self.code = code


#: exact type -> kind tag.  Exact match on purpose: a subclass may
#: override plan/commit/compute, which the lowering templates cannot see.
KIND_OF = {
    io.StreamSource: "source",
    io.StreamSink: "sink",
    xobjects.Probe: "probe",
    alu.BinaryAlu: "binary",
    alu.UnaryAlu: "unary",
    alu.ShiftAlu: "shiftalu",
    alu.LutAlu: "lut",
    alu.ComplexAdd: "cadd",
    alu.ComplexSub: "csub",
    alu.ComplexMul: "cmul",
    alu.ComplexConj: "cconj",
    alu.ComplexNeg: "cneg",
    alu.ComplexMulJ: "cmulj",
    alu.ComplexShift: "cshift",
    alu.Pack: "pack",
    alu.Unpack: "unpack",
    alu.Mux: "mux",
    alu.Demux: "demux",
    alu.Merge: "merge",
    alu.Swap: "swap",
    alu.Gate: "gate",
    alu.Counter: "counter",
    alu.Const: "const",
    alu.Seq: "seq",
    alu.Acc: "acc",
    alu.ComplexAcc: "cacc",
    alu.Integrator: "integ",
    alu.ComplexIntegrator: "cinteg",
    alu.Reg: "reg",
    ram.FifoPae: "fifo",
    ram.RamPae: "ram",
}

#: kinds whose plan is the default firing rule gated by a token budget
GENERATORS = frozenset({"source", "const", "seq", "counter"})

#: widest word the int64 value pass folds exactly (the fold's mask and
#: sign offset must fit in an int64)
MAX_WORD_BITS = 62

#: largest safe constant shift: 24-bit operands stay well inside int64
MAX_SHIFT = 32

#: largest safe binary-op constant: |a op const| stays inside int64 for
#: every opcode when |const| <= 2**61 and a is a wrapped 24-bit word
MAX_CONST = 1 << 61


@dataclass
class Edge:
    """One wire: a single producer port feeding a single consumer port."""

    j: int
    wire: object
    src: int            # producer node index
    src_port: int
    dst: int            # consumer node index
    dst_port: int
    cap: int


@dataclass
class Node:
    """One dataflow object, with its port-to-edge bindings resolved."""

    i: int
    obj: object
    kind: str
    in_edges: tuple     # per input port: edge index or None (unbound)
    out_ports: tuple    # per output port: tuple of edge indices (fan-out)

    def out_edges(self):
        """All out edge indices across every port, in port order."""
        return [j for port in self.out_ports for j in port]

    def value_ins(self) -> list:
        """Bound input edges whose token values the node's outputs are
        computed from: every input, except a RAM's write ports (reads
        gather from the session-open memory snapshot; writes only land
        in ``mem`` at write-back)."""
        ins = self.in_edges[:1] if self.kind == "ram" else self.in_edges
        return [j for j in ins if j is not None]


@dataclass
class Graph:
    """The captured netlist plus its two-level lowering schedule.

    ``schedule`` is the condensation (SCC DAG) in topological order:
    ``("node", i)`` units are acyclic nodes lowered by the vectorized
    value pass, ``("scc", s)`` units are feedback components lowered by
    the generated epoch kernel ``sccs[s]``.  ``topo`` flattens the
    schedule into one node order for the count-level trace kernel
    (whose plan/commit split makes node order irrelevant, cycles
    included).
    """

    nodes: list
    edges: list
    topo: list          # flat node order (schedule order, SCCs inlined)
    schedule: list = None   # ("node", i) | ("scc", s) units, topo order
    sccs: list = None       # non-trivial SCCs: tuples of node indices

    def __post_init__(self):
        if self.schedule is None:
            self.schedule = [("node", i) for i in self.topo]
        if self.sccs is None:
            self.sccs = []

    def epoch_nodes(self) -> set:
        """Node indices lowered by an epoch kernel (inside an SCC)."""
        return {i for scc in self.sccs for i in scc}

    def strategy(self, i: int) -> str:
        """Lowering strategy of node ``i``: ``"trace"`` or ``"epoch"``."""
        return "epoch" if i in self.epoch_nodes() else "trace"


def classify(obj) -> str:
    """Kind tag for a supported object, or raise UnsupportedGraphError."""
    kind = KIND_OF.get(type(obj))
    if kind is None:
        raise UnsupportedGraphError(
            f"{obj.name}: unsupported object type {type(obj).__name__}",
            code=REASON_UNSUPPORTED_TYPE)
    if "plan" in obj.__dict__ or "commit" in obj.__dict__:
        # e.g. a fault injector wrapped this instance's firing protocol
        raise UnsupportedGraphError(
            f"{obj.name}: instance-level plan/commit override",
            code=REASON_INSTANCE_OVERRIDE)
    bits = getattr(obj, "bits", 0)
    if bits > MAX_WORD_BITS:
        raise UnsupportedGraphError(
            f"{obj.name}: {bits}-bit words exceed the int64 value pass "
            f"(max {MAX_WORD_BITS})", code=REASON_WORD_WIDTH)
    if kind == "binary":
        if not obj.inputs[1].bound and obj.const is None:
            raise UnsupportedGraphError(
                f"{obj.name}: input b unconnected and no const",
                code=REASON_UNBOUND_INPUT)
        if obj.OPCODE in ("SHL", "SHR"):
            if obj.inputs[1].bound:
                raise UnsupportedGraphError(
                    f"{obj.name}: data-dependent shift amounts",
                    code=REASON_DYNAMIC_SHIFT)
            if not 0 <= obj.const <= MAX_SHIFT:
                raise UnsupportedGraphError(
                    f"{obj.name}: shift const {obj.const} out of range",
                    code=REASON_SHIFT_RANGE)
        if abs(obj.shift) > MAX_SHIFT:
            raise UnsupportedGraphError(
                f"{obj.name}: result shift {obj.shift} out of range",
                code=REASON_SHIFT_RANGE)
        if obj.const is not None and abs(obj.const) > MAX_CONST:
            # wrap-width ops survive int64 overflow (mod-2**64 is a
            # homomorphism onto mod-2**bits) but MIN/MAX/CMP* do not,
            # and np.int64() refuses Python ints >= 2**63 outright
            raise UnsupportedGraphError(
                f"{obj.name}: const {obj.const} outside the int64-safe range",
                code=REASON_CONST_RANGE)
    elif kind == "shiftalu":
        if abs(obj.amount) > MAX_SHIFT:
            raise UnsupportedGraphError(
                f"{obj.name}: shift amount {obj.amount} out of range",
                code=REASON_SHIFT_RANGE)
    elif kind == "counter":
        if obj.step < 1:
            raise UnsupportedGraphError(
                f"{obj.name}: counter step must be >= 1 to compile",
                code=REASON_COUNTER_STEP)
        if obj.limit is not None and obj.start >= obj.limit:
            raise UnsupportedGraphError(
                f"{obj.name}: counter start >= limit",
                code=REASON_COUNTER_RANGE)
    elif kind == "fifo":
        if obj.circular and obj.inputs[0].bound:
            raise UnsupportedGraphError(
                f"{obj.name}: circular FIFO with a bound input",
                code=REASON_CIRCULAR_FIFO)
    elif kind in ("acc", "cacc", "integ", "cinteg", "reg", "lut",
                  "unary", "cconj", "cneg", "cmulj", "cshift"):
        if not obj.inputs[0].bound:
            raise UnsupportedGraphError(f"{obj.name}: unbound input",
                                        code=REASON_UNBOUND_INPUT)
    if kind in ("cadd", "csub", "cmul", "pack", "mux", "swap",
                "demux", "merge", "gate", "unpack", "sink", "probe"):
        for p in obj.inputs:
            if not p.bound:
                raise UnsupportedGraphError(
                    f"{obj.name}: unbound input {p.name}",
                    code=REASON_UNBOUND_INPUT)
    if kind == "binary" and not obj.inputs[0].bound:
        raise UnsupportedGraphError(f"{obj.name}: unbound input a",
                                    code=REASON_UNBOUND_INPUT)
    return kind


def strongly_connected(nodes, edges) -> list:
    """Tarjan SCCs of the wiring graph (iterative, no recursion limit).

    Returns the components as sorted tuples of node indices, in
    *reverse* topological order of the condensation (Tarjan's natural
    emission order: a component is finished only after everything it
    reaches).
    """
    out = [[] for _ in nodes]
    for e in edges:
        out[e.src].append(e.dst)
    index = [None] * len(nodes)
    low = [0] * len(nodes)
    on_stack = [False] * len(nodes)
    stack = []
    comps = []
    counter = [0]

    for root in range(len(nodes)):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for k in range(pi, len(out[v])):
                w = out[v][k]
                if index[w] is None:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def _scc_member_order(scc, nodes, edges) -> list:
    """Deterministic firing order inside one SCC for the epoch kernel.

    A Kahn sweep over the component's internal wiring that, when stuck
    (every remaining node waits on a back edge), releases the
    smallest-indexed remaining node — i.e. the minimal deterministic
    back-edge break.  Values are schedule-independent (Kahn network);
    this order only minimizes fixpoint passes in the generated kernel.
    """
    members = set(scc)
    indeg = {i: 0 for i in scc}
    out = {i: [] for i in scc}
    for e in edges:
        if e.src in members and e.dst in members and e.src != e.dst:
            indeg[e.dst] += 1
            out[e.src].append(e.dst)
    remaining = set(scc)
    order = []
    while remaining:
        ready = sorted(i for i in remaining if indeg[i] == 0)
        nxt = ready[0] if ready else min(remaining)
        remaining.discard(nxt)
        order.append(nxt)
        for d in out[nxt]:
            if d in remaining:
                indeg[d] -= 1
    return order


def build_schedule(nodes, edges) -> tuple:
    """(topo, schedule, sccs) of the captured wiring.

    ``schedule`` walks the condensation in topological order; trivial
    components become ``("node", i)`` units for the vectorized value
    pass, feedback components (size > 1, or a self-loop) become
    ``("scc", s)`` units lowered by epoch kernels.  ``topo`` is the
    flat node order of the same walk.

    Only value dependencies order the walk: edges into a RAM's write
    ports are left out, so the FFT stage's RAM -> butterfly -> RAM
    loop is acyclic.  (The count pass checks that no read needed a
    write from the same session; see ``lower._plan_line``.)
    """
    edges = [e for e in edges if e.j in nodes[e.dst].value_ins()]
    self_loops = {e.src for e in edges if e.src == e.dst}
    comps = list(reversed(strongly_connected(nodes, edges)))
    topo = []
    schedule = []
    sccs = []
    for comp in comps:
        if len(comp) > 1 or comp[0] in self_loops:
            ordered = _scc_member_order(comp, nodes, edges)
            schedule.append(("scc", len(sccs)))
            sccs.append(tuple(ordered))
            topo.extend(ordered)
        else:
            schedule.append(("node", comp[0]))
            topo.append(comp[0])
    return topo, schedule, sccs
