"""Vectorized memory-trace generation.

Generating the address stream does not require computing values: every
subscript is affine in loop indices, so the accesses of an innermost loop
form arithmetic sequences.  The generator compiles a program into a small
internal form (precomputed affine linearizations per reference), walks
outer loops in Python, and emits each innermost loop as a block of numpy
arithmetic — including fused loops with boundary :class:`Guard` statements,
which are segmented into runs where the active statement list is constant.

This is the fast path the guides call for: the per-access work in the hot
dimension is a handful of vectorized ops rather than a Python-level eval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence, Union

import numpy as np

from ..lang import (
    Affine,
    AnalysisError,
    ArrayRef,
    Assign,
    CallStmt,
    Guard,
    Loop,
    Program,
    Stmt,
    array_reads,
)
from .state import check_params
from .trace import AccessTrace, RefInfo, TraceBuilder

_FLUSH_THRESHOLD = 65536


@dataclass(frozen=True)
class _CRef:
    ref_id: int
    array_id: int
    is_write: bool
    linform: Affine  # canonical element index as an affine form


@dataclass(frozen=True)
class _CAssign:
    stmt_id: int
    refs: tuple[_CRef, ...]  # reads in expression order, then the write


@dataclass(frozen=True)
class _CGuard:
    index: str
    intervals: tuple[tuple[Affine, Affine], ...]
    body: tuple["_CNode", ...]
    else_body: tuple["_CNode", ...]


@dataclass(frozen=True)
class _CLoop:
    index: str
    lower: Affine
    upper: Affine
    body: tuple["_CNode", ...]
    flat: bool  # True when no loop is nested anywhere below


_CNode = Union[_CAssign, _CGuard, _CLoop]


class _Compiler:
    """Lowers the AST into the internal form, assigning static ids."""

    def __init__(self, program: Program, params: Mapping[str, int]) -> None:
        self.program = program
        self.params = params
        self.array_ids = {a.name: k for k, a in enumerate(program.arrays)}
        self.strides: dict[str, tuple[int, ...]] = {}
        self.sizes: list[int] = []
        for decl in program.arrays:
            shape = decl.shape(params)
            strides = []
            acc = 1
            for extent in shape:  # column-major: first subscript fastest
                strides.append(acc)
                acc *= extent
            self.strides[decl.name] = tuple(strides)
            self.sizes.append(acc)
        self.refs: list[RefInfo] = []
        self.stmt_count = 0
        self._linform_cache: dict[ArrayRef, Affine] = {}

    def linform(self, ref: ArrayRef) -> Affine:
        # memoized and accumulated in a flat dict: textually repeated
        # references are common, and building the sum through Affine
        # operators churns intermediate Fraction tuples
        form = self._linform_cache.get(ref)
        if form is None:
            strides = self.strides[ref.array]
            const = 0
            terms: dict[str, object] = {}
            for k, sub in enumerate(ref.indices):
                a = sub.affine()
                s = strides[k]
                const += a.const * s - s
                for n, c in a.coeffs:
                    terms[n] = terms.get(n, 0) + c * s
            form = self._linform_cache[ref] = Affine.from_terms(const, terms)
        return form

    def make_ref(self, ref: ArrayRef, stmt_id: int, is_write: bool) -> _CRef:
        ref_id = len(self.refs)
        self.refs.append(
            RefInfo(ref_id, stmt_id, ref.array, is_write, str(ref))
        )
        return _CRef(ref_id, self.array_ids[ref.array], is_write, self.linform(ref))

    def compile_body(self, body: Sequence[Stmt]) -> tuple[_CNode, ...]:
        return tuple(self.compile_stmt(s) for s in body)

    def compile_stmt(self, stmt: Stmt) -> _CNode:
        if isinstance(stmt, Assign):
            stmt_id = self.stmt_count
            self.stmt_count += 1
            refs = [
                self.make_ref(r, stmt_id, False) for r in array_reads(stmt.expr)
            ]
            if isinstance(stmt.target, ArrayRef):
                refs.append(self.make_ref(stmt.target, stmt_id, True))
            return _CAssign(stmt_id, tuple(refs))
        if isinstance(stmt, Guard):
            return _CGuard(
                stmt.index,
                tuple((iv.lower, iv.upper) for iv in stmt.intervals),
                self.compile_body(stmt.body),
                self.compile_body(stmt.else_body),
            )
        if isinstance(stmt, Loop):
            body = self.compile_body(stmt.body)
            flat = not any(_contains_loop(n) for n in body)
            return _CLoop(stmt.index, stmt.lower.affine(), stmt.upper.affine(), body, flat)
        if isinstance(stmt, CallStmt):
            raise AnalysisError(
                f"trace generation requires inlined programs; found call to {stmt.proc!r}"
            )
        raise AnalysisError(f"cannot trace statement {type(stmt).__name__}")


def _contains_loop(node: _CNode) -> bool:
    if isinstance(node, _CLoop):
        return True
    if isinstance(node, _CGuard):
        return any(_contains_loop(n) for n in node.body + node.else_body)
    return False


class _Generator:
    def __init__(
        self, compiled: tuple[_CNode, ...], compiler: _Compiler, with_instr: bool
    ) -> None:
        self.compiled = compiled
        self.with_instr = with_instr
        self.builder = TraceBuilder(
            [a.name for a in compiler.program.arrays],
            compiler.sizes,
            compiler.refs,
            with_instr=with_instr,
        )
        self.sizes = compiler.sizes
        self.env: dict[str, int] = {}
        # scalar-path buffers
        self._buf_aid: list[int] = []
        self._buf_elem: list[int] = []
        self._buf_write: list[bool] = []
        self._buf_ref: list[int] = []
        self._buf_instr: list[int] = []

    # -- scalar path -----------------------------------------------------------

    def _flush(self) -> None:
        if not self._buf_aid:
            return
        self.builder.append(
            np.asarray(self._buf_aid, dtype=np.int32),
            np.asarray(self._buf_elem, dtype=np.int64),
            np.asarray(self._buf_write, dtype=bool),
            np.asarray(self._buf_ref, dtype=np.int32),
            np.asarray(self._buf_instr, dtype=np.int64) if self.with_instr else None,
        )
        self._buf_aid.clear()
        self._buf_elem.clear()
        self._buf_write.clear()
        self._buf_ref.clear()
        self._buf_instr.clear()

    def _emit_assign_scalar(self, node: _CAssign) -> None:
        instr = self.builder.instr_count
        self.builder.instr_count += 1
        for ref in node.refs:
            elem = int(ref.linform.evaluate(self.env))
            if not 0 <= elem < self.sizes[ref.array_id]:
                raise AnalysisError(
                    f"out-of-bounds access: element {elem} of array "
                    f"#{ref.array_id} (size {self.sizes[ref.array_id]}) at {self.env}"
                )
            self._buf_aid.append(ref.array_id)
            self._buf_elem.append(elem)
            self._buf_write.append(ref.is_write)
            self._buf_ref.append(ref.ref_id)
            if self.with_instr:
                self._buf_instr.append(instr)
        if len(self._buf_aid) >= _FLUSH_THRESHOLD:
            self._flush()

    # -- walking ------------------------------------------------------------

    def run_body(self, body: tuple[_CNode, ...]) -> None:
        for node in body:
            self.run_node(node)

    def run_node(self, node: _CNode) -> None:
        if isinstance(node, _CAssign):
            self._emit_assign_scalar(node)
        elif isinstance(node, _CGuard):
            value = self.env[node.index]
            if self._member(node, value):
                self.run_body(node.body)
            else:
                self.run_body(node.else_body)
        elif isinstance(node, _CLoop):
            lo = int(node.lower.evaluate(self.env))
            hi = int(node.upper.evaluate(self.env))
            if lo > hi:
                return
            if node.flat:
                self._run_flat(node, lo, hi)
            else:
                for i in range(lo, hi + 1):
                    self.env[node.index] = i
                    self.run_body(node.body)
                del self.env[node.index]
        else:  # pragma: no cover - compiler produces only the above
            raise AnalysisError(f"unknown node {node!r}")

    def _member(self, guard: _CGuard, value: int) -> bool:
        for lo, hi in guard.intervals:
            if lo.evaluate(self.env) <= value <= hi.evaluate(self.env):
                return True
        return False

    # -- vectorized innermost loop ---------------------------------------------

    def _run_flat(self, node: _CLoop, lo: int, hi: int) -> None:
        self._flush()
        for seg_lo, seg_hi, assigns in self._segments(node.body, node.index, lo, hi):
            if not assigns:
                # instructions with no memory accesses still advance time
                self.builder.instr_count += 0
                continue
            self._emit_segment(node.index, seg_lo, seg_hi, assigns)

    def _segments(
        self, body: tuple[_CNode, ...], var: str, lo: int, hi: int
    ) -> list[tuple[int, int, list[_CAssign]]]:
        """Split [lo, hi] into runs on which guard membership is constant."""
        cuts: set[int] = {lo, hi + 1}
        self._collect_cuts(body, var, lo, hi, cuts)
        points = sorted(cuts)
        out: list[tuple[int, int, list[_CAssign]]] = []
        for a, b in zip(points[:-1], points[1:]):
            seg_hi = b - 1
            if a > seg_hi:
                continue
            assigns: list[_CAssign] = []
            self._resolve(body, var, a, assigns)
            out.append((a, seg_hi, assigns))
        return out

    def _collect_cuts(
        self, body: tuple[_CNode, ...], var: str, lo: int, hi: int, cuts: set[int]
    ) -> None:
        for node in body:
            if isinstance(node, _CGuard):
                if node.index == var:
                    for lo_f, hi_f in node.intervals:
                        if lo_f.coeff(var) != 0 or hi_f.coeff(var) != 0:
                            raise AnalysisError(
                                f"guard interval on {var!r} may not reference {var!r}"
                            )
                        a = int(lo_f.evaluate(self.env))
                        b = int(hi_f.evaluate(self.env))
                        if a <= hi and b >= lo:
                            cuts.add(max(a, lo))
                            cuts.add(min(b + 1, hi + 1))
                self._collect_cuts(node.body, var, lo, hi, cuts)
                self._collect_cuts(node.else_body, var, lo, hi, cuts)

    def _resolve(
        self, body: tuple[_CNode, ...], var: str, point: int, out: list[_CAssign]
    ) -> None:
        """Flatten guards for the segment starting at ``point``."""
        for node in body:
            if isinstance(node, _CAssign):
                out.append(node)
            elif isinstance(node, _CGuard):
                if node.index == var:
                    member = any(
                        lo.evaluate(self.env) <= point <= hi.evaluate(self.env)
                        for lo, hi in node.intervals
                    )
                else:
                    member = self._member(node, self.env[node.index])
                self._resolve(node.body if member else node.else_body, var, point, out)
            else:  # pragma: no cover - flat loops contain no loops
                raise AnalysisError("loop inside flat segment")

    def _emit_segment(
        self, var: str, lo: int, hi: int, assigns: list[_CAssign]
    ) -> None:
        n = hi - lo + 1
        cols_aid: list[int] = []
        cols_write: list[bool] = []
        cols_ref: list[int] = []
        cols_stmt_ord: list[int] = []
        specs: list[tuple[int, int]] = []  # (base, slope) per column
        env = self.env
        env[var] = 0
        for ordinal, assign in enumerate(assigns):
            for ref in assign.refs:
                slope = ref.linform.coeff(var)
                base = ref.linform.evaluate(env)
                specs.append((int(base), int(slope)))
                cols_aid.append(ref.array_id)
                cols_write.append(ref.is_write)
                cols_ref.append(ref.ref_id)
                cols_stmt_ord.append(ordinal)
                # endpoint bounds check (linear in var => endpoints suffice)
                for endpoint in (lo, hi):
                    elem = int(base) + int(slope) * endpoint
                    if not 0 <= elem < self.sizes[ref.array_id]:
                        del env[var]
                        raise AnalysisError(
                            f"out-of-bounds access: array #{ref.array_id} element "
                            f"{elem} (size {self.sizes[ref.array_id]}) "
                            f"for {var}={endpoint} in segment [{lo},{hi}]"
                        )
        del env[var]
        ncols = len(specs)
        if ncols == 0:
            return
        iters = np.arange(lo, hi + 1, dtype=np.int64)
        mat = np.empty((n, ncols), dtype=np.int64)
        for c, (base, slope) in enumerate(specs):
            np.multiply(iters, slope, out=mat[:, c])
            mat[:, c] += base
        elems = mat.reshape(-1)
        aids = np.tile(np.asarray(cols_aid, dtype=np.int32), n)
        writes = np.tile(np.asarray(cols_write, dtype=bool), n)
        refids = np.tile(np.asarray(cols_ref, dtype=np.int32), n)
        instr = None
        if self.with_instr:
            nstmts = len(assigns)
            base_instr = self.builder.instr_count
            row_part = (np.arange(n, dtype=np.int64) * nstmts)[:, None]
            instr = (
                base_instr + row_part + np.asarray(cols_stmt_ord, dtype=np.int64)[None, :]
            ).reshape(-1)
            self.builder.instr_count += n * nstmts
        self.builder.append(aids, elems, writes, refids, instr)

    def finish(self) -> AccessTrace:
        self._flush()
        return self.builder.build()


def _compile(
    program: Program, params: Mapping[str, int]
) -> tuple[tuple[_CNode, ...], _Compiler, dict[str, int]]:
    bound = check_params(program, params)
    compiler = _Compiler(program, bound)
    return compiler.compile_body(program.body), compiler, bound


def trace_program(
    program: Program,
    params: Mapping[str, int],
    steps: int = 1,
    with_instr: bool = False,
) -> AccessTrace:
    """Generate the memory access trace of ``program`` at the given size.

    ``steps`` repeats the whole body, modelling the outer time-step loop of
    the paper's iterative applications.  ``with_instr=True`` additionally
    records a dynamic instruction id per access (needed by the
    reuse-driven-execution study).
    """
    compiled, compiler, bound = _compile(program, params)
    gen = _Generator(compiled, compiler, with_instr)
    gen.env.update(bound)
    for _ in range(steps):
        gen.run_body(compiled)
    return gen.finish()


class _Locator(_Generator):
    """Walks the compiled form like :class:`_Generator` but counts
    accesses instead of emitting them, stopping at one access index."""

    def __init__(
        self, compiled: tuple[_CNode, ...], compiler: _Compiler, index: int
    ) -> None:
        super().__init__(compiled, compiler, with_instr=False)
        self.left = index  # accesses still to skip

    def locate_body(self, body: tuple[_CNode, ...]) -> bool:
        return any(self.locate_node(node) for node in body)

    def locate_node(self, node: _CNode) -> bool:
        if isinstance(node, _CAssign):
            if self.left < len(node.refs):
                return True
            self.left -= len(node.refs)
            return False
        if isinstance(node, _CGuard):
            member = self._member(node, self.env[node.index])
            return self.locate_body(node.body if member else node.else_body)
        lo = int(node.lower.evaluate(self.env))
        hi = int(node.upper.evaluate(self.env))
        if lo > hi:
            return False
        if node.flat:
            # whole guard-constant segments are skipped arithmetically
            for seg_lo, seg_hi, assigns in self._segments(
                node.body, node.index, lo, hi
            ):
                per_iter = sum(len(a.refs) for a in assigns)
                size = per_iter * (seg_hi - seg_lo + 1)
                if self.left < size:
                    self.env[node.index] = seg_lo + self.left // per_iter
                    return True
                self.left -= size
            return False
        for i in range(lo, hi + 1):
            self.env[node.index] = i
            if self.locate_body(node.body):
                return True
        self.env.pop(node.index, None)
        return False


def access_bindings(
    program: Program, params: Mapping[str, int], indices: Sequence[int]
) -> list[tuple[tuple[str, int], ...]]:
    """Loop-variable bindings (outermost first) of each access
    ``indices[k]`` of ``trace_program(program, params)``, found without
    generating the trace: innermost loops are skipped a segment at a
    time.  An access outside every loop has no bindings."""
    compiled, compiler, bound = _compile(program, params)
    out = []
    for index in indices:
        locator = _Locator(compiled, compiler, index)
        locator.env.update(bound)
        if index < 0 or not locator.locate_body(compiled):
            raise IndexError(f"access {index} is past the end of the trace")
        out.append(
            tuple((k, v) for k, v in locator.env.items() if k not in bound)
        )
    return out


def trace_length(program: Program, params: Mapping[str, int]) -> int:
    """``len(trace_program(program, params))``, counted the same way."""
    compiled, compiler, bound = _compile(program, params)
    never = 1 << 62
    locator = _Locator(compiled, compiler, never)
    locator.env.update(bound)
    locator.locate_body(compiled)
    return never - locator.left


def iteration_counts(
    program: Program, params: Mapping[str, int], nests: Collection[int]
) -> tuple[np.ndarray, dict[int, tuple[int, np.ndarray]]]:
    """How one step of ``trace_program(program, params)`` splits at the
    top level, counted the same way as :func:`trace_length`.

    Returns the first reference id of every top-level statement (an
    access belongs to the last statement whose first id is at most its
    ``ref_ids`` entry) and, for each top-level loop at a position in
    ``nests``, ``(first outer iteration, access count per outer
    iteration)``.
    """
    bound = check_params(program, params)
    compiler = _Compiler(program, bound)
    never = 1 << 62
    locator = _Locator((), compiler, never)
    locator.env.update(bound)
    first_refs: list[int] = []
    counts: dict[int, tuple[int, np.ndarray]] = {}
    for k, stmt in enumerate(program.body):
        first_refs.append(len(compiler.refs))
        node = compiler.compile_stmt(stmt)
        if k not in nests or not isinstance(node, _CLoop):
            continue
        lo = int(node.lower.evaluate(bound))
        hi = int(node.upper.evaluate(bound))
        per = np.empty(max(hi - lo + 1, 0), np.int64)
        for n, value in enumerate(range(lo, hi + 1)):
            locator.left = never
            locator.env[node.index] = value
            locator.locate_body(node.body)
            per[n] = never - locator.left
        counts[k] = (lo, per)
    return np.asarray(first_refs, dtype=np.int64), counts
