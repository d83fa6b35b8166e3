"""The paper's running example: ``init``/``mul2``/``plus5``/``print``.

Figure 5 of the paper defines two 1-dimensional, 5-element fields and
four kernels forming a cycle:

* ``init`` runs once and stores ``{10, 11, 12, 13, 14}`` to
  ``m_data(0)``;
* ``mul2`` fetches one element of ``m_data(a)``, doubles it, stores it to
  ``p_data(a)``;
* ``plus5`` fetches one element of ``p_data(a)``, adds five, stores it to
  ``m_data(a+1)`` — closing the cycle at the next age;
* ``print`` fetches both whole fields per age and writes them out.

The paper states the exact observable series: the print kernel writes
``{10, 11, 12, 13, 14}, {20, 22, 24, 26, 28}`` for the first age and
``{25, 27, 29, 31, 33}, {50, 54, 58, 62, 66}`` for the second, and so on,
indefinitely.  :func:`expected_series` computes that reference series so
tests can check the runtime against the paper's published values.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..core import (
    Dim,
    FetchSpec,
    FieldDef,
    KernelContext,
    KernelDef,
    Program,
    StoreSpec,
)

DEFAULT_VALUES = (10, 11, 12, 13, 14)


def build_mulsum(
    values: Sequence[int] = DEFAULT_VALUES,
    sink: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
    echo: Callable[[str], None] | None = None,
    modulo: int | None = None,
) -> tuple[Program, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Build the figure-5 program.

    Parameters
    ----------
    values:
        Initial contents of ``m_data(0)`` (the paper uses 10..14).
    sink:
        Optional dict to collect ``print`` output into, keyed by age
        (each worker writes a distinct key, so no extra locking is
        needed).  A fresh dict is created when omitted.
    echo:
        Optional callable receiving the formatted lines ``print`` would
        write to ``cout`` (handy for the quickstart example).
    modulo:
        Optional wrap-around applied after each operation.  The series
        doubles every age, so an unbounded run (the paper's program "runs
        indefinitely") eventually exceeds int64; long-running tests pass
        a modulus to keep arithmetic exact forever.

    Returns
    -------
    (program, sink)
        Run with ``run_program(program, workers, max_age=N)`` — the
        program has no termination condition, exactly as in the paper, so
        a ``max_age`` bound (or ``stop()``) is required.
    """
    collected: dict[int, tuple[np.ndarray, np.ndarray]] = (
        sink if sink is not None else {}
    )
    init_values = np.asarray(list(values), dtype=np.int64)

    def init_body(ctx: KernelContext) -> None:
        local = ctx.local("int64", 1)
        for i, v in enumerate(init_values):
            local.put(int(v) + 0, i)  # put(values, i+10, i) in the paper
        ctx.emit("m_data", local.data)

    def mul2_body(ctx: KernelContext) -> None:
        value = ctx["value"]
        value *= 2
        if modulo is not None:
            value %= modulo
        ctx.emit("p_data", value)

    def plus5_body(ctx: KernelContext) -> None:
        value = ctx["value"]
        value += 5
        if modulo is not None:
            value %= modulo
        ctx.emit("m_data", value)

    def affine(mul: int, add: int):
        """The stacked form of ``mul2`` / ``plus5``: the smallest
        possible native block, where dispatch overhead dominates by
        orders of magnitude (table II's pattern)."""

        def stack(v: np.ndarray) -> np.ndarray:
            v = v.reshape(len(v)) * mul + add
            return v if modulo is None else v % modulo

        return stack

    def print_body(ctx: KernelContext) -> None:
        m = ctx["m"]
        p = ctx["p"]
        collected[ctx.age] = (m.copy(), p.copy())
        if echo is not None:
            echo(" ".join(str(int(x)) for x in m))
            echo(" ".join(str(int(x)) for x in p))

    init = KernelDef(
        name="init",
        body=init_body,
        stores=(StoreSpec("m_data", age=_const0()),),
    )
    mul2 = KernelDef(
        name="mul2",
        body=mul2_body,
        has_age=True,
        index_vars=("x",),
        fetches=(
            FetchSpec("value", "m_data", dims=(Dim.of("x"),), scalar=True),
        ),
        stores=(StoreSpec("p_data", dims=(Dim.of("x"),)),),
        stack=affine(2, 0),
    )
    plus5 = KernelDef(
        name="plus5",
        body=plus5_body,
        has_age=True,
        index_vars=("x",),
        fetches=(
            FetchSpec("value", "p_data", dims=(Dim.of("x"),), scalar=True),
        ),
        stores=(
            StoreSpec("m_data", age=_age_plus1(), dims=(Dim.of("x"),)),
        ),
        stack=affine(1, 5),
    )
    prnt = KernelDef(
        name="print",
        body=print_body,
        has_age=True,
        fetches=(
            FetchSpec("m", "m_data"),
            FetchSpec("p", "p_data"),
        ),
    )
    program = Program.build(
        fields=[
            FieldDef("m_data", "int64", 1, aging=True),
            FieldDef("p_data", "int64", 1, aging=True),
        ],
        kernels=[init, mul2, plus5, prnt],
        name="mulsum",
    )
    return program, collected


def _const0():
    from ..core import AgeExpr

    return AgeExpr.const(0)


def _age_plus1():
    from ..core import AgeExpr

    return AgeExpr.var(1)


def expected_series(
    ages: int,
    values: Sequence[int] = DEFAULT_VALUES,
    modulo: int | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Reference semantics of the figure-5 program.

    Fields are int64 (the paper uses int32; the values double every age,
    so 64-bit keeps long runs exact).

    Returns per age ``(m_data, p_data)``; age 0 is
    ``({10..14}, {20,22,24,26,28})`` for the default values, matching the
    series printed in the paper.
    """
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    m = np.asarray(list(values), dtype=np.int64)
    for a in range(ages):
        p = m * 2
        if modulo is not None:
            p = p % modulo
        out[a] = (m.copy(), p.copy())
        m = p + 5
        if modulo is not None:
            m = m % modulo
    return out
