"""Code generation: kernel-language AST → executable ``repro.core``
objects.

Each kernel's native blocks are spliced into a generated Python function
with this environment:

* the age variable (e.g. ``a``) and index variables bound to the
  instance's values;
* fetch targets bound to the fetched values (scalars for single-element
  fetches, NumPy arrays otherwise);
* ``local`` declarations bound to :class:`~repro.core.LocalField`
  instances (array locals) or 0 (scalar locals);
* timers bound by name to :class:`~repro.core.Timer` objects;
* intrinsics ``put``/``get``/``extent`` (figure 5/6) plus ``np`` and
  ``math``, and a ``print`` whose lines stay whole when instances on
  different workers print at once;
* any extra ``bindings`` the embedder passes to ``compile_program``
  (how programs reach host objects such as output sinks).

After the native blocks run, each ``store f(a)[x] = src;`` statement
emits the final value of ``src`` — unless it is ``None``, which skips
the store (end-of-stream / deadline-miss alternate paths).
"""

from __future__ import annotations

import math
import sys
import textwrap
import threading
from typing import Any, Mapping

import numpy as np

from ..core import (
    AgeExpr,
    Dim,
    FetchSpec,
    FieldDef,
    KernelDef,
    LocalField,
    Program,
    StoreSpec,
)
from ..core.errors import SemanticError
from .ast import AgeRef, IndexRef, KernelDecl, ProgramDecl

__all__ = ["generate_program", "put", "get", "extent"]


# ----------------------------------------------------------------------
# Intrinsics available inside native blocks (figure 5/6 vocabulary)
# ----------------------------------------------------------------------
def put(target: LocalField, value: Any, *index: int) -> None:
    """``put(values, v, i, ...)`` — store into a local field, growing it."""
    target.put(value, *index)


def get(source: Any, *index: int) -> Any:
    """``get(m, i, ...)`` — read an element of a local field or array."""
    if isinstance(source, LocalField):
        return source.get(*index)
    return np.asarray(source)[tuple(index)]


def extent(source: Any, dim: int = 0) -> int:
    """``extent(m, d)`` — size of a local field or array along ``dim``."""
    if isinstance(source, LocalField):
        return source.extent(dim)
    return np.asarray(source).shape[dim]


_PRINT_LOCK = threading.Lock()


def _print(*args: Any, sep: str | None = " ", end: str | None = "\n",
           file: Any = None, flush: bool = False) -> None:
    """``print`` for native blocks.  The builtin writes every argument
    and separator to the stream on its own, so two instances printing
    from two worker threads interleave inside a line ("age age 3 4 :
    : ..."); this one formats the line once and writes it once, under a
    lock."""
    text = (" " if sep is None else sep).join(map(str, args)) + (
        "\n" if end is None else end
    )
    stream = sys.stdout if file is None else file
    with _PRINT_LOCK:
        stream.write(text)
        if flush:
            stream.flush()


_INTRINSICS: dict[str, Any] = {
    "print": _print,
    "put": put,
    "get": get,
    "extent": extent,
    "np": np,
    "math": math,
    "LocalField": LocalField,
}


# ----------------------------------------------------------------------
def _age_expr(ref: AgeRef) -> AgeExpr:
    if ref.var is None:
        return AgeExpr.const(int(ref.literal))
    return AgeExpr.var(ref.offset)


def _dims(index: tuple[IndexRef, ...]) -> tuple[Dim, ...]:
    return tuple(
        Dim.all() if item.is_all
        else Dim.of(item.var, item.block, item.offset)
        for item in index
    )


def _dedent_native(code: str) -> str:
    if "\n" not in code:
        return code.strip()
    body = code.lstrip("\n")
    return textwrap.dedent(body).rstrip()


def _store_key(field: str, source: str, seen: set[str]) -> str:
    key = field
    if key in seen:
        key = f"{field}={source}"
    i = 2
    while key in seen:
        key = f"{field}={source}#{i}"
        i += 1
    seen.add(key)
    return key


def _generate_kernel(
    kernel: KernelDecl, bindings: Mapping[str, Any]
) -> KernelDef:
    ages = kernel.ages()
    age_name = ages[0].name if ages else None
    index_vars = tuple(ix.name for ix in kernel.indices())

    fetch_specs: list[FetchSpec] = []
    for fe in kernel.fetches():
        dims = _dims(fe.index)
        scalar = bool(dims) and all(
            not d.is_all and d.block == 1 for d in dims
        )
        fetch_specs.append(
            FetchSpec(fe.param, fe.field, _age_expr(fe.age), dims, scalar)
        )

    store_specs: list[StoreSpec] = []
    store_sources: list[tuple[str, str]] = []  # (emit key, source var)
    seen_keys: set[str] = set()
    for st in kernel.stores():
        key = _store_key(st.field, st.source, seen_keys)
        store_specs.append(
            StoreSpec(st.field, _age_expr(st.age), _dims(st.index), key=key)
        )
        store_sources.append((key, st.source))

    # ------------------------------------------------------------------
    # Build the body function source
    # ------------------------------------------------------------------
    lines: list[str] = [f"def __p2g_body_{kernel.name}(ctx):"]
    if age_name:
        lines.append(f"    {age_name} = ctx.age")
    for v in index_vars:
        lines.append(f"    {v} = ctx.index[{v!r}]")
    for fe in kernel.fetches():
        lines.append(f"    {fe.param} = ctx.fetched[{fe.param!r}]")
    for lo in kernel.locals():
        if lo.ndim == 0:
            lines.append(f"    {lo.name} = 0")
        else:
            lines.append(
                f"    {lo.name} = LocalField({lo.dtype!r}, {lo.ndim})"
            )
    for tname in _timer_names(bindings):
        lines.append(f"    {tname} = ctx.timers[{tname!r}]")
    for nb in kernel.natives():
        code = _dedent_native(nb.code)
        if not code:
            continue
        for ln in code.splitlines():
            lines.append("    " + ln)
    for key, source in store_sources:
        lines.append(f"    __v = {source}")
        lines.append("    if isinstance(__v, LocalField): __v = __v.data")
        lines.append(f"    if __v is not None: ctx.emit({key!r}, __v)")
    if len(lines) == 1:
        lines.append("    pass")
    src = "\n".join(lines)

    env: dict[str, Any] = dict(_INTRINSICS)
    env.update(bindings)
    try:
        code_obj = compile(src, f"<p2g:{kernel.name}>", "exec")
    except SyntaxError as exc:
        raise SemanticError(
            f"kernel {kernel.name!r}: native block is not valid Python: "
            f"{exc.msg}",
            kernel.line,
        ) from exc
    exec(code_obj, env)
    body = env[f"__p2g_body_{kernel.name}"]

    age_limit = None
    domain: dict[str, int] = {}
    for opt in kernel.options():
        if opt.name == "age_limit":
            age_limit = opt.value
        elif opt.name == "domain":
            domain[opt.key] = opt.value

    return KernelDef(
        name=kernel.name,
        body=body,
        fetches=tuple(fetch_specs),
        stores=tuple(store_specs),
        has_age=age_name is not None,
        index_vars=index_vars,
        domain=domain or None,
        age_limit=age_limit,
    )


def _timer_names(bindings: Mapping[str, Any]) -> tuple[str, ...]:
    return tuple(bindings.get("__timer_names__", ()))


def generate_program(
    prog: ProgramDecl,
    bindings: Mapping[str, Any] | None = None,
    name: str = "program",
) -> Program:
    """Lower a validated AST to a :class:`repro.core.Program`."""
    bindings = dict(bindings or {})
    timer_names = tuple(t.name for t in prog.timers)
    bindings["__timer_names__"] = timer_names
    fields = [
        FieldDef(
            f.name, f.dtype, f.ndim, f.aging,
            shape=(
                tuple(f.shape)
                if f.shape and all(s is not None for s in f.shape)
                else None
            ),
        )
        for f in prog.fields
    ]
    kernels = [_generate_kernel(k, bindings) for k in prog.kernels]
    return Program.build(fields, kernels, timer_names, name)
