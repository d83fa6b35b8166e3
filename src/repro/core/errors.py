"""Exception hierarchy for the P2G runtime.

Every error raised by :mod:`repro` derives from :class:`P2GError` so callers
can catch framework failures without masking unrelated bugs.
"""

from __future__ import annotations


class P2GError(Exception):
    """Base class for all P2G framework errors."""


class FieldError(P2GError):
    """Base class for field-related errors."""


class WriteOnceViolation(FieldError):
    """An element of a field was stored more than once for the same age.

    P2G's determinism rests on write-once semantics (section III of the
    paper): a position in a field may be written at most once per age.
    """

    def __init__(self, field: str, age: int, index) -> None:
        super().__init__(
            f"write-once violation: field {field!r} age={age} index={index} "
            f"was already written"
        )
        self.field = field
        self.age = age
        self.index = index


class ExtentError(FieldError):
    """A fetch or store referenced indices outside a field's extent in a
    way that cannot be satisfied by implicit resizing (e.g. negative
    indices or mismatched dimensionality)."""


class AgeError(FieldError):
    """An operation referenced a negative or otherwise invalid age."""


class CollectedAgeError(FieldError):
    """A fetch referenced an age that the garbage collector already freed."""

    def __init__(self, field: str, age: int) -> None:
        super().__init__(
            f"field {field!r} age={age} has been garbage-collected; "
            f"increase keep_ages or disable GC"
        )
        self.field = field
        self.age = age


class KernelError(P2GError):
    """Base class for kernel-definition errors."""


class DefinitionError(KernelError):
    """A kernel or field definition is malformed (unknown field, duplicate
    names, inconsistent index variables, ...)."""


class KernelBodyError(KernelError):
    """A kernel body raised an exception at run time.

    Wraps the original exception so the scheduler can report which
    instance failed without losing the traceback.  ``stores`` holds the
    store records (:func:`~repro.core.execute.run_batch`'s) of the
    claim's instances that ran before the failing one: where the claim
    ran in the parent their bytes are committed, so the backend still
    announces them.
    """

    def __init__(self, kernel: str, age, index, cause: BaseException) -> None:
        super().__init__(
            f"kernel {kernel!r} instance (age={age}, index={index}) raised "
            f"{type(cause).__name__}: {cause}"
        )
        self.kernel = kernel
        self.age = age
        self.index = index
        self.cause = cause
        self.stores: list = []


class FusedStageError(KernelError):
    """A stage of a fused kernel raised: names the operator (or
    pre-fusion kernel) whose native block failed, which the fused
    kernel's own name no longer says."""

    def __init__(self, stage: str, cause: BaseException) -> None:
        super().__init__(
            f"fused stage {stage!r} raised {type(cause).__name__}: {cause}"
        )
        self.stage = stage
        self.cause = cause


class RuntimeStateError(P2GError):
    """The runtime was used in an invalid state (e.g. run() twice)."""


class WorkerProcessError(RuntimeStateError):
    """A worker process of the ``processes`` backend died unexpectedly.

    Raised by the parent runtime when a worker exits without sending a
    reply (segfault, ``os._exit``, OOM-kill, ...), so a crashed worker
    surfaces as a clean runtime error instead of a hang.
    """

    def __init__(self, worker_id: int, message: str) -> None:
        super().__init__(f"worker process {worker_id}: {message}")
        self.worker_id = worker_id


class SchedulerError(P2GError):
    """Low-level or high-level scheduler failure (invalid granularity,
    fusion of incompatible kernels, ...)."""


class PartitionError(P2GError):
    """The HLS graph partitioner received invalid input or produced an
    invalid partition."""


class LanguageError(P2GError):
    """Base class for kernel-language compilation errors."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}"
                                        if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class LexError(LanguageError):
    """Tokenization failed."""


class ParseError(LanguageError):
    """Parsing failed."""


class SemanticError(LanguageError):
    """Semantic analysis failed (undeclared identifiers, type errors,
    inconsistent age/index usage, ...)."""


class StallError(RuntimeStateError):
    """The quiescence counter made no progress for longer than the
    configured stall watchdog.

    Raised instead of hanging when a node (or the whole cluster) stops
    draining its work: outstanding work stays positive but no unit is
    retired.  Distinguishes a wedged run from a merely slow one — the
    watchdog interval must exceed the longest single kernel body.
    """

    def __init__(self, message: str, outstanding: int = 0) -> None:
        super().__init__(message)
        self.outstanding = outstanding


class NodeFailureError(P2GError):
    """A distributed run lost an execution node and could not recover.

    Raised by the cluster's recovery manager when the per-node restart
    budget is exhausted or no surviving node remains to host the dead
    node's kernels.  ``failures`` lists the (node, attempt) history so a
    chaos harness can dump a reproducible failure schedule.
    """

    def __init__(
        self, message: str, failures: list[tuple[str, int]] | None = None
    ) -> None:
        super().__init__(message)
        self.failures = failures or []


class TransportError(P2GError):
    """The distributed message transport failed to deliver a message."""


class TopologyError(P2GError):
    """Invalid topology description or node registration."""
