"""K-means clustering as a P2G program (paper figure 7, section VII-A).

The paper's pipeline: an ``init`` kernel generates ``n`` datapoints and
picks ``k`` of them as initial centroids; an ``assign`` kernel computes,
per kernel instance, the relation of datapoints to the *last calculated*
centroids; a ``refine`` kernel recomputes each cluster's mean and stores
it into the next age of the ``centroids`` field — ``assign``/``refine``
form the aging loop.  A ``print`` kernel observes each centroid
generation.  The run is bounded to a fixed number of iterations exactly
as in the evaluation ("the K-means algorithm is not run until
convergence, but with 10 iterations").

Two decomposition granularities are provided (the knob table III turns
out to matter — the fine-grained ``assign`` saturates the dependency
analyzer and limits scaling to 4 threads, figure 10):

* ``granularity="pair"`` (default, matches the paper's instance counts):
  one ``assign`` instance per (datapoint, centroid) pair storing a
  single distance — ``n*k`` instances per iteration, 2,000,000 total at
  the paper's n=2000, K=100, 10 iterations (the paper reports 2,024,251
  including a partially dispatched final age).
* ``granularity="point"``: one instance per datapoint computing its
  nearest centroid directly — the coarser decomposition the paper says
  the LLS should choose ("each kernel instance of assign working on
  larger slices of data").

Both granularities produce bit-identical centroid trajectories, verified
against :func:`kmeans_baseline` (sequential Lloyd's iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Literal

import numpy as np

from ..core import (
    AgeExpr,
    Dim,
    FetchSpec,
    FieldDef,
    KernelContext,
    KernelDef,
    Program,
    StoreSpec,
)

__all__ = ["build_kmeans", "kmeans_baseline", "KMeansResult", "generate_dataset"]


def generate_dataset(
    n: int, dims: int = 2, seed: int = 42
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic random dataset + initial centroids.

    Mirrors the paper's "randomly generated data set containing 2000
    datapoints" with K of them "selected randomly as the initial means".
    Both the P2G program and the baseline call this, so their inputs are
    bit-identical.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 100.0, size=(n, dims))
    return points, rng.permutation(n)


def _initial_centroids(
    points: np.ndarray, k: int, perm: np.ndarray
) -> np.ndarray:
    return points[perm[:k]].copy()


@dataclass
class KMeansResult:
    """Centroid trajectory and derived diagnostics."""

    history: dict[int, np.ndarray] = dc_field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """Number of refine rounds recorded (highest age)."""
        return max(self.history) if self.history else 0

    def final_centroids(self) -> np.ndarray:
        """Centroids of the last recorded age."""
        return self.history[max(self.history)]

    def assignments(self, points: np.ndarray) -> np.ndarray:
        """Nearest-centroid index per point, under the final centroids."""
        c = self.final_centroids()
        d = np.linalg.norm(points[:, None, :] - c[None, :, :], axis=2)
        return np.argmin(d, axis=1)

    def inertia(self, points: np.ndarray) -> float:
        """Sum of squared distances to assigned final centroids."""
        c = self.final_centroids()
        a = self.assignments(points)
        return float(np.sum((points - c[a]) ** 2))


def _refine_mean(
    points: np.ndarray,
    owner: np.ndarray,
    prev_centroid: np.ndarray,
    cluster: int,
) -> np.ndarray:
    """Mean of a cluster's members; empty clusters keep their centroid
    (the same rule the baseline uses, so trajectories stay identical)."""
    members = points[owner == cluster]
    if len(members) == 0:
        return prev_centroid.copy()
    return members.mean(axis=0)


def build_kmeans(
    n: int = 2000,
    k: int = 100,
    dims: int = 2,
    iterations: int = 10,
    seed: int = 42,
    granularity: Literal["pair", "point"] = "pair",
) -> tuple[Program, KMeansResult]:
    """Build the K-means P2G program; returns (program, result sink).

    Run with ``run_program(program, workers)`` — iteration bounds are
    baked in via per-kernel age limits, so no global ``max_age`` is
    needed.  ``result.history[a]`` holds the centroids of age ``a``
    (age 0 = initial means, age ``iterations`` = final means).

    ``assign`` carries a stacked form (``batch_body``) at either
    granularity, used by batched dispatch (``batch > 1``) and
    byte-identical to the scalar body.
    """
    if granularity not in ("pair", "point"):
        raise ValueError(f"unknown granularity {granularity!r}")
    points_data, perm = generate_dataset(n, dims, seed)
    init_centroids = _initial_centroids(points_data, k, perm)
    result = KMeansResult()

    def init_body(ctx: KernelContext) -> None:
        ctx.emit("datapoints", points_data)
        ctx.emit("centroids", init_centroids)

    def print_body(ctx: KernelContext) -> None:
        # Out-of-band: the centroid snapshot is delivered to the result
        # sink via the program's output handler in the parent process,
        # so the trajectory records identically on every backend.
        ctx.output("centroids", ctx["c"].copy())

    init = KernelDef(
        name="init",
        body=init_body,
        stores=(
            StoreSpec("datapoints", age=AgeExpr.const(0)),
            StoreSpec("centroids", age=AgeExpr.const(0)),
        ),
    )
    prnt = KernelDef(
        name="print",
        body=print_body,
        has_age=True,
        fetches=(FetchSpec("c", "centroids"),),
        age_limit=iterations,
    )

    fields = [
        FieldDef("datapoints", "float64", 2, aging=False, shape=(n, dims)),
        FieldDef("centroids", "float64", 2, aging=True, shape=(k, dims)),
    ]

    if granularity == "pair":
        # assign(x, c): distance between point x and centroid c.
        def assign_body(ctx: KernelContext) -> None:
            p = ctx["point"].reshape(-1)
            c = ctx["centroid"].reshape(-1)
            ctx.emit("distances", float(np.sqrt(np.sum((p - c) ** 2))))

        def assign_batch(bctx) -> None:
            # Row-wise reduction: NumPy reduces each row with the same
            # pairwise summation a 1-D sum uses, so the bits match.
            n = len(bctx)
            p = bctx["point"].reshape(n, -1)
            c = bctx["centroid"].reshape(n, -1)
            bctx.emit("distances", np.sqrt(np.sum((p - c) ** 2, axis=1)))

        def refine_body(ctx: KernelContext) -> None:
            d = ctx["distances"]  # (n, k)
            pts = ctx["points"]
            prev_row = ctx["centroid"].reshape(-1)
            owner = np.argmin(d, axis=1)
            ctx.emit(
                "centroids",
                _refine_mean(pts, owner, prev_row, ctx.index["c"]),
            )

        assign = KernelDef(
            name="assign",
            body=assign_body,
            has_age=True,
            index_vars=("x", "c"),
            fetches=(
                FetchSpec(
                    "point", "datapoints", age=AgeExpr.const(0),
                    dims=(Dim.of("x"), Dim.all()),
                ),
                FetchSpec(
                    "centroid", "centroids",
                    dims=(Dim.of("c"), Dim.all()),
                ),
            ),
            stores=(
                StoreSpec(
                    "distances", dims=(Dim.of("x"), Dim.of("c")),
                ),
            ),
            age_limit=iterations - 1,
            batch_body=assign_batch,
        )
        refine = KernelDef(
            name="refine",
            body=refine_body,
            has_age=True,
            index_vars=("c",),
            fetches=(
                FetchSpec("distances", "distances"),
                FetchSpec(
                    "points", "datapoints", age=AgeExpr.const(0)
                ),
                FetchSpec(
                    "centroid", "centroids",
                    dims=(Dim.of("c"), Dim.all()),
                ),
            ),
            stores=(
                StoreSpec(
                    "centroids", age=AgeExpr.var(1),
                    dims=(Dim.of("c"), Dim.all()),
                ),
            ),
            age_limit=iterations - 1,
        )
        fields.append(
            FieldDef("distances", "float64", 2, aging=True, shape=(n, k))
        )
    else:
        # assign(x): nearest centroid of point x.
        def assign_body(ctx: KernelContext) -> None:
            p = ctx["point"].reshape(-1)
            c = ctx["centroids"]
            d = np.linalg.norm(c - p[None, :], axis=1)
            ctx.emit("assignments", int(np.argmin(d)))

        def assign_batch(bctx) -> None:
            # The centroids fetch is whole-field (shared by the stack);
            # distances reduce over the trailing axis exactly as the
            # scalar norm does per point.
            p = bctx["point"].reshape(len(bctx), 1, -1)
            d = np.linalg.norm(bctx["centroids"][None, :, :] - p, axis=2)
            bctx.emit("assignments", np.argmin(d, axis=1))

        def refine_body(ctx: KernelContext) -> None:
            owner = ctx["assignments"].reshape(-1)
            pts = ctx["points"]
            prev_row = ctx["centroid"].reshape(-1)
            ctx.emit(
                "centroids",
                _refine_mean(pts, owner, prev_row, ctx.index["c"]),
            )

        assign = KernelDef(
            name="assign",
            body=assign_body,
            has_age=True,
            index_vars=("x",),
            fetches=(
                FetchSpec(
                    "point", "datapoints", age=AgeExpr.const(0),
                    dims=(Dim.of("x"), Dim.all()),
                ),
                FetchSpec("centroids", "centroids"),
            ),
            stores=(StoreSpec("assignments", dims=(Dim.of("x"),)),),
            age_limit=iterations - 1,
            batch_body=assign_batch,
        )
        refine = KernelDef(
            name="refine",
            body=refine_body,
            has_age=True,
            index_vars=("c",),
            fetches=(
                FetchSpec("assignments", "assignments"),
                FetchSpec(
                    "points", "datapoints", age=AgeExpr.const(0)
                ),
                FetchSpec(
                    "centroid", "centroids",
                    dims=(Dim.of("c"), Dim.all()),
                ),
            ),
            stores=(
                StoreSpec(
                    "centroids", age=AgeExpr.var(1),
                    dims=(Dim.of("c"), Dim.all()),
                ),
            ),
            age_limit=iterations - 1,
        )
        fields.append(
            FieldDef("assignments", "int32", 1, aging=True, shape=(n,))
        )

    # refine's centroid rows land in ages 1..iterations; its own count
    # domain for variable c is bound by the centroids fetch.
    program = Program.build(
        fields=fields,
        kernels=[init, assign, refine, prnt],
        name=f"kmeans-{granularity}",
    )

    def on_output(kernel, age, index, key, value) -> None:
        if key == "centroids":
            result.history[age] = value

    program.set_output_handler(on_output)
    return program, result


def kmeans_baseline(
    n: int = 2000,
    k: int = 100,
    dims: int = 2,
    iterations: int = 10,
    seed: int = 42,
) -> KMeansResult:
    """Sequential Lloyd's iteration with the same data, initialization
    and empty-cluster rule as the P2G program — the ground truth for the
    equivalence tests and the single-threaded comparator for figure 10.
    """
    points, perm = generate_dataset(n, dims, seed)
    centroids = _initial_centroids(points, k, perm)
    result = KMeansResult()
    result.history[0] = centroids.copy()
    for it in range(iterations):
        d = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        owner = np.argmin(d, axis=1)
        nxt = centroids.copy()
        for c in range(k):
            nxt[c] = _refine_mean(points, owner, centroids[c], c)
        centroids = nxt
        result.history[it + 1] = centroids.copy()
    return result
