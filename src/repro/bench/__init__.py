"""Experiment harness: regenerates every table and figure in the paper.

Each function regenerates an artifact laid out as the paper presents
it; ``python -m repro tables`` prints the evaluation from them and
``EXPERIMENTS.md`` records paper-vs-measured for each.

Measurement tiers (documented per experiment):

* **simulated** — the discrete-event node with table-calibrated costs on
  the table-I machine profiles (figures 9, 10: curve shapes);
* **measured** — the real Python runtime on this host, at a reduced
  scale where the full parameters are impractical under the GIL
  (tables II, III: instance counts exact, timings host-specific;
  figure 9's worker sweep on both backends);
* **structural** — graphs and language artifacts (figures 2–8).
"""

from .experiments import (
    fig2_intermediate_graph,
    fig3_final_graph,
    fig4_dcdag,
    fig9_measured,
    fig9_mjpeg_scaling,
    fig10_kmeans_scaling,
    micro_tables,
    table1_machines,
)
from .plots import ascii_chart, format_sweep

__all__ = [
    "ascii_chart",
    "fig10_kmeans_scaling",
    "fig2_intermediate_graph",
    "fig3_final_graph",
    "fig4_dcdag",
    "fig9_measured",
    "fig9_mjpeg_scaling",
    "format_sweep",
    "micro_tables",
    "table1_machines",
]
