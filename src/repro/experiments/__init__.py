"""Experiment harnesses: one module per table/figure of the paper.

==============  ===================================================
Module          Paper content
==============  ===================================================
``figure2``     Fig. 1 (schematic) + Fig. 2: time-to-converge vs m
``figure3``     Fig. 3a/3b: device timing curves
``table1``      Table 1: per-iteration cost model + verification
``table2``      Table 2: vs original EigenPro / FALKON
``table3``      Table 3: "interactive" training vs LibSVM/ThunderSVM
``table4``      Table 4: automatically calculated parameters
``ablations``   Section 5.5 kernel/PCA studies + Appendix C check
==============  ===================================================

Run from the command line::

    python -m repro.experiments all
    python -m repro.experiments table2 figure3a
"""

from repro.experiments.ablations import (
    AblationConfig,
    run_acceleration_check,
    run_kernel_choice_ablation,
    run_pca_ablation,
    run_smoothness_ablation,
)
from repro.experiments.cluster_scaling import (
    ClusterScalingConfig,
    run_cluster_scaling,
)
from repro.experiments.figure1 import Figure1Config, run_figure1
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.figure3 import Figure3Config, run_figure3a, run_figure3b
from repro.experiments.harness import ExperimentResult, PaperClaim, format_table
from repro.experiments.observe_report import (
    ObserveReportConfig,
    run_observe_report,
)
from repro.experiments.serve_report import (
    ServeReportConfig,
    run_serve_report,
)
from repro.experiments.table1 import Table1Config, run_table1
from repro.experiments.table2 import PAPER_TABLE2, Table2Config, run_table2
from repro.experiments.table3 import PAPER_TABLE3, Table3Config, run_table3
from repro.experiments.table4 import PAPER_TABLE4, Table4Config, run_table4

__all__ = [
    "ExperimentResult",
    "PaperClaim",
    "format_table",
    "Figure1Config",
    "run_figure1",
    "Figure2Config",
    "run_figure2",
    "ClusterScalingConfig",
    "run_cluster_scaling",
    "ObserveReportConfig",
    "run_observe_report",
    "ServeReportConfig",
    "run_serve_report",
    "Figure3Config",
    "run_figure3a",
    "run_figure3b",
    "Table1Config",
    "run_table1",
    "Table2Config",
    "run_table2",
    "PAPER_TABLE2",
    "Table3Config",
    "run_table3",
    "PAPER_TABLE3",
    "Table4Config",
    "run_table4",
    "PAPER_TABLE4",
    "AblationConfig",
    "run_kernel_choice_ablation",
    "run_pca_ablation",
    "run_acceleration_check",
    "run_smoothness_ablation",
]

#: Registry used by the CLI.
EXPERIMENTS = {
    "figure1": run_figure1,
    "figure2": run_figure2,
    "cluster-scaling": run_cluster_scaling,
    "observe-report": run_observe_report,
    "serve-report": run_serve_report,
    "figure3a": run_figure3a,
    "figure3b": run_figure3b,
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "ablation-kernel": run_kernel_choice_ablation,
    "ablation-pca": run_pca_ablation,
    "ablation-smoothness": run_smoothness_ablation,
    "acceleration": run_acceleration_check,
}
