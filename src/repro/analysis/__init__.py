"""Analysis: Table 1, Figures 2-6, and text rendering."""

from .compare import (
    ShapeCheck,
    agreement_report,
    compare_figure5,
    compare_figure6,
    compare_run,
    compare_table1,
)
from .export import (
    CSV_FIELDS,
    export_database,
    export_records,
    import_records,
    record_to_row,
    row_to_record,
)
from .figures import (
    figure2_integrated_cpu,
    figure3_differential_cpu,
    figure4_cms_by_site,
    figure5_data_consumed,
    figure6_jobs_by_month,
)
from .report import (
    fmt_cell,
    render_bar_chart,
    render_grouped_series,
    render_series,
    render_table,
)
from .table1 import (
    PAPER_TABLE1,
    PAPER_TOTAL_RECORDS,
    TABLE1_CLASSES,
    Table1Row,
    classify,
    compute_table1,
    render_table1,
)

__all__ = [
    "CSV_FIELDS",
    "ShapeCheck",
    "agreement_report",
    "compare_figure5",
    "compare_figure6",
    "compare_run",
    "compare_table1",
    "PAPER_TABLE1",
    "export_database",
    "export_records",
    "import_records",
    "record_to_row",
    "row_to_record",
    "PAPER_TOTAL_RECORDS",
    "TABLE1_CLASSES",
    "Table1Row",
    "classify",
    "compute_table1",
    "figure2_integrated_cpu",
    "figure3_differential_cpu",
    "figure4_cms_by_site",
    "figure5_data_consumed",
    "figure6_jobs_by_month",
    "fmt_cell",
    "render_bar_chart",
    "render_grouped_series",
    "render_series",
    "render_table",
    "render_table1",
]
