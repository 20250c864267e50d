"""Benchmark suite: design generators, Table 2 cases, harness, formatting."""

from . import designs
from .suites import BenchmarkCase, PaperNumbers, case_by_name, representative_cases, table2_cases
from .runner import (
    BenchmarkArtifacts,
    BenchmarkRow,
    prepare_case,
    run_case,
    run_suite,
    run_window_shares,
    share_kernel_seconds,
)
from .tables import TABLE2_HEADER, format_rows, format_table2, table2_rows

__all__ = [
    "designs",
    "BenchmarkCase",
    "PaperNumbers",
    "case_by_name",
    "representative_cases",
    "table2_cases",
    "BenchmarkArtifacts",
    "BenchmarkRow",
    "prepare_case",
    "run_case",
    "run_suite",
    "run_window_shares",
    "share_kernel_seconds",
    "TABLE2_HEADER",
    "format_rows",
    "format_table2",
    "table2_rows",
]
