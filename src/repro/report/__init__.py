"""Plain-text rendering of experiment results (paper-style tables).

Run summaries live in :mod:`repro.report.timeline`, which is not
imported here: ``python -m repro.report.timeline`` runs that module as
``__main__``, and an eager import would load it a second time.
"""

from repro.report.tables import Table, format_breakdown, render_table1

__all__ = [
    "Table",
    "format_breakdown",
    "render_table1",
]
