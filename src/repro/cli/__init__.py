"""Command-line interface (the ``rajaperf-sim`` executable).

The package imports nothing on its own: ``repro.cli.exitcodes`` stays a
leaf any module may import, and ``python -m repro.cli.main`` runs the
entry point without a second, conflicting import of it.
"""
