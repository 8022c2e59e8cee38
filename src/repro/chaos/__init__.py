"""Deterministic crash-consistency chaos testing.

The crash points live in the fault-site registry of
:mod:`repro.faults`. :mod:`repro.chaos.runner` drives the full run ->
fsck -> resume -> analyze loop against every point and machine-checks
the recovery invariants; :mod:`repro.chaos.invariants` holds the checks
themselves.
"""
