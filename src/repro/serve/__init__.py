"""``repro.serve`` — the payload builders behind ``repro study`` and
``repro sweep``.

:mod:`repro.serve.handlers` defines ``study_payload`` and
``sweep_payload``; the CLI and the warm-cli perfbench workload import
them from there.  This package re-exports nothing.
"""
