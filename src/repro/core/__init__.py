"""The experiment layer: the paper's studies as a library.

:mod:`repro.core.study` runs one program through compilation, emulation,
every compression scheme, and the three fetch organizations, caching the
expensive artifacts.  :mod:`repro.core.experiments` maps each of the
paper's figures/tables onto those studies and returns structured rows;
the benches under ``benchmarks/`` print them.

This package re-exports nothing: import names from the submodule that
defines them, so loading one layer does not load its siblings.
"""
