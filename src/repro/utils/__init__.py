"""Shared low-level utilities: bit streams, tables, statistics.

This package imports nothing; import from the defining submodule.
"""
