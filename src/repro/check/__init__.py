"""repro.check — invariant checking and fault injection.

The subsystem has three layers:

* :mod:`repro.check.registry` — the declarative invariant registry
  (``@invariant``, :class:`Recorder`, :class:`CheckContext`);
* :mod:`repro.check.invariants` / :mod:`repro.check.faults` — the
  checks themselves: artifact invariants over real suite programs, and
  fault injection against the artifact store;
* :mod:`repro.check.runner` — executes a selection and produces the
  :class:`CheckReport` behind ``repro check``.

This package re-exports nothing: import names from the submodule that
defines them, so loading one layer does not load its siblings.
"""
