"""repro.analysis — static verification of compiled program images.

The paper's pipeline (compile → compress → fetch → emulate) trusts
that every artifact it hands downstream is well formed.  This package
makes that trust checkable without executing anything:

* :mod:`repro.analysis.dataflow` — a generic forward/backward worklist
  solver (liveness, dominators, reaching definitions, definite
  assignment) shared with :mod:`repro.compiler.liveness`;
* :mod:`repro.analysis.hazards` — the intra-MultiOp hazard analysis
  the emulator kernel dispatches on, now also feeding the verifier;
* :mod:`repro.analysis.verifier` — a rule registry running machine-code
  rules over :class:`ProgramImage`\\ s and encoding-conformance rules
  over :class:`CompressedImage`\\ s, producing structured
  :class:`Diagnostic`\\ s (``repro analyze`` on the CLI, the
  ``analysis`` scope under ``repro check --full``, and the opt-in
  ``REPRO_ANALYZE`` post-compile gate);
* :mod:`repro.analysis.graph` — one control-flow graph object per
  program image (:class:`~repro.analysis.graph.ImageGraph`, owned by
  the study as :attr:`~repro.core.study.ProgramStudy.analysis`), built
  by one walk over the image; reverse postorder, dominators, loop
  nests, branch probabilities and block frequencies are its lazily
  derived attributes, each computed once;
* :mod:`repro.analysis.freq` — the Ball–Larus-style static heat
  profile over that graph (the ``hybrid@T:static`` profile provider);
* :mod:`repro.analysis.cachebound` — must/may abstract interpretation
  of the I-cache and ATB over the same graph, yielding sound
  fetch-cycle bounds (``repro analyze --bounds``, checked against the
  simulator by the ``static`` scope of ``repro check``).

This package re-exports nothing: import names from the submodule that
defines them, so loading one layer does not load its siblings.
"""
