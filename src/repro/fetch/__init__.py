"""Instruction-fetch simulation (paper Sections 3–5).

Trace-driven models of the three fetch organizations the paper compares:

* **Base** — the banked cache of [7,8] holding uncompressed 40-bit ops
  (block size a multiple of the op size, so its 16KB configuration is
  effectively 20KB),
* **Tailored** — the banked cache holding tailored ops, with an extra
  miss-path stage for extraction/placement (Figure 12),
* **Compressed** — compressed ops in the L1, a Huffman decompressor on
  the hit path, and a 32-op fully-associative L0 buffer of decompressed
  ops (Figure 11).

All three share the ATB (Address Translation Buffer, backed by the
compiler-generated ATT) and its per-block branch predictor — a 2-bit
saturating counter plus last-target prediction (Section 3.4).  Blocks are
atomic units of fetch under the restricted placement model; the cycle
accounting implements Table 1 exactly.  A fourth, hybrid organization
charges each block at its ATT hot/cold tag, and Ideal bounds them all.
:data:`~repro.fetch.config.ORGANIZATIONS` is the one table of these
organizations: every other module asks it for an organization's image,
cache pair, penalty family and L0 rule.

The machine is written twice:
:func:`~repro.fetch.engine.simulate_fetch_reference`, the readable
object-per-structure model, and the columnar sweep engine in
:mod:`repro.fetch.sweep`, which replays one trace for a whole grid of
configurations.  :func:`~repro.fetch.engine.simulate_fetch` is a
one-point sweep; both are differentially tested against the reference.

This package re-exports nothing: import names from the submodule that
defines them, so loading one layer does not load its siblings.
"""
