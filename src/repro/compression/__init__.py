"""Code-compression schemes (Section 2.2 of the paper).

Three Huffman alphabet families are implemented, exactly as the paper
describes:

* **byte** — the code segment viewed as a byte stream (Wolfe-style);
  smallest decoder, intermediate compression (~72% of original).
* **stream** — fields of the 40-bit op grouped into a handful of
  independent compression streams at fixed bit boundaries (Figure 3); the
  paper searched six configurations and reported the best-size
  (``stream_1``) and smallest-decoder (``stream``) variants.
* **full op** — each 40-bit operation is one symbol; best compression
  (~30% of original) but the largest decoder.

Each scheme compresses a :class:`~repro.isa.image.ProgramImage` per
program (per-program histograms, not a cross-benchmark table — the paper
contrasts this with Wolfe's unified encoding), keeps blocks byte aligned
(Section 3.3), and can decompress itself for verification.

:mod:`repro.compression.decoder_cost` implements the paper's PLA/Huffman
tree transistor-count model used for Figure 10.

This package re-exports nothing: import names from the submodule that
defines them, so loading one layer does not load its siblings.
"""
