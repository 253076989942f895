"""Further design-choice ablations DESIGN.md calls out.

* the six stream configurations (the paper's exponential search space,
  Section 2.3: "Six stream configurations where considered"),
* ATB miss-penalty sensitivity (the paper gives no number; DESIGN.md
  documents the 2-cycle assumption),
* bounded vs. unbounded Huffman code lengths (the IFetch-hardware
  constraint of Section 2.2),
* compiler knobs: optimization and treegion hoisting effects on code
  size and schedule density.
"""

from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.compression.decoder_cost import scheme_decoder_cost
from repro.compression.huffman import HuffmanCode
from repro.compression.schemes import FullOpHuffmanScheme
from repro.core.study import study_for
from repro.fetch.config import FetchConfig
from repro.fetch.engine import simulate_fetch
from repro.programs.suite import compile_benchmark
from repro.utils.tables import format_table
from collections import Counter


def _stream_rows():
    study = study_for("perl")
    rows = []
    for config in SIX_STREAM_CONFIGS:
        compressed = study.compressed(config.name)
        cost = scheme_decoder_cost(compressed)
        rows.append(
            [config.name, config.num_streams,
             compressed.ratio_percent(), cost.transistors]
        )
    return rows


def test_six_stream_configurations(benchmark, report):
    rows = benchmark.pedantic(_stream_rows, rounds=1, iterations=1)
    report(
        "stream_configurations",
        format_table(
            ["config", "streams", "size%", "decoder_T"],
            rows,
            title="The six stream configurations (perl)",
        ),
    )
    sizes = [r[2] for r in rows]
    decoders = [r[3] for r in rows]
    # The search space is non-trivial: the best-size and best-decoder
    # configurations differ in at least one dimension.
    assert max(sizes) - min(sizes) > 0.5 or max(decoders) != min(decoders)


def _atb_rows():
    study = study_for("li")
    trace = study.run.block_trace
    compressed = study.compressed("full")
    rows = []
    for penalty in (0, 1, 2, 4, 8):
        config = FetchConfig.for_scheme(
            "compressed", scaled=True, atb_miss_penalty=penalty
        )
        metrics = simulate_fetch(compressed, trace, config)
        rows.append([penalty, metrics.ipc,
                     100.0 * metrics.atb_hit_rate])
    return rows


def test_atb_penalty_sensitivity(benchmark, report):
    rows = benchmark.pedantic(_atb_rows, rounds=1, iterations=1)
    report(
        "atb_sensitivity",
        format_table(
            ["atb_miss_penalty", "compressed_ipc", "atb_hit%"],
            rows,
            title="ATB miss-penalty sensitivity (li)",
        ),
    )
    ipcs = [r[1] for r in rows]
    assert ipcs == sorted(ipcs, reverse=True)
    # High locality: even 8-cycle ATT faults cost little overall.
    assert ipcs[-1] > 0.9 * ipcs[0]


def _bounded_rows():
    image = compile_benchmark("vortex", 6).image
    histogram = Counter(op.encode() for op in image.all_operations())
    rows = []
    unbounded = HuffmanCode.from_frequencies(histogram)
    rows.append(["unbounded", unbounded.max_code_length,
                 unbounded.expected_length(histogram)])
    for limit in (16, 12, 10):
        code = HuffmanCode.from_frequencies(histogram, max_length=limit)
        rows.append([f"max {limit}", code.max_code_length,
                     code.expected_length(histogram)])
    return rows


def test_bounded_huffman_cost(benchmark, report):
    rows = benchmark.pedantic(_bounded_rows, rounds=1, iterations=1)
    report(
        "bounded_huffman",
        format_table(
            ["code", "longest", "avg_bits_per_op"],
            rows,
            title="Bounded vs unbounded Huffman (vortex, whole-op)",
        ),
    )
    base = rows[0][2]
    for _, longest, avg in rows[1:]:
        assert avg >= base - 1e-9  # bounding can only cost bits
        assert avg < base * 1.25  # ...but not many (near-optimal)


def _compiler_rows():
    rows = []
    for opt, hoist in ((False, False), (True, False), (True, True)):
        prog = compile_benchmark("go", 1, opt=opt, hoist=hoist)
        image = prog.image
        density = image.total_ops / image.total_mops
        rows.append(
            [f"opt={opt} hoist={hoist}", image.total_ops,
             image.total_mops, density, prog.stats.hoisted_ops]
        )
    return rows


def test_compiler_knob_ablation(benchmark, report):
    rows = benchmark.pedantic(_compiler_rows, rounds=1, iterations=1)
    report(
        "compiler_knobs",
        format_table(
            ["pipeline", "ops", "mops", "ops_per_mop", "hoisted"],
            rows,
            title="Compiler ablation (go): size and schedule density",
        ),
    )
    raw, opt, hoisted = rows
    assert opt[1] <= raw[1]  # optimization never grows the program
    assert hoisted[4] > 0  # treegion motion found opportunities
