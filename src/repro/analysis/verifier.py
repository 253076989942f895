"""The machine-code verifier: rule registry, contexts, and drivers.

Rules are registered declaratively, mirroring :mod:`repro.check`::

    @rule(
        "branch-target",
        kind="machine",
        description="every branch resolves to a real block start",
    )
    def _branch_targets(ctx: RuleContext) -> None:
        ...

``machine`` rules examine a :class:`ProgramImage` (and its scheduled
MultiOps) without executing it; ``encoding`` rules examine one
:class:`CompressedImage` against the image it claims to encode.  A rule
reports findings through :meth:`RuleContext.emit` — findings are data,
never exceptions, and a rule that crashes becomes an error-severity
``rule-crash`` diagnostic so one broken rule cannot hide the others'
results.

Drivers, coarse to fine: :func:`analyze_image` (machine rules only),
:func:`analyze_encoding` (one compressed image),
:func:`analyze_program` (a whole study: image plus every requested
scheme), :func:`analyze_suite` (every benchmark).  The optional
``REPRO_ANALYZE`` compile gate (:func:`enforce_image`) promotes
error-severity findings to :class:`AnalysisError` right after
compilation.
"""

from __future__ import annotations

import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    sorted_diagnostics,
)
from repro.analysis.graph import ImageGraph
from repro.errors import AnalysisError
from repro.isa.image import BasicBlockImage, ProgramImage

#: Rule kinds, in execution order.
KINDS = ("machine", "encoding")

#: Schemes :func:`analyze_program` verifies by default: the baseline
#: identity encoding, the three headline compressors, the adaptive
#: pair (context-modeled and per-block hybrid), and the profile-free
#: static hybrid.
DEFAULT_SCHEMES = (
    "base", "byte", "full", "tailored", "context", "hybrid",
    "hybrid:static",
)

#: Recognized ``repro analyze --inject`` tags.
INJECT_TAGS = ("bad-branch",)


@dataclass(frozen=True)
class Rule:
    """One registered verifier rule."""

    name: str
    kind: str
    description: str
    func: Callable[["RuleContext"], None]


#: Name -> rule, in registration order.
RULES: "OrderedDict[str, Rule]" = OrderedDict()


def rule(name: str, *, kind: str, description: str) -> Callable:
    """Decorator registering a verifier rule."""
    if kind not in KINDS:
        raise AnalysisError(
            f"rule {name!r} has unknown kind {kind!r} "
            f"(expected one of {KINDS})"
        )

    def register(func: Callable[["RuleContext"], None]):
        if name in RULES:
            raise AnalysisError(f"duplicate rule name {name!r}")
        RULES[name] = Rule(
            name=name, kind=kind, description=description, func=func
        )
        return func

    return register


class RuleContext:
    """Everything one run's rules see, plus their reporting channel:
    :func:`_run_rules` points ``rule_name`` at each rule in turn, and
    every rule reads the one :attr:`graph` of the image."""

    def __init__(
        self,
        *,
        rule_name: str,
        program: str,
        image: ProgramImage,
        report: AnalysisReport,
        compressed=None,
        geometry=None,
        graph: Optional[ImageGraph] = None,
    ) -> None:
        self.rule_name = rule_name
        self.program = program
        self.image = image
        self.compressed = compressed
        self.geometry = geometry
        self._report = report
        self._graph = graph

    # -------------------------------------------------- derived graphs
    @property
    def scheme(self) -> Optional[str]:
        if self.compressed is None:
            return None
        return self.compressed.scheme_name

    @property
    def graph(self) -> ImageGraph:
        """The image's :class:`~repro.analysis.graph.ImageGraph`: the
        caller's, or built from the image on first use."""
        if self._graph is None:
            self._graph = ImageGraph(self.image)
        return self._graph

    # --------------------------------------------------------- reporting
    def checked(self, count: int = 1) -> None:
        self._report.checked[self.rule_name] = (
            self._report.checked.get(self.rule_name, 0) + count
        )

    def emit(
        self,
        severity: Severity,
        message: str,
        *,
        block: Optional[BasicBlockImage] = None,
        op_index: Optional[int] = None,
        hint: str = "",
    ) -> None:
        self._report.diagnostics.append(
            Diagnostic(
                rule=self.rule_name,
                severity=severity,
                program=self.program,
                message=message,
                scheme=self.scheme,
                block=block.label if block is not None else None,
                block_id=block.block_id if block is not None else None,
                op_index=op_index,
                hint=hint,
            )
        )

    def error(self, message: str, **kwargs) -> None:
        self.emit(Severity.ERROR, message, **kwargs)

    def warning(self, message: str, **kwargs) -> None:
        self.emit(Severity.WARNING, message, **kwargs)


def _run_rules(
    kind: str,
    *,
    program: str,
    image: ProgramImage,
    report: AnalysisReport,
    compressed=None,
    geometry=None,
    names: Optional[Sequence[str]] = None,
    graph: Optional[ImageGraph] = None,
) -> None:
    ctx = RuleContext(
        rule_name="",
        program=program,
        image=image,
        report=report,
        compressed=compressed,
        geometry=geometry,
        graph=graph,
    )
    for rule_obj in RULES.values():
        if rule_obj.kind != kind:
            continue
        if names is not None and rule_obj.name not in names:
            continue
        ctx.rule_name = rule_obj.name
        try:
            rule_obj.func(ctx)
        except Exception:
            report.diagnostics.append(
                Diagnostic(
                    rule="rule-crash",
                    severity=Severity.ERROR,
                    program=program,
                    scheme=(
                        compressed.scheme_name
                        if compressed is not None
                        else None
                    ),
                    message=(
                        f"rule {rule_obj.name!r} crashed: "
                        + traceback.format_exc(limit=4).strip()
                    ),
                    hint="a verifier rule must never raise on bad input",
                )
            )


# -------------------------------------------------------------- drivers
def analyze_image(
    image: ProgramImage,
    *,
    program: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    graph: Optional[ImageGraph] = None,
) -> AnalysisReport:
    """Run the machine-code rules over one laid-out image.

    ``graph`` is the image's :class:`~repro.analysis.graph.ImageGraph`
    when the caller holds one; without it the rules build it once.
    """
    name = program or image.name
    report = AnalysisReport(programs=[name])
    _run_rules(
        "machine",
        program=name,
        image=image,
        report=report,
        names=names,
        graph=graph,
    )
    report.diagnostics = sorted_diagnostics(report.diagnostics)
    return report


def analyze_encoding(
    compressed,
    *,
    geometry=None,
    program: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    graph: Optional[ImageGraph] = None,
) -> AnalysisReport:
    """Run the encoding-conformance rules over one compressed image
    (``graph`` as in :func:`analyze_image`)."""
    image = compressed.image
    name = program or image.name
    report = AnalysisReport(programs=[name])
    _run_rules(
        "encoding",
        program=name,
        image=image,
        report=report,
        compressed=compressed,
        geometry=geometry,
        names=names,
        graph=graph,
    )
    report.diagnostics = sorted_diagnostics(report.diagnostics)
    return report


def _geometry_for(scheme_key: str):
    """The scaled cache an image's ATT is sized for (``None``: no ATT)."""
    from repro.fetch.config import FetchConfig, image_organization

    if scheme_key == "base":
        return None  # the baseline fetches untranslated: no ATT
    return FetchConfig.for_scheme(
        image_organization(scheme_key), scaled=True
    ).cache


def analyze_program(
    name: str,
    scale: Optional[int] = None,
    *,
    schemes: Iterable[str] = DEFAULT_SCHEMES,
) -> AnalysisReport:
    """Statically verify one benchmark: image plus every scheme.

    Artifacts come from the shared :class:`ProgramStudy` (and therefore
    the persistent cache); the rules execute nothing, and every run
    reads the study's one :attr:`~ProgramStudy.analysis` graph.
    (Materializing a *hybrid* image cold runs the study's emulator once
    for its heat profile — the same trace every other stage shares.)
    """
    from repro.core.study import study_for

    study = study_for(name, scale)
    graph = study.analysis
    report = analyze_image(study.compiled.image, program=name, graph=graph)
    for scheme_key in schemes:
        compressed = study.compressed(scheme_key)
        report.merge(
            analyze_encoding(
                compressed,
                geometry=_geometry_for(scheme_key),
                program=name,
                graph=graph,
            )
        )
    report.diagnostics = sorted_diagnostics(report.diagnostics)
    return report


def analyze_suite(
    names: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
    *,
    schemes: Iterable[str] = DEFAULT_SCHEMES,
    progress=None,
) -> AnalysisReport:
    """Statically verify every (or the named) suite benchmark."""
    from repro.programs.suite import BENCHMARK_NAMES

    wanted = tuple(names) if names else tuple(BENCHMARK_NAMES)
    unknown = [n for n in wanted if n not in BENCHMARK_NAMES]
    if unknown:
        raise AnalysisError(
            f"unknown benchmark(s): {', '.join(unknown)} "
            f"(known: {', '.join(BENCHMARK_NAMES)})"
        )
    report = AnalysisReport()
    for bench in wanted:
        if progress is not None:
            progress(bench)
        report.merge(analyze_program(bench, scale, schemes=schemes))
    report.diagnostics = sorted_diagnostics(report.diagnostics)
    return report


# ------------------------------------------------------ fault injection
def corrupt_branch_target(image: ProgramImage) -> ProgramImage:
    """A deep copy of ``image`` with one branch retargeted off the map.

    The copy's first BR acquires a target one past the last block —
    bypassing :class:`ProgramImage` construction-time validation the
    way bit rot or a buggy assembler patch would.  Used by
    ``repro analyze --inject bad-branch`` and the CI smoke job to prove
    the verifier actually fails on a seeded violation.
    """
    import copy

    from repro.isa.opcodes import Opcode

    corrupted = copy.deepcopy(image)
    for block in corrupted:
        for mop in block.mops:
            for op in mop.ops:
                if op.opcode is Opcode.BR:
                    op.target_block = len(corrupted.blocks)
                    return corrupted
    raise AnalysisError(
        f"program {image.name!r} has no BR op to corrupt"
    )


# ----------------------------------------------------- the compile gate
def enforce_image(
    image: ProgramImage,
    *,
    program: Optional[str] = None,
    graph: Optional[ImageGraph] = None,
) -> AnalysisReport:
    """Verify ``image`` and raise on error-severity findings.

    The ``REPRO_ANALYZE=1`` study gate calls this right after the
    compile stage, with the study's graph; warnings pass through
    silently (they are lint, and the CLI is the place to read them).
    """
    report = analyze_image(image, program=program, graph=graph)
    errors = report.at_least(Severity.ERROR)
    if errors:
        listing = "\n".join("  " + d.render() for d in errors[:10])
        more = len(errors) - 10
        if more > 0:
            listing += f"\n  ... {more} more error(s)"
        raise AnalysisError(
            f"static verification of {program or image.name!r} failed "
            f"with {len(errors)} error(s):\n{listing}"
        )
    return report


# Rule modules populate the registry on import (mirrors repro.check).
from repro.analysis import rules as _rules  # noqa: E402,F401
from repro.analysis import encoding as _encoding  # noqa: E402,F401
from repro.analysis import staticrules as _staticrules  # noqa: E402,F401

__all__ = [
    "DEFAULT_SCHEMES",
    "INJECT_TAGS",
    "KINDS",
    "RULES",
    "Rule",
    "RuleContext",
    "analyze_encoding",
    "analyze_image",
    "analyze_program",
    "analyze_suite",
    "corrupt_branch_target",
    "enforce_image",
    "rule",
]
