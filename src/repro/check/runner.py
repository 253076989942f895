"""Run the invariant registry and render the per-invariant report."""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional, Sequence

from repro.check import invariants as _invariants  # noqa: F401  (registers)
from repro.check import faults as _faults  # noqa: F401
from repro.check import staticchecks as _staticchecks  # noqa: F401
from repro.check.registry import (
    CheckContext,
    Invariant,
    Recorder,
    Violation,
    select,
)
from repro.errors import CheckError
from repro.utils.tables import format_table


@dataclass
class CheckOutcome:
    """Result of one invariant's run."""

    name: str
    scope: str
    description: str
    checked: int = 0
    seconds: float = 0.0
    violations: List[Violation] = field(default_factory=list)
    #: Set when the check function itself crashed (still a failure —
    #: an invariant that cannot run proves nothing).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "checked": self.checked,
            "seconds": self.seconds,
            "ok": self.ok,
            "violations": [
                {
                    "subject": v.subject,
                    "message": v.message,
                }
                for v in self.violations
            ],
            "error": self.error,
        }


@dataclass
class CheckReport:
    """Every outcome of one ``repro check`` run."""

    outcomes: List[CheckOutcome]
    seed: int
    quick: bool
    benchmarks: Sequence[str]
    inject: Sequence[str] = ()

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failing(self) -> List[CheckOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def total_checked(self) -> int:
        return sum(o.checked for o in self.outcomes)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "mode": "quick" if self.quick else "full",
            "seed": self.seed,
            "benchmarks": list(self.benchmarks),
            "inject": list(self.inject),
            "total_checked": self.total_checked,
            "invariants": [o.as_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        rows = []
        for outcome in self.outcomes:
            rows.append(
                [
                    outcome.scope,
                    outcome.name,
                    outcome.checked,
                    len(outcome.violations)
                    + (1 if outcome.error else 0),
                    outcome.seconds,
                    "ok" if outcome.ok else "FAIL",
                ]
            )
        mode = "quick" if self.quick else "full"
        table = format_table(
            ["scope", "invariant", "checked", "violations", "seconds",
             "status"],
            rows,
            title=f"Invariant report ({mode}, seed {self.seed})",
        )
        lines = [table]
        for outcome in self.failing:
            for violation in outcome.violations[:20]:
                lines.append("  " + violation.render())
            hidden = len(outcome.violations) - 20
            if hidden > 0:
                lines.append(
                    f"  {outcome.name}: ... {hidden} more violation(s)"
                )
            if outcome.error:
                lines.append(
                    f"  {outcome.name}: CRASHED\n{outcome.error}"
                )
        if self.ok:
            lines.append(
                f"all {len(self.outcomes)} invariant(s) hold "
                f"({self.total_checked} checks)"
            )
        else:
            names = ", ".join(o.name for o in self.failing)
            lines.append(f"FAILED invariant(s): {names}")
        return "\n".join(lines)


def run_checks(
    benchmarks: Optional[Sequence[str]] = None,
    *,
    quick: bool = True,
    seed: int = 1999,
    scale: Optional[int] = None,
    inject: Iterable[str] = (),
    scopes: Optional[Iterable[str]] = None,
    names: Optional[Sequence[str]] = None,
    progress=None,
) -> CheckReport:
    """Execute the selected invariants and collect a report.

    A crashing check function is reported as a failing outcome, not
    propagated: the caller always gets the full per-invariant picture.
    """
    from repro.programs.suite import BENCHMARK_NAMES

    bench = tuple(benchmarks) if benchmarks else tuple(BENCHMARK_NAMES)
    unknown_bench = [
        b for b in bench if b not in BENCHMARK_NAMES
    ]
    if unknown_bench:
        raise CheckError(
            f"unknown benchmark(s): {', '.join(unknown_bench)} "
            f"(known: {', '.join(BENCHMARK_NAMES)})"
        )
    inject = tuple(inject)
    context = CheckContext(
        benchmarks=bench,
        scale=scale,
        seed=seed,
        quick=quick,
        inject=frozenset(inject),
    )
    outcomes: List[CheckOutcome] = []
    for name, inv in select(
        quick=quick, scopes=scopes, names=names
    ).items():
        if progress is not None:
            progress(inv)
        outcomes.append(_run_one(inv, context))
    return CheckReport(
        outcomes=outcomes,
        seed=seed,
        quick=quick,
        benchmarks=bench,
        inject=inject,
    )


def _run_one(inv: Invariant, context: CheckContext) -> CheckOutcome:
    recorder = Recorder(inv.name)
    outcome = CheckOutcome(
        name=inv.name, scope=inv.scope, description=inv.description
    )
    started = perf_counter()
    try:
        inv.func(context, recorder)
    except Exception:
        outcome.error = traceback.format_exc()
    outcome.seconds = perf_counter() - started
    outcome.checked = recorder.checked
    outcome.violations = list(recorder.violations)
    return outcome
