"""Finding model and output formatting for reprolint.

A :class:`Finding` is one rule violation at one source location.  Its
:attr:`Finding.key` deliberately excludes the line number -- baselines
key on ``rule:path:symbol`` so grandfathered findings survive unrelated
edits that shift lines (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

#: Schema version stamped into JSON reports; bump on breaking changes.
REPORT_VERSION = 1

SEVERITIES = ("error", "warning")


@dataclass
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        Rule id (``"REP001"``..).
    severity:
        ``"error"`` or ``"warning"``.  Both gate the exit code; severity
        is advisory (how confident the rule is, not how much it counts).
    path:
        POSIX-style path relative to the linted root.
    line / col:
        1-based line and 0-based column of the violation.
    symbol:
        Stable context identifier (function qualname, metric name, ...)
        used in baseline keys instead of the line number.
    message:
        Human-readable statement of the violation.
    hint:
        How to fix it (or how to suppress it when it is intentional).
    baselined:
        Set by the engine when a committed baseline grandfathers this
        finding (it is then reported but does not fail the run).
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    hint: str = ""
    baselined: bool = False

    @property
    def key(self) -> str:
        """Line-independent identity used by the baseline ratchet."""
        return f"{self.rule}:{self.path}:{self.symbol}"

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready dict (includes the derived ``key``)."""
        row = asdict(self)
        row["key"] = self.key
        return row

    def format_text(self) -> str:
        """One-line ``path:line:col: RULE message`` rendering."""
        flag = " [baselined]" if self.baselined else ""
        text = (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.severity}: {self.message}{flag}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class LintResult:
    """Outcome of one engine run over one tree."""

    root: str
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    stale_baseline: list[str] = field(default_factory=list)

    @property
    def new_findings(self) -> list[Finding]:
        """Findings not covered by the baseline (these fail the run)."""
        return [f for f in self.findings if not f.baselined]

    @property
    def baselined_findings(self) -> list[Finding]:
        """Findings grandfathered by the committed baseline."""
        return [f for f in self.findings if f.baselined]

    @property
    def ok(self) -> bool:
        """Whether the run passes (no non-baselined findings)."""
        return not self.new_findings

    def as_dict(self) -> dict[str, Any]:
        """JSON-report form (schema pinned by tests)."""
        return {
            "version": REPORT_VERSION,
            "tool": "reprolint",
            "root": self.root,
            "summary": {
                "files": self.files_scanned,
                "findings": len(self.new_findings),
                "baselined": len(self.baselined_findings),
                "suppressed": self.suppressed,
                "stale_baseline": len(self.stale_baseline),
                "ok": self.ok,
            },
            "findings": [f.as_dict() for f in self.findings],
            "stale_baseline": sorted(self.stale_baseline),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the full report to JSON."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def format_text(self) -> str:
        """Multi-line human-readable report."""
        lines: list[str] = []
        for finding in self.findings:
            lines.append(finding.format_text())
        for key in sorted(self.stale_baseline):
            lines.append(
                f"stale baseline entry (no matching finding): {key}"
            )
        new = self.new_findings
        lines.append(
            f"reprolint: {self.files_scanned} files, "
            f"{len(new)} finding(s), "
            f"{len(self.baselined_findings)} baselined, "
            f"{self.suppressed} suppressed"
            + (" -- FAIL" if new else " -- ok")
        )
        return "\n".join(lines)
