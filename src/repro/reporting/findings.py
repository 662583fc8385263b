"""Cross-run findings aggregation for ``repro report``.

Input is the result store's findings projection — flat rows as returned
by :meth:`ResultStore.query_findings
<repro.orchestrator.store.jsonfile.JsonResultStore.query_findings>`, one
per (job, finding).  The same defect found by several trials/presets shares a
``fingerprint`` (the stable hash of the finding's dedup key: bug class,
contract, pc), so aggregation happens on fingerprints: "how many distinct
defects", not "how many reports of them".
"""

from __future__ import annotations

from repro.oracles.base import SEVERITIES
from repro.reporting.tables import format_table

__all__ = ["FindingsReport", "aggregate_findings", "format_findings_report"]


class FindingsReport:
    """Aggregated view over a set of findings-projection rows."""

    def __init__(self, rows) -> None:
        self.rows = list(rows)
        #: fingerprint → the rows reporting that one defect
        self.defects: dict = {}
        for row in self.rows:
            self.defects.setdefault(row["fingerprint"], []).append(row)

    # -- rollups --------------------------------------------------------------

    def by_class(self) -> dict:
        """bug class → (distinct defects, total reports)."""
        return self._rollup("bug_class")

    def by_severity(self) -> dict:
        """severity → (distinct defects, total reports), most severe
        first (unknown severities sort after the known ladder)."""
        rollup = self._rollup("severity")
        order = {sev: i for i, sev in enumerate(SEVERITIES)}
        return {sev: rollup[sev]
                for sev in sorted(rollup,
                                  key=lambda s: (order.get(s, len(order)),
                                                 s))}

    def by_contract(self) -> dict:
        """contract → (distinct defects, total reports)."""
        return self._rollup("contract")

    def _rollup(self, field: str) -> dict:
        out: dict = {}
        for fingerprint, rows in sorted(self.defects.items()):
            key = rows[0][field]
            defects, reports = out.get(key, (0, 0))
            out[key] = (defects + 1, reports + len(rows))
        return dict(sorted(out.items()))

    def defect_rows(self) -> list:
        """One representative row per distinct defect, with a ``reports``
        count and the set of presets that found it, severity-major order."""
        order = {sev: i for i, sev in enumerate(SEVERITIES)}
        out = []
        for fingerprint, rows in sorted(self.defects.items()):
            first = min(rows, key=lambda r: (r["job_id"],))
            out.append({
                **{k: first[k] for k in ("bug_class", "contract", "pc",
                                         "line", "severity", "confidence",
                                         "description", "fingerprint")},
                "reports": len(rows),
                "presets": sorted({r["preset"] for r in rows}),
            })
        out.sort(key=lambda r: (order.get(r["severity"], len(order)),
                                r["contract"], r["bug_class"], r["pc"]))
        return out

    def to_dict(self) -> dict:
        """JSON-serializable report (``repro report --json``)."""
        return {
            "defects": len(self.defects),
            "reports": len(self.rows),
            "by_class": {k: {"defects": d, "reports": r}
                         for k, (d, r) in self.by_class().items()},
            "by_severity": {k: {"defects": d, "reports": r}
                            for k, (d, r) in self.by_severity().items()},
            "by_contract": {k: {"defects": d, "reports": r}
                            for k, (d, r) in self.by_contract().items()},
            "findings": self.defect_rows(),
        }


def aggregate_findings(rows) -> FindingsReport:
    """Aggregate findings-projection rows into a :class:`FindingsReport`."""
    return FindingsReport(rows)


def format_findings_report(report: FindingsReport) -> str:
    """The plain-text rendering of ``repro report``."""
    if not report.rows:
        return "no findings recorded"
    sections = [format_table(
        ("severity", "defects", "reports"),
        [(sev, defects, reports)
         for sev, (defects, reports) in report.by_severity().items()],
        title=(f"Findings: {len(report.defects)} distinct defect(s), "
               f"{len(report.rows)} report(s)"))]
    sections.append(format_table(
        ("bug class", "defects", "reports"),
        [(cls, defects, reports)
         for cls, (defects, reports) in report.by_class().items()],
        title="By bug class"))
    sections.append(format_table(
        ("contract", "defects", "reports"),
        [(contract, defects, reports)
         for contract, (defects, reports) in report.by_contract().items()],
        title="By contract"))
    sections.append(format_table(
        ("severity", "class", "contract", "pc", "line", "reports",
         "presets", "fingerprint"),
        [(row["severity"], row["bug_class"], row["contract"], row["pc"],
          row["line"], row["reports"], ",".join(row["presets"]),
          row["fingerprint"])
         for row in report.defect_rows()],
        title="Distinct defects"))
    return "\n\n".join(sections)
