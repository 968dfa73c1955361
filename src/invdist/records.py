"""Verification check records shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class CheckRecord:
    """Outcome of one named verification check.

    ``status`` is "pass" only when an exact canonical-form equality or an
    exact rank value was established; ``details`` carries the witness (or
    the counterexample serialization on failure).
    """

    check_id: str
    statement: str
    paper_ref: str
    status: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.check_id,
            "statement": self.statement,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "details": self.details,
        }
