"""Verification check records shared by all modules."""

from __future__ import annotations

from typing import Any, Dict

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckRecord:
    """Outcome of one named verification check.

    ``status`` is "pass" only when an exact canonical-form equality or an
    exact rank value was established; ``details`` carries the witness (or
    the counterexample serialization on failure).
    """

    __slots__ = ("check_id", "statement", "paper_ref", "status", "details")

    def __init__(self, check_id: str, statement: str, paper_ref: str,
                 status: str, details: Dict[str, Any]):
        self.check_id = check_id
        self.statement = statement
        self.paper_ref = paper_ref
        self.status = status
        self.details = details

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.check_id,
            "statement": self.statement,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "details": self.details,
        }
