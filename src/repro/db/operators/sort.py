"""Sort operator (ORDER BY)."""

from __future__ import annotations

from repro.db.operators.base import Operator
from repro.db.table import Table

__all__ = ["Sort"]


class Sort(Operator):
    """Stable multi-key sort; keys are ``(column_name, ascending)`` pairs.

    ``limit``, when set, promises that only the first ``limit`` sorted rows
    are consumed (``ORDER BY ... LIMIT``), which lets the sort keep a top-k.
    """

    def __init__(self, child: Operator, keys: list[tuple[str, bool]], limit: int | None = None) -> None:
        self.child = child
        self.keys = keys
        self.limit = limit

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        rendered = ", ".join(f"{name} {'ASC' if asc else 'DESC'}" for name, asc in self.keys)
        return f"Sort({rendered})"

    def execute(self) -> Table:
        table = self.child.execute()
        return table.sort_by(self.keys, limit=self.limit)
