"""Work budgets for enumerations and searches.

A Budget bounds the number of items an enumeration may visit and the wall
time a single operation may take.  Budgets are advisory guards against
accidental blow-ups, not schedulers: checks happen at loop granularity.
"""
from __future__ import annotations

import time

from .errors import BudgetExceeded

DEFAULT_ITEMS = 2 ** 28
DEFAULT_SECONDS = 600.0


class Budget:
    __slots__ = ("items", "seconds", "_t0")

    def __init__(self, items: int = DEFAULT_ITEMS, seconds: float = DEFAULT_SECONDS):
        self.items = items
        self.seconds = seconds
        self._t0 = time.monotonic()

    def check_items(self, count: int, what: str = "enumeration") -> None:
        if count > self.items:
            raise BudgetExceeded(f"{what} needs {count} items, budget is {self.items}")

    def check_clock(self, what: str = "operation", done: str = "") -> None:
        """done, when given, says how far the operation got."""
        if time.monotonic() - self._t0 > self.seconds:
            after = f" after {done}" if done else ""
            raise BudgetExceeded(f"{what} exceeded {self.seconds}s time budget{after}")


def ensure(budget: Budget | None) -> Budget:
    """Return budget, or a fresh default one."""
    return budget if budget is not None else Budget()
