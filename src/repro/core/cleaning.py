"""The paper's dirty-line cleaning FSM (Figure 2).

Hardware view: a cycle counter plus a latch holding the next cache set
number.  Every ``interval / n_sets`` cycles the logic visits the latched
set, examines each line's (dirty, written) pair and either cleans the
line (``dirty=1, written=0`` — predicted write-dead) or resets its
written bit (``written=1`` — still being modified, second chance).  The
latch then advances, so each individual line is revisited once per
*cleaning interval* — the paper's 64K…4M-cycle parameter.

This module implements only the sweep schedule; the per-line actions
live in :meth:`repro.core.protected_cache.ProtectedL2._sweep_line`
because they mutate cache state.  Like the hardware counter, the
schedule knows the exact cycle of its next visit
(:attr:`CleaningLogic.next_due`), so the simulator does no cleaning
work at all between visits.
"""

from __future__ import annotations

from typing import Dict, Iterator


class CleaningLogic:
    """Sweep scheduler: which sets are due for a cleaning check.

    The schedule is exact in the long run even when ``interval`` is not
    a multiple of ``n_sets``: elapsed cycles are accounted in units of
    ``1 / n_sets`` cycles so no drift accumulates.
    """

    def __init__(self, n_sets: int, interval_cycles: int) -> None:
        if n_sets <= 0:
            raise ValueError("n_sets must be positive")
        if interval_cycles <= 0:
            raise ValueError("cleaning interval must be positive")
        self.n_sets = n_sets
        self.interval_cycles = interval_cycles
        #: Next set the latch points at.
        self.next_set = 0
        self._last_cycle = 0
        #: Accumulated time in units of 1/n_sets cycles.
        self._tick_balance = 0
        #: First cycle at which :meth:`due_sets` yields a set.
        self.next_due = 0
        self._reschedule()
        #: Total set checks issued (for reporting).
        self.checks = 0

    #: :class:`~repro.telemetry.metrics.StatsSource` identity.
    labels = {"component": "cleaning-fsm"}

    @property
    def cycles_per_set_check(self) -> float:
        """Average cycles between consecutive set visits."""
        return self.interval_cycles / self.n_sets

    def as_dict(self) -> Dict[str, int]:
        return {"checks": self.checks, "next_set": self.next_set}

    def reset(self, cycle: int = 0) -> None:
        """Zero the check counter; the sweep latch keeps its position."""
        self.checks = 0

    def _reschedule(self) -> None:
        """Recompute :attr:`next_due` from the latch state.

        A set is due once the balance reaches one interval, so the
        first due cycle is ``ceil((interval - balance) / n_sets)``
        cycles after the last accounted one (at once if the balance
        already covers it).
        """
        owed = self.interval_cycles - self._tick_balance
        self.next_due = self._last_cycle + max(0, -(-owed // self.n_sets))

    def accrue(self, cycle: int) -> None:
        """Account the cycles up to ``cycle`` without visiting any set.

        Raises ``ValueError`` if ``cycle`` is earlier than the last
        accounted cycle.  Accruing never moves :attr:`next_due`; it only
        brings the balance up to date.
        """
        if cycle < self._last_cycle:
            raise ValueError("cleaning clock moved backwards")
        self._tick_balance += (cycle - self._last_cycle) * self.n_sets
        self._last_cycle = cycle
        self._reschedule()

    def due_sets(self, cycle: int) -> Iterator[int]:
        """Yield every set due for a check in (last cycle, ``cycle``].

        Cycles must be non-decreasing across calls.  If the simulator
        jumps far ahead, at most two full sweeps are issued for the gap —
        re-checking an unchanged set more often than that is idempotent
        (cleaning an already-clean cache), so capping keeps long idle
        gaps cheap without changing observable state.
        """
        self.accrue(cycle)
        cap = 2 * self.n_sets
        issued = 0
        while self._tick_balance >= self.interval_cycles and issued < cap:
            self._tick_balance -= self.interval_cycles
            self._reschedule()
            current = self.next_set
            self.next_set = (current + 1) % self.n_sets
            self.checks += 1
            issued += 1
            yield current
        if issued == cap:
            # Discard the remainder of an over-long idle gap.
            self._tick_balance %= self.interval_cycles
            self._reschedule()
