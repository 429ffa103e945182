"""The trail and its comparator hardware (section 3.1.5).

"When unification binds a variable that is older than the last choice
point, it has to push an item onto the trail stack in order to unbind
the variable upon the next fail.  Up to three comparisons of the
address of the variable with the contents of special registers are
required ...  The Trail hardware ... performs these comparisons in
parallel with dereferencing."

The three comparisons decide (1) which stack the bound cell lives on
(zone boundary), (2) global cells against the heap barrier HB, and
(3) local cells against the local barrier LB.  With the trail unit
enabled the decision is free; the ablation configuration charges the
serial-comparison cycles instead.

Trail entries are data-pointer words naming the bound cell; unwinding
restores each cell to an unbound self-reference.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.tags import Zone
from repro.core.word import Word, make_data_ptr, make_unbound


class Trail:
    """The trail stack plus the conditional-trailing decision.

    The stack itself lives in the TRAIL zone of simulated memory; this
    class owns the top-of-stack register and the comparator logic, and
    reads/writes entries through the machine's memory callbacks so
    cache behaviour is modelled like any other stack.  The machine
    binds those callbacks only while it runs (they are its own
    accessors, and holding them between runs would make the machine a
    reference cycle).
    """

    def __init__(self, base: int,
                 read_word: Optional[Callable[[int, Zone], Word]] = None,
                 write_word: Optional[Callable[[int, Word, Zone], None]]
                 = None):
        self.base = base
        self.top = base                      # TR register
        self._read = read_word
        self._write = write_word
        self.pushes = 0
        self.checks = 0

    def needs_trailing(self, address: int, zone: Zone,
                       hb: int, lb: int) -> bool:
        """The three-comparator decision: must this binding be trailed?

        Bindings to cells *younger* than the barriers vanish anyway
        when backtracking resets H, so only older cells are recorded.
        """
        self.checks += 1
        if zone is Zone.GLOBAL:
            return address < hb
        if zone is Zone.LOCAL:
            return address < lb
        # Static or system cells: always trail (rare; safe).
        return True

    def push(self, address: int, zone: Zone) -> None:
        """Record one binding."""
        self._write(self.top, make_data_ptr(address, zone), Zone.TRAIL)
        self.top += 1
        self.pushes += 1

    def unwind_to(self, mark: int) -> int:
        """Undo all bindings above ``mark``; returns entries undone.

        Each recorded cell is reset to an unbound self-reference.
        """
        undone = 0
        while self.top > mark:
            self.top -= 1
            entry = self._read(self.top, Zone.TRAIL)
            address = int(entry.value)
            self._write(address, make_unbound(address, entry.zone),
                        entry.zone)
            undone += 1
        return undone

    def entries(self) -> List[Word]:
        """Snapshot of live entries, bottom first (test inspection)."""
        return [self._read(a, Zone.TRAIL) for a in range(self.base, self.top)]
