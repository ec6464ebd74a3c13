"""The XPP array: geometry and resource slots.

The XPP-64A provides an 8x8 array of ALU-PAEs with a column of 8
RAM-PAEs on either side, and four dual-channel I/O ports.  The array
tracks which configuration owns each slot; the configuration manager
allocates and frees slots at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xpp.errors import ResourceError


@dataclass(frozen=True)
class Slot:
    """One physical resource: kind plus grid position.

    RAM-PAE columns sit at col -1 (left) and col ``alu_cols`` (right);
    I/O channels are at the array edge with col -2 / ``alu_cols + 1``.
    """

    kind: str       # 'alu' | 'ram' | 'io'
    row: int
    col: int


class XppArray:
    """Resource model of one XPP device (default: the XPP-64A)."""

    def __init__(self, *, alu_rows: int = 8, alu_cols: int = 8,
                 ram_per_side: int = 8, io_ports: int = 4,
                 channels_per_io: int = 2, name: str = "XPP-64A"):
        self.name = name
        self.alu_rows = alu_rows
        self.alu_cols = alu_cols
        self.ram_per_side = ram_per_side
        self.io_channels = io_ports * channels_per_io

        self.slots: dict[str, list[Slot]] = {"alu": [], "ram": [], "io": []}
        for r in range(alu_rows):
            for c in range(alu_cols):
                self.slots["alu"].append(Slot("alu", r, c))
        for r in range(ram_per_side):
            self.slots["ram"].append(Slot("ram", r, -1))
            self.slots["ram"].append(Slot("ram", r, alu_cols))
        for ch in range(self.io_channels):
            side = -2 if ch % 2 == 0 else alu_cols + 1
            self.slots["io"].append(Slot("io", ch // 2, side))

        #: slot -> owning configuration name
        self.owner: dict[Slot, str] = {}

    #: pseudo-owner marking a slot as faulty: quarantined slots are never
    #: free, so ``claim()`` routes new work around them automatically.
    QUARANTINE_OWNER = "__faulty__"

    # -- capacity ----------------------------------------------------------------

    def capacity(self, kind: str) -> int:
        return len(self.slots[kind])

    def free_count(self, kind: str) -> int:
        return sum(1 for s in self.slots[kind] if s not in self.owner)

    def occupancy(self) -> dict:
        """Used/total per resource kind."""
        return {kind: (len(self.slots[kind]) - self.free_count(kind),
                       len(self.slots[kind]))
                for kind in self.slots}

    # -- allocation (used by the configuration manager) ----------------------------

    def claim(self, kind: str, config_name: str) -> Slot:
        """Claim the first free slot of ``kind``."""
        owner = self.owner
        for slot in self.slots[kind]:
            if slot not in owner:
                owner[slot] = config_name
                return slot
        raise ResourceError(
            f"{self.name}: no free {kind} slot for configuration "
            f"{config_name!r} (protocol forbids overwriting loaded "
            f"configurations)")

    def claim_at(self, kind: str, row: int, col: int,
                 config_name: str):
        """Claim the specific slot at ``(row, col)`` if it exists and is
        free; returns None otherwise (callers fall back to
        :meth:`claim`).  This is how placement hints from the pnr
        compiler are applied without ever making a load fail that
        first-fit would have satisfied."""
        for slot in self.slots[kind]:
            if slot.row == row and slot.col == col:
                if slot in self.owner:
                    return None
                self.owner[slot] = config_name
                return slot
        return None

    def release(self, slot: Slot, config_name: str) -> None:
        if self.owner.get(slot) != config_name:
            raise ResourceError(
                f"{self.name}: configuration {config_name!r} does not own "
                f"slot {slot}")
        del self.owner[slot]

    def owned_by(self, config_name: str) -> list:
        return [s for s, owner in self.owner.items() if owner == config_name]

    # -- fault quarantine (used by repro.faults recovery policies) ----------------

    def quarantine(self, slot: Slot) -> None:
        """Mark a slot faulty so it is never claimed again.

        The slot must be free: a recovery policy first removes the
        configuration owning the bad PAE, then quarantines the slot,
        then reloads onto the remaining spares.
        """
        if slot in self.owner:
            raise ResourceError(
                f"{self.name}: cannot quarantine {slot}, owned by "
                f"{self.owner[slot]!r}")
        self.owner[slot] = self.QUARANTINE_OWNER

    def release_quarantine(self, slot: Slot) -> None:
        """Return a quarantined slot to service (e.g. after a transient
        fault cleared)."""
        self.release(slot, self.QUARANTINE_OWNER)

    def quarantined(self) -> list:
        """Slots currently marked faulty."""
        return self.owned_by(self.QUARANTINE_OWNER)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        occ = self.occupancy()
        return f"<XppArray {self.name} {occ}>"
