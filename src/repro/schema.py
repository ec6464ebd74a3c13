"""Strict spec mappings: an unknown key is an error, never a default.

Campaign jobs, sweeps, serve sessions and service specs are declared
as JSON mappings.  A misspelled key (``"slots"`` for ``"n_slots"``,
``"timeout"`` for ``"timeout_s"``) would otherwise be ignored and the
run would quietly use the default, so every ``from_dict`` checks its
keys against the set it accepts — which always includes every key its
``to_dict`` emits, so saved specs, checkpoints and journals still load.
"""

from __future__ import annotations


def check_keys(d: dict, accepted: tuple, what: str,
               error: type = ValueError) -> None:
    """Raise ``error`` naming every key of ``d`` outside ``accepted``."""
    unknown = sorted(str(k) for k in d if k not in accepted)
    if unknown:
        raise error(f"{what}: unknown key(s) {unknown}; accepted keys "
                    f"are {sorted(accepted)}")
