"""Named ontology registry.

"Note that while we use these particular set of guidelines to identify
requirements for and to populate an initial version of CAR-CS, other
guidelines and standards ... could be integrated in the system"
(Section III-A).  The registry is that extension point: any callable
returning an :class:`~repro.core.ontology.Ontology` can be registered
under a name, and built ontologies are memoized (CS13 construction builds
~3000 nodes; analyses ask for it repeatedly).
"""

from __future__ import annotations

from typing import Callable

from repro.core.ontology import Ontology

from . import cs2013, pdc12, pdc2019

_BUILDERS: dict[str, Callable[[], Ontology]] = {
    cs2013.NAME: cs2013.build,
    pdc12.NAME: pdc12.build,
    pdc2019.NAME: pdc2019.build,
}

_CACHE: dict[str, Ontology] = {}


def register(name: str, builder: Callable[[], Ontology]) -> None:
    """Register a new ontology builder (e.g. a cyber-security curriculum)."""
    if name in _BUILDERS:
        raise ValueError(f"ontology {name!r} is already registered")
    _BUILDERS[name] = builder


def unregister(name: str) -> None:
    """Remove a registered ontology (built-ins included; used by tests)."""
    _BUILDERS.pop(name, None)
    _CACHE.pop(name, None)


def available() -> list[str]:
    return sorted(_BUILDERS)


def load(name: str) -> Ontology:
    """Build (or fetch the memoized) ontology called ``name``."""
    if name not in _CACHE:
        try:
            builder = _BUILDERS[name]
        except KeyError:
            raise KeyError(
                f"unknown ontology {name!r}; available: {available()}"
            ) from None
        onto = builder()
        onto.validate()
        _CACHE[name] = onto
    return _CACHE[name]


def load_all() -> dict[str, Ontology]:
    """All registered ontologies, keyed by name."""
    return {name: load(name) for name in available()}
