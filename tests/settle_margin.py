"""Engines whose settle margin is pinned, for the margin-sweeping tests.

Engines always settle each cycle-parallel window over the margin their
annotated delays derive (``GatspiEngine.window_overlap``, the
critical-path estimate); no option pins it.  Tests that probe other
margins — disabled, undersized, longer than a window — run the subclass
:func:`pinned_overlap` makes, whose property is a constant.
"""

from __future__ import annotations

from repro.api import GatspiSession, get_backend


def pinned_overlap(engine_class, overlap):
    """``engine_class`` with its settle margin pinned to ``overlap``
    (``None`` keeps the derived margin)."""
    if overlap is None:
        return engine_class
    return type(
        f"{engine_class.__name__}Overlap{overlap}",
        (engine_class,),
        {"window_overlap": overlap},
    )


def pinned_session(backend, netlist, annotation=None, config=None, overlap=None):
    """A ``gatspi`` / ``gatspi-oracle`` session on a :func:`pinned_overlap`
    engine, compiled as ``prepare`` compiles it (design analysis aside)."""
    engine_class = pinned_overlap(get_backend(backend).engine_class, overlap)
    engine = engine_class(netlist, annotation=annotation, config=config)
    engine.compile()
    return GatspiSession(engine, backend)
