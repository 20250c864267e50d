#!/usr/bin/env python
"""AST-based invariant linter for the repro hot path.

The test suite proves the engine computes the right waveforms; this linter
enforces the structural invariants the hot path *relies on* but no test can
cheaply observe:

``XP001`` — numpy purity of xp-routed modules
    ``core/engine.py``, ``core/vector_kernel.py``, ``core/restructure.py``
    and ``core/memory.py`` execute on whichever array backend the config
    selects (:mod:`repro.core.xp`).  A direct ``import numpy`` / ``np.``
    call in these modules silently pins that code to the host and breaks
    torch/cupy device routing — host-side math must go through the
    sanctioned ``HOST`` backend alias (``hnp = HOST``) so the routing is
    explicit and greppable.

``LK001`` — lock acquisition order
    The stack takes its locks in a fixed order: session run locks
    (outermost), then the serving service's one lock, then the
    process-wide compile/analysis cache ``_LOCK`` (innermost leaf).
    Acquiring an outer-ranked lock while lexically holding an inner-ranked
    one is the deadlock shape PR 5 fixed; this rule keeps it from coming
    back.  Detection is lexical ``with`` nesting inside one function —
    cross-function chains are out of scope (the inner locks guard leaf
    code that must not call back out).

``MUT001`` — no mutation of packed design tensors
    :class:`~repro.core.vector_kernel.PackedDesign` / ``LevelTensors`` /
    :class:`~repro.core.register_file.RegisterFile` are built once at
    compile time and shared by every run, every shard and every cached
    session of a design fingerprint.  Any post-construction field
    assignment (including ``object.__setattr__`` bypasses of the frozen
    dataclass) is cross-session state corruption.  The register file's
    mutable run state lives in the per-run copy from
    ``RegisterFile.initial_state()``, never in the packed arrays.

``MUT002`` — packed-tensor rows mutate only via sanctioned rebuild paths
    Element/slice writes into the packed tensors (``x.tt_offsets[...] =``)
    are how the pack and the incremental dirty-slice rebuild fill freshly
    allocated arrays — but anywhere else they mutate tensors shared with
    live cached artifacts (the incremental path *shares* clean rows and
    levels by reference, so an unsanctioned in-place write corrupts every
    session holding the parent artifacts).  Only ``core/vector_kernel.py``
    (initial pack) and ``core/incremental.py`` (dirty-slice rebuild, which
    copies before patching) may subscript-assign these fields.

Usage::

    python tools/lint_invariants.py [paths...]     # default: src/repro

Exits 0 when clean, 1 when violations are found (one ``file:line: RULE``
line each), 2 on usage errors.  Stdlib-only by design: it must run in CI
and in the bare container before any dependency is importable.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# XP001: numpy purity
# ----------------------------------------------------------------------
#: Modules whose array math is routed through :mod:`repro.core.xp`.
#: Paths are relative to the ``src/repro`` package root.
XP_ROUTED_MODULES = (
    "core/engine.py",
    "core/vector_kernel.py",
    "core/restructure.py",
    "core/memory.py",
    "core/incremental.py",
    "power/activity.py",
    "waveforms/vcd.py",
)

# ----------------------------------------------------------------------
# LK001: lock ranks (lower rank = taken first / outermost)
# ----------------------------------------------------------------------
#: Attribute / module-global lock names -> rank.  A ``with`` on a lock may
#: only nest locks of strictly higher rank inside it.
LOCK_RANKS: Dict[str, int] = {
    "_run_lock": 0,        # Session.run serialization (api/session.py)
    "_service_lock": 10,   # serve state: pending, keys, LRU, quotas, counters
    "_LOCK": 30,           # compile/analysis cache leaf lock (no callbacks)
    # Leaf locks of the wire/process serving layer: nothing may be
    # acquired while any of them is held, so they share the maximum
    # rank — equal ranks forbid nesting in either direction.
    "_conn_lock": 30,      # wire server connection registry (server.py)
    "_registry_lock": 30,  # shm live-segment registry (core/shm.py)
}

# ----------------------------------------------------------------------
# MUT001: frozen compile-time tensor containers
# ----------------------------------------------------------------------
LEVEL_TENSORS_FIELDS = frozenset(
    {
        "gate_names",
        "output_nets",
        "input_nets",
        "num_pins",
        "weights",
        "wire_rise",
        "wire_fall",
        "tt_offsets",
        "delay_offsets",
        "num_columns",
        "input_net_ids",
        "output_net_ids",
    }
)
PACKED_DESIGN_FIELDS = frozenset(
    {"tt_flat", "delay_flat", "levels", "net_index", "device"}
)
#: The register file's packed per-register arrays (core/register_file.py):
#: shared by every clocked run of a prepared session, so post-construction
#: writes corrupt concurrent and future runs exactly like PackedDesign
#: mutation would.  Run state is a per-run ``initial_state()`` copy.
REGISTER_FILE_FIELDS = frozenset(
    {
        "q_nets",
        "d_nets",
        "clock_nets",
        "enable_nets",
        "reset_nets",
        "has_enable",
        "has_reset",
        "reset_async",
        "reset_active_low",
        "reset_values",
        "init_values",
        "clk_to_q_rise",
        "clk_to_q_fall",
    }
)
FROZEN_FIELDS = (
    LEVEL_TENSORS_FIELDS | PACKED_DESIGN_FIELDS | REGISTER_FILE_FIELDS
)
#: Field names too generic to flag on plain attribute assignment — other
#: types legitimately own attributes with these names
#: (``Levelization.levels``, the GPU models' ``self.device``).  They stay
#: covered through the ``object.__setattr__`` form, which is the only way
#: to mutate the frozen dataclasses anyway.
MUT_ATTR_EXEMPT = frozenset({"levels", "device"})

# ----------------------------------------------------------------------
# MUT002: sanctioned homes of packed-tensor slice mutation
# ----------------------------------------------------------------------
#: The only modules allowed to subscript-assign into FROZEN_FIELDS arrays:
#: the initial pack (filling arrays it just allocated) and the incremental
#: dirty-slice rebuild (which ``xp.copy``-s before patching).  Paths are
#: relative to the ``src/repro`` package root.
SLICE_MUTATION_SANCTIONED = (
    "core/vector_kernel.py",
    "core/incremental.py",
)


@dataclass(frozen=True)
class Violation:
    path: Path
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


# ----------------------------------------------------------------------
# Rule implementations
# ----------------------------------------------------------------------
def _check_numpy_purity(path: Path, tree: ast.AST) -> Iterator[Violation]:
    """XP001 over one xp-routed module."""
    numpy_aliases: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                if root == "numpy":
                    yield Violation(
                        path,
                        node.lineno,
                        "XP001",
                        f"direct 'import {alias.name}' in xp-routed module; "
                        f"use the HOST backend (from .xp import HOST)",
                    )
                    numpy_aliases.add(alias.asname or root)
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".", 1)[0] == "numpy":
                yield Violation(
                    path,
                    node.lineno,
                    "XP001",
                    f"direct 'from {node.module} import ...' in xp-routed "
                    f"module; use the HOST backend (from .xp import HOST)",
                )
                numpy_aliases.update(alias.asname or alias.name for alias in node.names)
    # Flag *uses* of conventional numpy names even without a local import
    # (e.g. a module-global leaked in through a star import or a merge).
    watched = numpy_aliases | {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in watched:
                yield Violation(
                    path,
                    node.lineno,
                    "XP001",
                    f"use of numpy name {node.id!r} in xp-routed module; "
                    f"route through the config-selected backend or the "
                    f"HOST alias",
                )


def _lock_name(expr: ast.expr) -> Optional[str]:
    """The lock identity of a ``with`` context expression, if any.

    Recognizes ``self._x`` / ``cls._x`` / bare ``_LOCK`` style names and
    unwraps ``lock.acquire_timeout(...)``-style calls on them.
    """
    if isinstance(expr, ast.Call):
        return _lock_name(expr.func)
    if isinstance(expr, ast.Attribute):
        if expr.attr in LOCK_RANKS:
            return expr.attr
        return None
    if isinstance(expr, ast.Name) and expr.id in LOCK_RANKS:
        return expr.id
    return None


def _check_lock_order(path: Path, tree: ast.AST) -> Iterator[Violation]:
    """LK001: lexical ``with`` nesting must respect LOCK_RANKS."""

    violations: List[Violation] = []

    def visit(node: ast.AST, held: Tuple[Tuple[str, int], ...]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[Tuple[str, int]] = []
            for item in node.items:
                name = _lock_name(item.context_expr)
                if name is None:
                    continue
                rank = LOCK_RANKS[name]
                for held_name, held_rank in held + tuple(acquired):
                    # Equal ranks also fire: same-rank locks are peers
                    # that must be taken sequentially, never nested (and
                    # the max-rank leaf locks admit no nesting at all).
                    if rank <= held_rank:
                        violations.append(
                            Violation(
                                path,
                                item.context_expr.lineno,
                                "LK001",
                                f"acquires {name!r} (rank {rank}) while "
                                f"holding {held_name!r} (rank {held_rank}); "
                                f"lock order is rank-ascending to stay "
                                f"deadlock-free",
                            )
                        )
                acquired.append((name, rank))
            inner = held + tuple(acquired)
            for child in node.body:
                visit(child, inner)
            return
        # A nested function/lambda body does not execute under the
        # enclosing ``with`` at definition time; reset the held set.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                visit(child, ())
            return
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    visit(tree, ())
    yield from violations


def _check_frozen_mutation(path: Path, tree: ast.AST) -> Iterator[Violation]:
    """MUT001: no post-construction writes to packed-tensor fields."""
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in FROZEN_FIELDS
                and target.attr not in MUT_ATTR_EXEMPT
            ):
                yield Violation(
                    path,
                    target.lineno,
                    "MUT001",
                    f"assignment to packed-design field {target.attr!r}; "
                    f"PackedDesign/LevelTensors are compile-time immutable "
                    f"(shared across runs, shards and cached sessions) — "
                    f"build a new instance instead",
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in FROZEN_FIELDS
        ):
            yield Violation(
                path,
                node.lineno,
                "MUT001",
                f"object.__setattr__ on packed-design field "
                f"{node.args[1].value!r} bypasses the frozen dataclass; "
                f"these tensors are shared across runs and must not mutate",
            )


def _check_slice_mutation(path: Path, tree: ast.AST) -> Iterator[Violation]:
    """MUT002: packed-tensor rows mutate only in sanctioned rebuild paths."""
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr in FROZEN_FIELDS
                and target.value.attr not in MUT_ATTR_EXEMPT
            ):
                yield Violation(
                    path,
                    target.lineno,
                    "MUT002",
                    f"in-place write into packed-design field "
                    f"{target.value.attr!r}; rows may be shared with live "
                    f"cached artifacts — only the pack "
                    f"(core/vector_kernel.py) and the dirty-slice rebuild "
                    f"(core/incremental.py) may subscript-assign these "
                    f"tensors",
                )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _is_xp_routed(path: Path) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(suffix) for suffix in XP_ROUTED_MODULES)


def _is_slice_sanctioned(path: Path) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(suffix) for suffix in SLICE_MUTATION_SANCTIONED)


def lint_file(path: Path) -> List[Violation]:
    """Run every applicable rule over one Python file."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as exc:
        return [Violation(path, getattr(exc, "lineno", 0) or 0, "PARSE", str(exc))]
    violations: List[Violation] = []
    if _is_xp_routed(path):
        violations.extend(_check_numpy_purity(path, tree))
    violations.extend(_check_lock_order(path, tree))
    violations.extend(_check_frozen_mutation(path, tree))
    if not _is_slice_sanctioned(path):
        violations.extend(_check_slice_mutation(path, tree))
    return violations


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[Path]) -> List[Violation]:
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Enforce hot-path invariants (numpy purity, lock order, "
        "packed-tensor immutability) via AST analysis.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    args = parser.parse_args(argv)

    targets = [Path(p) for p in args.paths]
    missing = [p for p in targets if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    violations = lint_paths(targets)
    for violation in violations:
        print(violation.render())
    if not args.quiet:
        checked = sum(1 for _ in iter_python_files(targets))
        print(
            f"lint_invariants: {checked} file(s) checked, "
            f"{len(violations)} violation(s)"
        )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
