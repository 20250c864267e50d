"""Parser for the SDF delay-annotation subset used by GATSPI.

The parser tokenises the file into nested S-expressions and then extracts the
``CELL`` / ``DELAY`` / ``ABSOLUTE`` / ``IOPATH`` / ``COND`` / ``INTERCONNECT``
structure.  Delay value triples ``(min:typ:max)`` collapse to the typical
value; empty value fields ``()`` are preserved as ``None`` so conditional and
edge-specific statements like the paper's Fig. 4 example round-trip exactly::

    (COND A2===1'b1&&A1===1'b0 (IOPATH (posedge B) Y () (5)))

Both the tree building and the delay walk are single loops with an explicit
stack, so the cost is linear in the file size and any nesting depth parses.
Every malformed input raises :class:`SdfError`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

from .types import SdfCell, SdfFile, SdfInterconnect, SdfIoPath

SExpr = Union[str, List["SExpr"]]


class SdfError(ValueError):
    """Raised when the SDF text cannot be parsed."""


_TOKEN = re.compile(r"\(|\)|\"[^\"]*\"|[^\s()\"]+")


def _tokenize(text: str) -> List[str]:
    # Quoted strings hold no quotes, so quotes pair up in order and an odd
    # count means one never closes; ``_TOKEN`` would silently skip it.
    if text.count('"') % 2:
        raise SdfError("unterminated quoted string in SDF file")
    return _TOKEN.findall(text)


def _parse_all(text: str) -> SExpr:
    """Build the S-expression tree in one pass over the tokens.

    ``stack`` holds the open lists; its bottom entry collects the single
    top-level expression.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise SdfError("unexpected end of file")
    top: List[SExpr] = []
    stack = [top]
    for index, token in enumerate(tokens):
        if token == "(":
            items: List[SExpr] = []
            stack[-1].append(items)
            stack.append(items)
        elif token == ")":
            if len(stack) == 1:
                raise SdfError("unexpected ')' in SDF file")
            stack.pop()
        else:
            stack[-1].append(token)
        if len(stack) == 1:
            if index + 1 != len(tokens):
                raise SdfError("trailing tokens after DELAYFILE expression")
            return top[0]
    raise SdfError("unbalanced parenthesis in SDF file")


_CLOSE = object()


def _excerpt(expr: SExpr, limit: int = 80) -> str:
    """``expr`` written back as SDF text, cut after ``limit`` characters.

    Iterative, unlike ``repr`` of nested lists, so an error message about an
    arbitrarily deep subtree cannot itself hit the recursion limit.
    """
    out: List[str] = []
    length = 0
    previous = "("
    pending: List[object] = [expr]
    while pending and length <= limit:
        item = pending.pop()
        if item is _CLOSE:
            token = ")"
        elif isinstance(item, list):
            pending.append(_CLOSE)
            pending.extend(reversed(item))
            token = "("
        else:
            token = str(item)
        piece = token if token == ")" or previous == "(" else " " + token
        previous = token
        out.append(piece)
        length += len(piece)
    text = "".join(out)
    return text if not pending else text[:limit] + " ..."


def _unquote(token: str) -> str:
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    return token


def _keyword(expr: SExpr) -> Optional[str]:
    if isinstance(expr, list) and expr and isinstance(expr[0], str):
        return expr[0].upper()
    return None


def _parse_delay_value(expr: SExpr) -> Optional[float]:
    """Parse a delay value field: ``(6)``, ``(1:2:3)``, or empty ``()``."""
    if isinstance(expr, list):
        if not expr:
            return None
        token = expr[0]
    else:
        token = expr
    if not isinstance(token, str):
        raise SdfError(f"malformed delay value: {_excerpt(expr)}")
    if ":" in token:
        parts = token.split(":")
        candidates = [p for p in parts if p != ""]
        if not candidates:
            return None
        # min:typ:max — prefer the typical (middle) value when present.
        typ_index = 1 if len(parts) >= 2 and parts[1] != "" else 0
        try:
            return float(parts[typ_index] if parts[typ_index] != "" else candidates[0])
        except ValueError as exc:
            raise SdfError(f"malformed delay triple: {token!r}") from exc
    try:
        return float(token)
    except ValueError as exc:
        raise SdfError(f"malformed delay value: {token!r}") from exc


_COND_TERM = re.compile(
    r"(?P<pin>[A-Za-z_][\w\[\]]*)\s*===?\s*1'[bB](?P<value>[01])"
)


def parse_condition(expression: str) -> Dict[str, int]:
    """Parse a COND expression like ``A2===1'b1&&A1===1'b0``.

    Only conjunctions of pin equality terms are supported — which is exactly
    the form produced for conditional IOPATH delays of combinational cells.
    """
    condition: Dict[str, int] = {}
    cleaned = expression.replace(" ", "")
    if not cleaned:
        return condition
    terms = re.split(r"&&", cleaned)
    for term in terms:
        match = _COND_TERM.fullmatch(term)
        if not match:
            raise SdfError(f"unsupported COND expression term: {term!r}")
        condition[match.group("pin")] = int(match.group("value"))
    return condition


def _parse_port_spec(expr: SExpr) -> Tuple[str, Optional[str]]:
    """Parse an IOPATH input port spec: ``A`` or ``(posedge A)``."""
    if isinstance(expr, str):
        return expr, None
    if isinstance(expr, list) and len(expr) == 2 and isinstance(expr[0], str):
        edge = expr[0].lower()
        if edge not in ("posedge", "negedge"):
            raise SdfError(f"unsupported port edge qualifier: {expr[0]!r}")
        if not isinstance(expr[1], str):
            raise SdfError(f"malformed port specification: {_excerpt(expr)}")
        return expr[1], edge
    raise SdfError(f"malformed port specification: {_excerpt(expr)}")


def _parse_iopath(expr: List[SExpr], condition: Dict[str, int]) -> SdfIoPath:
    if len(expr) < 3:
        raise SdfError(f"malformed IOPATH: {_excerpt(expr)}")
    input_pin, edge = _parse_port_spec(expr[1])
    output_pin = expr[2]
    if not isinstance(output_pin, str):
        raise SdfError(f"malformed IOPATH output: {_excerpt(expr)}")
    values = expr[3:]
    rise = _parse_delay_value(values[0]) if len(values) >= 1 else None
    fall = _parse_delay_value(values[1]) if len(values) >= 2 else rise
    if len(values) == 1:
        fall = rise
    return SdfIoPath(
        input_pin=input_pin,
        output_pin=output_pin,
        rise=rise,
        fall=fall,
        input_edge=edge,
        condition=dict(condition),
    )


def _parse_interconnect(expr: List[SExpr]) -> SdfInterconnect:
    if len(expr) < 4:
        raise SdfError(f"malformed INTERCONNECT: {_excerpt(expr)}")
    source, destination = expr[1], expr[2]
    if not isinstance(source, str) or not isinstance(destination, str):
        raise SdfError(f"malformed INTERCONNECT ports: {_excerpt(expr)}")
    rise = _parse_delay_value(expr[3])
    fall = _parse_delay_value(expr[4]) if len(expr) > 4 else rise
    return SdfInterconnect(
        source=source,
        destination=destination,
        rise=rise if rise is not None else 0.0,
        fall=fall if fall is not None else (rise if rise is not None else 0.0),
    )


def _parse_cond(expr: List[SExpr]) -> SdfIoPath:
    """``(COND <expr tokens...> (IOPATH ...))``."""
    iopath_expr = None
    condition_tokens: List[str] = []
    for item in expr[1:]:
        if isinstance(item, list) and _keyword(item) == "IOPATH":
            iopath_expr = item
        elif isinstance(item, str):
            condition_tokens.append(item)
        elif isinstance(item, list):
            # Parenthesised condition expression.
            condition_tokens.extend(token for token in item if isinstance(token, str))
    if iopath_expr is None:
        raise SdfError(f"COND without IOPATH: {_excerpt(expr)}")
    condition = parse_condition("".join(condition_tokens))
    return _parse_iopath(iopath_expr, condition)


def _collect_delay_entries(expr: SExpr, cell: SdfCell) -> None:
    """Collect IOPATH/COND/INTERCONNECT under DELAY/ABSOLUTE in document order.

    A depth-first walk with an explicit stack: children are pushed in reverse
    so they pop in file order, which is the order ``GateDelayTable.add_arcs``
    applies overriding arcs in.  Groups that are none of the three are
    descended into, so unknown wrappers are skipped at any depth.
    """
    pending: List[SExpr] = [expr]
    while pending:
        item = pending.pop()
        if not isinstance(item, list):
            continue
        keyword = _keyword(item)
        if keyword == "IOPATH":
            cell.iopaths.append(_parse_iopath(item, {}))
        elif keyword == "COND":
            cell.iopaths.append(_parse_cond(item))
        elif keyword == "INTERCONNECT":
            cell.interconnects.append(_parse_interconnect(item))
        else:
            pending.extend(reversed(item))


def parse_sdf(text: str) -> SdfFile:
    """Parse SDF text into an :class:`SdfFile`."""
    root = _parse_all(text)
    if _keyword(root) != "DELAYFILE":
        raise SdfError("SDF file must start with (DELAYFILE ...)")
    sdf = SdfFile()
    for item in root[1:]:
        keyword = _keyword(item)
        if keyword == "DESIGN" and len(item) > 1 and isinstance(item[1], str):
            sdf.design = _unquote(item[1])
        elif keyword == "TIMESCALE" and len(item) > 1 and isinstance(item[1], str):
            sdf.timescale = item[1]
        elif keyword == "CELL":
            cell_type = ""
            instance = ""
            cell = SdfCell(cell_type="", instance="")
            for entry in item[1:]:
                entry_keyword = _keyword(entry)
                if entry_keyword == "CELLTYPE" and len(entry) > 1:
                    if not isinstance(entry[1], str):
                        raise SdfError(f"malformed CELLTYPE: {_excerpt(entry)}")
                    cell_type = _unquote(entry[1])
                elif entry_keyword == "INSTANCE":
                    instance = entry[1] if len(entry) > 1 else ""
                    if isinstance(instance, list):
                        instance = ""
                elif entry_keyword == "DELAY":
                    _collect_delay_entries(entry, cell)
            cell.cell_type = cell_type
            cell.instance = instance if isinstance(instance, str) else ""
            cell.instance = cell.instance.lstrip("\\")
            if cell.instance == "":
                # Top-level cell holding interconnect delays.
                sdf.interconnects.extend(cell.interconnects)
                if cell.iopaths:
                    sdf.cells.append(cell)
            else:
                sdf.cells.append(cell)
    return sdf


def read_sdf(path: str) -> SdfFile:
    """Read and parse an SDF file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sdf(handle.read())
