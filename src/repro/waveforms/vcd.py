"""Minimal VCD (Value Change Dump) reader and writer.

The paper's flow consumes testbench waveforms (from RTL simulation, ATPG or
scan) for the primary and pseudo-primary inputs.  VCD is the common exchange
format for those waveforms, so we provide a small scalar-signal VCD
reader/writer that round-trips with the internal array format.

Parsing is built on an *incremental* tokenizer: lines are produced from a
file handle in bounded chunks, the definitions section is parsed up front,
and value changes are folded into per-signal accumulators as they stream
by.  :func:`parse_vcd` and :func:`read_vcd` share that machinery (so
``read_vcd`` never slurps the file), and :class:`VcdEventStream` exposes the
dump section as a :class:`~repro.core.restructure.StreamingSourceEvents`
producer for the out-of-core replay pipeline — one window-span of events at
a time, with memory bounded by the span (plus settle-margin lookback), not
by the run length.
"""

from __future__ import annotations

import io
import re
from bisect import bisect_left, bisect_right
from collections import deque
from typing import (
    IO,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.restructure import SourceEvents, StreamingSourceEvents
from ..core.waveform import Waveform, WaveformError
from ..core.xp import HOST


class VcdError(ValueError):
    """Raised when a VCD file cannot be parsed."""


_IDENT_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Generate a compact VCD identifier code for signal ``index``."""
    if index < 0:
        raise ValueError("identifier index must be non-negative")
    base = len(_IDENT_CHARS)
    code = ""
    index += 1
    while index > 0:
        index, remainder = divmod(index - 1, base)
        code = _IDENT_CHARS[remainder] + code
    return code


def write_vcd(
    waveforms: Mapping[str, Waveform],
    timescale: str = "1ps",
    scope: str = "top",
    end_time: Optional[int] = None,
) -> str:
    """Render a set of waveforms as VCD text."""
    names = sorted(waveforms)
    codes = {name: _identifier(i) for i, name in enumerate(names)}
    lines: List[str] = []
    lines.append("$date repro GATSPI reproduction $end")
    lines.append(f"$timescale {timescale} $end")
    lines.append(f"$scope module {scope} $end")
    for name in names:
        lines.append(f"$var wire 1 {codes[name]} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    events: Dict[int, List[Tuple[str, int]]] = {}
    for name in names:
        for time, value in waveforms[name].changes():
            events.setdefault(int(time), []).append((codes[name], value))
    lines.append("$dumpvars")
    initial = events.pop(0, [])
    seen = {code for code, _ in initial}
    for name in names:
        code = codes[name]
        if code not in seen:
            initial.append((code, waveforms[name].initial_value))
    for code, value in sorted(initial):
        lines.append(f"{value}{code}")
    lines.append("$end")
    for time in sorted(events):
        lines.append(f"#{time}")
        for code, value in events[time]:
            lines.append(f"{value}{code}")
    if end_time is not None:
        lines.append(f"#{end_time}")
    return "\n".join(lines) + "\n"


def save_vcd(waveforms: Mapping[str, Waveform], path: str, **kwargs: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_vcd(waveforms, **kwargs))  # type: ignore[arg-type]


# ``$var <type> <width> <code> <name> [<select>] $end``.  A single-bit
# select (``a[0]`` or ``a [0]``) names one bit of a flattened bus and is
# part of the signal's name; a ``[msb:lsb]`` range is only a width note.
_VAR = re.compile(
    r"\$var\s+\w+\s+(\d+)\s+(\S+)\s+(.+?)\s*(?:(\[\d+\])|\[\d+:\d+\])?\s+\$end"
)
_SCOPE = re.compile(r"\$scope\s+\w+\s+(\S+)\s+\$end")
_TIME = re.compile(r"^#(\d+)")
_SCALAR = re.compile(r"^([01xzXZ])(\S+)$")
# Vector-format dump of a value change: ``b<binary> <code>``.  Many real
# tools (Icarus, Verilator, VCS) emit this form even for 1-bit variables,
# where the VCD grammar also allows the compact scalar form.
_VECTOR = re.compile(r"^[bB]([01xzXZ]+)\s+(\S+)$")


def _vector_bit(bits: str) -> int:
    """The LSB of a binary vector-format value, with x/z mapped to 0."""
    return 1 if bits[-1] == "1" else 0


# ----------------------------------------------------------------------
# Incremental tokenizer
# ----------------------------------------------------------------------
#: Characters read from the handle per tokenizer refill.
_CHUNK_CHARS = 1 << 16
#: Longest line the tokenizer accepts before declaring the file corrupt.
#: Real VCD lines are tens of characters; an unbounded "line" means a
#: binary/garbage tail and must not buffer the rest of the file.
_MAX_LINE_CHARS = 1 << 20


def _iter_lines(
    handle: IO[str], chunk_chars: int = _CHUNK_CHARS
) -> Iterator[str]:
    """Yield stripped lines from ``handle`` reading bounded chunks.

    Memory is O(``chunk_chars``) regardless of file size; a single line
    longer than :data:`_MAX_LINE_CHARS` raises :class:`VcdError` instead of
    buffering arbitrarily (a truncated or binary-garbage tail otherwise
    looks like one endless line).
    """
    carry = ""
    while True:
        chunk = handle.read(chunk_chars)
        if not chunk:
            break
        carry += chunk
        if "\n" not in chunk and len(carry) > _MAX_LINE_CHARS:
            raise VcdError(
                f"VCD line exceeds {_MAX_LINE_CHARS} characters; "
                "file is corrupt or not a VCD"
            )
        pieces = carry.split("\n")
        carry = pieces.pop()
        for piece in pieces:
            line = piece.strip()
            if line:
                yield line
    tail = carry.strip()
    if tail:
        yield tail


def _parse_definitions(lines: Iterator[str]) -> Dict[str, Tuple[str, str]]:
    """Consume the definitions section, returning code → (path, bare name).

    The first declaration of a code wins, so aliases (the same code
    re-declared in another scope) stay one signal.  Stops after
    ``$enddefinitions`` (or EOF — a definitions-only file is legal and
    yields constant waveforms).
    """
    declarations: Dict[str, Tuple[str, str]] = {}
    scope_stack: List[str] = []
    for line in lines:
        match = _VAR.search(line)
        if match:
            width, code, name = match.group(1), match.group(2), match.group(3)
            if int(width) != 1:
                raise VcdError(
                    f"only scalar (1-bit) signals are supported, {name!r} "
                    f"has width {width}"
                )
            if code not in declarations:
                name = name.strip() + (match.group(4) or "")
                declarations[code] = (".".join(scope_stack + [name]), name)
            continue
        scope = _SCOPE.search(line)
        if scope:
            scope_stack.append(scope.group(1))
            continue
        if "$upscope" in line:
            if scope_stack:
                scope_stack.pop()
            continue
        if "$enddefinitions" in line:
            break
    return declarations


def _resolve_names(declarations: Mapping[str, Tuple[str, str]]) -> Dict[str, str]:
    """Resolve output names: bare when unique, dotted scope paths otherwise."""
    bare_counts: Dict[str, int] = {}
    for path, bare in declarations.values():
        bare_counts[bare] = bare_counts.get(bare, 0) + 1
    code_to_name: Dict[str, str] = {}
    resolved_names = set()
    for code, (path, bare) in declarations.items():
        resolved = bare if bare_counts[bare] == 1 else path
        if resolved in resolved_names:
            raise VcdError(
                f"duplicate VCD variable {resolved!r}: two $var declarations "
                f"share both name and scope"
            )
        resolved_names.add(resolved)
        code_to_name[code] = resolved
    return code_to_name


class _ChangeScanner:
    """Streaming scanner over the dump section.

    Feeds ``(code, time, value)`` changes for declared codes to a callback
    via :meth:`pump`, which consumes lines until the timeline reaches a
    target time (all changes strictly before it have then been seen, for a
    well-formed monotonic dump) or EOF.
    """

    def __init__(self, lines: Iterator[str], codes: frozenset) -> None:
        self._lines = lines
        self._codes = codes
        self.current_time = 0
        self.exhausted = False

    def pump(self, until: Optional[int], sink: Callable[[str, int, int], None]) -> None:
        """Consume lines, calling ``sink(code, time, value)`` per change.

        Stops once a ``#T`` marker with ``T >= until`` is read (that marker
        still updates :attr:`current_time`) or at EOF; ``until=None`` drains
        the whole dump.
        """
        if self.exhausted:
            return
        if until is not None and self.current_time >= until:
            return
        for line in self._lines:
            time_match = _TIME.match(line)
            if time_match:
                self.current_time = int(time_match.group(1))
                if until is not None and self.current_time >= until:
                    return
                continue
            vector = _VECTOR.match(line)
            if vector:
                bits, code = vector.group(1), vector.group(2)
                if code in self._codes:
                    sink(code, self.current_time, _vector_bit(bits))
                continue
            if line.startswith("$"):
                continue
            scalar = _SCALAR.match(line)
            if scalar:
                value_char, code = scalar.group(1), scalar.group(2)
                if code in self._codes:
                    sink(code, self.current_time, 1 if value_char == "1" else 0)
        self.exhausted = True


class _NetAccumulator:
    """Folds a signal's raw VCD changes into collapsed toggle times.

    Reproduces :meth:`Waveform.from_changes` semantics online: the first
    change establishes the initial value (with an implicit ``(0, 0)`` when
    it arrives later than time 0), repeated values collapse, and a
    non-advancing time with a *different* value is an error.  ``toggles``
    then holds the real transitions, strictly increasing.
    """

    __slots__ = ("established", "initial", "last_value", "last_time", "toggles")

    def __init__(self) -> None:
        self.established = False
        self.initial = 0
        self.last_value = 0
        self.last_time = 0
        self.toggles: Deque[int] = deque()

    def apply(self, time: int, value: int) -> bool:
        """Apply one raw change; return True when a real toggle was added."""
        if not self.established:
            self.established = True
            if time == 0:
                self.initial = value
                self.last_value = value
                self.last_time = 0
                return False
            # First change after time 0: the signal is 0 until then
            # (parse_vcd's implicit (0, 0) entry); fall through so the
            # change itself is examined as a potential toggle.
            self.initial = 0
            self.last_value = 0
            self.last_time = 0
        if value == self.last_value:
            return False
        if time <= self.last_time:
            raise WaveformError(
                f"change times must be strictly increasing, got {time} after "
                f"{self.last_time}"
            )
        self.toggles.append(time)
        self.last_value = value
        self.last_time = time
        return True

    def waveform(self) -> Waveform:
        if not self.established:
            return Waveform.constant(0)
        return Waveform.from_toggle_array(self.initial, list(self.toggles))


def _parse_lines(lines: Iterator[str]) -> Dict[str, Waveform]:
    """Shared core of :func:`parse_vcd` / :func:`read_vcd`."""
    declarations = _parse_definitions(lines)
    code_to_name = _resolve_names(declarations)
    accumulators: Dict[str, _NetAccumulator] = {
        code: _NetAccumulator() for code in code_to_name
    }
    scanner = _ChangeScanner(lines, frozenset(code_to_name))
    scanner.pump(None, lambda code, time, value: accumulators[code].apply(time, value))
    return {
        code_to_name[code]: accumulator.waveform()
        for code, accumulator in accumulators.items()
    }


def parse_vcd(text: str) -> Dict[str, Waveform]:
    """Parse scalar signals from VCD text into waveforms.

    ``x``/``z`` values are mapped to 0 (GATSPI is a 2-value simulator, and
    re-simulation for power rarely encounters unknowns, as the paper notes).

    Value changes are accepted in both forms the VCD grammar allows for
    1-bit variables: the compact scalar form (``1<code>``) and the
    vector form (``b1 <code>``) that many real tools emit.  Variables are
    keyed by their declared name when that name is unique; two ``$var``
    declarations sharing a name in *different* scopes are disambiguated by
    their dotted scope path (``top.u0.clk`` / ``top.u1.clk``) instead of
    being silently merged into one interleaved change list.  A repeated
    ``$var`` for an identifier code already seen is the VCD aliasing idiom
    (one signal visible in several scopes) and maps to the first declared
    name.
    """
    return _parse_lines(_iter_lines(io.StringIO(text)))


def read_vcd(path: str) -> Dict[str, Waveform]:
    """Parse a VCD file with memory bounded by the tokenizer chunk size.

    Behaviour is identical to ``parse_vcd(open(path).read())``, but the
    text is never slurped: lines stream through the incremental tokenizer
    and changes fold directly into per-signal toggle accumulators.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return _parse_lines(_iter_lines(handle))


# ----------------------------------------------------------------------
# Streaming event source (out-of-core replay)
# ----------------------------------------------------------------------
class VcdEventStream(StreamingSourceEvents):
    """Stream a VCD dump as window-span :class:`SourceEvents` chunks.

    The definitions section is parsed eagerly (it is tiny); the dump
    section is consumed lazily as :meth:`span_events` advances, so memory
    holds only the un-retired toggle buffers — O(span + lookback), never
    O(run length).  Scope/alias/name-resolution semantics are exactly
    :func:`parse_vcd`'s; signals in the file but not in ``nets`` are
    skipped at the tokenizer level.

    Streaming adds one restriction over whole-file parsing: a change whose
    (collapsed) toggle time lands strictly before a span already served
    raises :class:`VcdError`, because that span's events were final.  A
    well-formed monotonic dump never triggers this.
    """

    def __init__(
        self,
        source: "str | IO[str]",
        nets: Optional[Sequence[str]] = None,
        chunk_chars: int = _CHUNK_CHARS,
    ) -> None:
        if isinstance(source, str):
            self._handle: Optional[IO[str]] = open(source, "r", encoding="utf-8")
            lines = _iter_lines(self._handle, chunk_chars)
        else:
            self._handle = None
            lines = _iter_lines(source, chunk_chars)
        declarations = _parse_definitions(lines)
        code_to_name = _resolve_names(declarations)
        if nets is None:
            nets = list(code_to_name.values())
        self._nets: Tuple[str, ...] = tuple(nets)
        available = set(code_to_name.values())
        missing = [net for net in self._nets if net not in available]
        if missing:
            raise VcdError(
                f"VCD declares no signal for requested nets: {sorted(missing)[:10]}"
            )
        index = {name: i for i, name in enumerate(self._nets)}
        self._code_index: Dict[str, int] = {
            code: index[name]
            for code, name in code_to_name.items()
            if name in index
        }
        self._states: List[_NetAccumulator] = [
            _NetAccumulator() for _ in self._nets
        ]
        #: Parity of the retired toggles per net; each net's value at the
        #: retired frontier is ``state.initial ^ retired_parity``.
        self._retired_parity: List[int] = [0 for _ in self._nets]
        self._retired_until = 0
        self._served_until = 0
        self._scanner = _ChangeScanner(lines, frozenset(self._code_index))

    # -- StreamingSourceEvents interface --------------------------------
    @property
    def nets(self) -> Tuple[str, ...]:
        return self._nets

    def span_events(
        self, start: int, end: int, retire_before: int = 0
    ) -> SourceEvents:
        if end <= start:
            raise ValueError("span end must be after span start")
        if start < self._retired_until:
            raise ValueError(
                f"span start {start} precedes the retired frontier "
                f"{self._retired_until}; spans must advance monotonically"
            )
        self._pump(end)
        self._served_until = max(self._served_until, end)
        hnp = HOST
        N = len(self._nets)
        initial_values = hnp.zeros(N, dtype=hnp.int64)
        offsets = hnp.zeros(N + 1, dtype=hnp.int64)
        chunks: List[List[int]] = []
        for i, state in enumerate(self._states):
            buffer = list(state.toggles)
            lo = bisect_right(buffer, start)
            hi = bisect_left(buffer, end)
            initial_values[i] = (
                state.initial ^ self._retired_parity[i] ^ (lo & 1)
            )
            span = buffer[lo:hi]
            chunks.append(span)
            offsets[i + 1] = offsets[i] + len(span)
        times = (
            hnp.asarray([t for span in chunks for t in span], dtype=hnp.int64)
            if int(offsets[-1])
            else hnp.zeros(0, dtype=hnp.int64)
        )
        if retire_before > self._retired_until:
            self._retire(retire_before)
        return SourceEvents(
            nets=self._nets,
            times=times,
            offsets=offsets,
            initial_values=initial_values,
        )

    # -- internals ------------------------------------------------------
    def _sink(self, code: str, time: int, value: int) -> None:
        i = self._code_index[code]
        state = self._states[i]
        was_established = state.established
        appended = state.apply(time, value)
        if appended:
            if time < self._served_until:
                raise VcdError(
                    f"VCD change at time {time} arrived after the stream "
                    f"served events up to {self._served_until}; "
                    "timestamps must be monotonic for streaming"
                )
        elif not was_established and state.initial == 1 and self._served_until > 0:
            raise VcdError(
                "VCD initial value at time 0 arrived after the stream "
                f"served events up to {self._served_until}; "
                "timestamps must be monotonic for streaming"
            )

    def _pump(self, until: int) -> None:
        self._scanner.pump(until, self._sink)

    def _retire(self, frontier: int) -> None:
        """Fold toggles ``<= frontier`` into the base values and drop them."""
        for i, state in enumerate(self._states):
            buffer = state.toggles
            flips = 0
            while buffer and buffer[0] <= frontier:
                buffer.popleft()
                flips ^= 1
            self._retired_parity[i] ^= flips
        self._retired_until = frontier

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "VcdEventStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
