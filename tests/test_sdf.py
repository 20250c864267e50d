"""Tests for the SDF parser, writer, and netlist annotation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.delaytable import FALL, RISE, DelayArc, InterconnectDelay
from repro.netlist import NetlistBuilder
from repro.sdf import (
    AnnotationError,
    DesignDelays,
    SdfError,
    SyntheticDelayModel,
    UnitDelayModel,
    annotation_from_design_delays,
    annotation_from_sdf,
    default_annotation,
    parse_condition,
    parse_sdf,
    write_sdf,
)

PAPER_STYLE_SDF = """
(DELAYFILE
  (SDFVERSION "3.0")
  (DESIGN "mini")
  (TIMESCALE 1ps)
  (CELL
    (CELLTYPE "mini")
    (INSTANCE )
    (DELAY
      (ABSOLUTE
        (INTERCONNECT u_nand/Y u_aoi/B (2) (3))
      )
    )
  )
  (CELL
    (CELLTYPE "AOI21")
    (INSTANCE u_aoi)
    (DELAY
      (ABSOLUTE
        (IOPATH A1 Y (10) (11))
        (IOPATH A2 Y (10) (11))
        (IOPATH (posedge B) Y () (6))
        (IOPATH (negedge B) Y (8) ())
        (COND A2===1'b1&&A1===1'b0 (IOPATH (posedge B) Y () (5)))
        (COND A2===1'b1&&A1===1'b0 (IOPATH (negedge B) Y (7) ()))
      )
    )
  )
)
"""


def build_mini_netlist():
    builder = NetlistBuilder("mini")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    n1 = builder.gate("NAND2", [a, b], name="u_nand")
    builder.output("y")
    builder.gate("AOI21", [a, c, n1], output_net="y", name="u_aoi")
    return builder.build()


class TestParser:
    def test_parse_paper_style_file(self):
        sdf = parse_sdf(PAPER_STYLE_SDF)
        assert sdf.design == "mini"
        assert len(sdf.cells) == 1
        cell = sdf.cells[0]
        assert cell.instance == "u_aoi"
        assert cell.cell_type == "AOI21"
        assert len(cell.iopaths) == 6
        assert sdf.conditional_iopath_count() == 2
        assert len(sdf.all_interconnects()) == 1

    def test_conditional_edges_and_empty_fields(self):
        sdf = parse_sdf(PAPER_STYLE_SDF)
        conditional = [p for p in sdf.cells[0].iopaths if p.is_conditional]
        posedge = next(p for p in conditional if p.input_edge == "posedge")
        assert posedge.rise is None and posedge.fall == 5
        negedge = next(p for p in conditional if p.input_edge == "negedge")
        assert negedge.rise == 7 and negedge.fall is None

    def test_parse_condition_expression(self):
        assert parse_condition("A2===1'b1&&A1===1'b0") == {"A2": 1, "A1": 0}
        assert parse_condition("") == {}
        with pytest.raises(SdfError):
            parse_condition("A||B")

    def test_delay_triples_use_typical(self):
        sdf = parse_sdf(
            '(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u0)'
            " (DELAY (ABSOLUTE (IOPATH A Y (1:2:3) (4:5:6))))))"
        )
        path = sdf.cells[0].iopaths[0]
        assert path.rise == 2 and path.fall == 5

    def test_single_value_applies_to_both_edges(self):
        sdf = parse_sdf(
            '(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u0)'
            " (DELAY (ABSOLUTE (IOPATH A Y (9))))))"
        )
        path = sdf.cells[0].iopaths[0]
        assert path.rise == 9 and path.fall == 9

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(SdfError):
            parse_sdf("(DELAYFILE (CELL")

    def test_requires_delayfile(self):
        with pytest.raises(SdfError):
            parse_sdf("(NOTSDF)")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of file"),
            (" \n\t", "unexpected end of file"),
            (") (DELAYFILE)", "unexpected ')'"),
            ("(DELAYFILE (CELL (INSTANCE u0)", "unbalanced parenthesis"),
            ("(DELAYFILE) (CELL)", "trailing tokens after DELAYFILE expression"),
            ("(DELAYFILE))", "trailing tokens after DELAYFILE expression"),
            ('(DELAYFILE (DESIGN mini) (IOPATH A Y (1")))', "unterminated quoted string"),
        ],
    )
    def test_structural_errors(self, text, message):
        with pytest.raises(SdfError, match=re.escape(message)):
            parse_sdf(text)

    def test_celltype_must_be_a_name(self):
        with pytest.raises(SdfError, match="CELLTYPE"):
            parse_sdf("(DELAYFILE (CELL (CELLTYPE (x)) (INSTANCE u1)))")

    def test_deeply_nested_unknown_group_is_ignored(self):
        depth = 3_000
        sdf = parse_sdf(
            '(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u1) (DELAY '
            + "(" * depth + ")" * depth
            + " (ABSOLUTE (IOPATH A Y (4) (5))))))"
        )
        (path,) = sdf.cells[0].iopaths
        assert (path.input_pin, path.rise, path.fall) == ("A", 4, 5)

    def test_deep_malformed_port_message_is_bounded(self):
        depth = 10_000
        with pytest.raises(SdfError, match="malformed port specification") as info:
            parse_sdf(
                '(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u1) (DELAY (ABSOLUTE'
                " (IOPATH " + "(" * depth + ")" * depth + " Y (1))))))"
            )
        assert len(str(info.value)) < 200

    def test_unclosed_deep_nesting_is_unbalanced(self):
        with pytest.raises(SdfError, match="unbalanced parenthesis"):
            parse_sdf("(DELAYFILE " + "(" * 10_000)

    def test_arcs_keep_document_order_across_groups(self):
        sdf = parse_sdf(
            '(DELAYFILE (CELL (CELLTYPE "AOI21") (INSTANCE u_aoi)'
            " (DELAY (ABSOLUTE (IOPATH A1 Y (1)) ((IOPATH A2 Y (2))))"
            " (INCREMENT (COND A1===1'b0 (IOPATH B Y (3))))"
            " (ABSOLUTE (IOPATH A1 Y (4))))))"
        )
        paths = sdf.cells[0].iopaths
        assert [(p.input_pin, p.rise) for p in paths] == [
            ("A1", 1), ("A2", 2), ("B", 3), ("A1", 4)
        ]
        assert paths[2].condition == {"A1": 0}


class TestAnnotation:
    def test_annotation_from_sdf(self):
        netlist = build_mini_netlist()
        sdf = parse_sdf(PAPER_STYLE_SDF)
        annotation = annotation_from_sdf(netlist, sdf)
        table = annotation.table_for("u_aoi")
        # Fig. 4 layout: COND A2=1, A1=0 selects column A1*4 + A2*2 + B*w.
        matching_column = 2
        assert table.lookup("B", RISE, FALL, matching_column) == 5
        assert table.lookup("B", RISE, FALL, 4 + 2) == 6
        assert table.lookup("B", FALL, RISE, matching_column) == 7
        wire = annotation.wire_delay("u_aoi", "B")
        assert (wire.rise, wire.fall) == (2, 3)
        # The NAND has no SDF entry and falls back to intrinsic delays.
        nand_table = annotation.table_for("u_nand")
        assert nand_table.max_finite_delay() > 0

    def test_strict_mode_rejects_unknown_instance(self):
        netlist = build_mini_netlist()
        sdf = parse_sdf(
            '(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE nope)'
            " (DELAY (ABSOLUTE (IOPATH A Y (1))))))"
        )
        with pytest.raises(AnnotationError):
            annotation_from_sdf(netlist, sdf, strict=True)
        annotation = annotation_from_sdf(netlist, sdf, strict=False)
        assert "nope" not in annotation.gate_tables

    @pytest.mark.parametrize(
        "condition, pin",
        [("Z===1'b1", "Z"), ("A1===1'b0&&Q===1'b1", "Q")],
    )
    def test_unknown_cond_pin_is_an_annotation_error_or_skipped(
        self, condition, pin
    ):
        netlist = build_mini_netlist()
        sdf = parse_sdf(
            '(DELAYFILE (CELL (CELLTYPE "AOI21") (INSTANCE u_aoi) (DELAY'
            f" (ABSOLUTE (COND {condition} (IOPATH B Y (9)))"
            " (IOPATH A1 Y (4))))))"
        )
        with pytest.raises(AnnotationError) as info:
            annotation_from_sdf(netlist, sdf, strict=True)
        message = str(info.value)
        assert "COND" in message and repr(pin) in message
        assert "u_aoi" in message and "AOI21" in message
        # Lenient annotation skips the conditional arc and keeps the rest.
        table = annotation_from_sdf(netlist, sdf, strict=False).table_for("u_aoi")
        without = annotation_from_sdf(
            netlist,
            parse_sdf(
                '(DELAYFILE (CELL (CELLTYPE "AOI21") (INSTANCE u_aoi) (DELAY'
                " (ABSOLUTE (IOPATH A1 Y (4))))))"
            ),
        ).table_for("u_aoi")
        for pin in ("A1", "A2", "B"):
            assert np.array_equal(table.table_for(pin), without.table_for(pin))
        assert table.lookup("A1", RISE, RISE, 0) == 4

    def test_ablation_variants(self):
        netlist = build_mini_netlist()
        delays = SyntheticDelayModel(seed=3).build(netlist)
        annotation = annotation_from_design_delays(netlist, delays)
        no_net = annotation.without_net_delays()
        assert not no_net.interconnect
        averaged = annotation.with_averaged_sdf()
        assert set(averaged.gate_tables) == set(annotation.gate_tables)

    def test_default_annotation_covers_all_gates(self):
        netlist = build_mini_netlist()
        annotation = default_annotation(netlist)
        for inst in netlist.combinational_instances():
            if inst.cell.num_inputs:
                assert annotation.table_for(inst.name).max_finite_delay() > 0


def assert_round_trip(netlist, delays):
    """``delays`` read back from its SDF text compiles to the same annotation."""
    direct = annotation_from_design_delays(netlist, delays)
    via_sdf = annotation_from_sdf(netlist, parse_sdf(write_sdf(netlist, delays)))
    assert direct.gate_tables.keys() == via_sdf.gate_tables.keys()
    for name, table in direct.gate_tables.items():
        for pin in table.pins:
            assert np.array_equal(
                table.table_for(pin), via_sdf.table_for(name).table_for(pin)
            ), (name, pin)
    # The writer omits zero wires, and a missing wire reads as zero.
    assert via_sdf.interconnect.keys() <= direct.interconnect.keys()
    for instance, pin in direct.interconnect:
        expected = direct.wire_delay(instance, pin)
        actual = via_sdf.wire_delay(instance, pin)
        assert (actual.rise, actual.fall) == (expected.rise, expected.fall)


_DELAYS = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=500).map(float),
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
_WIRE_DELAYS = st.one_of(
    st.integers(min_value=0, max_value=20).map(float),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)


@st.composite
def mini_design_delays(draw):
    """Arbitrary arcs and wires on the mini netlist's gates and pins."""
    netlist = build_mini_netlist()
    delays = DesignDelays()
    for inst in netlist.combinational_instances():
        pins = inst.cell.inputs
        arcs = []
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            pin = draw(st.sampled_from(pins))
            side_pins = [other for other in pins if other != pin]
            condition = draw(
                st.dictionaries(
                    st.sampled_from(side_pins), st.integers(min_value=0, max_value=1)
                )
                if side_pins
                else st.just({})
            )
            arcs.append(
                DelayArc(
                    pin=pin,
                    rise=draw(_DELAYS),
                    fall=draw(_DELAYS),
                    input_edge=draw(st.sampled_from([None, 0, 1])),
                    condition=condition,
                )
            )
        delays.gate_arcs[inst.name] = arcs
        for pin in pins:
            if draw(st.booleans()):
                delays.interconnect[(inst.name, pin)] = InterconnectDelay(
                    rise=draw(_WIRE_DELAYS), fall=draw(_WIRE_DELAYS)
                )
    return netlist, delays


_FUZZ_PIECES = [
    "(", ")", '"', ":", " ", "\n", "()", "IOPATH", "COND", "INTERCONNECT",
    "CELL", "CELLTYPE", "INSTANCE", "DELAY", "ABSOLUTE", "posedge", "A1",
    "1'b1", "&&", "===", "1:2:3", "::", "1.5", "-", "x",
]


def _fuzz_base_text():
    netlist = build_mini_netlist()
    delays = SyntheticDelayModel(seed=11, conditional_fraction=1.0).build(netlist)
    delays.gate_arcs["u_nand"].append(DelayArc(pin="A", rise=1.25, fall=None))
    return write_sdf(netlist, delays)


class TestWriterRoundTrip:
    def test_write_and_reparse(self):
        netlist = build_mini_netlist()
        delays = SyntheticDelayModel(seed=11, conditional_fraction=1.0).build(netlist)
        assert any(not wire.is_zero() for wire in delays.interconnect.values())
        assert_round_trip(netlist, delays)

    @pytest.mark.parametrize("value", [1.2345, 0.0004, 1e-7, 123456.789, 2.5])
    def test_non_integer_delays_are_lossless(self, value):
        netlist = build_mini_netlist()
        delays = DesignDelays(
            gate_arcs={"u_nand": [DelayArc(pin="A", rise=value, fall=value)]},
            interconnect={("u_aoi", "B"): InterconnectDelay(value, value)},
        )
        sdf = parse_sdf(write_sdf(netlist, delays))
        (path,) = sdf.cells[0].iopaths
        assert path.rise == value and path.fall == value
        (wire,) = sdf.all_interconnects()
        assert wire.rise == value and wire.fall == value

    def test_integer_delays_are_written_as_integers(self):
        netlist = build_mini_netlist()
        delays = DesignDelays(
            gate_arcs={"u_nand": [DelayArc(pin="A", rise=5.0, fall=None)]}
        )
        assert "(IOPATH A Y (5) ())" in write_sdf(netlist, delays)

    @given(design=mini_design_delays())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, design):
        netlist, delays = design
        assert_round_trip(netlist, delays)

    def test_unit_delay_model(self):
        netlist = build_mini_netlist()
        delays = UnitDelayModel(delay=5).build(netlist)
        annotation = annotation_from_design_delays(netlist, delays)
        table = annotation.table_for("u_nand")
        assert table.lookup("A", RISE, RISE, 0) == 5


class TestFuzz:
    BASE = _fuzz_base_text()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_text_parses_or_raises_sdf_error(self, data):
        text = self.BASE
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            at = data.draw(st.integers(min_value=0, max_value=len(text)))
            op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
            piece = data.draw(st.sampled_from(_FUZZ_PIECES))
            cut = at + data.draw(st.integers(min_value=1, max_value=4))
            if op == "insert":
                text = text[:at] + piece + text[at:]
            elif op == "delete":
                text = text[:at] + text[cut:]
            else:
                text = text[:at] + piece + text[cut:]
        try:
            parse_sdf(text)
        except SdfError:
            pass

    def test_ten_thousand_deep_nesting(self):
        depth = 10_000
        head, tail = self.BASE.split("(ABSOLUTE", 1)
        text = head + "(" * depth + ")" * depth + " (ABSOLUTE" + tail
        assert parse_sdf(text) == parse_sdf(self.BASE)
