"""Tests for netlist structures, levelization, Verilog I/O, and validation."""

import pytest

from repro.analysis import analyze_design
from repro.cells import DEFAULT_LIBRARY
from repro.netlist import (
    Netlist,
    NetlistBuilder,
    NetlistError,
    VerilogError,
    compile_netlist,
    levelize,
    parse_verilog,
    to_networkx,
    write_verilog,
)

#: The structural subset of the rule registry (what levelization needs).
STRUCTURAL_RULES = (
    "undriven-input",
    "multi-driven-net",
    "unconnected-output",
    "combinational-loop",
    "dangling-net",
)


class TestNetlistConstruction:
    def test_summary_counts(self, small_netlist):
        summary = small_netlist.summary()
        assert summary["combinational_gates"] == 3
        assert summary["inputs"] == 2
        assert summary["outputs"] == 1

    def test_duplicate_instance_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_instance("INV", "u0", {"A": "a", "Y": "n1"})
        with pytest.raises(NetlistError):
            netlist.add_instance("INV", "u0", {"A": "a", "Y": "n2"})

    def test_multiple_drivers_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_instance("INV", "u0", {"A": "a", "Y": "n1"})
        with pytest.raises(NetlistError):
            netlist.add_instance("BUF", "u1", {"A": "a", "Y": "n1"})

    def test_missing_pin_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_instance("NAND2", "u0", {"A": "a", "Y": "n1"})

    def test_unknown_pin_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_instance("INV", "u0", {"A": "a", "Q": "x", "Y": "n1"})

    def test_source_and_endpoint_nets(self):
        builder = NetlistBuilder("seq")
        d = builder.input("d")
        clk = builder.input("clk")
        q = builder.flop(d, clk, name="r0")
        builder.output("y")
        builder.gate("INV", [q], output_net="y")
        netlist = builder.build()
        assert set(netlist.source_nets()) == {"d", "clk", q}
        assert "y" in netlist.endpoint_nets()
        assert "d" in netlist.endpoint_nets()  # flop D input
        assert netlist.sequential_count == 1

    def test_cell_histogram(self, small_netlist):
        histogram = small_netlist.cell_histogram()
        assert histogram == {"NAND2": 1, "INV": 1, "XOR2": 1}


class TestLevelization:
    def test_levels_of_small_netlist(self, small_netlist):
        levels = levelize(small_netlist)
        assert levels.gate_levels["u_nand"] == 1
        assert levels.gate_levels["u_inv"] == 2
        assert levels.gate_levels["u_xor"] == 3
        assert levels.depth == 3
        assert levels.widest_level == 1

    def test_combinational_loop_detected(self):
        netlist = Netlist("loop")
        netlist.add_input("a")
        netlist.add_instance("NAND2", "u0", {"A": "a", "B": "n1", "Y": "n0"})
        netlist.add_instance("INV", "u1", {"A": "n0", "Y": "n1"})
        with pytest.raises(NetlistError, match="loop"):
            levelize(netlist)

    def test_undriven_input_detected(self):
        netlist = Netlist("undriven")
        netlist.add_input("a")
        netlist.add_instance("NAND2", "u0", {"A": "a", "B": "floating", "Y": "n0"})
        with pytest.raises(NetlistError, match="undriven"):
            levelize(netlist)

    def test_tie_cells_are_level_one(self):
        netlist = Netlist("ties")
        netlist.add_instance("TIEHI", "u0", {"Y": "one"})
        netlist.add_output("y")
        netlist.add_instance("BUF", "u1", {"A": "one", "Y": "y"})
        levels = levelize(netlist)
        assert levels.gate_levels["u0"] == 1
        assert levels.gate_levels["u1"] == 2

    def test_compile_netlist_groups_by_level(self, random_netlist):
        compiled = compile_netlist(random_netlist)
        assert compiled.gate_count == random_netlist.gate_count
        assert sum(compiled.level_sizes()) == compiled.gate_count
        for level_index, gates in enumerate(compiled.gates_by_level):
            for gate in gates:
                assert gate.level == level_index + 1


class TestVerilog:
    VERILOG = """
    // simple structural netlist
    module top (a, b, y);
      input a, b;
      output y;
      wire n1, n2;
      NAND2 u1 (.A(a), .B(b), .Y(n1));
      INV u2 (.A(n1), .Y(n2));
      XOR2 u3 (.A(n1), .B(n2), .Y(y));
    endmodule
    """

    def test_parse_structural_verilog(self):
        netlist = parse_verilog(self.VERILOG)
        assert netlist.name == "top"
        assert netlist.gate_count == 3
        assert set(netlist.inputs) == {"a", "b"}
        assert netlist.outputs == ["y"]

    def test_round_trip(self, small_netlist):
        text = write_verilog(small_netlist)
        parsed = parse_verilog(text)
        assert parsed.gate_count == small_netlist.gate_count
        assert set(parsed.inputs) == set(small_netlist.inputs)
        assert parsed.cell_histogram() == small_netlist.cell_histogram()

    def test_round_trip_preserves_indexed_and_escaped_names(self):
        """``write_verilog`` escapes names with brackets/dots; the parser
        must hand back the names themselves, not ``\\a[0]``."""
        builder = NetlistBuilder("rt")
        a0 = builder.input("a[0]")
        a1 = builder.input("a[1]")
        plain = builder.input("plain")
        mid = builder.gate("AND2", [a0, a1], output_net="m.x", name="u.and[0]")
        builder.output("y[0]")
        builder.gate("OR2", [mid, plain], output_net="y[0]", name="u_or")
        original = builder.build()

        parsed = parse_verilog(write_verilog(original))
        assert parsed.source_nets() == original.source_nets()
        assert parsed.inputs == original.inputs
        assert parsed.outputs == original.outputs
        assert set(parsed.nets) == set(original.nets)
        assert list(parsed.instances) == list(original.instances)
        for name, inst in original.instances.items():
            assert parsed.instances[name].cell_name == inst.cell_name
            assert parsed.instances[name].connections == inst.connections

    def test_vector_ports_are_flattened(self):
        text = """
        module vec (a, y);
          input [1:0] a;
          output y;
          AND2 u0 (.A(a[1]), .B(a[0]), .Y(y));
        endmodule
        """
        netlist = parse_verilog(text)
        assert set(netlist.inputs) == {"a[1]", "a[0]"}

    def test_constants_create_tie_cells(self):
        text = """
        module ties (a, y);
          input a;
          output y;
          AND2 u0 (.A(a), .B(1'b1), .Y(y));
        endmodule
        """
        netlist = parse_verilog(text)
        assert "TIEHI" in netlist.cell_histogram()

    def test_unknown_cell_rejected(self):
        text = "module m (a); input a; FOO u0 (.A(a), .Y(b)); endmodule"
        with pytest.raises(VerilogError):
            parse_verilog(text)

    def test_behavioural_code_rejected(self):
        text = "module m (a, y); input a; output y; assign y = a; endmodule"
        with pytest.raises(VerilogError):
            parse_verilog(text)

    def test_missing_module_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog("wire x;")


class TestValidationAndGraph:
    def test_clean_netlist(self, small_netlist):
        report = analyze_design(small_netlist, rules=STRUCTURAL_RULES)
        assert report.is_clean

    def test_undriven_net_reported(self):
        netlist = Netlist("bad")
        netlist.add_input("a")
        netlist.add_output("y")
        netlist.add_instance("AND2", "u0", {"A": "a", "B": "nowhere", "Y": "y"})
        report = analyze_design(netlist, rules=STRUCTURAL_RULES)
        assert report.has_errors
        (finding,) = report.findings_for("undriven-input")
        assert "nowhere" in finding.nets

    def test_networkx_export(self, small_netlist):
        graph = to_networkx(small_netlist)
        assert graph.number_of_nodes() == 3 + 3  # 3 ports + 3 gates
        assert graph.nodes["u_nand"]["cell"] == "NAND2"
        assert graph.has_edge("port:a", "u_nand")
        assert graph.has_edge("u_nand", "u_xor")
