"""Gate-level circuit substrate: netlists, .bench I/O, cones, scan."""

from .bench import (
    BenchFormatError,
    dump_bench,
    load_bench_file,
    parse_bench,
    save_bench_file,
)
from .cones import (
    Cone,
    cone_width_stats,
    disjoint_cone_groups,
    extract_cones,
    overlap_fraction,
    overlap_matrix,
)
from .equivalence import (
    Counterexample,
    EquivalenceResult,
    check_equivalence,
    check_instance_in_flat,
)
from .gates import GateType, Trit, evaluate_gate, gate_type_from_name
from .netlist import (
    FlipFlop,
    Gate,
    Netlist,
    NetlistError,
    compose_soc_netlist,
    netlist_stats,
)
from .scan import (
    ScanChain,
    ScanInsertion,
    chain_lengths,
    insert_scan,
)
from .verilog import (
    VerilogFormatError,
    dump_verilog,
    load_verilog_file,
    parse_verilog,
    save_verilog_file,
)
from .scoap import (
    NetTestability,
    hardest_nets,
    scoap_measures,
    testability_summary,
)

__all__ = [
    "BenchFormatError",
    "Cone",
    "Counterexample",
    "EquivalenceResult",
    "FlipFlop",
    "Gate",
    "GateType",
    "NetTestability",
    "Netlist",
    "NetlistError",
    "ScanChain",
    "ScanInsertion",
    "Trit",
    "VerilogFormatError",
    "chain_lengths",
    "check_equivalence",
    "check_instance_in_flat",
    "compose_soc_netlist",
    "cone_width_stats",
    "disjoint_cone_groups",
    "dump_bench",
    "dump_verilog",
    "evaluate_gate",
    "extract_cones",
    "gate_type_from_name",
    "hardest_nets",
    "insert_scan",
    "load_bench_file",
    "load_verilog_file",
    "netlist_stats",
    "overlap_fraction",
    "overlap_matrix",
    "parse_bench",
    "parse_verilog",
    "save_bench_file",
    "save_verilog_file",
    "scoap_measures",
    "testability_summary",
]
