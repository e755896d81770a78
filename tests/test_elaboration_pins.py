"""SOC1 and SOC2 elaborate to pinned netlists at seeds 0, 3 and 7.

For every core, glue and monolithic netlist, the first 16 hex digits of
its ``netlist_fingerprint`` (which every ATPG cache key hashes) and of
the sha256 of its topological order, as gate outputs joined by NUL.
They were recorded before gate construction, ``Netlist.merge``, the
topological sort and the generator's draws were made cheaper, and they
hold on every Python the package supports.  Python versions without
pytest run the same check as a plain script::

    PYTHONPATH=src python tests/test_elaboration_pins.py
"""

import hashlib

from repro.runtime.cache import netlist_fingerprint
from repro.synth.socgen import elaborate, soc1_design, soc2_design

DESIGNS = {"SOC1": soc1_design, "SOC2": soc2_design}

PINS = {
    ("SOC1", 0): {
        "Core1": ("dfe5d8ea8f6325ca", "b2b61c3d4ec0d909"),
        "Core2": ("94186e60dd530a7f", "810205d7f306658d"),
        "Core3": ("3deac530eb7f4117", "03eb28de3ca6822d"),
        "Core4": ("3deac530eb7f4117", "03eb28de3ca6822d"),
        "Core5": ("3deac530eb7f4117", "03eb28de3ca6822d"),
        "glue": ("da132f38f5cca989", "59e65b42d5c23985"),
        "monolithic": ("44cfc0aded113910", "403792d000c34f55"),
    },
    ("SOC1", 3): {
        "Core1": ("7c8a7522b93acf92", "b7a829e8980677db"),
        "Core2": ("4139eda4886d97e6", "aaddd2f90c4b6d86"),
        "Core3": ("9b33044ebd0a1961", "3acf9fa7ab4c8d81"),
        "Core4": ("9b33044ebd0a1961", "3acf9fa7ab4c8d81"),
        "Core5": ("9b33044ebd0a1961", "3acf9fa7ab4c8d81"),
        "glue": ("da132f38f5cca989", "59e65b42d5c23985"),
        "monolithic": ("6999c334c5686872", "d1bb047293e16631"),
    },
    ("SOC1", 7): {
        "Core1": ("f254969a3e5a0ae8", "af544639d6bebe41"),
        "Core2": ("c9306466ab7e081d", "d79a8aa7b28eab25"),
        "Core3": ("54b6bad5e5b386f4", "5ca2343fa21539c5"),
        "Core4": ("54b6bad5e5b386f4", "5ca2343fa21539c5"),
        "Core5": ("54b6bad5e5b386f4", "5ca2343fa21539c5"),
        "glue": ("da132f38f5cca989", "59e65b42d5c23985"),
        "monolithic": ("96a028f9ec6b447c", "34273a7c486a22de"),
    },
    ("SOC2", 0): {
        "Core4": ("0c9ea91066b16b2a", "2b7885807b785fd8"),
        "Core3": ("51717080f393180a", "77070b55cf8a1430"),
        "Core2": ("50389fa46682b42a", "f46082f51f1da734"),
        "Core1": ("94186e60dd530a7f", "810205d7f306658d"),
        "glue": ("c577dcb587eacb18", "4c5ba8d57d400574"),
        "monolithic": ("47d51aaa6aebd38f", "a80f1e4b15b4dc65"),
    },
    ("SOC2", 3): {
        "Core4": ("c6b5e478be18f9ad", "c28aa36ca294e53f"),
        "Core3": ("57d0b2a5e4d5dfc4", "7ba1fd3a5e761a4a"),
        "Core2": ("f4d1e9e5a00a5cb2", "8429932475ca4eb4"),
        "Core1": ("4139eda4886d97e6", "aaddd2f90c4b6d86"),
        "glue": ("c577dcb587eacb18", "4c5ba8d57d400574"),
        "monolithic": ("364dd83d857e4044", "ec87e58e1790f49a"),
    },
    ("SOC2", 7): {
        "Core4": ("df30a38e5f917e84", "67a33affc12791eb"),
        "Core3": ("7176f9d1c9c92e7b", "d44c4b461d463601"),
        "Core2": ("21138fb24dd17298", "ddbbc803f87bb532"),
        "Core1": ("c9306466ab7e081d", "d79a8aa7b28eab25"),
        "glue": ("c577dcb587eacb18", "4c5ba8d57d400574"),
        "monolithic": ("db1671c4e0502074", "8a64d8bd702fb946"),
    },
}


def topological_digest(netlist):
    order = "\x00".join(gate.output for gate in netlist.topological_order())
    return hashlib.sha256(order.encode("utf-8")).hexdigest()


def elaboration_digests(design_name, seed):
    """``{netlist: (fingerprint[:16], topological digest[:16])}``."""
    design = elaborate(DESIGNS[design_name](), seed=seed)
    netlists = {
        **design.core_netlists, "glue": design.glue,
        "monolithic": design.monolithic,
    }
    return {
        name: (netlist_fingerprint(netlist)[:16], topological_digest(netlist)[:16])
        for name, netlist in netlists.items()
    }


def mismatches(design_name):
    found = []
    for (name, seed), pins in PINS.items():
        if name == design_name:
            digests = elaboration_digests(name, seed)
            if digests != pins:
                found.append(f"{name} seed {seed}: {digests} != {pins}")
    return found


def test_soc1_elaboration_is_pinned():
    assert mismatches("SOC1") == []


def test_soc2_elaboration_is_pinned():
    assert mismatches("SOC2") == []


if __name__ == "__main__":
    failed = mismatches("SOC1") + mismatches("SOC2")
    for line in failed:
        print(line)
    count = sum(len(pins) for pins in PINS.values())
    print(f"{count} netlists: {'FAIL' if failed else 'all pinned digests match'}")
    raise SystemExit(1 if failed else 0)
