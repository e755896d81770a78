"""Public file loaders shared by the CLIs, examples, and library users.

These used to live as private helpers inside :mod:`repro.cli`; they are
the one place that knows how on-disk design files map onto the package's
object model, so they are public API.

Format sniffing, documented:

:func:`load_soc`
    SOC descriptions come in two dialects.  A native ITC'02 file starts
    with a ``SocName <name>`` header, so the loader checks the first
    line (and, to tolerate leading comments, the first 400 characters)
    for ``SocName`` and routes to :func:`repro.itc02.native_to_soc`;
    everything else is parsed as the package's own ``.soc`` dialect via
    :func:`repro.itc02.parse_soc`.

:func:`load_netlist`
    Netlists are distinguished purely by extension: ``.v`` / ``.sv``
    parse as the structural-Verilog subset
    (:func:`repro.circuit.parse_verilog`); anything else — by
    convention ``.bench`` — as ISCAS BENCH format
    (:func:`repro.circuit.parse_bench`).  The netlist is named after
    the file stem.

Malformed input raises the typed errors of :mod:`repro.errors`:
netlist problems are :class:`~repro.errors.NetlistParseError`
subclasses, SOC-description problems are
:class:`~repro.errors.SocFormatError` subclasses — all of them still
``ValueError``, so pre-existing handlers keep working.  A file that
cannot be read raises :class:`~repro.errors.InputFileError` (still an
``OSError``), and one that does not decode as text
:class:`~repro.errors.InputEncodingError` (still a ``ValueError``);
both name the path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .circuit import parse_bench, parse_verilog
from .circuit.netlist import Netlist
from .errors import InputEncodingError, InputFileError
from .soc import Soc


def _read_text(path: Union[str, Path]) -> str:
    """The file's text; a file that cannot be read is a typed error."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as error:
        raise InputEncodingError(
            f"cannot read {path}: not {error.encoding} text "
            f"({error.reason} at byte {error.start})"
        ) from error
    except OSError as error:
        raise InputFileError(
            f"cannot read {path}: {error.strerror or error}"
        ) from error


def load_soc(path: Union[str, Path]) -> Soc:
    """Load an SOC description, sniffing native-ITC'02 vs .soc dialect."""
    text = _read_text(path)
    if "SocName" in text.split("\n", 5)[0] or "SocName" in text[:400]:
        from .itc02 import native_to_soc

        return native_to_soc(text)
    from .itc02 import parse_soc

    return parse_soc(text).soc


def load_netlist(path: Union[str, Path]) -> Netlist:
    """Load a netlist by extension: .v/.sv is Verilog, anything else BENCH."""
    text = _read_text(path)
    name = Path(path).stem
    if str(path).endswith((".v", ".sv")):
        return parse_verilog(text, name=name)
    return parse_bench(text, name=name)
