"""SVG figure generation for the reproduced results.

The paper presents its correlation observation and its sweeps in prose
and tables; these helpers render them as actual figures (standalone
SVG, no plotting dependencies) so a reader can *see* the g12710 /
a586710 extremes and the ablation shapes.  ``repro experiments`` stays
text-only; figure generation is opt-in via :func:`generate_figures`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from ..core.svgplot import Chart, Series, save_svg
from ..core.sweep import sweep_pattern_variation
from ..soc.shared_isolation import sharing_sweep
from ..itc02.benchmarks import load
from .correlation import benchmark_series


def correlation_figure() -> Chart:
    """Reduction vs pattern-count variation over the ten ITC'02 SOCs."""
    result = benchmark_series()
    chart = Chart(
        title="TDV reduction vs pattern-count variation (ITC'02)",
        x_label="normalized stdev of core pattern counts",
        y_label="TDV reduction (%)",
    )
    chart.add(
        Series(
            name=f"benchmark SOCs (Pearson {result.pearson:+.2f})",
            points=[(variation, reduction) for _n, variation, reduction in result.points],
            labels=[name for name, _v, _r in result.points],
        )
    )
    return chart


def sweep_figure() -> Chart:
    """The controlled synthetic family behind the correlation."""
    points = sweep_pattern_variation(
        [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0], seed=5
    )
    chart = Chart(
        title="Synthetic family: variation is the only knob",
        x_label="normalized stdev of core pattern counts",
        y_label="TDV reduction (%)",
    )
    chart.add(
        Series(
            name="synthetic sweep",
            points=[
                (
                    p.analysis.pattern_variation,
                    -100.0 * p.analysis.summary.modular_change_fraction,
                )
                for p in points
            ],
            draw_line=True,
        )
    )
    return chart


def shared_isolation_figure() -> Chart:
    """g12710 under the dedicated-to-shared isolation sweep."""
    points = sharing_sweep(load("g12710"), [k / 10 for k in range(11)])
    chart = Chart(
        title="g12710: shared isolation flips the outcome",
        x_label="fraction of terminals isolated by functional registers",
        y_label="modular TDV change (%)",
    )
    chart.add(
        Series(
            name="g12710",
            points=[
                (p.sharing, 100.0 * p.modular_change_fraction) for p in points
            ],
            draw_line=True,
        )
    )
    return chart


def generate_figures(out_dir: Union[str, Path]) -> Dict[str, Path]:
    """Write every figure; returns name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    charts = {
        "correlation": correlation_figure(),
        "synthetic_sweep": sweep_figure(),
        "shared_isolation": shared_isolation_figure(),
    }
    return {
        name: save_svg(out_dir / f"{name}.svg", chart)
        for name, chart in charts.items()
    }
