"""Unit tests for the idle-bit ablation (repro.tam.idle_bits)."""

from repro.core import tdv_monolithic_optimistic
from repro.itc02 import load
from repro.tam import idle_bit_report, idle_bit_sweep, useful_bits_check


class TestIdleBitReport:
    def test_width_one_has_no_modular_idle(self, flat_soc):
        report = idle_bit_report(flat_soc, tam_width=1)
        assert report.modular_idle_fraction == 0.0
        assert report.delivered_modular == report.useful_modular

    def test_monolithic_useful_matches_eq3(self, flat_soc):
        report = idle_bit_report(flat_soc, tam_width=4)
        assert report.useful_monolithic == tdv_monolithic_optimistic(flat_soc)

    def test_balanced_monolithic_idle_is_small(self, flat_soc):
        report = idle_bit_report(flat_soc, tam_width=4)
        # Perfectly balanced chains differ by at most one cell, so the
        # monolithic padding is at most one bit per wire per direction.
        assert report.monolithic_idle_fraction < 0.01

    def test_delivered_at_least_useful(self, flat_soc):
        for width in (1, 2, 4, 8, 16):
            report = idle_bit_report(flat_soc, tam_width=width)
            assert report.delivered_modular >= report.useful_modular
            assert report.delivered_monolithic >= report.useful_monolithic

    def test_explicit_monolithic_patterns(self, flat_soc):
        base = idle_bit_report(flat_soc, tam_width=2)
        grown = idle_bit_report(flat_soc, tam_width=2, monolithic_patterns=400)
        assert grown.useful_monolithic == 2 * base.useful_monolithic

    def test_sweep_covers_requested_widths(self, flat_soc):
        reports = idle_bit_sweep(flat_soc, [1, 2, 4])
        assert [r.tam_width for r in reports] == [1, 2, 4]


class TestOnBenchmarks:
    def test_d695_conclusion_stable_at_narrow_widths(self):
        """At TAM widths up to 8, restoring idle bits does not flip the
        modular-wins conclusion on d695."""
        soc = load("d695")
        for width in (1, 2, 4, 8):
            report = idle_bit_report(soc, tam_width=width)
            assert report.useful_ratio < 1.0
            assert report.delivered_ratio < 1.0

    def test_d695_flips_at_very_wide_tams(self):
        """The scope boundary the ablation exposes: lockstep shifting on
        a very wide TAM drowns small cores in padding."""
        soc = load("d695")
        report = idle_bit_report(soc, tam_width=32)
        assert report.delivered_ratio > 1.0  # modular loses delivered-bits
        assert report.useful_ratio < 1.0  # but still wins useful-bits

    def test_useful_bits_check_links_tam_to_tdv_model(self, flat_soc):
        assert useful_bits_check(flat_soc)
        assert useful_bits_check(load("d695"))
