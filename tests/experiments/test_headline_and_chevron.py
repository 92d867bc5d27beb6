"""Tests for the headline-ratio and chevron experiments."""

import pytest

from repro.experiments import chevron_summary, figure6_study, headline_study, format_headline_report
from repro.experiments.paper_values import HEADLINE_RATIOS, NROOT_INFIDELITY_REDUCTION


class TestHeadline:
    @pytest.fixture(scope="class")
    def ratios(self):
        # A reduced QV size grid keeps the test fast while still showing the
        # co-design advantage clearly.
        return headline_study(sizes=[16, 24], seed=4)

    def test_all_ratios_exceed_one(self, ratios):
        """Hypercube+siswap must beat Heavy-Hex+CX on every aggregate."""
        for value in ratios.as_dict().values():
            assert value > 1.0

    def test_ratios_fall_in_paper_like_band(self, ratios):
        """The advantage should be a clear multiple, in the paper's ballpark.

        The paper reports 2.57-6.11x over QV 16-80; with the reduced size
        grid used here we only require a clear (>1.5x) and sane (<12x)
        advantage on every aggregate.
        """
        for value in ratios.as_dict().values():
            assert 1.5 < value < 12.0

    def test_comparison_table_contains_paper_values(self, ratios):
        comparison = ratios.compared_to_paper()
        assert comparison["hypercube_vs_heavyhex_total_swaps"]["paper"] == pytest.approx(2.57)
        assert set(comparison) == set(ratios.as_dict())

    def test_report_rendering(self, ratios):
        report = format_headline_report(ratios)
        assert "paper" in report and "measured" in report


class TestPaperValueTables:
    def test_headline_constants_present(self):
        assert HEADLINE_RATIOS["hypercube_siswap_vs_heavyhex_cx_critical_2q"] == pytest.approx(6.11)
        assert NROOT_INFIDELITY_REDUCTION[4] == pytest.approx(0.25)


class TestChevronExperiment:
    def test_default_axes_match_figure6(self):
        data = figure6_study(pulse_points=41, detuning_points=11)
        assert data.pulse_lengths_ns[-1] == pytest.approx(2000.0)
        assert data.detunings_mhz[0] == pytest.approx(-1.5)

    def test_summary_string(self):
        data = figure6_study(pulse_points=41, detuning_points=11)
        summary = chevron_summary(data)
        assert "exchange period" in summary
        assert "pulse lengths" in summary


class TestHeadlineFields:
    """Each headline ratio is computed from the record field the paper means."""

    #: Paper key -> record field.  The 6.11 row is the paper's
    #: duration-dependent critical-path ratio, i.e. ``weighted_duration``.
    PINNED = {
        "hypercube_vs_heavyhex_total_swaps": "total_swaps",
        "hypercube_vs_heavyhex_critical_swaps": "critical_swaps",
        "hypercube_siswap_vs_heavyhex_cx_total_2q": "total_2q",
        "hypercube_siswap_vs_heavyhex_cx_critical_2q": "weighted_duration",
    }

    #: A distinct Heavy-Hex / Hypercube ratio per field, so a ratio read
    #: from the wrong field cannot match.
    FIELD_RATIOS = {
        "total_swaps": 2.0,
        "critical_swaps": 3.0,
        "total_2q": 5.0,
        "critical_2q": 7.0,
        "weighted_duration": 11.0,
    }

    def _record(self, backend, size, values):
        from repro.transpiler.metrics import TranspileMetrics

        return TranspileMetrics(
            circuit_name=f"QV-{size}",
            circuit_qubits=size,
            topology=backend,
            basis="cx",
            total_gates=1,
            depth=1,
            extra={"workload": "QuantumVolume", "backend": backend},
            **values,
        )

    def test_every_reported_key_reads_its_pinned_field(self, monkeypatch):
        from repro.core.pipeline import SweepResult
        from repro.experiments import headline

        ones = {field: 1 for field in self.FIELD_RATIOS}

        def fake_sweep(workloads, sizes, targets, **kwargs):
            return SweepResult(
                [self._record("Heavy-Hex-CX", size, self.FIELD_RATIOS) for size in sizes]
                + [self._record("Hypercube-siswap", size, ones) for size in sizes]
            )

        monkeypatch.setattr(headline, "run_sweep", fake_sweep)
        reported = headline.headline_study(sizes=[16, 32]).as_dict()
        assert set(reported) == set(self.PINNED)
        assert set(reported) <= set(HEADLINE_RATIOS)
        for key, field in self.PINNED.items():
            assert reported[key] == self.FIELD_RATIOS[field], key
