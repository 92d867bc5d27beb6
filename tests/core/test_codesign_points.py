"""Tests for the co-design points (paper Figs. 13/14 legends)."""


from repro.core import CodesignPoint, design_points, design_targets
from repro.core.codesign import LARGE_DESIGN_POINTS, SMALL_DESIGN_POINTS


class TestDesignPoints:
    def test_small_legend_matches_fig13(self):
        labels = {point.label for point in SMALL_DESIGN_POINTS}
        assert "Heavy-Hex-CX" in labels
        assert "Corral1,1-siswap" in labels
        assert "Hypercube-siswap" in labels

    def test_large_legend_matches_fig14(self):
        labels = {point.label for point in LARGE_DESIGN_POINTS}
        assert "Corral1,1-siswap" not in labels  # corral is not scaled to 84
        assert "Tree-RR-siswap" in labels

    def test_snail_points_use_siswap(self):
        for point in SMALL_DESIGN_POINTS + LARGE_DESIGN_POINTS:
            if point.topology in ("Tree", "Tree-RR", "Hypercube", "Corral1,1"):
                assert point.basis == "siswap"

    def test_ibm_and_google_points(self):
        by_label = {p.label: p for p in SMALL_DESIGN_POINTS}
        assert by_label["Heavy-Hex-CX"].basis == "cx"
        assert by_label["Square-Lattice-SYC"].basis == "syc"

    def test_target_materialisation_small(self):
        target = CodesignPoint("Tree-siswap", "Tree", "siswap").target("small")
        assert target.num_qubits == 20
        assert target.basis.name == "siswap"

    def test_target_materialisation_large(self):
        target = CodesignPoint("Tree-siswap", "Tree", "siswap").target("large")
        assert target.num_qubits == 84

    def test_design_targets_keys(self):
        targets = design_targets("small")
        assert set(targets) == {point.label for point in design_points("small")}

    def test_design_points_scale_selector(self):
        assert design_points("small") == SMALL_DESIGN_POINTS
        assert design_points("large") == LARGE_DESIGN_POINTS
