"""Values reported in the paper, for side-by-side comparison.

These numbers are transcribed from the paper's Tables 1-2, abstract and
Sections 6.1-6.3.  They are *reference points only*: the reproduction's own
numbers come from running the experiment modules (see the README's
"Experiments" section).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Paper Table 1 — (qubits, diameter, avg distance, avg connectivity).
TABLE1: Dict[str, Tuple[int, float, float, float]] = {
    "Heavy-Hex": (20, 8.0, 3.77, 2.1),
    "Hex-Lattice": (20, 7.0, 3.37, 2.45),
    "Square-Lattice": (16, 6.0, 2.5, 3.0),
    "Tree": (20, 3.0, 2.15, 4.6),
    "Tree-RR": (20, 3.0, 2.03, 4.6),
    "Corral1,1": (16, 4.0, 2.06, 5.0),
    "Corral1,2": (16, 2.0, 1.5, 6.0),
    "Hypercube": (16, 4.0, 2.0, 4.0),
}

#: Paper Table 2 — (qubits, diameter, avg distance, avg connectivity).
TABLE2: Dict[str, Tuple[int, float, float, float]] = {
    "Heavy-Hex": (84, 21.0, 8.47, 2.26),
    "Hex-Lattice": (84, 17.0, 6.95, 2.71),
    "Square-Lattice": (84, 17.0, 6.26, 3.55),
    "Lattice+AltDiagonals": (84, 11.0, 4.62, 5.12),
    "Tree": (84, 5.0, 3.91, 4.71),
    "Tree-RR": (84, 5.0, 3.65, 4.71),
    "Hypercube": (84, 7.0, 3.32, 6.0),
}

#: Headline ratios from the abstract / Section 6.1 / conclusion, averaged
#: over Quantum Volume circuits of 16-80 qubits.
HEADLINE_RATIOS: Dict[str, float] = {
    # Hypercube vs Heavy-Hex (topology only, SWAP counts).
    "hypercube_vs_heavyhex_total_swaps": 2.57,
    "hypercube_vs_heavyhex_critical_swaps": 5.63,
    # Hypercube + sqrt(iSWAP) vs Heavy-Hex + CNOT (full co-design, 2Q counts).
    # The critical-path ratio is duration-dependent: a sqrt(iSWAP) is half a
    # pulse, so it is measured on ``weighted_duration``.
    "hypercube_siswap_vs_heavyhex_cx_total_2q": 3.16,
    "hypercube_siswap_vs_heavyhex_cx_critical_2q": 6.11,
    # Heavy-Hex vs other topologies, 80-qubit QAOA critical-path SWAPs.
    "heavyhex_vs_square_critical_swaps_qaoa80": 1.92,
    "heavyhex_vs_altdiag_critical_swaps_qaoa80": 1.53,
    "heavyhex_vs_hypercube_critical_swaps_qaoa80": 2.83,
    # Heavy-Hex -> Tree improvements for 80-qubit QV (Section 6.1).
    "tree_vs_heavyhex_total_swap_reduction_qv80": 0.543,
    "tree_vs_heavyhex_critical_swap_reduction_qv80": 0.798,
    "hypercube_vs_tree_total_swap_reduction_qv80": 0.425,
    "hypercube_vs_tree_critical_swap_reduction_qv80": 0.543,
}

#: Section 6.3: infidelity reduction of the k-th root iSWAP basis versus
#: sqrt(iSWAP) at a 99% iSWAP pulse fidelity.
NROOT_INFIDELITY_REDUCTION: Dict[int, float] = {3: 0.14, 4: 0.25, 5: 0.11}
