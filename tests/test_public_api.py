import re
from pathlib import Path

import qubus_forge

README = Path(__file__).resolve().parents[1] / "README.md"

# The names README documents.  A change to the public surface has to edit
# this list, so it cannot happen by accident.
PUBLIC_NAMES = [
    "BasisReport",
    "BranchRecord",
    "DetectorModel",
    "FeedforwardError",
    "GenerationReport",
    "HeraldOutcome",
    "HybridState",
    "POL_H",
    "POL_V",
    "ProtocolSpec",
    "RegisterLayout",
    "SweepGrid",
    "SweepRow",
    "Term",
    "apply_bs_5050",
    "apply_fourier_lomi",
    "apply_pbs",
    "apply_qubus_phase",
    "apply_su2",
    "apply_xpm",
    "balanced_coeffs",
    "canonicalize",
    "coeff_phase_index",
    "coherent_overlap",
    "drop_uniform_beam",
    "entangle_stage",
    "error_prob_closed_form",
    "feedforward_outcomes",
    "fidelity",
    "generate",
    "herald_vacuum",
    "inner_product",
    "mean_branch_photons",
    "measure_ancilla_and_feedforward",
    "overlap_sq",
    "phased_coeffs",
    "pol_flip",
    "prep_rotation",
    "prepare_single_photon_qudit",
    "reduced_entropy",
    "run_sweep",
    "state_from_dict",
    "state_norm_sq",
    "state_to_dict",
    "sweep_point",
    "target_state",
    "verify_basis",
]


def test_public_surface_is_the_documented_list():
    assert sorted(qubus_forge.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qubus_forge, name) is not None, name


def test_readme_lists_every_public_name_and_no_other():
    # the "Public API" section holds one "- `name...` — ..." line per name
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([A-Za-z_]\w*)", section, flags=re.MULTILINE)
    assert sorted(listed) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert re.search(rf"\b{name}\b", text), name
