import inspect
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
    "canonicalize",
    "coeff_phase_index",
    "coherent_overlap",
    "drop_uniform_beam",
    "entangle_stage",
    "error_prob_closed_form",
    "feedforward_outcomes",
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


# The parameter names of each public callable, and of each public method of
# a public class (methods keep ``self``).  A change to a signature has to edit
# this table, as a change to the names has to edit the list above.  Not
# callable: POL_H, POL_V; FeedforwardError takes an exception's arguments.
SIGNATURES = {
    "BasisReport": ("n", "states", "pairs_checked", "max_abs_inner", "max_entropy_error",
                    "symmetric_count", "asymmetric_count", "violations"),
    "BranchRecord": ("beam_amp", "weight", "no_click_log"),
    "BranchRecord.to_dict": ("self",),
    "DetectorModel": ("efficiency",),
    "DetectorModel.on_off": ("efficiency",),
    "GenerationReport": ("final_state", "success_prob", "error_prob_total",
                         "error_prob_total_log", "per_stage", "fidelity_vs_target",
                         "failed_stage"),
    "HeraldOutcome": ("heralded_state", "success_prob", "error_prob", "error_prob_log",
                      "branch_table"),
    "HybridState": ("layout", "terms"),
    "ProtocolSpec": ("n", "parties", "shifts", "coeffs", "theta", "alpha", "detector"),
    "ProtocolSpec.balanced": ("n", "parties", "shifts", "theta", "alpha", "detector",
                              "phase_indices"),
    "RegisterLayout": ("party_dims", "ancilla_modes", "prep_modes", "qubus_count"),
    "RegisterLayout.label_dims": ("self",),
    "RegisterLayout.party_slot": ("self", "party"),
    "RegisterLayout.replace": ("self", "changes"),
    "SweepGrid": ("alpha_values", "theta_values", "eta_values", "n"),
    "SweepRow": ("alpha", "theta", "eta", "mean_photons_k1", "mean_photons_k2",
                 "p_error_closed", "p_error_simulated", "p_error_closed_log10",
                 "p_error_simulated_log10"),
    "Term": ("amp", "labels", "qubus"),
    "apply_bs_5050": ("state", "beams"),
    "apply_fourier_lomi": ("state",),
    "apply_pbs": ("state", "from_mode", "new_mode"),
    "apply_qubus_phase": ("state", "beam", "phi"),
    "apply_su2": ("state", "u"),
    "apply_xpm": ("state", "party", "shift", "beam", "theta"),
    "canonicalize": ("state",),
    "coeff_phase_index": ("coeffs",),
    "coherent_overlap": ("a", "b"),
    "drop_uniform_beam": ("state", "beam"),
    "entangle_stage": ("state", "spec", "party"),
    "error_prob_closed_form": ("alpha", "theta", "eta", "n"),
    "feedforward_outcomes": ("state", "correction_party"),
    "generate": ("spec",),
    "herald_vacuum": ("state", "beam", "det"),
    "inner_product": ("a", "b"),
    "mean_branch_photons": ("alpha", "theta", "d"),
    "measure_ancilla_and_feedforward": ("state", "correction_party"),
    "overlap_sq": ("a", "b"),
    "phased_coeffs": ("n", "m"),
    "pol_flip": (),
    "prep_rotation": ("n", "j"),
    "prepare_single_photon_qudit": ("n",),
    "reduced_entropy": ("state",),
    "run_sweep": ("grid",),
    "state_from_dict": ("data",),
    "state_norm_sq": ("state",),
    "state_to_dict": ("state",),
    "sweep_point": ("alpha", "theta", "eta", "n"),
    "target_state": ("n", "m", "k", "parties"),
    "verify_basis": ("n",),
}


def _signatures():
    """The parameter names of every public callable and public method."""
    table = {}
    for name in PUBLIC_NAMES:
        obj = getattr(qubus_forge, name)
        if not callable(obj) or obj is qubus_forge.FeedforwardError:
            continue
        table[name] = tuple(inspect.signature(obj).parameters)
        for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
            if not attr.startswith("_") and (
                inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
            ):
                table[f"{name}.{attr}"] = tuple(inspect.signature(getattr(obj, attr)).parameters)
    return table


def test_public_signatures_are_the_pinned_ones():
    assert _signatures() == SIGNATURES


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
