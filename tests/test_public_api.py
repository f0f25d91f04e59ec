import cmath
import dataclasses
import functools
import inspect
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- the input policy ---------------------------------------------------------
#
# Every number a public callable takes goes through one coercer of its kind
# before anything is built.  A bad value of that kind is either rejected with
# a ValueError or TypeError whose message names the parameter, or it is a
# value the callable accepts, and then every number in the result is finite.

# The kind of each numeric parameter.  "[kind]" is a sequence whose first
# entry gets the bad value.
KINDS = {
    ("DetectorModel", "efficiency"): "real",
    ("DetectorModel.on_off", "efficiency"): "real",
    ("ProtocolSpec", "n"): "integer",
    ("ProtocolSpec", "parties"): "integer",
    ("ProtocolSpec", "shifts"): "[integer]",
    ("ProtocolSpec", "theta"): "real",
    ("ProtocolSpec", "alpha"): "complex",
    ("ProtocolSpec.balanced", "n"): "integer",
    ("ProtocolSpec.balanced", "parties"): "integer",
    ("ProtocolSpec.balanced", "shifts"): "[integer]",
    ("ProtocolSpec.balanced", "theta"): "real",
    ("ProtocolSpec.balanced", "alpha"): "complex",
    ("ProtocolSpec.balanced", "phase_indices"): "[integer]",
    ("RegisterLayout", "party_dims"): "[integer]",
    ("RegisterLayout", "ancilla_modes"): "integer",
    ("RegisterLayout", "prep_modes"): "integer",
    ("RegisterLayout", "qubus_count"): "integer",
    ("RegisterLayout.party_slot", "party"): "integer",
    ("SweepGrid", "alpha_values"): "[real]",
    ("SweepGrid", "theta_values"): "[real]",
    ("SweepGrid", "eta_values"): "[real]",
    ("SweepGrid", "n"): "integer",
    ("Term", "amp"): "complex",
    ("Term", "labels"): "[integer]",
    ("Term", "qubus"): "[complex]",
    ("apply_bs_5050", "beams"): "[integer]",
    ("apply_pbs", "from_mode"): "integer",
    ("apply_pbs", "new_mode"): "integer",
    ("apply_qubus_phase", "beam"): "integer",
    ("apply_qubus_phase", "phi"): "real",
    ("apply_xpm", "party"): "integer",
    ("apply_xpm", "shift"): "integer",
    ("apply_xpm", "beam"): "integer",
    ("apply_xpm", "theta"): "real",
    ("coherent_overlap", "a"): "complex",
    ("coherent_overlap", "b"): "complex",
    ("drop_uniform_beam", "beam"): "integer",
    ("entangle_stage", "party"): "integer",
    ("error_prob_closed_form", "alpha"): "complex",
    ("error_prob_closed_form", "theta"): "real",
    ("error_prob_closed_form", "eta"): "real",
    ("error_prob_closed_form", "n"): "integer",
    ("feedforward_outcomes", "correction_party"): "integer",
    ("herald_vacuum", "beam"): "integer",
    ("mean_branch_photons", "alpha"): "complex",
    ("mean_branch_photons", "theta"): "real",
    ("mean_branch_photons", "d"): "integer",
    ("measure_ancilla_and_feedforward", "correction_party"): "integer",
    ("phased_coeffs", "n"): "integer",
    ("phased_coeffs", "m"): "integer",
    ("prep_rotation", "n"): "integer",
    ("prep_rotation", "j"): "integer",
    ("prepare_single_photon_qudit", "n"): "integer",
    ("sweep_point", "alpha"): "real",
    ("sweep_point", "theta"): "real",
    ("sweep_point", "eta"): "real",
    ("sweep_point", "n"): "integer",
    ("target_state", "n"): "integer",
    ("target_state", "m"): "integer",
    ("target_state", "k"): "integer",
    ("target_state", "parties"): "integer",
    ("verify_basis", "n"): "integer",
}

# The fields of the result records, which the library fills in.
_RECORDS = ("BasisReport", "BranchRecord", "GenerationReport", "HeraldOutcome", "SweepRow")

# The parameters that take no number, and what they take.
NOT_NUMBERS = {
    **{(record, field): "record field" for record in _RECORDS for field in SIGNATURES[record]},
    ("BranchRecord.to_dict", "self"): "record",
    ("HybridState", "layout"): "layout",
    ("HybridState", "terms"): "terms",
    ("ProtocolSpec", "coeffs"): "vectors",
    ("ProtocolSpec", "detector"): "detector",
    ("ProtocolSpec.balanced", "detector"): "detector",
    ("RegisterLayout.label_dims", "self"): "layout",
    ("RegisterLayout.party_slot", "self"): "layout",
    ("RegisterLayout.replace", "self"): "layout",
    ("RegisterLayout.replace", "changes"): "layout fields",
    **{(name, "state"): "state" for name in SIGNATURES if "state" in SIGNATURES[name]},
    ("apply_su2", "u"): "matrix",
    ("entangle_stage", "spec"): "spec",
    ("generate", "spec"): "spec",
    ("herald_vacuum", "det"): "detector",
    ("inner_product", "a"): "state",
    ("inner_product", "b"): "state",
    ("overlap_sq", "a"): "state",
    ("overlap_sq", "b"): "state",
    ("run_sweep", "grid"): "grid",
    ("state_from_dict", "data"): "dict",
}

# Words besides its own name by which a rejection may name a parameter.
SYNONYMS = {
    "n": ("dimension",),
    "parties": ("party",),
    "eta": ("efficiency",),
    "k": ("shift",),
    "shifts": ("shift",),
    "phase_indices": ("m",),
    "party_dims": ("party dimensions",),
    "alpha_values": ("alpha",),
    "theta_values": ("theta",),
    "eta_values": ("eta", "efficiency"),
    "amp": ("amplitude",),
    "beams": ("beam",),
    "correction_party": ("party",),
    "from_mode": ("spatial mode",),
    "new_mode": ("spatial mode",),
    "j": ("step",),
}

# The one stated exception: a non-finite XPM or rotation phase is rejected
# by the message it gives the beams it would make non-finite.
EXCEPTIONS = {
    ("apply_xpm", "theta"): "qubus amplitudes must be finite",
    ("apply_qubus_phase", "phi"): "qubus amplitudes must be finite",
}


def _one_beam_state(beam=0.0):
    return qubus_forge.HybridState(
        qubus_forge.RegisterLayout(qubus_count=1), (qubus_forge.Term(1.0, (), (beam,)),)
    )


def _erasable_state():
    layout = qubus_forge.RegisterLayout(party_dims=(2, 2), ancilla_modes=2)
    state = qubus_forge.HybridState(layout, (qubus_forge.Term(1.0, (0, 0, 0)),))
    return qubus_forge.apply_fourier_lomi(state)


# A valid call of each callable that has a numeric parameter: the function
# and its keyword arguments.  Built once; every argument is immutable.
@functools.cache
def _valid_calls():
    qf = qubus_forge
    spec3 = dict(n=3, parties=2, shifts=(0, 1), theta=0.01, alpha=500.0)
    xpm_layout = qf.RegisterLayout(party_dims=(3,), ancilla_modes=3, qubus_count=1)
    calls = {
        "DetectorModel": dict(efficiency=0.9),
        "DetectorModel.on_off": dict(efficiency=0.9),
        "ProtocolSpec": dict(spec3, coeffs=(qf.phased_coeffs(3, 0),) * 2),
        "ProtocolSpec.balanced": dict(spec3, phase_indices=(0, 1)),
        "RegisterLayout": dict(party_dims=(2,), ancilla_modes=1, prep_modes=1, qubus_count=1),
        "RegisterLayout.party_slot": dict(party=1),
        "SweepGrid": dict(alpha_values=(1.0,), theta_values=(0.01,), eta_values=(1.0,), n=3),
        "Term": dict(amp=1.0, labels=(0,), qubus=(0.5,)),
        "apply_bs_5050": dict(
            state=qf.HybridState(qf.RegisterLayout(qubus_count=2),
                                 (qf.Term(1.0, (), (1.0, 0.5j)),)),
            beams=(0, 1)),
        "apply_pbs": dict(
            state=qf.HybridState(qf.RegisterLayout(prep_modes=2),
                                 (qf.Term(1.0, (1, qf.POL_V)),)),
            from_mode=1, new_mode=0),
        "apply_qubus_phase": dict(state=_one_beam_state(1.0), beam=0, phi=0.3),
        "apply_xpm": dict(
            state=qf.HybridState(xpm_layout, (qf.Term(1.0, (0, 1), (1.0,)),)),
            party=0, shift=1, beam=0, theta=0.01),
        "coherent_overlap": dict(a=1.0, b=0.5j),
        "drop_uniform_beam": dict(state=_one_beam_state(1.0), beam=0),
        "entangle_stage": dict(state=qf.prepare_single_photon_qudit(3),
                               spec=qf.ProtocolSpec.balanced(3), party=0),
        "error_prob_closed_form": dict(alpha=10.0, theta=0.1, eta=0.9, n=3),
        "feedforward_outcomes": dict(state=_erasable_state(), correction_party=0),
        "herald_vacuum": dict(state=_one_beam_state(), beam=0, det=qf.DetectorModel()),
        "mean_branch_photons": dict(alpha=10.0, theta=0.1, d=1),
        "measure_ancilla_and_feedforward": dict(state=_erasable_state(), correction_party=0),
        "phased_coeffs": dict(n=3, m=1),
        "prep_rotation": dict(n=3, j=1),
        "prepare_single_photon_qudit": dict(n=3),
        "sweep_point": dict(alpha=10.0, theta=0.1, eta=0.9, n=3),
        "target_state": dict(n=3, m=1, k=1, parties=2),
        "verify_basis": dict(n=2),
    }
    fns = {name: functools.reduce(getattr, name.split("."), qf) for name in calls}
    fns["RegisterLayout.party_slot"] = qf.RegisterLayout(party_dims=(2, 2)).party_slot
    return {name: (fns[name], kwargs) for name, kwargs in calls.items()}


# Eight bad values given to every parameter, a Decimal and a Fraction (real
# numbers of other types, which a callable must compute with as its coercer
# returns them), and per kind a number of the wrong kind.
_EVERY_KIND = (2.5, 10**400, math.nan, math.inf, -3, "x", None, True)
_OTHER_REALS = (Decimal("0.5"), Fraction(1, 3))
FIXED = {
    "integer": _EVERY_KIND + _OTHER_REALS,
    "real": _EVERY_KIND + _OTHER_REALS + (1j,),
    "complex": _EVERY_KIND + _OTHER_REALS + (complex(math.nan, 0.0), complex(0.0, -math.inf)),
}
# Drawn values: any float (an integral one is a float all the same), an
# integer beyond float range of either sign, a string or bytes (float()
# parses some of them); and a negative integer where an integer is wanted.
# No valid input among them makes a run that grows with its size.
_BEYOND_FLOAT = st.builds(lambda sign, e: sign * 2**e, st.sampled_from((1, -1)),
                          st.integers(1024, 1400))
_OTHER = st.one_of(_BEYOND_FLOAT, st.sampled_from(("", "x", "1", "nan", "1e400", b"2")))
DRAWN = {
    "integer": st.one_of(st.floats(), st.integers(max_value=-1), _OTHER),
    "real": st.one_of(st.floats(), _OTHER),
    "complex": st.one_of(st.complex_numbers(), _OTHER),
}


def _numbers(value):
    """Every float and complex in a result, through records, states and
    sequences."""
    if isinstance(value, (float, complex)):
        yield value
    elif isinstance(value, qubus_forge.HybridState):
        yield from value.amps
        for column in value.beams:
            yield from column
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))


def _check_bad_value(case, value):
    name, param = case
    fn, kwargs = _valid_calls()[name]
    if KINDS[case].startswith("["):
        value = (value,) + tuple(kwargs[param][1:])
    try:
        result = fn(**{**kwargs, param: value})
    except (ValueError, TypeError) as exc:
        message = str(exc)
        if message == EXCEPTIONS.get(case):
            return
        words = (param, *SYNONYMS.get(param, ()))
        assert re.search(rf"\b({'|'.join(words)})s?\b", message), (case, value, message)
    else:
        bad = [z for z in _numbers(result) if not cmath.isfinite(z)]
        assert not bad, (case, value, bad)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_every_bad_number_is_rejected_by_name_or_gives_finite_results(data):
    # each example gives every parameter its kind's fixed values and one drawn value
    for case, kind in sorted(KINDS.items()):
        kind = kind.strip("[]")
        for value in (*FIXED[kind], data.draw(DRAWN[kind], label=" ".join(case))):
            _check_bad_value(case, value)


def test_every_parameter_has_a_kind_or_takes_no_number():
    # a new public parameter must join one of the two tables, so it cannot
    # skip the property above
    params = {(name, param) for name, params in SIGNATURES.items() for param in params}
    assert not set(KINDS) & set(NOT_NUMBERS)
    assert set(KINDS) | set(NOT_NUMBERS) == params
