import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psslab as ps
from conftest import load_named


def doc_mm1() -> dict:
    return {
        "classes": [{"lambda": 1, "hat_lambda": 0.0, "c2_a": 1.0, "h": 1.0}],
        "servers": 1,
        "activities": [{"i": 1, "k": 1, "mu": 1, "hat_mu": 0.0, "c2_s": 1.0}],
        "gamma": 1.0,
    }


def test_load_basic_fields():
    inst = load_named("example_a")
    assert inst.num_classes == 2
    assert inst.num_servers == 2
    assert inst.num_activities == 4
    assert inst.lam == (Fraction(5), Fraction(4))
    assert inst.mu == (Fraction(3), Fraction(4), Fraction(6), Fraction(8))
    assert inst.activities[1] == ps.Activity(class_index=1, server_index=2)
    assert inst.class_activities == ((0, 1), (2, 3))
    assert inst.server_activities == ((0, 2), (1, 3))


def test_rational_string_round_trip():
    inst = load_named("example_b")
    assert inst.lam[0] == Fraction(7, 2)
    again = ps.load_instance(ps.dump_instance(inst))
    assert again == inst


def test_round_trip_all_instances():
    for name in ["example_a", "example_a2", "example_d", "example_e", "mm1"]:
        inst = load_named(name)
        assert ps.load_instance(ps.dump_instance(inst)) == inst


reals = st.floats(allow_nan=False, allow_infinity=False)
positive_reals = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative_reals = st.floats(min_value=0.0, allow_infinity=False)
rationals = st.fractions(min_value=0, max_denominator=10**12).filter(lambda v: v > 0)


@st.composite
def instances(draw):
    ni = draw(st.integers(1, 3))
    nk = draw(st.integers(1, 3))
    grid = [(i, k) for i in range(1, ni + 1) for k in range(1, nk + 1)]
    # Cover every class and every server, then add any further pairs.
    pairs = {(i, 1 + (i - 1) % nk) for i in range(1, ni + 1)}
    pairs |= {(1 + (k - 1) % ni, k) for k in range(1, nk + 1)}
    pairs |= set(draw(st.lists(st.sampled_from(grid), max_size=len(grid))))
    pairs = draw(st.permutations(sorted(pairs)))
    nj = len(pairs)
    return ps.PssInstance(
        num_classes=ni,
        num_servers=nk,
        activities=tuple(ps.Activity(i, k) for i, k in pairs),
        lam=tuple(draw(st.lists(rationals, min_size=ni, max_size=ni))),
        hat_lambda=tuple(draw(st.lists(reals, min_size=ni, max_size=ni))),
        c2_arrival=tuple(draw(st.lists(positive_reals, min_size=ni, max_size=ni))),
        h=tuple(draw(st.lists(positive_reals, min_size=ni, max_size=ni))),
        mu=tuple(draw(st.lists(rationals, min_size=nj, max_size=nj))),
        hat_mu=tuple(draw(st.lists(reals, min_size=nj, max_size=nj))),
        c2_service=tuple(draw(st.lists(nonnegative_reals, min_size=nj, max_size=nj))),
        gamma=draw(positive_reals),
    )


@settings(max_examples=200, deadline=None)
@given(instances())
def test_dump_load_round_trip_random_instances(inst):
    again = ps.load_instance(ps.dump_instance(inst))
    assert again == inst
    # Equality of floats conflates -0.0 and 0.0; the bytes do not.
    assert ps.dump_instance(again) == ps.dump_instance(inst)


def test_load_accepts_str_and_bytes():
    text = json.dumps(doc_mm1())
    assert ps.load_instance(text) == ps.load_instance(text.encode())


def test_float_rate_rejected():
    doc = doc_mm1()
    doc["classes"][0]["lambda"] = 1.0
    with pytest.raises(ps.InstanceError, match="lambda"):
        ps.load_instance(json.dumps(doc))


def test_bool_rate_rejected():
    doc = doc_mm1()
    doc["activities"][0]["mu"] = True
    with pytest.raises(ps.InstanceError, match="mu"):
        ps.load_instance(json.dumps(doc))


def test_bad_rational_string():
    doc = doc_mm1()
    doc["classes"][0]["lambda"] = "5/0"
    with pytest.raises(ps.InstanceError, match="rational"):
        ps.load_instance(json.dumps(doc))


def test_missing_field_names_path():
    doc = doc_mm1()
    del doc["classes"][0]["c2_a"]
    with pytest.raises(ps.InstanceError, match=r"classes\[0\].c2_a"):
        ps.load_instance(json.dumps(doc))


def test_invalid_json():
    # Bad UTF-8 and an integer beyond Python's 4300-digit parsing limit
    # fail inside json.loads too.
    for document in (b"{not json", b"\xff{}", '{"servers": 1' + "0" * 5000 + "}"):
        with pytest.raises(ps.InstanceError, match="invalid JSON"):
            ps.load_instance(document)


def test_index_out_of_range():
    doc = doc_mm1()
    doc["activities"][0]["k"] = 2
    with pytest.raises(ps.InstanceError, match="server index"):
        ps.load_instance(json.dumps(doc))


def test_duplicate_activity_rejected():
    doc = doc_mm1()
    doc["activities"].append({"i": 1, "k": 1, "mu": 2, "hat_mu": 0.0, "c2_s": 1.0})
    with pytest.raises(ps.InstanceError, match="duplicate"):
        ps.load_instance(json.dumps(doc))


def test_uncovered_server_rejected():
    doc = doc_mm1()
    doc["servers"] = 2
    with pytest.raises(ps.InstanceError, match="server 2"):
        ps.load_instance(json.dumps(doc))


def test_nonpositive_values_rejected():
    for field, value, owner in [
        ("lambda", 0, "classes"),
        ("h", 0.0, "classes"),
        ("c2_a", 0.0, "classes"),
    ]:
        doc = doc_mm1()
        doc[owner][0][field] = value
        with pytest.raises(ps.InstanceError, match=field):
            ps.load_instance(json.dumps(doc))
    doc = doc_mm1()
    doc["gamma"] = -1.0
    with pytest.raises(ps.InstanceError, match="gamma"):
        ps.load_instance(json.dumps(doc))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize(
    "owner, field",
    [
        ("classes", "hat_lambda"),
        ("classes", "c2_a"),
        ("classes", "h"),
        ("activities", "hat_mu"),
        ("activities", "c2_s"),
        (None, "gamma"),
    ],
)
def test_non_finite_reals_rejected(owner, field, value):
    doc = doc_mm1()
    if owner is None:
        doc[field] = value
        path = rf"\$\.{field}"
    else:
        doc[owner][0][field] = value
        path = rf"{owner}\[0\]\.{field}"
    with pytest.raises(ps.InstanceError, match=path + ": must be finite"):
        ps.load_instance(json.dumps(doc))


def test_zero_service_scv_allowed():
    doc = doc_mm1()
    doc["activities"][0]["c2_s"] = 0.0
    inst = ps.load_instance(json.dumps(doc))
    assert inst.c2_service == (0.0,)


def test_build_matrices_example_a():
    inst = load_named("example_a")
    mats = ps.build_matrices(inst)
    F = Fraction
    assert mats.r == (
        (F(3), F(4), F(0), F(0)),
        (F(0), F(0), F(6), F(8)),
    )
    assert mats.g == (
        (F(1), F(0), F(1), F(0)),
        (F(0), F(1), F(0), F(1)),
    )
