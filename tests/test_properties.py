"""Property tests: the array path that the scans use against the scalar path, the
closed forms against the 4x4 matrix path, the invariances of the settings layout,
and exact text round trips of the catalog and of event files."""

import math
import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from hyperon_leggett import (DecayMode, Direction, MeasurementParams, ProductionChannel,
                             build_settings, leggett_sum_lhs, load_events,
                             sample_pair_decay, save_events)
from hyperon_leggett.catalog import MOTHERS, parse_catalog
from hyperon_leggett.correlations import (correlation_singlet, correlation_triplet_m0,
                                          correlation_via_operators, joint_prob_matrix,
                                          joint_prob_singlet, pair_correlation)
from hyperon_leggett.geometry import (DEFAULT_AXES, DEFAULT_FRAME, flip_b_prime,
                                      settings_arrays, settings_from_text, settings_to_text)
from hyperon_leggett.inequalities import leggett_sum_value
from hyperon_leggett.quantum import singlet_state, triplet_m0_state
from hyperon_leggett.simulation import _PROVENANCE_FIELDS, _format_rows

from conftest import (percent_rows, random_rotation, rotated, serialize_catalog,
                      setting_directions)

phis = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True)
alphas = st.floats(min_value=-1.0, max_value=1.0)
# Whitespace-free tokens without "#", as the catalog and events headers need.
tokens = st.text(alphabet=string.ascii_letters + string.digits + "_+-",
                 min_size=1, max_size=12)
directions = st.tuples(alphas, alphas, alphas).filter(
    lambda v: math.hypot(*v) >= 0.1).map(lambda v: Direction.normalized(*v))


@st.composite
def measurement_params(draw, biased: bool) -> MeasurementParams:
    """Valid (eta, alpha): |eta + alpha| <= 1 and |eta - alpha| <= 1."""
    eta = draw(st.floats(min_value=-1.0, max_value=1.0)) if biased else 0.0
    reach = 1.0 - abs(eta)
    return MeasurementParams(eta, draw(st.floats(min_value=-reach, max_value=reach)))


@st.composite
def channels(draw):
    """A mother's spin state with params for both sides (unbiased for the triplet)."""
    spin_state = draw(st.sampled_from(["singlet", "triplet_m0"]))
    biased = spin_state == "singlet"
    return spin_state, draw(measurement_params(biased)), draw(measurement_params(biased))


@st.composite
def frames(draw):
    """The default (frame, axes) pair under a random rotation: generic directions,
    so every term of every dot product counts."""
    rotation = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return (tuple(rotated(rotation, d) for d in DEFAULT_FRAME),
            tuple(rotated(rotation, d) for d in DEFAULT_AXES))


def scalar_lhs(phi, frame, axes, spin_state, pa, pb):
    """leggett_sum_lhs on build_settings, with the closed-form correlations
    written out in Python floats (the triplet A side pre-inverted along z)."""
    def correlation(a, b):
        e = pa.alpha * pb.alpha * a.dot(b)
        return pa.eta * pb.eta - e if spin_state == "singlet" else e

    s = build_settings(phi, frame, axes)
    pairs = [(correlation(a, b), correlation(a, bp)) for a, b, bp in setting_directions(s)]
    return leggett_sum_lhs(s, pairs, alpha_b=pb.alpha).lhs


@settings(max_examples=300, deadline=None)
@given(st.lists(phis, min_size=1, max_size=8), frames(), channels())
def test_array_path_matches_scalar_path_exactly(phi_list, frame_axes, channel):
    spin_state, pa, pb = channel
    phi = np.array(phi_list)
    a, b, b_prime = settings_arrays(phi, *frame_axes)
    lhs = leggett_sum_value(pair_correlation(spin_state, pa, a, pb, b)
                            + pair_correlation(spin_state, pa, a, pb, b_prime),
                            pb.alpha, phi)
    assert lhs.tolist() == [scalar_lhs(p, *frame_axes, spin_state, pa, pb) for p in phi_list]


@settings(max_examples=200, deadline=None)
@given(phis, frames())
def test_settings_text_round_trip_is_exact(phi, frame_axes):
    s = build_settings(phi, *frame_axes)
    loaded = settings_from_text(settings_to_text(s))
    assert loaded.phi == s.phi
    for name in ("a", "b", "b_prime"):
        assert (getattr(loaded, name) == getattr(s, name)).all()


@settings(max_examples=200, deadline=None)
@given(phis, frames())
def test_flip_twice_is_the_identity(phi, frame_axes):
    s = build_settings(phi, *frame_axes)
    back = flip_b_prime(flip_b_prime(s))
    for name in ("a", "b", "b_prime"):
        assert (getattr(back, name) == getattr(s, name)).all()
    # pi - (pi - phi) rounds twice, so phi comes back to within an ulp of pi.
    assert abs(back.phi - s.phi) <= np.spacing(math.pi)


@settings(max_examples=300, deadline=None)
@given(phis, frames(), channels())
def test_sum_form_lhs_invariant_under_rotation(phi, frame_axes, channel):
    spin_state, pa, pb = channel
    rotated_lhs = scalar_lhs(phi, *frame_axes, spin_state, pa, pb)
    default_lhs = scalar_lhs(phi, DEFAULT_FRAME, DEFAULT_AXES, spin_state, pa, pb)
    assert abs(rotated_lhs - default_lhs) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(measurement_params(True), directions, measurement_params(True), directions)
def test_singlet_closed_forms_match_matrix_path(pa, a, pb, b):
    closed = joint_prob_singlet(pa, a, pb, b)
    matrix = joint_prob_matrix(singlet_state(), pa, a, pb, b)
    for j in (1, -1):
        for k in (1, -1):
            assert abs(closed.value(j, k) - matrix.value(j, k)) <= 1e-12
    assert abs(correlation_singlet(pa, a, pb, b)
               - correlation_via_operators(singlet_state(), pa, a, pb, b)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(measurement_params(False), directions, measurement_params(False), directions)
def test_triplet_closed_form_matches_matrix_path(pa, a, pb, b):
    assert abs(correlation_triplet_m0(pa, a, pb, b)
               - correlation_via_operators(triplet_m0_state(), pa, a, pb, b)) <= 1e-12


@st.composite
def decay_modes(draw):
    """Catalog rows with distinct hyperon names and arbitrary finite numbers."""
    names = draw(st.lists(tokens, max_size=6, unique=True))
    return [DecayMode(name, draw(tokens), draw(alphas),
                      draw(st.floats(min_value=0.0, allow_infinity=False)),
                      draw(st.none() | tokens.filter(lambda t: t != "-")))
            for name in names]


@settings(max_examples=200, deadline=None)
@given(decay_modes())
def test_catalog_text_round_trip_is_exact(modes):
    assert parse_catalog(serialize_catalog(modes)) == modes


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(MOTHERS)), tokens, alphas, tokens, alphas,
       st.integers(0, 2**64 - 1), st.integers(1, 50),
       st.just("-") | st.text(alphabet="0123456789abcdef", min_size=1, max_size=64))
def test_events_text_round_trip_is_exact(mother, name_a, alpha_a, name_b, alpha_b,
                                         seed, n_events, sha):
    channel = ProductionChannel(mother, DecayMode(name_a, "x_y", alpha_a, 0.0),
                                DecayMode(name_b, "x_y", alpha_b, 0.0))
    sample = sample_pair_decay(channel, n_events, seed, catalog_sha256=sha)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        save_events(path, sample)
        loaded = load_events(path)
    assert (loaded.n_a == sample.n_a).all() and (loaded.n_b == sample.n_b).all()
    for key in _PROVENANCE_FIELDS:
        assert getattr(loaded, key) == getattr(sample, key), key


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 6), min_size=1, max_size=20))
def test_event_text_matches_percent_format(rows):
    rows = np.array(rows, dtype=float)
    assert _format_rows(rows) == percent_rows(rows)
