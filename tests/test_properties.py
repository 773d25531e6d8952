"""Property tests: the array path that the scans use against the scalar path."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hyperon_leggett import MeasurementParams, build_settings, leggett_sum_lhs
from hyperon_leggett.correlations import pair_correlation
from hyperon_leggett.geometry import DEFAULT_AXES, DEFAULT_FRAME, settings_arrays
from hyperon_leggett.inequalities import leggett_sum_value

from conftest import random_rotation, rotated

phis = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True)


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
    pairs = [(correlation(a, b), correlation(a, bp)) for a, b, bp in zip(s.a, s.b, s.b_prime)]
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
