"""Registry of hyperon decay modes and the entangled production channels built on them.

The catalog is a plain text table rather than hardcoded constants: the
asymmetry parameters are external data (PDG world averages) that move over
time and should stay user-auditable.  Format: whitespace-separated columns
``hyperon channel alpha alpha_uncertainty [cp_conjugate]``, ``#`` comments.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .correlations import pair_correlation, pair_density_matrix
from .povm import MeasurementParams
from .quantum import Direction, TwoQubitState

CATALOG_ENV_VAR = "HYPERON_LEGGETT_CATALOG"

# Mother particle -> spin state of the hyperon pair it decays into.
MOTHERS = {"eta_c": "singlet", "chi_c0": "triplet_m0"}


@dataclass(frozen=True)
class DecayMode:
    """One two-body hadronic decay channel of a hyperon (or antihyperon)."""

    hyperon: str
    channel: str
    alpha: float
    alpha_uncertainty: float
    cp_conjugate: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "alpha_uncertainty", float(self.alpha_uncertainty))
        if not -1.0 <= self.alpha <= 1.0:
            raise ValueError(f"{self.hyperon}: |alpha| must not exceed 1, got {self.alpha!r}")
        if not 0.0 <= self.alpha_uncertainty < math.inf:
            raise ValueError(f"{self.hyperon}: alpha uncertainty must be finite and >= 0, "
                             f"got {self.alpha_uncertainty!r}")


@dataclass(frozen=True)
class ProductionChannel:
    """A charmonium decay producing an entangled hyperon pair.

    The spin state follows from the mother: a pseudoscalar gives the
    antisymmetric (singlet) pair, a scalar gives the zero-projection triplet
    along the pair axis.
    """

    mother: str
    mode_a: DecayMode
    mode_b: DecayMode

    def __post_init__(self) -> None:
        if self.mother not in MOTHERS:
            raise ValueError(f"unknown mother particle {self.mother!r}; "
                             f"expected one of {tuple(MOTHERS)}")

    @property
    def spin_state(self) -> str:
        return MOTHERS[self.mother]

    def label(self) -> str:
        return f"{self.mother}->{self.mode_a.hyperon}+{self.mode_b.hyperon}"


def parse_catalog(text: str, source: str = "<string>") -> list[DecayMode]:
    modes: list[DecayMode] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (4, 5):
            raise ValueError(f"{source}:{lineno}: expected 4 or 5 columns, got {len(parts)}")
        name, channel = parts[0], parts[1]
        try:
            alpha = float(parts[2])
            uncertainty = float(parts[3])
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad number in {raw.strip()!r}") from exc
        cp_link = parts[4] if len(parts) == 5 and parts[4] != "-" else None
        if name in seen:
            raise ValueError(f"{source}:{lineno}: duplicate mode {name!r}")
        try:
            mode = DecayMode(hyperon=name, channel=channel, alpha=alpha,
                             alpha_uncertainty=uncertainty, cp_conjugate=cp_link)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from exc
        seen.add(name)
        modes.append(mode)
    return modes


def load_catalog(path: str | Path) -> list[DecayMode]:
    p = Path(path)
    return parse_catalog(p.read_text(encoding="utf-8"), source=str(p))


def catalog_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def default_catalog_path() -> Path:
    """Shipped catalog, unless the environment variable points elsewhere."""
    env = os.environ.get(CATALOG_ENV_VAR)
    if env:
        return Path(env)
    return Path(str(resources.files("hyperon_leggett").joinpath("data/decay_modes.txt")))


def find_mode(modes: list[DecayMode], name: str) -> DecayMode:
    for m in modes:
        if m.hyperon == name:
            return m
    known = ", ".join(m.hyperon for m in modes)
    raise KeyError(f"unknown decay mode {name!r}; catalog has: {known}")


def make_pair_channel(modes: list[DecayMode], hyperon: str,
                      mother: str = "eta_c") -> ProductionChannel:
    """Channel for mother -> Y Ybar with the B side taken from the CP link."""
    mode_a = find_mode(modes, hyperon)
    if mode_a.cp_conjugate is None:
        raise ValueError(f"mode {hyperon!r} has no CP-conjugate link in the catalog")
    mode_b = find_mode(modes, mode_a.cp_conjugate)
    return ProductionChannel(mother=mother, mode_a=mode_a, mode_b=mode_b)


def channel_spin_state(channel: ProductionChannel) -> TwoQubitState:
    return pair_density_matrix(channel.spin_state)


def channel_correlation(channel: ProductionChannel, a: Direction, b: Direction) -> float:
    """Correlation function of the channel at settings (a, b), unbiased measurements.

    ``a`` is taken as inverted by correlations.a_side_inversion (the z flip for the
    triplet), which maps the triplet onto the singlet analysis up to a sign.
    """
    pa = MeasurementParams.unsharp(channel.mode_a.alpha)
    pb = MeasurementParams.unsharp(channel.mode_b.alpha)
    return float(pair_correlation(channel.spin_state, pa, a.as_array(), pb, b.as_array()))
