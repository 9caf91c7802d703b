"""Jones-calculus kernel: polarization states, 2x2 transfer matrices and
Stokes diagnostics.

Conventions used throughout the package:

* A state of polarization (SOP) is the complex pair (ex, ey).  Global phase
  carries no physical meaning; ``JonesVector.same_sop`` compares states up to
  a unit complex factor.
* Stokes parameters are s0 = |ex|^2 + |ey|^2, s1 = |ex|^2 - |ey|^2,
  s2 = 2 Re(ex* ey), s3 = -2 Im(ex* ey), so that (1, 0) maps to (1, 1, 0, 0)
  and (1, i)/sqrt(2) maps to (1, 0, 0, -1).
* A retarder with fast axis at 0 deg is diag(e^{-i d/2}, e^{+i d/2}); the
  45-deg retarder is the same element conjugated by a pair of 50/50
  couplers, which is exactly how the waveguide version is laid out.
* Extinction ratio is the power ratio of the maximized port over the
  minimized port, 10 log10(i_px / i_py) in dB.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import reduce

import numpy as np

#: absolute tolerance for the algebraic identities (unitarity, decomposition)
ALGEBRA_TOL = 1e-12


def _frozen(cls):
    """Frozen slots dataclass; any set or delete raises FrozenInstanceError."""
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"{cls.__name__} is frozen: {name!r}")
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@_frozen
class JonesVector:
    """Complex two-component field amplitude (ex, ey), stored as its four
    real parts ``_parts = (ex.real, ex.imag, ey.real, ey.imag)``, which
    ``measure`` and ``rotate_sop`` read.  ``ex`` and ``ey`` rebuild complex
    numbers with the stored bits, so a real component reads back as complex
    (``JonesVector(1.0, 0).ex`` is ``(1+0j)``), in the repr too; equality
    and the hash are those of the parts."""

    _parts: tuple[float, float, float, float]

    def __init__(self, ex: complex, ey: complex) -> None:
        _set_parts(self, (ex.real, ex.imag, ey.real, ey.imag))

    ex = property(lambda self: complex(self._parts[0], self._parts[1]))
    ey = property(lambda self: complex(self._parts[2], self._parts[3]))

    def __repr__(self) -> str:
        return f"JonesVector(ex={self.ex!r}, ey={self.ey!r})"

    def norm_sq(self) -> float:
        xr, xi, yr, yi = self._parts
        return xr * xr + xi * xi + yr * yr + yi * yi

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> "JonesVector":
        """Unit-norm copy; scaling by the largest component magnitude first
        keeps the norm from overflowing or underflowing (1e308, 1e-320)."""
        m = max(map(abs, self._parts))
        if m == 0.0:
            raise ValueError("cannot normalize a zero Jones vector")
        v = JonesVector(self.ex / m, self.ey / m)
        n = v.norm()
        return JonesVector(v.ex / n, v.ey / n)

    def same_sop(self, other: "JonesVector", tol: float = 1e-9) -> bool:
        """True if both vectors describe the same SOP up to global phase."""
        inner = self.ex.conjugate() * other.ex + self.ey.conjugate() * other.ey
        return abs(abs(inner) - self.norm() * other.norm()) <= tol


# the slot's own setter, past the frozen __setattr__: __init__ stores the parts
# through it, and _vector without __init__ (rotate_sop runs per evaluation)
_set_parts = JonesVector._parts.__set__


def _vector(parts: tuple[float, float, float, float]) -> JonesVector:
    v = object.__new__(JonesVector)
    _set_parts(v, parts)
    return v


@_frozen
class JonesMatrix:
    """Complex 2x2 transfer matrix; unitary for lossless elements."""

    m00: complex
    m01: complex
    m10: complex
    m11: complex

    def dagger(self) -> "JonesMatrix":
        return JonesMatrix(self.m00.conjugate(), self.m10.conjugate(),
                           self.m01.conjugate(), self.m11.conjugate())

    def __matmul__(self, other):
        if isinstance(other, JonesMatrix):
            return JonesMatrix(
                self.m00 * other.m00 + self.m01 * other.m10,
                self.m00 * other.m01 + self.m01 * other.m11,
                self.m10 * other.m00 + self.m11 * other.m10,
                self.m10 * other.m01 + self.m11 * other.m11,
            )
        if isinstance(other, JonesVector):
            return JonesVector(
                self.m00 * other.ex + self.m01 * other.ey,
                self.m10 * other.ex + self.m11 * other.ey,
            )
        return NotImplemented

    def unitarity_defect(self) -> float:
        """Max elementwise deviation of M† M from the identity."""
        d = self.dagger() @ self
        return max(abs(d.m00 - 1.0), abs(d.m01), abs(d.m10), abs(d.m11 - 1.0))

    def as_array(self) -> np.ndarray:
        return np.array([[self.m00, self.m01], [self.m10, self.m11]],
                        dtype=complex)


@_frozen
class StokesParams:
    """Stokes four-tuple; (s1, s2, s3)/s0 sits on the unit sphere for pure
    states."""

    s0: float
    s1: float
    s2: float
    s3: float


# 50/50 coupler pair: the 45-deg retarder is COUPLER_OUT @ M0 @ COUPLER_IN,
# i.e. a phase stage sandwiched between two splitters.
_R = 1.0 / math.sqrt(2.0)
COUPLER_OUT = JonesMatrix(_R, -_R, _R, _R)
COUPLER_IN = JonesMatrix(_R, _R, -_R, _R)


def make_m0(delta0: float) -> JonesMatrix:
    """Retarder with fast axis at 0 deg: diag(e^{-i d/2}, e^{+i d/2})."""
    _require_finite("delta0", delta0)
    p = cmath.exp(-0.5j * delta0)
    return JonesMatrix(p, 0.0j, 0.0j, p.conjugate())


def make_m45(delta45: float) -> JonesMatrix:
    """Retarder with fast axis at 45 deg.

    Equals [[cos(d/2), -i sin(d/2)], [-i sin(d/2), cos(d/2)]], identically
    COUPLER_OUT @ make_m0(d) @ COUPLER_IN.
    """
    _require_finite("delta45", delta45)
    c = math.cos(0.5 * delta45)
    s = -1.0j * math.sin(0.5 * delta45)
    return JonesMatrix(c, s, s, c)


def to_stokes(v: JonesVector) -> StokesParams:
    """Stokes parameters of a Jones vector (sign convention in the module
    docstring).  Raises on the zero vector."""
    s0 = v.norm_sq()
    if s0 <= 0.0:
        raise ValueError("Stokes parameters are undefined for the zero vector")
    cross = v.ex.conjugate() * v.ey
    ax = v.ex.real * v.ex.real + v.ex.imag * v.ex.imag
    ay = v.ey.real * v.ey.real + v.ey.imag * v.ey.imag
    return StokesParams(s0, ax - ay, 2.0 * cross.real, -2.0 * cross.imag)


def _unit(q: list[float] | tuple[float, ...]) -> tuple[float, ...]:
    """``q`` over its norm, the square root of the left-to-right sum of
    squares in Python floats (no BLAS kernel enters it); below a norm of
    1e-12, the first axis (1, 0, ...), so that nothing is ever redrawn."""
    norm = math.sqrt(reduce(lambda sq, x: sq + x * x, q, 0.0))
    if norm < 1e-12:
        return (1.0,) + (0.0,) * (len(q) - 1)
    return tuple(x / norm for x in q)


def random_sop(rng) -> JonesVector:
    """Normalized SOP drawn uniformly on the Poincare sphere.

    ``rng`` is a seeded ``numpy.random.Generator``; the draw is deterministic
    per generator state.  Four i.i.d. Gaussians in one ``rng.normal(size=4)``,
    normalized by ``_unit`` as a quaternion, give the Haar-uniform pure state.
    """
    return _vector(_unit(rng.normal(size=4).tolist()))
