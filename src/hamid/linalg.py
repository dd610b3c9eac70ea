"""Dense complex-matrix substrate: structured symmetry checks, the spectral
norm, and exp/log of unitaries.

Matrices are plain numpy arrays (dense, column-major vectorization convention
throughout the package).  Structural contracts (real symmetric, zero diagonal,
unitary) are enforced by the ``require_*`` helpers at the boundaries where an
operation's contract demands them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_UNITARITY_TOL = 1e-10
DEFAULT_DECOMP_TOL = 1e-10
SYMMETRY_TOL = 1e-10

# Eigenphases this close to -pi are snapped to exactly +pi, so the principal
# branch is (-pi, pi] with pi attainable (a phase of exactly pi must
# decompose with a positive sign, not flip to -pi through round-off).
_BRANCH_SNAP = 1e-12


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject NaN and inf, which compare false against every tolerance."""
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def spec_norm(m: np.ndarray) -> float:
    """Largest singular value of a square matrix.

    For normal matrices (every Hermitian difference this package measures)
    this equals the maximum absolute eigenvalue; for non-normal arguments
    such as differences of unitaries it is the 2-norm.
    """
    m = require_square(m)
    if m.size == 1:
        return float(abs(m[0, 0]))
    return float(np.linalg.norm(m, ord=2))


def symmetry_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.T))) if m.size else 0.0


def require_real_symmetric(
    m: np.ndarray, name: str = "matrix", zero_diag: bool = False
) -> np.ndarray:
    """Validate a real symmetric matrix (optionally with zero diagonal)."""
    m = require_finite(require_square(np.asarray(m, dtype=float), name), name)
    if symmetry_defect(m) > SYMMETRY_TOL:
        raise ValueError(f"{name} is not symmetric (defect {symmetry_defect(m):.3e})")
    if zero_diag and m.size and np.max(np.abs(np.diag(m))) > SYMMETRY_TOL:
        raise ValueError(f"{name} must have a zero diagonal")
    return m


def unitarity_defect(u: np.ndarray) -> float:
    u = require_square(u)
    return spec_norm(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(
    u: np.ndarray, name: str = "matrix", tol: float = DEFAULT_UNITARITY_TOL
) -> np.ndarray:
    u = require_finite(np.asarray(u, dtype=complex), name)
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"{name} is not unitary within {tol:.1e} (defect {defect:.3e})")
    return u


def anti_hermitian_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m + m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class TargetDecomposition:
    """Splitting of a unitary target into exp(i*S + A).

    S is real symmetric and A real antisymmetric, so i*S + A is the
    anti-Hermitian principal logarithm of the target.
    """

    s: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        s = require_real_symmetric(self.s, "S")
        a = require_finite(np.asarray(self.a, dtype=float), "A")
        if a.size and np.max(np.abs(a + a.T)) > SYMMETRY_TOL:
            raise ValueError("A is not antisymmetric")
        if s.shape != a.shape:
            raise ValueError("S and A must share a dimension")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.s.shape[0]

    def generator(self, fraction: float = 1.0) -> np.ndarray:
        """Anti-Hermitian generator i*S + fraction*A."""
        return 1j * self.s + fraction * self.a


def unitary_log(u: np.ndarray) -> np.ndarray:
    """Principal anti-Hermitian logarithm of a unitary matrix.

    Uses a complex Schur decomposition so the similarity transform stays
    unitary even for (near-)degenerate eigenvalues; eigenvalue phases are
    taken in (-pi, pi]; a phase within 1e-12 of -pi is snapped to exactly
    +pi, which moves the log by at most that width.  ``scipy.linalg`` is
    imported here, on the first call, because this is its only user: the
    Newton solve and the sweep never take a log and skip its ~27 MB import.
    """
    import scipy.linalg  # deferred: ~27 MB resident, needed only for the log

    u = require_unitary(u, "unitary_log input")
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    phases = np.where(phases <= -np.pi + _BRANCH_SNAP, np.pi, phases)
    m = (q * (1j * phases)) @ q.conj().T
    # anti-Hermitize away the Schur round-off
    m = 0.5 * (m - m.conj().T)
    roundtrip = spec_norm(unitary_exp(m) - u)
    if roundtrip > DEFAULT_DECOMP_TOL:
        raise np.linalg.LinAlgError(
            f"unitary log round trip failed (residual {roundtrip:.3e})"
        )
    return m


def unitary_exp(m: np.ndarray) -> np.ndarray:
    """exp of an anti-Hermitian matrix via the Hermitian eigensolver.

    The result is unitary to round-off because -i*m is diagonalized by a
    unitary similarity.
    """
    m = require_square(np.asarray(m, dtype=complex), "generator")
    defect = anti_hermitian_defect(m)
    if defect > SYMMETRY_TOL:
        raise ValueError(f"generator is not anti-Hermitian (defect {defect:.3e})")
    k = -1j * m  # Hermitian
    w, v = np.linalg.eigh(k)
    return (v * np.exp(1j * w)) @ v.conj().T


def split_log(m: np.ndarray) -> TargetDecomposition:
    """Split an anti-Hermitian log into i*S + A with S symmetric, A antisymmetric.

    For anti-Hermitian m the imaginary part is the symmetric S and the real
    part the antisymmetric A.  One check of m against ``SYMMETRY_TOL`` covers
    both parts: entrywise, neither part's defect exceeds that of m.
    """
    m = require_square(np.asarray(m, dtype=complex), "log matrix")
    if anti_hermitian_defect(m) > SYMMETRY_TOL:
        raise ValueError("input to split_log must be anti-Hermitian")
    s = np.imag(m)
    a = np.real(m)
    s = 0.5 * (s + s.T)
    a = 0.5 * (a - a.T)
    return TargetDecomposition(s=s, a=a)


def decompose_target(u_tar: np.ndarray) -> TargetDecomposition:
    """unitary_log followed by split_log."""
    return split_log(unitary_log(u_tar))


def matrix_to_json(m: np.ndarray) -> dict:
    """JSON-friendly matrix payload; real matrices omit the "im" block."""
    m = require_square(np.asarray(m))
    payload = {"dim": int(m.shape[0]), "re": np.real(m).tolist()}
    if np.iscomplexobj(m) and np.any(np.imag(m) != 0.0):
        payload["im"] = np.imag(m).tolist()
    return payload


def matrix_from_json(payload: dict) -> np.ndarray:
    dim = int(payload["dim"])
    re = np.asarray(payload["re"], dtype=float)
    if re.shape != (dim, dim):
        raise ValueError(f"re block has shape {re.shape}, expected ({dim}, {dim})")
    if "im" in payload:
        im = np.asarray(payload["im"], dtype=float)
        if im.shape != (dim, dim):
            raise ValueError(f"im block has shape {im.shape}, expected ({dim}, {dim})")
        return re + 1j * im
    return re
