"""Dense complex-matrix substrate: structured symmetry checks, the spectral
norm, and exp/log of unitaries.

Matrices are plain numpy arrays (dense, column-major vectorization convention
throughout the package).  Structural contracts (real symmetric, zero diagonal,
unitary) are enforced by the ``require_*`` helpers at the boundaries where an
operation's contract demands them.
"""
from __future__ import annotations

import math
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
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def require_real_array(x, name: str = "matrix") -> np.ndarray:
    """``x`` as a float array.  A complex value must have a zero imaginary
    part: a float cast would drop it with only a warning.  Text is refused
    (the cast would read '0.5' as a number), and so is a value the cast
    cannot read (a dict).  A float64 array is returned as it is, without a
    copy."""
    if type(x) is np.ndarray and x.dtype == np.float64:
        return x
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if np.any(x.imag != 0):
            raise ValueError(f"{name} must be real, got a nonzero imaginary part")
        x = x.real.copy()
    if x.dtype.kind in "US":
        raise ValueError(f"{name} must be real, got a value that is not a number (text)")
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be real, got a value that is not a number ({exc})") from None


def spec_norm(m: np.ndarray) -> float:
    """Largest singular value of a square matrix: ``spec_norms(m)[0]``."""
    return spec_norms(m)[0]


def spec_norms(*ms: np.ndarray) -> list:
    """The largest singular value of each square matrix of ``ms``, from one
    batched SVD per group of matrices that share a dtype and a shape (the
    batched call makes the LAPACK call a single matrix's SVD makes); a 1 x 1
    matrix's is the modulus of its entry, and a 0 x 0 matrix is refused.

    For normal matrices (every Hermitian difference this package measures)
    this equals the maximum absolute eigenvalue; for non-normal arguments
    such as differences of unitaries it is the 2-norm.
    """
    ms = [require_square(m) for m in ms]
    norms = [0.0] * len(ms)
    groups = {}
    for k, m in enumerate(ms):
        if m.size == 0:
            raise ValueError(f"spec_norms input {k} must be at least 1 x 1, got shape {m.shape}")
        if m.size == 1:
            norms[k] = float(abs(m[0, 0]))
        else:
            groups.setdefault((m.dtype, m.shape), []).append(k)
    for ks in groups.values():
        sv = np.linalg.svd(np.array([ms[k] for k in ks]), compute_uv=False)
        for k, s in zip(ks, sv[:, 0].tolist()):
            norms[k] = s
    return norms


def require_real_symmetric(m: np.ndarray, name: str = "matrix", zero_diag: bool = False):
    """Validate a real symmetric matrix (optionally with zero diagonal):
    returns (the matrix as floats, max|m| as a Python float).  max|m| is NaN
    or inf exactly when an entry is, so one reduction gives the finiteness
    verdict and the entry bound."""
    m = require_square(require_real_array(m, name), name)
    if not m.size:
        return m, 0.0
    entry_max = float(abs(m).max())
    if not math.isfinite(entry_max):
        raise ValueError(f"{name} has non-finite entries")
    defect = float(abs(m - m.T).max())
    if defect > SYMMETRY_TOL:
        raise ValueError(f"{name} is not symmetric (defect {defect:.3e})")
    if zero_diag and abs(m.diagonal()).max() > SYMMETRY_TOL:
        raise ValueError(f"{name} must have a zero diagonal")
    return m, entry_max


def require_unitary(
    u: np.ndarray, name: str = "matrix", tol: float = DEFAULT_UNITARITY_TOL
) -> np.ndarray:
    u = require_finite(np.asarray(u, dtype=complex), name)
    if u.size == 0:
        raise ValueError(f"{name} must be at least 1 x 1, got shape {u.shape}")
    e = require_square(u).conj().T @ u - np.eye(u.shape[0])
    # ||E||_2 <= ||E||_F, so a Frobenius norm (one BLAS call) under half the
    # tolerance passes without the SVD; any other E gets the SVD's verdict
    if not math.sqrt(np.vdot(e, e).real) <= 0.5 * tol:
        defect = spec_norm(e)
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
        s = require_real_symmetric(self.s, "S")[0]
        a = require_finite(require_real_array(self.a, "A"), "A")
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

    A unitary is normal, so its log needs only a unitary diagonalization
    (N. J. Higham, *Functions of Matrices*, SIAM 2008, ch. 11), which numpy's
    Hermitian eigensolver gives.  U is turned by the scalar e^{i phi} that
    puts the widest gap between its eigenphases at -1.  The Cayley transform
    K = i (I - W)(I + W)^{-1} of the turned W is then Hermitian, has U's
    eigenvectors and sends distinct phases to distinct eigenvalues, so its
    ``eigh`` basis Q is orthonormal even for repeated phases.  The phases are
    read off diag(Q^H U Q) and taken in (-pi, pi]; a phase within 1e-12 of
    -pi is snapped to exactly +pi, which moves the log by at most that width.
    """
    u = require_unitary(u, "unitary_log input")
    theta = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    w = np.exp(1j * (np.pi - theta[widest] - 0.5 * gaps[widest])) * u
    eye = np.eye(u.shape[0])
    _, q = np.linalg.eigh(1j * np.linalg.solve(eye + w, eye - w))
    phases = np.angle(np.sum(q.conj() * (u @ q), axis=0))
    phases = np.where(phases <= -np.pi + _BRANCH_SNAP, np.pi, phases)
    m = (q * (1j * phases)) @ q.conj().T
    # anti-Hermitize away the round-off of the eigenbasis
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


def decompose_target(u_tar: np.ndarray) -> TargetDecomposition:
    """The principal log i*S + A of a unitary target: S is the imaginary
    part of ``unitary_log``'s m and A its real part.  m = 0.5 (X - X^H) is
    exactly anti-Hermitian, so S is exactly symmetric and A exactly
    antisymmetric, with a zero diagonal."""
    m = unitary_log(u_tar)
    return TargetDecomposition(s=m.imag.copy(), a=m.real.copy())


def matrix_to_json(m: np.ndarray) -> dict:
    """JSON-friendly matrix payload; real matrices omit the "im" block."""
    m = require_square(np.asarray(m))
    payload = {"dim": int(m.shape[0]), "re": np.real(m).tolist()}
    if np.iscomplexobj(m) and np.any(np.imag(m) != 0.0):
        payload["im"] = np.imag(m).tolist()
    return payload
