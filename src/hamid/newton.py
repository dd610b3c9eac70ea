"""Newton solve for (H0, H1) from initial and target propagators.

One iteration: linearize at the current pair (one propagation gives U_N and
the Jacobian blocks, which depend on the pair, the field and the grid but
not on the target), Hermitize the mismatch

    S = i (U_N^dag U_tar - U_tar^dag U_N) / 2,

assemble the vectorized linear map

    dt sum_n (Ubar_n^T kron Ubar_n^dag) vec(dH0)
        + dt sum_n E_n (Ubar_n^T kron Ubar_n^dag) vec(dH1) = vec(S),

reduce it to a square real system over the independent entries of the
symmetric updates, and solve it, with one refinement step, through its
singular value decomposition.  That one factorization, computed once per
system, also gives the recorded condition number, the refusal of
numerically singular systems and the numerical rank reported by the
singularity diagnostic.

Vectorization is column major: vec(M)[c*d + r] = M[r, c], under which
vec(A X B) = (B^T kron A) vec(X).  The reduction keeps, for every entry
(i, j) with i <= j in row-major order, the real part of scalar equation
(i, j) followed (for i < j) by its imaginary part; unknowns are the upper
triangle of dH0 (diagonal included) followed by the strict upper triangle
of dH1.  Both counts equal d^2, so the reduced system is square.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .fields import TimeGrid
from .linalg import require_square, require_unitary, spec_norm
from .propagation import HamiltonianPair, propagate_final, propagate_with_gram
from . import reporting

FLAG_CONVERGED = "converged"
FLAG_MAX_ITERS = "max_iters"
FLAG_SINGULAR = "singular_jacobian"


class SingularJacobianError(np.linalg.LinAlgError):
    """Reduced Newton system judged numerically singular."""

    def __init__(self, condition: float, threshold: float):
        self.condition = condition
        self.threshold = threshold
        # the estimate itself is round-off on a singular system, so the
        # message names only the threshold it exceeded
        super().__init__(
            "reduced Newton system is numerically singular "
            f"(condition estimate above {threshold:.3e})"
        )


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12
    max_iters: int = 50
    singular_cond_threshold: float = 1e12

    def __post_init__(self):
        for name in ("tol", "max_iters", "singular_cond_threshold"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class NewtonUpdate:
    dh0: np.ndarray
    dh1: np.ndarray


@dataclass(frozen=True)
class ReducedSystem:
    """Square real system over the independent symmetric entries.

    ``unknown_index_map`` lists, in column order, tuples ("h0"|"h1", i, j)
    with i <= j naming the matrix entry each unknown corresponds to.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    unknown_index_map: tuple

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def svd(self):
        """(U, s, V^T) of ``matrix``, s descending: the one factorization the
        condition, the rank diagnostic and the step read, computed on first
        use."""
        return np.linalg.svd(self.matrix)


@dataclass
class NewtonIteration:
    k: int
    e_k: float
    dev_h0: Optional[float]
    dev_h1: Optional[float]
    dev_u: Optional[float]
    jacobian_condition: float
    residual_skew: float


@dataclass(frozen=True)
class Linearization:
    """What the Newton system at ``pair`` has that does not depend on the
    target: U_N and the Jacobian blocks J0, J1, from one propagation with
    Gram sums.  ``system(u_tar)`` is the Newton system for any target."""

    pair: HamiltonianPair
    u_n: np.ndarray
    j0: np.ndarray
    j1: np.ndarray

    def system(self, u_tar: np.ndarray) -> ReducedSystem:
        return reduce_system(self.j0, self.j1, hermitian_residual(self.u_n, u_tar))


@dataclass
class NewtonReport:
    """Per-iteration convergence records plus the stopping flag.

    ``linearization`` is the linearization at the final pair when the solve
    was asked to close with one (``newton_identify(linearize_final=True)``);
    it is not serialized.
    """

    iterations: list = field(default_factory=list)
    flag: str = FLAG_MAX_ITERS
    failure_condition: Optional[float] = None
    failed_iteration: Optional[int] = None
    linearization: Optional[Linearization] = field(default=None, repr=False, compare=False)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def final(self) -> Optional[NewtonIteration]:
        return self.iterations[-1] if self.iterations else None

    def to_json_dict(self) -> dict:
        return {
            "flag": self.flag,
            "failure_condition": self.failure_condition,
            "failed_iteration": self.failed_iteration,
            "iterations": [asdict(it) for it in self.iterations],
        }

    def write_csv(self, path):
        rows = [
            [it.k, it.e_k, it.dev_h0, it.dev_h1, it.dev_u, it.jacobian_condition]
            for it in self.iterations
        ]
        return reporting.write_table(path, ["k", "e_k", "dev_H0", "dev_H1", "dev_U", "cond"], rows)

    def write_json(self, path):
        return reporting.write_json(path, self.to_json_dict())


def hermitian_residual(u_n: np.ndarray, u_tar: np.ndarray) -> np.ndarray:
    """S = i (U_N^dag U_tar - U_tar^dag U_N) / 2, Hermitian by construction."""
    u_n = require_square(np.asarray(u_n, dtype=complex), "U_N")
    u_tar = np.asarray(u_tar, dtype=complex)
    if u_tar.shape != u_n.shape:
        raise ValueError("U_N and U_tar dimensions differ")
    m = u_n.conj().T @ u_tar
    return 0.5j * (m - m.conj().T)


def residual_skew_norm(u_n: np.ndarray, u_tar: np.ndarray) -> float:
    """Norm of the part of i(U_N^dag U_tar - I) the Hermitization discards."""
    r = 1j * (np.asarray(u_n).conj().T @ np.asarray(u_tar) - np.eye(u_n.shape[0]))
    return spec_norm(0.5 * (r - r.conj().T))


def grams_to_jacobians(g0: np.ndarray, g1: np.ndarray, dt: float):
    """Reindex streaming Gram sums into the Kronecker Jacobian blocks.

    With G[a, b] = sum_n flat(Ubar)[a] conj(flat(Ubar))[b] over row-major
    flattening, the column-major Kronecker block is

        J[(c*d+r), (c'*d+r')] = dt * G[(c', c), (r', r)],

    i.e. a (1, 3, 0, 2) axis permutation of G viewed as a d^4 tensor.
    """
    d2 = g0.shape[0]
    d = int(round(d2**0.5))
    j0 = dt * g0.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d2, d2)
    j1 = dt * g1.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d2, d2)
    return j0, j1


@lru_cache(maxsize=64)
def unknown_index_map(d: int) -> tuple:
    entries = [("h0", i, j) for i in range(d) for j in range(i, d)]
    entries += [("h1", i, j) for i in range(d) for j in range(i + 1, d)]
    return tuple(entries)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, as every cached index array is."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _reduction_indices(d: int):
    """Gather indices of the reduction at dimension d, cached per d.

    Entry (p, q) of a symmetric update appears at vec indices q*d+p and
    p*d+q, so the merged columns are the columns ``first`` of [J0 | J1],
    with the columns ``second`` added to the off-diagonal ones (positions
    ``pairs``).
    Reduced row r is row ``rows[r]`` of [Re; Im] of the merged matrix (and of
    vec(S)): for every entry (i, j), i <= j in row-major order, its real part
    and then, for i < j, its imaginary part.
    """
    d2 = d * d
    offset = {"h0": 0, "h1": d2}
    index_map = unknown_index_map(d)
    first = [offset[w] + q * d + p for w, p, q in index_map]
    second = [offset[w] + p * d + q for w, p, q in index_map if p != q]
    pairs = [k for k, (_, p, q) in enumerate(index_map) if p != q]
    rows = []
    for i in range(d):
        for j in range(i, d):
            rows.append(j * d + i)
            if i < j:
                rows.append(d2 + j * d + i)
    return (
        _frozen(np.array(first, dtype=int)),
        _frozen(np.array(second, dtype=int)),
        _frozen(np.array(pairs, dtype=int)),
        _frozen(np.array(rows, dtype=int)),
    )


def reduce_system(j0: np.ndarray, j1: np.ndarray, s_k: np.ndarray) -> ReducedSystem:
    """Collapse the redundant complex system to a square real one."""
    d2 = j0.shape[0]
    d = int(round(d2**0.5))
    if j0.shape != (d2, d2) or j1.shape != (d2, d2):
        raise ValueError("Jacobian blocks must be square and equally sized")
    if s_k.shape != (d, d):
        raise ValueError("residual dimension does not match the Jacobian")
    first, second, pairs, rows = _reduction_indices(d)
    blocks = np.concatenate([j0, j1], axis=1)
    full = blocks[:, first]  # complex, d^2 x d^2
    full[:, pairs] += blocks[:, second]
    vec_s = s_k.ravel(order="F")
    return ReducedSystem(
        matrix=np.concatenate([full.real, full.imag])[rows],
        rhs=np.concatenate([vec_s.real, vec_s.imag])[rows],
        unknown_index_map=unknown_index_map(d),
    )


def reduced_spectrum(system: ReducedSystem):
    """Singular values of the reduced matrix (descending) and its 2-norm
    condition estimate (inf when singular)."""
    sv = system.svd[1]
    return sv, float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])


def reduced_condition(system: ReducedSystem) -> float:
    """2-norm condition estimate of the reduced matrix (inf when singular)."""
    return reduced_spectrum(system)[1]


@lru_cache(maxsize=64)
def _scatter_indices(index_map: tuple) -> np.ndarray:
    """Rows (matrix, i, j) of an index map, matrix 0 for h0 and 1 for h1."""
    return _frozen(np.array([(which == "h1", i, j) for which, i, j in index_map], dtype=int).T)


def expand_update(x: np.ndarray, index_map: tuple, d: int) -> NewtonUpdate:
    which, i, j = _scatter_indices(index_map)
    dh = np.zeros((2, d, d))
    dh[which, i, j] = x
    dh[which, j, i] = x
    return NewtonUpdate(dh0=dh[0], dh1=dh[1])


def solve_update(system: ReducedSystem, cfg: NewtonConfig) -> NewtonUpdate:
    """Solve M x = b from the system's SVD, refusing numerically singular maps.

    x = V ((U^T b) / s), then one refinement step on the same factors: the
    SVD mixes columns whose norms span 1e-6..1e4 in the double-well systems,
    where the unrefined step carries 30 to 3e4 times an LU solve's round-off.
    """
    sv, cond = reduced_spectrum(system)
    if not cond <= cfg.singular_cond_threshold:
        raise SingularJacobianError(cond, cfg.singular_cond_threshold)
    u, _, vt = system.svd
    x = vt.T @ ((u.T @ system.rhs) / sv)
    x += vt.T @ ((u.T @ (system.rhs - system.matrix @ x)) / sv)
    d = int(round(system.size**0.5))
    return expand_update(x, system.unknown_index_map, d)


@dataclass(frozen=True)
class SingularityDiagnostic:
    condition_estimate: float
    numerical_rank: int
    rank_tolerance: float
    singular_values: tuple


def system_diagnostic(system: ReducedSystem, rank_tolerance: float = 1e-9) -> SingularityDiagnostic:
    """Numerical rank and condition of an assembled reduced system.

    Singular values below rank_tolerance times the largest are treated as
    zero.  Always returns; never raises on deficiency.
    """
    sv, cond = reduced_spectrum(system)
    rank = int(np.sum(sv > rank_tolerance * sv[0])) if sv[0] > 0 else 0
    return SingularityDiagnostic(
        condition_estimate=cond,
        numerical_rank=rank,
        rank_tolerance=rank_tolerance,
        singular_values=tuple(float(s) for s in sv),
    )


def linearize(
    u_0: np.ndarray, pair: HamiltonianPair, samples: np.ndarray, grid: TimeGrid
) -> Linearization:
    """U_N and the Jacobian blocks at ``pair``, from one propagation with
    the Jacobian Gram sums."""
    u_n, g0, g1 = propagate_with_gram(u_0, pair, samples, grid)
    return Linearization(pair, u_n, *grams_to_jacobians(g0, g1, grid.dt))


def singularity_probe(
    pair: HamiltonianPair,
    samples: np.ndarray,
    grid: TimeGrid,
    u_tar: np.ndarray,
    rank_tolerance: float = 1e-9,
) -> SingularityDiagnostic:
    """``system_diagnostic`` of the Newton system at ``pair``, propagated
    from the identity."""
    system = linearize(np.eye(pair.dim, dtype=complex), pair, samples, grid).system(u_tar)
    return system_diagnostic(system, rank_tolerance)


def newton_identify(
    u_0: np.ndarray,
    u_tar: np.ndarray,
    guess: HamiltonianPair | Linearization,
    samples: np.ndarray,
    grid: TimeGrid,
    cfg: NewtonConfig = NewtonConfig(),
    truth: Optional[HamiltonianPair] = None,
    *,
    linearize_final: bool = False,
):
    """Full Newton iteration; returns (final pair, report).

    ``guess`` is the starting pair, or a ``Linearization`` at it (taken with
    the same ``u_0``, ``samples`` and ``grid``), whose first system then
    costs no propagation.

    Row k of the report describes iterate k (after k updates): e_k is the
    spectral-norm size of update k, dev_* the deviations of iterate k from
    the supplied truth and target, residual_skew that of the U_N the system
    was built from, and the condition number that of the system solved to
    produce iterate k.  Each iteration finishes its own row: it solves the
    current system, steps, and makes exactly one propagation at the new
    iterate, whose U_N gives dev_U.  That is ``linearize``, which gives the
    next system, or, when the solve stops, ``propagate_final``, unless
    ``linearize_final`` asks for a linearization at the final pair and the
    solve converged: that costs the Gram sums and is left on
    ``report.linearization`` for a caller that solves on from there.  A
    solve that stops at ``max_iters`` closes with ``propagate_final`` either
    way, since no caller solves on from a failure (both give U_N bit for
    bit, so the report is the same).
    """
    u_0 = require_unitary(u_0, "initial operator")
    u_tar = require_unitary(u_tar, "target operator")
    samples = np.asarray(samples, dtype=float)
    lin = guess if isinstance(guess, Linearization) else linearize(u_0, guess, samples, grid)
    pair = lin.pair
    report = NewtonReport(iterations=[], flag=FLAG_MAX_ITERS)
    for k in range(1, cfg.max_iters + 1):
        system = lin.system(u_tar)
        cond = reduced_condition(system)
        try:
            update = solve_update(system, cfg)
        except SingularJacobianError as err:
            report.flag = FLAG_SINGULAR
            report.failure_condition = err.condition
            report.failed_iteration = k
            break
        pair = pair.shifted(update.dh0, update.dh1)
        e_k = spec_norm(update.dh0) + spec_norm(update.dh1)
        converged = e_k <= cfg.tol
        if converged:
            report.flag = FLAG_CONVERGED
        stops = converged or k == cfg.max_iters
        u_n = lin.u_n
        if stops and not (converged and linearize_final):
            lin, u_next = None, propagate_final(u_0, pair, samples, grid)
        else:
            lin = linearize(u_0, pair, samples, grid)
            u_next = lin.u_n
        report.iterations.append(
            NewtonIteration(
                k=k,
                e_k=e_k,
                dev_h0=spec_norm(truth.h0 - pair.h0) if truth is not None else None,
                dev_h1=spec_norm(truth.h1 - pair.h1) if truth is not None else None,
                dev_u=spec_norm(u_tar - u_next),
                jacobian_condition=cond,
                residual_skew=residual_skew_norm(u_n, u_tar),
            )
        )
        if stops:
            report.linearization = lin
            break
    return pair, report
