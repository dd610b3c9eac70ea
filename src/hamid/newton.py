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
of dH1.  Both counts equal d^2, so the reduced system is square.  Only
this module knows these layouts; propagation hands it Gram sums over
vec(Ubar), from which ``reduce_system`` gathers the reduced matrix directly.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .fields import TimeGrid, require_count, require_real, require_type
from .linalg import require_square, require_unitary, spec_norms
from .propagation import HamiltonianPair, _validated_inputs, propagate_final, propagate_with_gram

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
        for name in ("tol", "singular_cond_threshold"):
            require_real(name, getattr(self, name), positive=True)
        require_count("max_iters", self.max_iters)


@dataclass(frozen=True)
class ReducedSystem:
    """Real system M x = b over the reduced unknowns x.  From
    :func:`reduce_system`, one column per unknown of ``unknown_index_map(d)``,
    which :func:`expand_update` maps back to (dH0, dH1)."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        # a wide M would get a minimum-norm step, its null space unseen by
        # the thin SVD's condition
        shape, rhs_shape = np.shape(self.matrix), np.shape(self.rhs)
        if not (len(shape) == 2 and 1 <= shape[1] <= shape[0] and rhs_shape == shape[:1]):
            raise ValueError(
                "a reduced system needs a 2-D matrix with at least one column and no "
                "fewer rows than columns, and one right-hand side entry per row; got "
                f"matrix {shape} and right-hand side {rhs_shape}"
            )

    @cached_property
    def svd(self):
        """Thin (U, s, V^T) of ``matrix``, s descending: the one
        factorization the condition, the rank diagnostic and the step read,
        computed on first use.  U has one column per unknown, so a stacked
        K d^2 x d^2 system solves as a square one does.  A matrix with a
        NaN or inf entry raises ``LinAlgError`` before LAPACK sees it (an
        inf entry can keep its SVD from returning)."""
        if not np.isfinite(self.matrix).all():
            raise np.linalg.LinAlgError("reduced Newton system matrix has non-finite entries")
        return np.linalg.svd(self.matrix, full_matrices=False)

    @cached_property
    def condition(self) -> float:
        """2-norm condition estimate of ``matrix`` (inf when singular)."""
        sv = self.svd[1]
        return float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])


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
    target: U_N and the Gram sums G0, G1 of one propagation with time step
    ``dt``, from which ``reduce_system`` gathers the Jacobian blocks.
    ``system(u_tar)`` is the Newton system for any target."""

    pair: HamiltonianPair
    u_n: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    dt: float

    def system(self, u_tar: np.ndarray) -> ReducedSystem:
        return reduce_system(self.g0, self.g1, self.dt, hermitian_residual(self.u_n, u_tar))


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


def hermitian_residual(u_n: np.ndarray, u_tar: np.ndarray) -> np.ndarray:
    """S = i (U_N^dag U_tar - U_tar^dag U_N) / 2, Hermitian by construction."""
    u_n = require_square(np.asarray(u_n, dtype=complex), "U_N")
    u_tar = np.asarray(u_tar, dtype=complex)
    if u_tar.shape != u_n.shape:
        raise ValueError("U_N and U_tar dimensions differ")
    m = u_n.conj().T @ u_tar
    return 0.5j * (m - m.conj().T)


def residual_skew(u_n: np.ndarray, u_tar: np.ndarray) -> np.ndarray:
    """The part of i(U_N^dag U_tar - I) the Hermitization discards."""
    r = 1j * (np.asarray(u_n).conj().T @ np.asarray(u_tar) - np.eye(u_n.shape[0]))
    return 0.5 * (r - r.conj().T)


@lru_cache(maxsize=64)
def unknown_index_map(d: int) -> tuple:
    entries = [("h0", i, j) for i in range(d) for j in range(i, d)]
    entries += [("h1", i, j) for i in range(d) for j in range(i + 1, d)]
    return tuple(entries)


@lru_cache(maxsize=64)
def _reduction_indices(d: int):
    """Gather and scatter indices of the reduction at dimension d, cached.

    Entry (p, q) of a symmetric update appears at vec indices q*d+p and
    p*d+q, so the merged columns are the columns ``first`` of [J0 | J1],
    with the columns ``second`` added to the off-diagonal ones (positions
    ``pairs``).  Reduced row r is the real part of row a of the merged
    matrix (and of vec(S)), or its imaginary part: for every entry (i, j),
    i <= j in row-major order, a = j*d+i, its real part and then, for
    i < j, its imaginary part.  Entry (a, col) of J_b is entry (c*d+c',
    r*d+r') of dt G_b, with (c, r) = divmod(a, d) and (c', r') = divmod(col
    mod d^2, d), the layout ``reduce_system`` states.  So the reduced
    matrix is ``matrix_src`` gathered from the floats of [dt G0, dt G1],
    plus ``pair_src`` gathered at columns ``pairs``, and the right-hand
    side is ``rhs_src`` gathered from the floats of S.
    Unknown k sets entries (i, j) and (j, i) of matrix ``which`` (0 for dH0,
    1 for dH1), the rows of ``scatter`` = (which, i, j).
    """
    d2 = d * d
    offset = {"h0": 0, "h1": d2}
    index_map = unknown_index_map(d)
    first = [offset[w] + q * d + p for w, p, q in index_map]
    second = [offset[w] + p * d + q for w, p, q in index_map if p != q]
    pairs = [k for k, (_, p, q) in enumerate(index_map) if p != q]
    rows = []  # (vec index a, 0 for the real part or 1 for the imaginary)
    for i in range(d):
        for j in range(i, d):
            rows.append((j * d + i, 0))
            if i < j:
                rows.append((j * d + i, 1))

    def src(a, part, col):
        b, col = divmod(col, d2)
        (c, r), (c2, r2) = divmod(a, d), divmod(col, d)
        return 2 * ((b * d2 + c * d + c2) * d2 + r * d + r2) + part

    matrix_src = [[src(a, part, col) for col in first] for a, part in rows]
    pair_src = [[src(a, part, col) for col in second] for a, part in rows]
    # S[i, j] at a = j*d+i, in C order
    rhs_src = [2 * ((a % d) * d + a // d) + part for a, part in rows]
    scatter = np.transpose([(w == "h1", p, q) for w, p, q in index_map])
    arrays = (matrix_src, pair_src, pairs, rhs_src, scatter)
    indices = tuple(np.array(a, dtype=int) for a in arrays)
    for a in indices:
        a.setflags(write=False)  # cached, so shared by every caller
    return indices


def reduce_system(g0: np.ndarray, g1: np.ndarray, dt: float, s_k: np.ndarray) -> ReducedSystem:
    """Collapse the redundant complex system with Jacobian blocks J0, J1
    and residual ``s_k`` to a square real one, gathered from the Gram sums
    G[a, b] = sum_n vec(Ubar_n)[a] conj(vec(Ubar_n))[b] without forming the
    blocks.  The block dt sum_n Ubar_n^T kron Ubar_n^dag of G is

        J[c*d+r, c'*d+r'] = dt G[c*d+c', r*d+r'],

    a (0, 2, 1, 3) axis permutation of G read as a d^4 tensor, which the
    gather of ``_reduction_indices`` composes with the reduction."""
    g0, g1, s_k = np.asarray(g0), np.asarray(g1), np.asarray(s_k)
    d2 = g0.shape[0] if g0.ndim else 0
    d = int(round(d2**0.5))
    if g0.shape != (d2, d2) or g1.shape != (d2, d2):
        raise ValueError("Gram sums must be square and equally sized")
    if d * d != d2:
        raise ValueError(f"Gram sums must have d * d rows, got {d2}")
    if s_k.shape != (d, d):
        raise ValueError("residual dimension does not match the Gram sums")
    matrix_src, pair_src, pairs, rhs_src, _ = _reduction_indices(d)
    scaled = np.empty((2, d2, d2), dtype=complex)
    np.multiply(dt, g0, out=scaled[0])
    np.multiply(dt, g1, out=scaled[1])
    floats = scaled.reshape(-1).view(float)
    matrix = floats[matrix_src]
    matrix[:, pairs] += floats[pair_src]
    s_floats = np.ascontiguousarray(s_k, dtype=complex).reshape(-1).view(float)
    return ReducedSystem(matrix=matrix, rhs=s_floats[rhs_src])


def reduced_condition(system: ReducedSystem) -> float:
    """2-norm condition estimate of the reduced matrix (inf when singular)."""
    return system.condition


def expand_update(x: np.ndarray, d: int) -> tuple:
    """(dH0, dH1) from the reduced unknowns ``x`` at dimension d."""
    which, i, j = _reduction_indices(d)[4]
    dh = np.zeros((2, d, d))
    dh[which, i, j] = x
    dh[which, j, i] = x
    return dh[0], dh[1]


def solve_update(system: ReducedSystem, cfg: NewtonConfig) -> np.ndarray:
    """The step x solving M x = b, one entry per column of M, from the
    system's SVD, refusing numerically singular maps.

    x = V ((U^T b) / s), then one refinement step on the same factors: the
    SVD mixes columns whose norms span 1e-6..1e4 in the double-well systems,
    where the unrefined step carries 30 to 3e4 times an LU solve's round-off.
    """
    if not system.condition <= cfg.singular_cond_threshold:
        raise SingularJacobianError(system.condition, cfg.singular_cond_threshold)
    u, sv, vt = system.svd
    x = vt.T @ ((u.T @ system.rhs) / sv)
    x += vt.T @ ((u.T @ (system.rhs - system.matrix @ x)) / sv)
    return x


@dataclass(frozen=True)
class SingularityDiagnostic:
    condition_estimate: float
    numerical_rank: int
    rank_tolerance: float
    singular_values: tuple


def system_diagnostic(system: ReducedSystem, rank_tolerance: float = 1e-9) -> SingularityDiagnostic:
    """Numerical rank and condition of an assembled reduced system.

    Singular values below rank_tolerance times the largest are treated as
    zero; the tolerance must be a finite real in [0, 1).  Returns a
    diagnostic for every finite system, deficient or not; a system with a
    NaN or inf entry raises ``LinAlgError``, as its SVD does.
    """
    require_real("rank_tolerance", rank_tolerance)
    if not 0 <= rank_tolerance < 1:
        raise ValueError(f"rank_tolerance must be in [0, 1), got {rank_tolerance!r}")
    sv = system.svd[1]
    rank = int(np.sum(sv > rank_tolerance * sv[0])) if sv[0] > 0 else 0
    return SingularityDiagnostic(
        condition_estimate=system.condition,
        numerical_rank=rank,
        rank_tolerance=rank_tolerance,
        singular_values=tuple(float(s) for s in sv),
    )


def linearize(
    u_0: np.ndarray, pair: HamiltonianPair, samples: np.ndarray, grid: TimeGrid
) -> Linearization:
    """U_N and the Jacobian's Gram sums at ``pair``, from one propagation."""
    return Linearization(pair, *propagate_with_gram(u_0, pair, samples, grid), grid.dt)


def require_truth(truth: Optional[HamiltonianPair], d: int) -> None:
    """Refuse a ``truth`` that is neither None nor a pair of dimension ``d``,
    which a solve would otherwise meet only after its first propagation."""
    if truth is not None and not (isinstance(truth, HamiltonianPair) and truth.dim == d):
        got = f"a pair of dimension {truth.dim}" if isinstance(truth, HamiltonianPair) else repr(truth)
        raise ValueError(f"truth must be None or a HamiltonianPair of dimension {d}, got {got}")


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
    the same ``u_0``, ``samples`` and ``grid``; one of another time step or
    dimension is refused), whose first system then costs no propagation.

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
    require_type("cfg", cfg, NewtonConfig)
    require_type("grid", grid, TimeGrid)
    if not isinstance(guess, Linearization):
        require_type("guess", guess, HamiltonianPair)
    elif guess.dt != grid.dt or guess.u_n.shape != np.shape(u_0):  # it would build a wrong first system
        raise ValueError(
            f"guess must be a pair or a Linearization of time step {grid.dt!r} and U_N shape {np.shape(u_0)}, "
            f"got one of {guess.dt!r} and {guess.u_n.shape}"
        )
    pair = guess.pair if isinstance(guess, Linearization) else guess
    # the checks a propagation makes, made on the starting pair before the
    # first solve: a Linearization guess needs no propagation until then
    u_0, samples = _validated_inputs(u_0, pair, samples, grid)
    u_tar = require_unitary(u_tar, "target operator")
    require_truth(truth, u_0.shape[0])
    lin = guess if isinstance(guess, Linearization) else linearize(u_0, guess, samples, grid)
    report = NewtonReport(iterations=[], flag=FLAG_MAX_ITERS)
    for k in range(1, cfg.max_iters + 1):
        system = lin.system(u_tar)
        try:
            cond = reduced_condition(system)
            dh0, dh1 = expand_update(solve_update(system, cfg), u_0.shape[0])
        except np.linalg.LinAlgError as err:
            # a refusal, or no estimate: a non-finite system, or an SVD that
            # did not converge
            report.flag = FLAG_SINGULAR
            report.failure_condition = err.condition if isinstance(err, SingularJacobianError) else None
            report.failed_iteration = k
            break
        pair = pair.shifted(dh0, dh1)
        # one batched SVD for the real norms, one for the complex ones
        if truth is None:
            (n0, n1), dev_h0, dev_h1 = spec_norms(dh0, dh1), None, None
        else:
            n0, n1, dev_h0, dev_h1 = spec_norms(dh0, dh1, truth.h0 - pair.h0, truth.h1 - pair.h1)
        e_k = n0 + n1
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
        dev_u, skew = spec_norms(u_tar - u_next, residual_skew(u_n, u_tar))
        report.iterations.append(
            NewtonIteration(
                k=k,
                e_k=e_k,
                dev_h0=dev_h0,
                dev_h1=dev_h1,
                dev_u=dev_u,
                jacobian_condition=cond,
                residual_skew=skew,
            )
        )
        if stops:
            report.linearization = lin
            break
    return pair, report
