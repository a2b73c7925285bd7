"""Second-order time-convolutionless (TCL2) master-equation assembly.

The generator is L{rho} = -i[H, rho] + sum_n ( L_n rho B_n^dag - rho B_n^dag L_n
- L_n B_n rho + B_n rho L_n ) with the second-order operators
B_n(t) = sum_m (A_nm <> L_m)(t), built in the energy basis by the Hadamard rule
(A <> L)[i,i'] = A(t; w_ii') L[i,i'].  One bath call returns the coefficient
stack A(t; g) over the distinct gaps g; `gap_index` spreads it over the
matrix elements.  The generator is linear in that stack, so each build is one
contraction with the fixed `SystemModel.generator_tensor` (the memory kernel
K2(s) uses the same tensor per gap class); with interaction phases it gives
interaction_L2.  The Magnus generator alone gathers from a gap-pair table, in
the energy basis, only the entries it reads (_pair_superop).

Also provides: the pseudo-Lindblad split -i[H+V, .] + dissipator(D), the
rotating-wave (Lindblad) projection, and propagation: exact
matrix-exponential steps for the stationary generator, adaptive DOP853 (an
eighth-order Runge-Kutta method) for the full-time one.  L(t) does not
depend on the state, so all stage times of a DOP853 step are known once its
size is: each step builds its stage generators from one bath call over those
times and one contraction.  The free part -i[H, .] is diagonal in the energy
basis and is applied exactly: DOP853 steps the interaction-picture state under
the second-order part alone (see _evolve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import bath as bath_mod
from .core import (
    _GAP_TOL,
    SpectralBasis,
    anticommutator_superop,
    choi_rearrange,
    commutator_superop,
    dag,
    eig_hermitian,
    expm,
    herm_part,
    hermiticity_preservation_defect,
    require_hermitian,
    require_state,
    superop_sandwich,
    unvec,
    vec,
)

__all__ = [
    "SystemModel",
    "PseudoLindblad",
    "Trajectory",
    "build_L2",
    "interaction_L2",
    "pseudo_lindblad",
    "microscopic_pseudo_lindblad",
    "dissipator_from_coefficients",
    "canonical_coefficient_matrix",
    "rwa_projection",
    "rwa_dissipator",
    "propagate",
]

_HP_TOL = 1e-10  # the relative Hermiticity-preservation defect that pseudo_lindblad accepts


@dataclass(eq=False)
class SystemModel:
    """System Hamiltonian, Hermitian couplings, and the bath they talk to."""

    h: np.ndarray
    couplings: list
    bath: bath_mod.BathModel

    def __post_init__(self):
        self.h = require_hermitian(self.h, name="Hamiltonian")
        self.couplings = [require_hermitian(l, name=f"coupling {n}")
                          for n, l in enumerate(self.couplings)]
        for n, l in enumerate(self.couplings):
            if l.shape != self.h.shape:
                raise ValueError(f"coupling {n} has shape {l.shape}, "
                                 f"but the Hamiltonian has shape {self.h.shape}")
        if self.bath.channels != len(self.couplings):
            raise ValueError(
                f"bath has {self.bath.channels} channels but the model has "
                f"{len(self.couplings)} couplings"
            )

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @cached_property
    def basis(self) -> SpectralBasis:
        return eig_hermitian(self.h)

    @cached_property
    def couplings_eb(self) -> np.ndarray:
        """Couplings rotated to the energy basis, stacked (n, d, d)."""
        return np.array([self.basis.to_energy_basis(l) for l in self.couplings])

    @cached_property
    def unique_gaps(self) -> np.ndarray:
        """Distinct transition frequencies (absolute tolerance 1e-9)."""
        gaps = np.sort(self.basis.gaps.reshape(-1))
        keep = [gaps[0]]
        for g in gaps[1:]:
            if g - keep[-1] > _GAP_TOL:
                keep.append(g)
        return np.array(keep)

    @cached_property
    def gap_index(self) -> np.ndarray:
        """(d, d) index of each gap w_ij into unique_gaps: the nearest one."""
        u = self.unique_gaps
        return np.argmin(np.abs(u[:, None, None] - self.basis.gaps[None]), axis=0)

    @cached_property
    def to_input(self) -> np.ndarray:
        """Superoperator basis change energy -> input basis, rho -> u rho u^dag."""
        u = self.basis.vectors
        return superop_sandwich(u, dag(u))

    @cached_property
    def to_energy(self) -> np.ndarray:
        """Superoperator basis change input -> energy basis, rho -> u^dag rho u."""
        u = self.basis.vectors
        return superop_sandwich(dag(u), u)

    @cached_property
    def free_superop(self) -> np.ndarray:
        """-i[H, .] in the input basis."""
        return commutator_superop(self.h)

    @cached_property
    def generator_tensor(self) -> np.ndarray:
        """The fixed map from a coefficient stack a (n_gaps, n, n) to the terms
        B_n e_ij L_n - L_n B_n e_ij of the second-order generator, as
        (n_gaps n^2, d^4) in the energy basis; see _dissipative_superop_eb."""
        d, l = self.dim, self.couplings_eb
        # f[a, m, x, i] = L_m[x, i] where gap (x, i) is unique_gaps[a], else 0
        f = (self.gap_index == np.arange(self.unique_gaps.size)[:, None, None])[:, None] * l
        # B_n e_ij L_n, entry (x, y): a[g(x,i)]_nm L_m[x,i] L_n[j,y]; axes (g, n, m, x, y, i, j)
        c = f[:, None, :, :, None, :, None] * l.swapaxes(1, 2)[None, :, None, None, :, None, :]
        # -L_n B_n e_ij, entry (x, j): -sum_k L_n[x,k] a[g(k,i)]_nm L_m[k,i]
        c -= (l[None, :, None] @ f[:, None])[..., None, :, None] * np.eye(d)[:, None, :]
        return c.reshape(-1, d**4)

    @cached_property
    def generator_support(self):
        """generator_tensor cut to its nonzero rows and columns: (rows, cols, core)."""
        g = self.generator_tensor
        rows, cols = np.flatnonzero(np.any(g, axis=1)), np.flatnonzero(np.any(g, axis=0))
        return rows, cols, g[np.ix_(rows, cols)]

    @cached_property
    def pair_error_gain(self) -> float:
        """Bound on the entries of _pair_superop's error per unit error in every
        table entry: the gathers of _pair_superop on |L_n| and a table of ones,
        G[x,y,i,j] = a[x,i] a[j,y] + (a a)[x,i] delta_yj with a = sum_n |L_n|, plus
        the partner G[y,x,j,i], carried to the input basis as |to_input| G |to_energy|."""
        d, a = self.dim, np.abs(self.couplings_eb).sum(0)
        g = np.einsum("xi,jy->xyij", a, a) + (a @ a)[:, None, :, None] * np.eye(d)[:, None, :]
        g = (g + g.transpose(1, 0, 3, 2)).reshape(d * d, d * d)
        return float(np.max(np.abs(self.to_input) @ g @ np.abs(self.to_energy)))


def _coefficients(m: SystemModel, t) -> np.ndarray:
    """The coefficient stack (n_gaps, n, n) over the distinct gaps, from one
    bath call; t=None: stationary; a 1-D array of times: (nt, n_gaps, n, n)."""
    u = m.unique_gaps
    if t is None:
        return m.bath.coefficient_stationary(u)
    return m.bath.coefficient_full(t, u)


def _second_order_ops_eb(m: SystemModel, t) -> np.ndarray:
    """B_n[i,j] = sum_m A(t; w_ij)_nm L_m[i,j] in the energy basis, stacked (n, d, d);
    (nt, n, d, d) at a 1-D array of times."""
    a = _coefficients(m, t)[..., m.gap_index, :, :]
    return np.einsum("...ijnm,mij->...nij", a, m.couplings_eb)


def _dissipative_superop_eb(m: SystemModel, t, tau=None) -> np.ndarray:
    """The second-order part of the generator in the energy basis: the terms
    B_n e_ij L_n - L_n B_n e_ij from m.generator_tensor, plus their
    Hermiticity-preserving partners L_n e_ij Bd_n - e_ij Bd_n L_n,
    S'[(x,y),(i,j)] = conj S[(y,x),(j,i)], added as a transposed view.  At a
    1-D array of times the coefficient stacks lead, and so do the generators:
    (nt, d^2, d^2).

    With tau, a 1-D array like t, the generators are carried to the interaction
    picture of the free part F = -i[H, .] = -i diag(w_xy), e^{-F tau} S e^{F tau}:
    entry ((x,y),(i,j)) times e^{i w_xy tau} e^{-i w_ij tau}.  The phases go on
    before the partners are added; w_yx = -w_xy, so the partners take the
    conjugate phases with the conjugate terms."""
    d = m.dim
    a = _coefficients(m, t)
    lead = a.shape[:-3]
    rows, cols, core = m.generator_support
    s = a.reshape(lead + (-1,))[..., rows] @ core
    if cols.size < d**4:
        part, s = s, np.zeros(lead + (d**4,), dtype=complex)
        s[..., cols] = part
    s = s.reshape(lead + (d * d, d * d))
    if tau is not None:
        p = np.exp(1j * np.multiply.outer(tau, m.basis.gaps.reshape(-1)))
        s *= p[:, :, None]
        s *= np.conj(p)[:, None, :]
    s4 = s.reshape(lead + (d, d, d, d))
    return (s4 + np.conj(s4.swapaxes(-4, -3).swapaxes(-2, -1))).reshape(lead + (d * d, d * d))


def build_L2(m: SystemModel, t=None) -> np.ndarray:
    """Full TCL2 generator -i[H, .] + second-order terms, in the input basis.

    t=None uses the stationary (late-time) coefficients.
    """
    if t is not None and t < 0:
        raise ValueError("build_L2 requires t >= 0")
    return m.free_superop + m.to_input @ _dissipative_superop_eb(m, t) @ m.to_energy


def interaction_L2(m: SystemModel, tau: float) -> np.ndarray:
    """Interaction-picture second-order generator G0(-tau) L2(tau) G0(tau): the
    time-local assembly at t = tau with the interaction phases of tau."""
    t = np.array([float(tau)])
    return m.to_input @ _dissipative_superop_eb(m, t, t)[0] @ m.to_energy


def _pair_superop(m: SystemModel, table: np.ndarray) -> np.ndarray:
    """Interaction-picture superoperator in the input basis, (d^2, d^2), from a
    gap-pair table X (n_gaps, n_gaps, n, n), or a stack of them, (nt, d^2, d^2) from
    (nt, n_gaps, n_gaps, n, n): the terms B_n e_ij L_n - L_n B_n e_ij of the
    second-order generator, carried to the interaction picture, a gather of the
    d^4 n^2 and d^3 n^2 table entries they read, plus their partners
    L_n e_ij Bd_n - e_ij Bd_n L_n, the Hermiticity-preserving conjugate
    S'[(x,y),(i,j)] = conj S[(y,x),(j,i)], which a basis change keeps."""
    d, g, l = m.dim, m.gap_index, m.couplings_eb
    stack = table.reshape((-1,) + table.shape[-4:])
    # B_n e_ij L_n, entry (x, y): sum_nm L_m[x,i] X[g(x,i), g(j,y)]_nm L_n[j,y]
    s = np.einsum("txiyjnm,mxi,njy->txyij", stack[:, g[:, :, None, None], g.T], l, l)
    # -L_n B_n e_ij, entry (x, j): -sum_k L_n[x,k] X[g(k,i), g(x,k)]_nm L_m[k,i]
    k = np.einsum("txkinm,nxk,mki->txi", stack[:, g, g[:, :, None]], l, l)
    s -= k[:, :, None, :, None] * np.eye(d)[:, None, :]
    s = s + np.conj(s.transpose(0, 2, 1, 4, 3))
    s = m.to_input @ s.reshape(-1, d * d, d * d) @ m.to_energy
    return s.reshape(table.shape[:-4] + (d * d, d * d))


# ---------------------------------------------------------------------------
# pseudo-Lindblad decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PseudoLindblad:
    """Split L = -i[H + V, .] + sum_IJ D_IJ (e_I rho e_J^dag - {e_J^dag e_I, rho}/2)."""

    h: np.ndarray
    V: np.ndarray
    D: np.ndarray

    def reassemble(self) -> np.ndarray:
        return commutator_superop(self.h + self.V) + dissipator_from_coefficients(self.D)


def dissipator_from_coefficients(dmat: np.ndarray) -> np.ndarray:
    """Superoperator of sum_IJ D_IJ (e_I rho e_J^dag - {e_J^dag e_I, rho}/2)."""
    d = int(round(np.sqrt(dmat.shape[0])))
    sandwich_part = choi_rearrange(dmat)
    d4 = dmat.reshape(d, d, d, d)
    mop = np.einsum("iaib->ba", d4)
    return sandwich_part - 0.5 * anticommutator_superop(mop)


def canonical_coefficient_matrix(s: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the dissipative part in the traceless gauge.

    Components of the Choi matrix along vec(1) generate commutators and the
    zero map; projecting them out fixes the pseudo-Lindblad gauge.  A
    (k, d^2, d^2) stack is projected matrix by matrix.  The projection
    commutes with the basis change rho -> u rho u^dag.
    """
    d = int(round(np.sqrt(s.shape[-1])))
    c = choi_rearrange(s)
    v = vec(np.eye(d)) / np.sqrt(d)
    p = np.eye(d * d) - np.outer(v, v)
    return p @ c @ p


def pseudo_lindblad(s: np.ndarray, h: np.ndarray) -> PseudoLindblad:
    """Unique pseudo-Lindblad split of a trace/Hermiticity-preserving generator."""
    defect = hermiticity_preservation_defect(s)
    if defect > _HP_TOL * max(1.0, float(np.max(np.abs(s)))):
        raise ValueError(
            f"generator is not Hermiticity-preserving (defect {defect:.3e})"
        )
    d = h.shape[0]
    dmat = canonical_coefficient_matrix(s)
    dmat = herm_part(dmat)
    s_rem = s - dissipator_from_coefficients(dmat)
    # remaining map is rho -> W rho + rho W^dag with W = -iK, K Hermitian
    c_rem = choi_rearrange(s_rem)
    w = unvec(c_rem @ vec(np.eye(d)) / d, d)
    w = w - np.trace(w) / d * np.eye(d)
    k = herm_part(1j * w)
    h0 = h - np.trace(h) / d * np.eye(d)
    v = k - h0
    return PseudoLindblad(h=h, V=v, D=dmat)


def microscopic_pseudo_lindblad(m: SystemModel, t=None) -> PseudoLindblad:
    """Paper-route split from the microscopic operators, in the energy basis:

    V = (1/2i) sum_n (L_n B_n - B_n^dag L_n),
    D = sum_n [ outer(vec L_n, conj vec B_n) + outer(vec B_n, conj vec L_n) ].
    """
    l = m.couplings_eb
    b = _second_order_ops_eb(m, t)
    v = np.einsum("nij,njk->ik", l, b) - np.einsum("nji,njk->ik", np.conj(b), l)
    lv = l.reshape(l.shape[0], -1)
    bv = b.reshape(b.shape[0], -1)
    d = lv.T @ np.conj(bv) + bv.T @ np.conj(lv)
    h_eb = np.diag(m.basis.energies).astype(complex)
    return PseudoLindblad(h=h_eb, V=herm_part(v / 2j), D=herm_part(d))


# ---------------------------------------------------------------------------
# RWA projection
# ---------------------------------------------------------------------------

def _rwa_mask(m: SystemModel) -> np.ndarray:
    """The secular entries ((x,y),(i,j)): w_xy and w_ij in one gap class."""
    g = m.gap_index.reshape(-1)
    return g[:, None] == g


def rwa_projection(m: SystemModel) -> np.ndarray:
    """Keep only interaction-picture-stationary entries of the dissipative part."""
    s_eb = _dissipative_superop_eb(m, None) * _rwa_mask(m)
    return m.free_superop + m.to_input @ s_eb @ m.to_energy


def rwa_dissipator(m: SystemModel) -> np.ndarray:
    """Coefficient matrix of the RWA dissipator (energy basis, traceless gauge);
    positive semidefinite for stationary baths."""
    s_eb = _dissipative_superop_eb(m, None) * _rwa_mask(m)
    return herm_part(canonical_coefficient_matrix(s_eb))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)


def _grid_steps(grid: np.ndarray) -> np.ndarray:
    """np.diff(grid) of a 1-D, finite grid of at least two points that strictly
    increases or strictly decreases; else ValueError."""
    if grid.ndim == 1 and grid.size >= 2 and np.all(np.isfinite(grid)):
        steps = np.diff(grid)
        if np.all(steps > 0) or np.all(steps < 0):
            return steps
    raise ValueError("time grid must be 1-D and finite, with at least two points, "
                     "strictly increasing or strictly decreasing")


def _require_mode(mode: str) -> None:
    if mode not in ("stationary", "full-time"):
        raise ValueError(f"unknown mode {mode!r}")


# DOP853 (Hairer, Norsett & Wanner) as scipy.integrate.DOP853 has it: the tableau, the
# error estimate and the step control, with the same literals and the same arithmetic for
# E3, so every entry is bit for bit scipy's.  C[11] = 1, so the last stage generator is also
# the one at the step's end.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)


def _dop853_tableau():
    """(A, B, C, E3, E5): the 12 stages' matrix (12, 12), weights (12,) and nodes (12,),
    and the third- and fifth-order error weights (13,), the last on f at the step's end."""
    c = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
                  0.118350341907227396726757197510, 0.281649658092772603273242802490,
                  0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
                  0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
    rows = (
        {},
        {0: 5.26001519587677318785587544488e-2},
        {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
        {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
        {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
         3: 9.24834003261792003115737966543e-1},
        {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
         4: 1.25467687566822425016691814123e-1},
        {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
         4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
        {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
         4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
         6: 8.27378916381402288758473766002e-3},
        {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
         4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
         6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
        {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
         4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
         6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
         8: -2.03312017085086261358222928593e-2},
        {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
        {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
        # the weights B
        {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    )
    a = np.zeros((13, 12))
    for i, row in enumerate(rows):
        a[i, list(row)] = list(row.values())
    e3 = np.zeros(13)
    e3[:-1] = a[12]
    e3[0] -= 0.244094488188976377952755905512
    e3[8] -= 0.733846688281611857341361741547
    e3[11] -= 0.220588235294117647058823529412e-1
    e5 = np.zeros(13)
    e5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
        0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
        -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
        -0.3503288487499736816886487290, 0.3341791187130174790297318841,
        0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
    return a[:12], a[12], c, e3, e5


_A, _B, _C, _E3, _E5 = _dop853_tableau()
# rows (1, A[s]) and (1, B): scaled by h past column 0, row s takes the block (y, k_0 ..
# k_{s-1}) to the argument of stage s, and row 12 the block (y, k_0 .. k_11) to the step's end
_STEP = np.hstack([np.ones((13, 1)), np.vstack([_A, _B])])
_ERRORS = np.stack([_E5, _E3])


class _Solution(NamedTuple):
    y: np.ndarray  # the states at the grid points, (len(grid), n)
    nfev: int      # right-hand-side evaluations L(t) y: 2 for the first step, 12 per attempted step


def _rms(x) -> float:
    return float(np.linalg.norm(x)) / x.size**0.5


def solve_ivp(generators, grid: np.ndarray, y0: np.ndarray, rtol: float, atol: float) -> _Solution:
    """DOP853 for the linear system dy/dt = L(t) y over a grid (see _grid_steps),
    from y(grid[0]) = y0, where generators(times) returns L at a 1-D array of times,
    stacked (len(times), n, n).

    Each step asks for the generators at all its stage times t + C[1:] h at once.
    The tableau, the error norm, the step control and the first step are those of
    scipy's solve_ivp(method="DOP853") at the same rtol and atol.  The state and
    the stages share one array, and the tableau is scaled by h once per step, so
    each stage is one row-times-block product and one matrix-vector product.
    Steps are shortened to land on the grid points, so there is no dense output;
    the step after a shortened one starts from the size proposed before it was
    shortened if that is larger."""
    direction = 1.0 if grid[-1] > grid[0] else -1.0
    t, y = float(grid[0]), y0
    f = generators(np.array([t]))[0] @ y
    # the first step as scipy.integrate._ivp.common.select_initial_step picks it
    span = abs(float(grid[-1]) - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = generators(np.array([t + h0 * direction]))[0] @ (y + h0 * direction * f)
    d2 = _rms((f1 - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs, nfev = min(100 * h0, h1, span), 2
    # w holds y, the 12 stages k_0 = f .. k_11 and f at the step's end, one row each
    w = np.empty((_B.size + 2, y.size), dtype=complex)
    w[0], w[1] = y, f
    # stage s reads the block w[:s + 1] and writes row s + 1
    blocks = [(s, w[:s + 1], w[s + 1]) for s in range(1, _B.size)]
    ys = [y]
    for t_end in grid[1:].tolist():
        while t != t_end:
            min_step = 10 * abs(np.nextafter(t, direction * np.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise RuntimeError(f"integrator failed: the step size at t = {t:.6g} fell "
                                       "below the spacing of the floats there")
                shortened = direction * (t + h_abs * direction - t_end) > 0
                t_new = t_end if shortened else t + h_abs * direction
                proposed, h = h_abs, t_new - t
                h_abs = abs(h)
                stages = generators(t + _C[1:] * h)
                step = _STEP * h
                step[:, 0] = 1.0
                for (s, block, k), g in zip(blocks, stages):
                    np.dot(g, np.dot(step[s, :s + 1], block), out=k)
                y_new = step[-1] @ w[:-1]
                np.dot(stages[-1], y_new, out=w[-1])
                nfev += _B.size
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err = _ERRORS @ w[1:] / scale
                e5, e3 = (err.real**2 + err.imag**2).sum(1)
                norm = 0.0 if e5 == 0 and e3 == 0 else h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * y.size)
                if norm < 1:
                    factor = _MAX_FACTOR if norm == 0 else min(_MAX_FACTOR, _SAFETY * norm**_ERROR_EXPONENT)
                    h_abs *= min(1.0, factor) if rejected else factor
                    if shortened:
                        h_abs = max(h_abs, proposed)
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * norm**_ERROR_EXPONENT)
                rejected = True
            t, y = t_new, y_new
            w[0], w[1] = y, w[-1]
        ys.append(y)
    return _Solution(y=np.array(ys), nfev=nfev)


# stationary steps within this many units in the last place of max|grid| share one exponential
_STEP_ULPS = 4


def _step_classes(steps: np.ndarray, tol: float) -> np.ndarray:
    """The class index of each step, numbered in increasing order of step: taken in that
    order, a step more than tol above the first step of the current class starts the next.
    Grid points are rounded to their own spacing, so the steps of a uniform grid such as
    np.linspace(0, 20, 201) take several float values (9 there) that agree to a few of
    its units."""
    order = np.argsort(steps, kind="stable")
    cls = np.empty(steps.size, dtype=int)
    first, k = None, -1
    for i, h in zip(order.tolist(), steps[order].tolist()):
        if first is None or h - first > tol:
            first, k = h, k + 1
        cls[i] = k
    return cls


def _evolve(m: SystemModel, y0: np.ndarray, grid: np.ndarray, mode: str,
            rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """The vectors y(t) on grid, (len(grid), d^2), from y(grid[0]) = y0 under
    dy/dt = L y, L the TCL2 generator (see _grid_steps for what grid may be).

    Stationary mode: L is constant, so each step is exact, y(t_k+1) =
    expm(L h) y(t_k) with h = t_k+1 - t_k, one matrix exponential per class of
    steps (_step_classes, within _STEP_ULPS units of max|grid|) at the mean step
    of its members, so that the steps still add up to the grid's span: core.expm,
    Pade scaling and squaring on numpy's BLAS, accurate to round-off, whose step
    maps keep their column traces to round-off; rtol and atol are not used.
    Full-time mode: adaptive DOP853 at rtol and atol (solve_ivp) in the
    interaction picture.  In the energy basis the free part is F = -i diag(w_xy),
    so with tau = t - grid[0] DOP853 integrates y_I = e^{-F tau} y under the
    stage generators e^{-F tau} S(t) e^{F tau} of the second-order part S alone
    (_dissipative_superop_eb with tau), each step from one bath call; the
    phases e^{F tau} go back on exactly, and the states to the input basis, at
    the grid points only.  |y_I| = |y| entry by entry, so the error scale and
    norm read the same magnitudes and rtol and atol keep their meaning.  The
    steps follow the bath, not the free oscillation: on the perfbench
    time-dependent jobs (seed 3) the evaluations fall from 974 to 242 (d = 4 OU
    dephasing), 326 to 230 (thermal dephasing) and 184 to 148 (OU qrt), and
    rise from 172 to 220 for oracle-compare's 3-level model, over a horizon of
    1: from grid[0] = 0 the first stage is L(0) y_I = 0 (A(0; w) = 0), so the
    first step is 1e-4, 100 times the first-step rule's 1e-6 probe, and the next
    few grow tenfold.  Against an rtol
    1e-13 run the defaults are off by 1.2e-11 on the shipped model's 201 points
    from a coherent state and by 1.3e-13 on a d = 3 two-channel OU relaxation,
    against 1.5e-10 and 3.5e-12 when DOP853 also stepped -i[H, .]."""
    _require_mode(mode)
    steps = _grid_steps(grid)
    if mode == "stationary":
        s = build_L2(m, None)
        cls = _step_classes(steps, _STEP_ULPS * np.spacing(np.max(np.abs(grid))))
        maps = [expm(s * h) for h in (np.bincount(cls, weights=steps) / np.bincount(cls)).tolist()]
        ys = [y0]
        for c in cls.tolist():
            ys.append(maps[c] @ ys[-1])
        return np.array(ys)

    t0 = float(grid[0])

    def generators(times):
        return _dissipative_superop_eb(m, np.maximum(times, 0.0), times - t0)

    sol = solve_ivp(generators, grid, m.to_energy @ y0, rtol, atol)
    free = np.exp(-1j * np.multiply.outer(grid - t0, m.basis.gaps.reshape(-1)))
    return (sol.y * free) @ m.to_input.T


def propagate(m: SystemModel, rho0: np.ndarray, grid, mode: str = "stationary",
              rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Propagate the vectorized TCL2 master equation from rho0 over grid:
    exact matrix-exponential steps in stationary mode, adaptive DOP853 at
    rtol and atol in full-time mode (see _evolve)."""
    rho0 = require_state(rho0, name="initial state")
    grid = np.asarray(grid, dtype=float)
    states = _evolve(m, vec(rho0), grid, mode, rtol, atol).reshape(-1, m.dim, m.dim)
    metadata = ({"integrator": "expm", "mode": mode} if mode == "stationary" else
                {"integrator": "DOP853", "rtol": rtol, "atol": atol, "mode": mode})
    return Trajectory(times=grid, states=states, metadata=metadata)
