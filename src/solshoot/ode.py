"""Adaptive Runge-Kutta integration with dense output and event location.

The integrator is self-contained: the stepping loop, the blow-up guard, the
termination bookkeeping and the dense interpolant all live here, so that a
trajectory is a plain, reproducible value object, bit-identical on a rerun.
Every ODE of the package steps through it, ``bryant``'s trace included.

Conventions
-----------
* integration runs forward only (t_end > t0); the singular-orbit problems in
  this package are all posed in a variable that increases away from the orbit.
* the right-hand side has signature ``rhs(t, y) -> ndarray`` and is assumed
  smooth on the trajectory's domain.
* dense evaluation at a stored node returns the stored sample exactly.

Termination reasons: ``"reached_end"``, ``"event"``, ``"blowup"``,
``"step_underflow"`` and (as a safety valve) ``"max_steps"``.

Events: an integration takes at most one :class:`Event`, and its first
matching crossing ends the integration.  The trajectory then ends on the
refined crossing, so ``(t[-1], y[-1])`` is the hit.  :func:`locate_event`
finds the first crossing time on a stored trajectory after the fact.
Crossings are refined on the dense output by :func:`brentq`, Brent's
method ported step for step from scipy's C ``brentq``; the package needs
only numpy for every shot.  Each accepted step probes g at 4 points of
its dense output, or, for a monotone event, evaluates g at its end and
probes only the step whose two ends cross (Hairer, Norsett & Wanner I,
II.6 on dense output and event location).  A trajectory of nodes only
(``dense=False``) then forms a DOP853 dense output on that step alone.

Two step methods share :func:`integrate`'s one loop, and with it the event
probes and refinement, the blow-up guard, the terminations and the
:class:`Trajectory`:

* DOP853, the explicit 8(5,3) pair of Dormand & Prince in Hairer, Norsett
  & Wanner's code (*Solving Ordinary Differential Equations I*, 2nd ed.,
  section II.10), with scipy's constants and error norm: 12 rhs calls a
  try, 3 more for the degree-7 dense interpolant of an accepted step that
  forms one;
* Radau IIA of order 9, with 5 stages, implicit and L-stable, taken when
  the caller passes the Jacobian of the field.  It is the method that
  Hairer & Wanner's variable-order RADAU code takes at tight tolerances
  (J. Comput. Appl. Math. 111, 1999), carried in the form of their 3-stage
  RADAU5 (*Solving Ordinary Differential Equations II*, 2nd ed., section
  IV.8), and its Newton controller is scipy's
  ``scipy/integrate/_ivp/radau.py``.  Its error norm is the larger of
  RADAU5's embedded estimate and the collocation polynomial's defect
  between the nodes.  Its dense output is that polynomial, of degree 5.
  The stiff circle-side shots, Newton's tangent-carrying ones and the
  sweeps' among them, and ``bryant``'s trace take it.

Tangent columns ride behind the state (``n_state``) on both steps and pay
only for their stage arithmetic: the step control and the event read the
state's rows alone.  Radau solves the riders' linear collocation system
directly once the state has converged, one 5d x 5d solve an accepted
step, with the stage Jacobians taken from jac: rhs is called on the
state's rows alone, and the riders cost it no call.  On a DOP853 shot of
nodes only, as Newton's are, neither the state nor the riders form dense
stages but on the step that a monotone event walks.

One step-size controller serves both: :func:`_step_factor`, Gustafsson's
predictive rule as RADAU5 applies it (Hairer & Wanner IV.8), with the
error norm's order, 8 or 6, as exponent.  It remembers the last accepted
step and its norm, so a step that must shrink from one node to the next is
shrunk before it is tried; the elementary rule, which forgets, accepted and
rejected in turn there (the Riccati y' = y^2 to its blow-up: 234 rejected
of 236 steps, against 1 now).  The loop keeps that memory, and
:func:`integrate_batch` keeps it per lane.

There is one explicit step, :func:`_dop853` with its dense output
:func:`_dense`, each over one state or a lockstep block of states:
:func:`integrate`'s loop calls them on its lane, :func:`integrate_batch` on
its block of lanes, which steps in lockstep under a monotone event only.
Every lane of a batch ends in that loop, which resumes from the lane's
state (and the try just made from it; under any other event, its start),
so one loop decides why every trajectory stops, refines every crossing,
counts the rhs calls and builds every :class:`Trajectory`: a lane's whole
or, without its history, its last node and its counters.

The step's elementwise work on one state, the error norm, the blow-up
guard and the event probe's dense points (:func:`_probe`), runs on Python
floats, which cost less than numpy's calls on a few entries; the lane
block and :func:`_interp` keep the array form.  So does the refinement of
a crossing: each dense evaluation that brentq asks for, at a scalar time,
and the refined node's state.  The probe and the refinement share one
Horner loop on Python floats, :func:`_horner`, bitwise :func:`_interp`; it
cut one refinement from about 105 to 44 us (BENCH_31.json).
Each one-state form repeats its array form's operations in the same order,
so a lane and a single shot agree bitwise.  Every matrix product stays a
numpy product of the same shapes in both, as lane identity rests on the
BLAS kernel's summation order.  A lane block forms its stage times once a
try, in one array (:func:`_block_times`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import truediv
from typing import Callable, Optional

import numpy as np

__all__ = [
    "IntegratorConfig",
    "Event",
    "Trajectory",
    "integrate",
    "integrate_batch",
    "locate_event",
    "brentq",
]

# Dormand & Prince's 8(5,3) pair, DOP853 (Hairer, Norsett & Wanner, *Solving
# ODEs I*, 2nd ed., II.10), with the constants of scipy's
# ``scipy/integrate/_ivp/dop853_coefficients.py``.  Stages 0-11 make the step,
# stage 12 is rhs at the new state (first same as last), and stages 13-15
# serve the dense output only.  _A[s, :s] are the weights of stage s, _A[12]
# the step's weights _B; _E5 and _E3 are the differences from the embedded
# 5th- and 3rd-order weights, whose two estimates _error_norm combines.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
])
_A = np.zeros((16, 16))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, [0, 1]] = (
    1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,
)
_A[3, [0, 2]] = (
    2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2,
)
_A[4, [0, 2, 3]] = (
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
)
_A[5, [0, 3, 4]] = (
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
)
_A[6, [0, 3, 4, 5]] = (
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2,
)
_A[7, [0, 3, 4, 5, 6]] = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
)
_A[8, [0, 3, 4, 5, 6, 7]] = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
)
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = (
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3,
)
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = (
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
)
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = (
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138,
)
_B = _A[12, :12]
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_E3 = _B.copy()
_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
# per stage s, its node _C[s] as a Python float and its weights _A[s, :s],
# a view of _A, so the stage loops index no numpy array for them
_STAGES = [(float(c), _A[s, :s]) for s, c in enumerate(_C)]


# The dense output, as scipy's ``Dop853DenseOutput`` writes it:
#   y + h th (F0 + (1 - th) (F1 + th (F2 + (1 - th) (F3 + th (F4 + (1 - th) (F5 + th F6))))))
# with F0 = (y_new - y) / h, F1 = f - F0, F2 = 2 F0 - f - f_new and F3..F6 =
# _D K over all 16 stages.  F_j multiplies th^(j//2 + 1) (1 - th)^((j + 1)//2),
# whose coefficients of th^1 .. th^7 are row j of _T (see _dense).
_D = np.zeros((4, 16))
_D[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
)
_D[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
)
_D[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
)
_D[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
)
_T = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0],
    [0, 0, 1, -3, 3, -1, 0],
    [0, 0, 0, 1, -3, 3, -1],
], dtype=float)

# Gauss-Legendre 4-point rule on [0, 1]; exact for polynomials of degree <= 7,
# hence exact on the degree-7 dense output times a linear function of y.
_GL4_NODES = 0.5 + 0.5 * np.array([
    -math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)),
    -math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
    math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
    math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)),
])
_GL4_WEIGHTS = np.array([
    18 - math.sqrt(30), 18 + math.sqrt(30), 18 + math.sqrt(30), 18 - math.sqrt(30)
]) / 72

# dense points probed for event sign changes on every step, so tight double
# crossings inside one step are still seen; t + 1.0 * h is exactly t + h,
# and h >= 10 eps max(|t|, 1) keeps the other probes short of it
_PROBE_FRACS = np.array([0.25, 0.5, 0.75, 1.0])
# the same on a stored segment, where locate_event probes 8 points
_LOCATE_FRACS = np.linspace(0.0, 1.0, 9)[1:]
# dense points a step that Trajectory.sample reads, its left node included.
# Against 64, they move the sampled minima by at most 6.2e-9 relative (the
# pancake trace at delta1 = 1.05e3, 1.05e4) and 1.2e-12 (curvature, <= 1e3)
_SAMPLES_PER_STEP = 16

# brentq accuracy of every refined crossing: |t - root| <= _XTOL + _RTOL |t|
_XTOL = 1e-15
_RTOL = 8.9e-16

ORDER = 8  # of the pair: DOP853's step factor goes as err^(-1/8)
_ERR_FLOOR = 1e-2  # RADAU5's floor on the remembered error norm, see _step_factor
_MAX_STEPS = 500_000  # step tries before "max_steps", a safety valve
_BLOWUP_NORM = 1e12  # the blow-up guard trips at max|y| >= this

# Radau IIA of order 9, 5 stages: the collocation method on the zeros of
# d^4/dx^4 [x^4 (x - 1)^5], which Hairer & Wanner's variable-order RADAU code
# takes at tight tolerances ("Stiff differential equations solved by Radau
# methods", J. Comput. Appl. Math. 111, 1999).  The constants, to 22 digits,
# come from the collocation conditions in extended precision, as scipy's
# ``radau.py`` writes those of the 3-stage RADAU5 (tests/test_ode.py derives
# both sets again).  _RC are the nodes; _RE RADAU5's embedded error weights
# carried to 5 stages, _MU_REAL (b^ - b) A^-1, where b^ are the weights of
# order 5 on the nodes (0, _RC) with b^0 = 1/_MU_REAL; _RT/_RTI the transform
# T with T^-1 A^-1 T = _LAMBDA, which splits the collocation system into one
# real d x d system, with the real eigenvalue _MU_REAL of A^-1, and two
# complex ones, each eigenvalue a + ib in a real 2 x 2 block; and _RP the
# degree-5 collocation polynomial through the stages.
_RC = np.array([
    0.05710419611451768219312, 0.27684301363812382768, 0.5835904323689168200567,
    0.8602401356562194478479, 1.0,
])
_RE = np.array([
    -27.78093394406463730479, 3.641478498049213152712, -1.252547721169118720491,
    0.5920031671845428725662, -0.2,
])
_MU_REAL = 6.286704751729276645173
_RT = np.array([
    [0.01357686734494794324766, -0.01024204781790882707009, -0.04767387729029572386318,
     -0.01147851525522951470794, 0.01401985889287541028108],
    [0.001617900401719087476439, 0.05017286451737105816299, 0.09433181918161143698066,
     -0.007668830749180162885157, -0.02470857842651852681253],
    [0.0791578533474472076449, -0.2305395340434179467214, -0.1027030453801258997922,
     0.01939846399882895091122, -0.08180035370375117083639],
    [0.4122560826804614519787, 0.3778939022488612495439, -0.4667441303324943592896,
     0.4076011712801990666217, -0.1996824278868025259365],
    [1.0, 1.0, 0.0, 1.0, 0.0],
])
_RTI = np.array([
    [27.69769377568408840917, 12.783337911304406015, 3.208489386713429859798,
     -0.9514904122489162212717, 0.7415504960259896033537],
    [5.344186437834911598895, 4.593615567759161004454, -3.036360323459424298646,
     1.05066019023145886386, -0.2727786118642962705386],
    [-3.748059807439804860051, 3.984965736343884667252, 1.044415641608018792942,
     -1.184098568137948487231, 0.4499177701567803688988],
    [-33.04188021351900000806, -17.37695347906356701945, -0.1721290632540055611515,
     -0.09916977798254264258817, 0.5312281158383066671849],
    [8.6114439798752919777, -9.699991409528808231336, -1.914728639696874284851,
     -2.418692006084940026427, 1.047463487935337418694],
])
_LAMBDA = np.array([
    [_MU_REAL, 0.0, 0.0, 0.0, 0.0],
    [0.0, 3.655694325463572258243, 6.543736899360077294021, 0.0, 0.0],
    [0.0, -6.543736899360077294021, 3.655694325463572258243, 0.0, 0.0],
    [0.0, 0.0, 0.0, 5.70095329867178941917, 3.210265600308549888425],
    [0.0, 0.0, 0.0, -3.210265600308549888425, 5.70095329867178941917],
])
_RP = np.array([
    [27.78093394406463730479, -208.0278573009013363819, 524.1878839694918316622,
     -543.8283560361324920544, 199.8873954234773594693],
    [-3.641478498049213152712, 77.88337605511782785356, -264.8949135682263519042,
     317.6758690799527338257, -127.0228530687949966223],
    [1.252547721169118720491, -29.16741431782969682998, 137.9029044041347843974,
     -202.090870943607426426, 92.10283313613322013809],
    [-0.5920031671845428725662, 14.11189556361320535827, -72.39587480540026415533,
     123.0433578997871846547, -64.16737549081558298507],
    [0.2, -4.8, 25.2, -44.8, 25.2],
])
# the Butcher matrix A itself, from T Lambda T^-1 = A^-1: the riders' stages
# solve their linear collocation system with it directly (_Radau._riders)
_RA = np.linalg.inv(_RT @ _LAMBDA @ _RTI)
_NR = _RC.size  # stages
_POWERS = np.arange(1, _NR + 1)  # of theta in that polynomial
# the polynomial's value less y, and h times its slope, at theta = 1/2, as
# weights on the stage increments; the step checks its defect there
_MID = _RP @ 0.5**_POWERS
_MID_SLOPE = _RP @ (_POWERS * 0.5 ** (_POWERS - 1))
_RADAU_ORDER = 6  # local order of the step's error norm: factors go as err^(-1/6)
_NEWTON_MAXITER = 6


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for :func:`integrate`; every step is adaptive.

    ``rtol`` and ``atol`` lie below 1, where the error norm still measures
    an error: at rtol = 1e300 a shot steps past its whole domain and its
    error scale overflows.  ``rtol`` is at least 100 eps, scipy's floor;
    below it the Radau Newton tolerance 10 eps / rtol exceeds 0.1.
    """

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:  # NaN fails too
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        if self.rtol < 100 * np.finfo(float).eps:
            raise ValueError(f"rtol must be at least 100 eps = 2.22e-14, got {self.rtol!r}")


@dataclass(frozen=True)
class Event:
    """Event function g(t, y) whose first matching root ends the integration.

    ``fn`` is called on arrays: ``t`` of shape (m,) and ``y`` of shape
    (d, m), so ``y[k]`` is component k at every t; it returns the m values.
    At a single point (the start of :func:`integrate`, and each iteration
    while a crossing is refined) it gets a scalar t and y of shape (d,).
    With ``n_state`` the event function gets the state's rows only: d is
    n_state wherever :func:`integrate` calls it.

    direction: +1 only rising crossings, -1 only falling, 0 both.

    ``monotone`` declares g monotone along every solution, so a crossing
    lies between the two ends of the step that holds it.  The loop then
    evaluates g once per accepted step, at its end, and probes the dense
    output and refines the crossing (see :func:`integrate`) only on the
    step whose two ends cross; a dip of the interpolant through zero on
    any other step is no crossing.  Otherwise every step is probed, and
    each lane of :func:`integrate_batch` runs alone.
    """

    fn: Callable[[float, np.ndarray], float]
    direction: int = 0
    name: str = ""
    monotone: bool = False


@dataclass
class Trajectory:
    """Accepted samples plus the per-step dense interpolant.

    ``t``/``y`` are the accepted nodes (shape (n,), (n, d)).  Segment i covers
    [t[i], t[i+1]] and carries the power-basis coefficients ``dense_q[i]``
    built over the original step ``dense_h[i]``; the two differ only on a
    final segment truncated by the event.  ``dense_q[i]`` is (d, 7), the
    degree-7 DOP853 interpolant, or (d, 5), the degree-5 collocation
    polynomial of a Radau step.
    When ``termination`` is ``"event"`` the last
    node ``(t[-1], y[-1])`` is the refined crossing.

    A trajectory of nodes only (``integrate(..., dense=False)``) keeps
    every node but no segment: ``dense_q`` and ``dense_h`` are empty, and
    it reads only at its nodes; between them it raises ValueError.
    """

    t: np.ndarray
    y: np.ndarray
    dense_q: np.ndarray
    dense_h: np.ndarray
    termination: str
    n_rhs_evals: int = 0
    n_rejected: int = 0

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def _read(self, t, at_node, between):
        """A quantity along the trajectory at scalar or array t: ``at_node[j]``
        at node j's time, ``between(i, times)`` at times strictly inside
        segment i; ValueError outside the domain."""
        flat = np.asarray(t, dtype=float).ravel()
        inside = (self.t[0] <= flat) & (flat <= self.t[-1])
        if not np.all(inside):
            raise ValueError(
                f"t={flat[~inside][0]!r} outside trajectory domain "
                f"[{self.t[0]!r}, {self.t[-1]!r}]"
            )
        j = np.searchsorted(self.t, flat)  # the first node at or after each
        node = self.t[j] == flat
        out = at_node[j]
        out[~node] = between(j[~node] - 1, flat[~node])
        return out[0] if np.ndim(t) == 0 else out

    def eval(self, t):
        """Dense evaluation at scalar t (shape (d,)) or array t (shape (m, d)).

        Every t must lie inside the domain.  Exact node times return the
        stored samples bitwise.
        """
        return self._read(t, self.y, lambda i, b: self._at(i, b[:, None])[:, 0])

    def sample(self):
        """(times (m,), states (m, d)) in ascending order: every node, and
        ``_SAMPLES_PER_STEP`` - 1 evenly spaced points of each step's dense
        output.  The states are :meth:`eval`'s at those times, bitwise."""
        frac = np.arange(_SAMPLES_PER_STEP) / _SAMPLES_PER_STEP
        times = self.t[:-1, None] + np.diff(self.t)[:, None] * frac  # frac 0 is the node
        states = self._at(np.arange(len(times)), times)
        r, k = np.nonzero(times == self.t[:-1, None])
        states[r, k] = self.y[r]
        d = self.y.shape[1]
        return np.append(times, self.t[-1]), np.concatenate((states.reshape(-1, d), self.y[-1:]))

    def _at(self, seg, times):
        """States (n, k, d) at times (n, k), row r inside segment seg[r], in
        one dense evaluation: the trajectory's one array reader of its
        stored steps.  A time on its segment's right node reads the stored
        node bitwise.  ValueError on a trajectory of nodes only."""
        if seg.size and len(self.dense_h) < len(self.t) - 1:
            raise ValueError("a trajectory of nodes only (integrate's dense=False) reads only at its nodes")
        out = _interp(self.y[seg, None], self.dense_q[seg, None], self.dense_h[seg, None], times - self.t[seg, None])
        r, k = np.nonzero(times == self.t[seg + 1, None])
        out[r, k] = self.y[seg[r] + 1]
        return out

    def antiderivative(self, g: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """Cumulative integral of g(t, y(t)) along the trajectory.

        ``g`` is called on arrays: ``t`` of shape (m,) and ``y`` of shape
        (d, m), so ``y[k]`` is component k at every point; it returns the m
        values, or a (k, m) block of k integrands, which share one dense
        evaluation and each integrate bitwise as it would alone.
        Gauss-Legendre 4 per segment integrates g exactly when it is linear
        in y, as the dense interpolant has degree 7 at most.  Returns
        (node_values, eval_fn): node_values[i] is the integral from t[0] to
        t[i], of shape (k,) for a block, and eval_fn gives it at scalar or
        array t inside the domain (node times return node_values bitwise).
        """

        def partial(i, b):
            # integral over [t[i], b[j]] inside segment i[j], for each j: (j,),
            # or (j, k) for a block
            a = self.t[i]
            ts = a[:, None] + (b - a)[:, None] * _GL4_NODES
            ys = self._at(i, ts)
            # contiguous, as np.dot's kernel sums a strided row (g's y[k], say)
            # in another order
            vals = np.asarray(g(ts.ravel(), ys.reshape(-1, ys.shape[-1]).T), order="C")
            vals = vals.reshape(vals.shape[:-1] + ts.shape)
            # np.vecdot runs that kernel row by row, so a segment's value does
            # not depend on how many segments or integrands are summed together
            return ((b - a) * np.vecdot(vals, _GL4_WEIGHTS)).T

        # cumsum adds along the nodes one at a time, for each integrand alike
        parts = partial(np.arange(len(self.t) - 1), self.t[1:])
        node_vals = np.concatenate((np.zeros((1,) + parts.shape[1:]), np.cumsum(parts, axis=0)))
        return node_vals, lambda t: self._read(t, node_vals, lambda i, b: node_vals[i] + partial(i, b))


def _interp(y0, q, h, dt):
    """Dense output y0 + h * (q0 th + q1 th^2 + ... + q_k th^(k+1)) at
    th = dt / h, in Horner form over q's last axis, k + 1 = 7 or 5 terms.

    One segment (y0 (d,), q (d, k + 1), scalar h) at scalar or (m,) dt, or
    any broadcast stack of segments (y0 (..., d), q (..., d, k + 1), h (...))
    with dt of the stack's shape; the result has dt's shape plus a trailing d.
    """
    theta = np.asarray(dt / h)
    th = theta[..., None]
    acc = q[..., -1]
    for j in range(q.shape[-1] - 2, -1, -1):
        acc = acc * th + q[..., j]
    return y0 + (h * theta)[..., None] * acc


def _hairer_initial_step(rhs, t0, y0, f0, rtol, atol, span, n_state=None, order=ORDER):
    """Standard starting-step heuristic (Hairer, Norsett & Wanner II.4),
    read on the first ``n_state`` components (default all), for a method
    whose error estimate has local order ``order``."""
    state = y0[:n_state]
    scale = atol + rtol * np.abs(state)
    d0 = _rms(state / scale)
    d1 = _rms(f0[:n_state] / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _rms((f1 - f0)[:n_state] / scale) / h0
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** (1 / order) if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, span)


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def _horner(y0, q, h, thetas) -> list:
    """One segment's dense output (y0 (d,), q (d, k + 1)) at the Python-float
    ``thetas`` and a Python-float h, on Python floats and bitwise
    :func:`_interp`'s: component by component, its value at each theta, in
    one flat list.  On a few entries Python floats cost less than numpy's
    calls."""
    out = []
    for y0_k, coefs in zip(y0.tolist(), q.tolist()):
        coefs.reverse()
        last, rest = coefs[0], coefs[1:]
        for th in thetas:
            # _interp's Horner form, then its y0 + (h th) acc
            acc = last
            for c in rest:
                acc = acc * th + c
            out.append(y0_k + h * th * acc)
    return out


def _segment(t0, y0, q, h):
    """Dense output of one step from (t0, y0) at scalar or array times.  A
    scalar time, as brentq's while it refines a crossing, evaluates on
    Python floats (:func:`_horner`)."""
    t0, h = float(t0), float(h)

    def at(tt):
        if isinstance(tt, float):
            return np.array(_horner(y0, q, h, [(tt - t0) / h]))
        return _interp(y0, q, h, tt - t0)

    return at


def brentq(f, a, b, xtol, rtol, maxiter):
    """Root of f in [a, b] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), step for step as scipy's
    C ``brentq`` takes it, so that both return the same float.

    |x - root| <= xtol + rtol |x| on return.  Raises ValueError on a NaN
    value of f or on ends of one sign, RuntimeError after ``maxiter``
    iterations.  It computes on Python floats, f's values included, so an
    overflow is inf without a numpy warning; where C divides by zero into
    inf or NaN, the step bisects, as C's failed comparison does.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, unless a short step is taken below
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _refine_crossing(seg_eval, gfn, walk_t, walk_g, p):
    """Root of g in [walk_t[p], walk_t[p + 1]], where g crosses from
    walk_g[p] (never 0) to walk_g[p + 1]; brentq on the dense output."""
    ta, tb = float(walk_t[p]), float(walk_t[p + 1])
    if walk_g[p + 1] == 0.0:
        return tb
    return brentq(lambda t: gfn(t, seg_eval(t)), ta, tb, xtol=_XTOL, rtol=_RTOL, maxiter=200)


def _crossing(ga, gb, direction):
    """Whether g crosses zero from ga to gb in ``direction``; floats or arrays.

    A crossing leaves zero strictly and ends on or past it, so a left end
    already on zero is not a new one.  Only signs are compared: the product
    ga * gb underflows to 0 for |g| below about 1e-162.  NaN never matches.
    """
    rising = (ga < 0.0) & (gb >= 0.0)
    falling = (ga > 0.0) & (gb <= 0.0)
    return rising if direction > 0 else falling if direction < 0 else rising | falling


def _crossing_index(g, direction):
    """Per row of g values along a walk, the first p with a crossing from
    g[:, p] to g[:, p + 1], or -1 where the row has none.  One walk given
    as a list of Python floats gives its p as an int, in one call that
    costs less than numpy's on a few values."""
    if isinstance(g, list):
        for p, hit in enumerate(map(_crossing, g, g[1:], repeat(direction))):
            if hit:
                return p
        return -1
    match = _crossing(g[:, :-1], g[:, 1:], direction)
    return np.where(match.any(axis=1), match.argmax(axis=1), -1)


def _error_norm(err, y, y_new, cfg: IntegratorConfig, err3=None):
    """RMS over the last axis of the error estimate scaled by atol + rtol
    max(|y|, |y_new|) (Hairer, Norsett & Wanner I, II.4); NaN or inf where
    the step overflowed.  With ``err3``, DOP853's norm of its two estimates
    (scipy's ``DOP853._estimate_error_norm``): with S5, S3 the sums of
    squares of err and err3 so scaled, S5 / sqrt((S5 + 0.01 S3) d).

    A lane block (n, d) gives the n norms as an array; one state (d,) gives
    a Python float, bitwise the block's: the same operations in the same
    order on Python floats, which cost less than numpy's calls on d entries."""
    if err.ndim > 1:
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            s5 = np.add.reduce(np.square(err / scale), axis=-1)
            if err3 is None:
                # the mean as np.mean forms it: sum, then / d
                return np.sqrt(s5 / err.shape[-1])
            denom = s5 + 0.01 * np.add.reduce(np.square(err3 / scale), axis=-1)
            # both estimates 0: the step is exact; NaN and inf stay NaN
            return np.where(denom == 0.0, 0.0, s5 / np.sqrt(denom * err.shape[-1]))
    atol, rtol = cfg.atol, cfg.rtol
    # np.maximum's NaN: a NaN on either side is the maximum
    scale = [
        atol + rtol * (a if a >= b or a != a else b)
        for a, b in zip(map(abs, y.tolist()), map(abs, y_new.tolist()))
    ]
    s5 = _pairwise_sum([q * q for q in map(truediv, err.tolist(), scale)])
    if err3 is None:
        return math.sqrt(s5 / len(scale))
    denom = s5 + 0.01 * _pairwise_sum([q * q for q in map(truediv, err3.tolist(), scale)])
    return 0.0 if denom == 0.0 else s5 / math.sqrt(denom * len(scale))


def _pairwise_sum(terms: list) -> float:
    """The sum of Python floats as ``np.add.reduce`` forms it on a float64
    axis.  Below 8 terms numpy's pairwise summation adds them in order from
    -0.0, and the reduction's identity +0.0 follows (so terms all -0.0 sum
    to +0.0); a longer list goes to ``np.add.reduce`` itself."""
    if len(terms) >= 8:
        with np.errstate(over="ignore", invalid="ignore"):  # as quiet as Python floats
            return float(np.add.reduce(terms))
    total = -0.0
    for x in terms:
        total += x
    return 0.0 + total


def _step_factor(h, err_norm, h_old, err_old, order, safety=0.9):
    """Next step size over h, the one just tried, for both steps:
    Gustafsson's predictive factor (Hairer & Wanner IV.8, eq. 8.25) for a
    norm going as h^order, times ``safety``; at most 10 after an accepted
    try (norm <= 1), at least 0.2 after a rejected one.  h_old, err_old:
    the last accepted step and its norm floored at _ERR_FLOOR, so a tiny
    one does not collapse the next factor; NaN before the first.  Python
    floats, as numpy's array power differs from ``float ** float`` at times."""
    err = max(err_norm, 1e-10)  # NaN stays NaN
    mult = h / h_old * (err_old / err) ** (1 / order)  # NaN: no memory, or no norm
    factor = safety * ((mult if mult < 1.0 else 1.0) * err ** (-1 / order))
    return min(10.0, factor) if err_norm <= 1.0 else max(0.2, factor)


def _blown_up(y):
    """max|y| >= _BLOWUP_NORM or a non-finite component, per state (last
    axis): a bool array for a lane block, a Python bool for one state."""
    if y.ndim > 1:
        # NaN propagates through max and fails the comparison, as does inf
        return ~(np.abs(y).max(axis=-1) < _BLOWUP_NORM)
    # the same test a component at a time: NaN and inf fail it too
    for v in y.tolist():
        if not abs(v) < _BLOWUP_NORM:
            return True
    return False


class _Radau:
    """The Radau IIA(9) step of :func:`integrate`, 5 stages, with the
    controller of scipy's ``radau.py``: a simplified Newton iteration on
    the collocation system, started from the last step's polynomial, with
    its convergence-rate test; Jacobian reuse; :func:`_step_factor` with
    Newton's safety factor; and halving after a Newton failure.  As in
    RADAU5, a rejected try, by its error or by a Newton failure, makes the
    next try estimate its error again and, when accepted, keep h from
    growing.

    The step's error norm is the larger of two.  One is RADAU5's embedded
    estimate, filtered through (MU_REAL/h - J)^-1.  The other is the
    collocation polynomial's defect f(u) - u' at theta = 1/2, filtered the
    same way, which costs one rhs call on each try the estimate accepts.
    The filtered estimate alone measures the error at the nodes and lets a
    stiff step grow until the polynomial strays between them: on
    Prothero-Robinson at lam = 1e5, omega = 2, h reached 0.39 with the
    polynomial off by 2.1e-7 between nodes, against 3e-10 at them, and an
    event refined on it missed its time by 2.7e-8 (3e-12 with the defect).

    Newton works on the transformed stage increments W = _RTI Z, whose
    system splits into a real one, (MU_REAL/h - J) dw0 = g0, and two complex
    ones, ((a + ib)/h - J) (dw + i dw') = g + i g'.  All are kept in real
    form as one 5d x 5d matrix, Lambda/h (x) I - I (x) J, and its inverse,
    so each Newton iteration solves with one matrix-vector product (a 4 x 4
    ``lu_solve`` costs 10x that).  The inverse is formed again when h or J
    changes.

    Riders follow an accepted step by one direct solve of their own
    collocation system (:meth:`_riders`), with jac at each stage; rhs and
    the inverse serve the state alone.
    """

    def __init__(self, rhs, jac, cfg: IntegratorConfig, t, y, n_state=None):
        self.rhs, self.jac, self.cfg = rhs, jac, cfg
        self.d = y[:n_state].size  # the state's width; the riders follow it
        self.lam_i = np.kron(_LAMBDA, np.eye(self.d))  # Lambda (x) I
        self._take_jac(t, y[:self.d])
        self.retry = False  # the last try was rejected, by its error or by Newton
        # (Z's last row, dense q (d, 5) transposed, h) of the last accepted step
        self.last = None
        self.newton_tol = max(10 * np.finfo(float).eps / cfg.rtol, min(0.03, cfg.rtol**0.5))
        self.n_evals = 0

    def _take_jac(self, t, y):
        i_j = np.zeros((_NR, self.d, _NR, self.d))  # I (x) J: J on the diagonal blocks
        stage = np.arange(_NR)
        i_j[stage, :, stage] = np.asarray(self.jac(t, y), dtype=float)
        self.i_j = i_j.reshape(_NR * self.d, _NR * self.d)
        self.fresh_jac = True  # J was taken at the current state
        self.inv = None  # see _inverse

    def _inverse(self, h):
        """(h, the inverse of Lambda/h (x) I - I (x) J, its leading d x d
        block, which solves the real system, and Lambda/h), formed again
        when h or J changes."""
        if self.inv is None or self.inv[0] != h:
            try:
                inv = np.linalg.inv(self.lam_i / h - self.i_j)
            except np.linalg.LinAlgError:  # singular: Newton fails and h shrinks
                inv = np.full_like(self.i_j, np.nan)
            self.inv = (h, inv, inv[:self.d, :self.d], _LAMBDA / h)
        return self.inv

    def _newton(self, t, ys, h, z, scales):
        """(converged, iterations, stage increments Z (5, d), rate), from
        the state repeated in one row a stage, ys, and the error scale
        repeated once a stage end to end, scales, so that no operation
        broadcasts."""
        _, inv, _, lam = self._inverse(h)
        w = _RTI @ z
        F = np.empty_like(z)
        ts = [t + h * c for c in _RC.tolist()]
        norm_old = rate = None
        for k in range(_NEWTON_MAXITER):
            stages = ys + z
            for i in range(_NR):
                F[i] = self.rhs(ts[i], stages[i])
            self.n_evals += _NR
            dw = inv @ (_RTI @ F - lam @ w).ravel()  # W's increment, flat
            scaled = dw / scales
            dw_norm = math.sqrt(float(scaled @ scaled) / scaled.size)
            if not dw_norm < math.inf:  # a stage left the field's domain
                break
            if norm_old is not None:
                rate = dw_norm / norm_old
                if rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dw_norm > self.newton_tol:
                    break
            w = w + dw.reshape(w.shape)
            z = _RT @ w
            if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < self.newton_tol:
                return True, k + 1, z, rate
            norm_old = dw_norm
        return False, k + 1, z, rate

    def _riders(self, t, h, stages, v):
        """The riders' values (m,) at t + h and their dense rows (m, 5)
        over the accepted step h, from their values v at t and the state's
        converged stages (5, d).

        The riders' collocation system is linear: their stage values V solve
        (I - h (A (x) I) diag(J(Y_1..Y_5))) V = 1 (x) v, one solve of that
        5d x 5d matrix for every column at once, the staggered direct method
        (Caracotsios & Stewart 1985).  J(Y_i) is jac's at each stage, five
        calls of jac and none of rhs.  A singular matrix leaves the riders
        NaN, and the loop ends the shot on their dense output."""
        d, m = self.d, v.size
        js = np.array([self.jac(t + h * c, stage) for c, stage in zip(_RC.tolist(), stages)], dtype=float)
        # entry (i, p, j, q) of the 5d x 5d matrix is delta_ij delta_pq - h a_ij J(Y_j)_pq
        mat = np.eye(_NR * d) - (h * _RA[:, None, :, None] * js.transpose(1, 0, 2)).reshape(_NR * d, -1)
        cols = v.reshape(-1, d).T  # (d, m / d), rider column c is entries c d to c d + d
        try:
            vs = np.linalg.solve(mat, np.concatenate((cols,) * _NR))
        except np.linalg.LinAlgError:
            vs = np.full((_NR * d, cols.shape[1]), math.nan)
        zr = vs.reshape(_NR, d, -1).transpose(0, 2, 1).reshape(_NR, m) - v
        return v + zr[-1], (zr.T @ _RP) / h

    def step(self, t, y, f, h, h_old, err_old):
        """One try at the step from (t, y), f = rhs(t, y), to t + h, after
        the accepted step h_old with norm err_old: the new state, its (d, 5)
        dense coefficients, rhs there and None, in the place of
        DOP853's stages (:func:`_explicit_step`), when accepted, else None;
        the factor to step on or retry with; and the error norm.

        With riders, y, the new state and its dense rows are the full width,
        and f and rhs at the new state the state's rows; the state steps on
        its own rows alone, as without riders, and the riders follow an
        accepted step (see :meth:`_riders`)."""
        cfg = self.cfg
        y, riders = y[:self.d], y[self.d:]
        if self.last is None:
            z0 = np.zeros((_NR, self.d))
        else:
            # the last step's polynomial continued to this step's nodes
            z_end, q_t, h_a = self.last
            x = 1.0 + (h / h_a) * _RC
            z0 = (h_a * (x[:, None] ** _POWERS)) @ q_t - z_end
        y_list = y.tolist()
        ys = np.array(y_list * _NR).reshape(_NR, self.d)
        scales = np.array([cfg.atol + cfg.rtol * abs(v) for v in y_list] * _NR)
        while True:
            converged, n_iter, z, rate = self._newton(t, ys, h, z0, scales)
            if converged or self.fresh_jac:
                break
            self._take_jac(t, y)
        if not converged:
            self.retry = True
            return None, 0.5, math.nan

        y_new = y + z[-1]
        ze = (_RE @ z) / h
        _, _, inv_real, _ = self.inv
        err = inv_real @ (f + ze)
        err_norm = _error_norm(err, y, y_new, cfg)
        if self.retry and not err_norm <= 1.0:
            # after a rejected try, RADAU5 estimates again from rhs at y + err,
            # which tames the estimate's overshoot on stiff components
            err = inv_real @ (self.rhs(t, y + err) + ze)
            self.n_evals += 1
            err_norm = _error_norm(err, y, y_new, cfg)
        if err_norm <= 1.0:
            # the polynomial's defect at theta = 1/2, filtered as the estimate
            defect = self.rhs(t + 0.5 * h, y + _MID @ z) - (_MID_SLOPE @ z) / h
            self.n_evals += 1
            defect_norm = _error_norm(inv_real @ defect, y, y_new, cfg)
            if not defect_norm <= err_norm:  # NaN rejects
                err_norm = defect_norm
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
        factor = _step_factor(h, err_norm, h_old, err_old, _RADAU_ORDER, safety)
        if not err_norm <= 1.0:  # NaN rejects too
            self.retry = True
            return None, factor, err_norm

        if self.retry:
            # RADAU5's REJECT rule: the try accepted right after a rejected
            # one does not grow h, so h does not climb back to the size that
            # just failed
            factor = min(factor, 1.0)
        recompute_jac = n_iter > 2 and rate > 1e-3
        if not recompute_jac and factor < 1.2:
            factor = 1.0  # keep h, and with it the inverse
        f_new = self.rhs(t + h, y_new)
        self.n_evals += 1
        if recompute_jac:
            self._take_jac(t + h, y_new)
        else:
            self.fresh_jac = False
        self.retry = False
        q = (z.T @ _RP) / h
        self.last = (z[-1], q.T, h)
        if riders.size:
            v_new, q_riders = self._riders(t, h, ys + z, riders)
            y_new, q = np.concatenate((y_new, v_new)), np.concatenate((q, q_riders))
        return (y_new, q, f_new, None), factor, err_norm


def _block_times(t, h, first, stop):
    """The stage times t + c h of the stages first to stop - 1 of a lockstep
    block, t and h (n,), as one (stop - first, n) array: two numpy calls a
    try in the place of two a stage.  None for one state, whose stage loop
    forms each time on Python floats."""
    return t + _C[first:stop, None] * h if isinstance(t, np.ndarray) else None


def _dop853(rhs, t, y, f, h, hc):
    """The DOP853 stages from (t, y), f = rhs(t, y), over the step h: the new
    state, the 5th- and 3rd-order error estimates, and the stages K (16, d)
    with rhs at the new state in K[12]; twelve calls of rhs.  Of one state
    y (d,) with hc = h, or of a lockstep block: the lanes' states end to end
    in y (n * d,), t and h (n,), hc each lane's h repeated d times, and an
    rhs on such blocks.  Each of its stage sums is one product over all
    lanes (see integrate_batch)."""
    K = np.empty((16, y.size))
    K[0] = f
    ts = _block_times(t, h, 1, 12)
    for s in range(1, 12):
        c, a = _STAGES[s]
        K[s] = rhs(t + c * h if ts is None else ts[s - 1], y + hc * (a @ K[:s]))
    k12 = K[:12]
    y_new = y + hc * (_B @ k12)
    K[12] = rhs(t + h, y_new)
    return y_new, hc * (_E5 @ k12), hc * (_E3 @ k12), K


def _dense(rhs, t, y, y_new, h, hc, K):
    """The (d, 7) power-basis coefficients of DOP853's interpolant over an
    accepted :func:`_dop853` step to y_new, of one state or of a lockstep
    block as there; three more calls of rhs, for the stages K[13:16].

    The F_j are formed first and then converted by _T, so the rounding of
    _D K stays damped by the F_j's factors, at most 1/4 for j >= 1.  One
    matrix folding _D and _T onto the stages gives coefficients that cancel
    terms up to 545 times the stages: between the nodes of the round shot,
    whose r and l2 are near 1e4 at the launch, the curvature eigenvalues
    (k_s = r^2 - l2^2 among them) then stray up to 2.8e-6 from 1/3, against
    5.5e-8, a few ulps of r^2, this way.  _D's rows sum to zero, so _D acts
    on the stage differences K - K[0], which are smaller than K.

    An overflowed stage gives non-finite coefficients, which end the shot;
    its callers' loops run with numpy's overflow and invalid warnings off."""
    F = np.empty((y.size, 7))
    f0 = (y_new - y) / hc
    F[:, 0] = f0
    F[:, 1] = K[0] - f0
    F[:, 2] = 2.0 * f0 - K[0] - K[12]
    ts = _block_times(t, h, 13, 16)
    for s in range(13, 16):
        c, a = _STAGES[s]
        K[s] = rhs(t + c * h if ts is None else ts[s - 13], y + hc * (a @ K[:s]))
    F[:, 3:] = (K - K[0]).T @ _D.T
    # a sum over j in a fixed order, so a lane's q does not depend on the block
    return np.add.reduce(F[:, :, None] * _T, axis=1)


def _probe(fn, t, y, y_new, q, h):
    """The event probe times of a step from (t, y) to y_new over h with
    dense coefficients q, and the values of g = fn there from one call: the
    times as a list of Python floats, and the dense points of the state
    (d,) evaluated on Python floats, bitwise :func:`_interp`'s."""
    probe_t = [t + frac * h for frac in _PROBE_FRACS.tolist()]
    thetas = [(pt - t) / h for pt in probe_t[:-1]]
    probe_y = np.empty((y.size, len(probe_t)))  # row k: component k at each probe
    probe_y[:, :-1].flat = _horner(y, q, h, thetas)
    probe_y[:, -1] = y_new  # the last probe is t + h
    return probe_t, fn(np.array(probe_t), probe_y)


def _explicit_step(rhs, t, y, f, h, cfg: IntegratorConfig, n_state, h_old, err_old):
    """One try at the DOP853 step from (t, y), f = rhs(t, y), to t + h, in
    the form of :meth:`_Radau.step`: the new state, None for its dense
    coefficients, rhs there and the stages K when accepted, else None; the
    factor; the error norm.  Its 12 calls of rhs make the try; the loop
    forms the dense output from K, 3 calls more, where it reads it."""
    y_new, err5, err3, K = _dop853(rhs, t, y, f, h, h)
    err_norm = _error_norm(err5[:n_state], y[:n_state], y_new[:n_state], cfg, err3[:n_state])
    factor = _step_factor(h, err_norm, h_old, err_old, ORDER)
    if not err_norm <= 1.0:
        return None, factor, err_norm
    return (y_new, None, K[12], K), factor, err_norm


def _blown_start(t0, y, width) -> Trajectory:
    """The trajectory of a start state that the blow-up guard stops at once;
    ``width`` is that of the step's dense rows, 7 for DOP853 and 5 for Radau."""
    return Trajectory(np.array([t0]), y[None], np.zeros((0, y.size, width)), np.zeros(0), "blowup")


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0,
    t_end: float,
    config: Optional[IntegratorConfig] = None,
    event: Optional[Event] = None,
    n_state: Optional[int] = None,
    jac: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
    dense: bool = True,
) -> Trajectory:
    """Integrate y' = rhs(t, y) from t0 to t_end (forward only).

    Steps with DOP853, or, when the Jacobian ``jac(t, y)`` (d, d) of rhs
    is given, with the 5-stage Radau IIA of order 9 (see the module
    docstring).  That implicit step is L-stable, so on a stiff problem its
    step size follows the solution and not the stiff eigenvalue; each step
    costs about 18 rhs calls, against DOP853's 15, and takes the place of
    several.  Both steps feed one loop: the same event probes and
    refinement, blow-up guard, terminations and :class:`Trajectory`.  A
    DOP853 segment stores its degree-7 interpolant in ``dense_q`` (d, 7), a
    Radau segment its degree-5 collocation polynomial (d, 5).  ``n_rhs_evals``
    counts every call of rhs, the dense output's and Newton's included;
    the calls of jac are not counted.

    With ``dense`` = False the trajectory keeps every node but no segment
    (see :class:`Trajectory`), and a DOP853 step forms its 3 dense stages
    and interpolant only where the loop reads them: on every step for an
    event that is not monotone, on the step whose two ends cross for a
    monotone one, never without an event.  Its nodes, termination and
    counters are then the dense shot's, but for 3 rhs calls less on every
    other accepted DOP853 step.  A step whose dense output is not formed
    is not checked for a finite one: an overflow of its dense stages
    alone, which ends a dense shot as ``"blowup"``, goes unseen there.

    Stops early at the first matching crossing of ``event`` (the trajectory
    then ends on the refined crossing, termination ``"event"``), on the
    blow-up guard (max|y| >= _BLOWUP_NORM or a non-finite component, checked
    on the initial state and on a refined crossing too, whose termination
    is then ``"blowup"``; so is that of an accepted step whose dense output
    is not finite, which ends the trajectory before it), or on step-size
    underflow; the partial trajectory with its termination reason is
    returned in every case.

    With ``n_state`` set, only the first n_state components of y enter the
    step control (the error norm, the initial-step heuristic and the blow-up
    guard) and the event: with ``n_state`` the event function gets the
    state's rows only, at the start, at the probes and while a crossing is
    refined.  The others ride along, as the tangent columns of a
    variational system do.  Their presence then leaves the steps, the event
    times and the first n_state components bitwise as they are without
    them; on the DOP853 step, provided both widths are multiples of 4 (see
    :func:`integrate_batch`).  The Radau step takes riders too, as columns
    of n_state entries each whose field is the state's Jacobian times the
    column: the variational equations, whose Jacobian is block
    lower-triangular with I (x) J on its diagonal blocks.  There ``jac``
    gets the state's rows and gives its (n_state, n_state) Jacobian, which
    the state's Newton iteration reads, and the riders' direct solve at
    each of an accepted step's 5 stages.  ``rhs`` is called on the state's
    rows alone, the start's two calls included, so it need not take the
    riders, and a shot with riders makes the rhs calls of one without.
    """
    cfg = config or IntegratorConfig()
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("y0 must be a 1-d state vector")
    if n_state is not None and not 0 < n_state <= y.size:
        raise ValueError(f"n_state {n_state!r} outside [1, {y.size}]")
    if jac is not None and n_state is not None and (y.size - n_state) % n_state:
        raise ValueError(
            f"the Radau step's riders are columns of n_state = {n_state} entries, got {y.size - n_state}"
        )
    t0 = float(t0)
    t_end = float(t_end)
    if not t_end > t0:
        raise ValueError("integration is forward only: t_end must exceed t0")
    if _blown_up(y[:n_state]):  # stepping on would only spin through the step budget
        return _blown_start(t0, y, 7 if jac is None else _NR)

    start = y if jac is None else y[:n_state]  # the Radau step calls rhs on the state alone
    f = np.asarray(rhs(t0, start), dtype=float)
    radau = None if jac is None else _Radau(rhs, jac, cfg, t0, y, n_state)
    order = ORDER if radau is None else _RADAU_ORDER
    h = _hairer_initial_step(rhs, t0, start, f, cfg.rtol, cfg.atol, t_end - t0, n_state, order)
    g_prev = event.fn(t0, y[:n_state]) if event is not None else None
    return _steps(rhs, t_end, cfg, event, n_state, radau, t0, y, f, h, g_prev, 0, 0, 2, dense=dense)


# numpy's overflow and invalid warnings are off in the loop, as in
# integrate_batch: an overflow is the error norm's, the dense-output check's
# or the blow-up guard's to stop, silently
@np.errstate(over="ignore", invalid="ignore")
def _steps(rhs, t_end, cfg, event, n_state, radau, t, y, f, h, g_prev, n_steps, n_rejected, n_evals,
           step=None, h_old=math.nan, err_old=math.nan, dense=True):
    """:func:`integrate`'s loop, resumed at the node (t, y) with f = rhs(t, y),
    the step size h to try next, the event function g_prev there, the
    tries, rejections and rhs calls so far, and the controller's memory
    (see :func:`_step_factor`); ``step``, an accepted DOP853 try already
    made from there with h, is taken as the first.  The trajectory on,
    with its dense output if ``dense``, else its nodes only."""
    ts, ys, qs, hs = [t], [y.copy()], [], []
    termination = "reached_end"
    tiny = 10 * np.finfo(float).eps

    while t < t_end:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            termination = "max_steps"
            break
        h = min(h, t_end - t)
        if not h >= tiny * max(abs(t), 1.0):  # a NaN step too
            termination = "step_underflow"
            break

        if radau is not None:
            accepted, factor, err_norm = radau.step(t, y, f, h, h_old, err_old)
        else:
            accepted, factor, err_norm = _explicit_step(rhs, t, y, f, h, cfg, n_state, h_old, err_old) if step is None else step
            step = None
            n_evals += 12
        if accepted is None:
            n_rejected += 1
            h *= factor
            continue
        h_old, err_old = h, max(err_norm, _ERR_FLOOR)
        y_new, q, f_new, K = accepted
        t_new = t + h
        node_t, node_y = t_new, y_new
        # the event walks the step's dense output on every step, or, when
        # monotone, on the step whose two ends cross; the event sees the
        # state's rows alone, so riders cost it nothing
        g_start, walk = g_prev, event is not None
        if walk and event.monotone:
            g_prev = float(event.fn(t_new, y_new[:n_state]))
            walk = _crossing(g_start, g_prev, event.direction)
        if q is None and (dense or walk):  # a DOP853 step's, formed where read
            q = _dense(rhs, t, y, y_new, h, h, K)
        if radau is None and q is not None:
            n_evals += 3
        if q is not None and not np.isfinite(q).all():  # a dense stage overflowed: no segment to store
            termination = "blowup"
            break
        if walk:
            probe_t, g = _probe(event.fn, t, y[:n_state], y_new[:n_state], q[:n_state], h)
            # the last probe's g, at t + h, becomes the next g_prev
            walk_t = [t, *probe_t]
            walk_g = [g_start, *g.tolist()]
            g_prev = walk_g[-1]
            p = _crossing_index(walk_g, event.direction)
            if p >= 0:
                termination = "event"
                state_eval = _segment(t, y[:n_state], q[:n_state], h)
                node_t = _refine_crossing(state_eval, event.fn, walk_t, walk_g, p)
                if node_t != t_new:
                    node_y = _segment(t, y, q, h)(node_t)

        ts.append(node_t)
        ys.append(node_y)
        if dense:
            qs.append(q)
            hs.append(h)
        if _blown_up(node_y[:n_state]):  # the new node, or the refined crossing
            termination = "blowup"
        if termination != "reached_end":
            break
        t, y, f = t_new, y_new, f_new
        h *= factor

    return Trajectory(
        t=np.array(ts),
        y=np.array(ys),
        dense_q=np.array(qs) if qs else np.zeros((0, y.size, _NR if radau else 7)),
        dense_h=np.array(hs),
        termination=termination,
        n_rhs_evals=n_evals + (radau.n_evals if radau else 0),
        n_rejected=n_rejected,
    )


# a lane's overflow is the error norm's or the blow-up guard's to stop,
# silently, as a single shot's Python floats overflow
@np.errstate(over="ignore", invalid="ignore")
def integrate_batch(
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t0,
    y0,
    t_end: float,
    event: Event,
    config: Optional[IntegratorConfig] = None,
    history: bool = False,
) -> list:
    """Integrate many independent initial value problems in lockstep.

    Lane i starts at (t0[i], y0[i]) and runs to t_end or to the first
    crossing of ``event``, which all lanes share.  Each lane has its own
    step size and accept/reject decision.  ``rhs(t, y)`` takes t of shape
    (m,) and y of shape (m, d) and returns the m derivative rows; it also
    takes one lane as :func:`integrate` passes it, a float t and y of shape
    (d,).  The event's ``fn`` is called as :class:`Event` describes.

    Under a monotone event the batch takes the DOP853 step of
    :func:`integrate`'s loop on all lanes together, with g at each step's
    end, keeping only its per-lane accept, step factor and controller
    memory; under any other, each lane goes on alone in that loop from its
    start.  Every lane ends in that loop, which alone decides why it stops.
    A lane leaves the batch for the loop before a step that the loop would
    not take (t_end, the step budget, a step underflow), after an accepted
    step that crosses the event, blows up or has no finite dense output
    (the loop takes that step as its first, so it is not made twice), or
    when it is the last lane left.  That last lane steps near a single
    shot's cost there: a delta1 = 300 circle-side DOP853 lane batched with
    one that meets early takes 1.07x its single shot's time, while a try of
    a block of 2 or 4 copies of it costs 3.2x a single shot's step (best of
    5, one CPU of a 2-vCPU Xeon VM).

    Every lane repeats the arithmetic of :func:`integrate` bit for bit, so
    its result does not depend on the batch size or on the other lanes.
    That needs a state width d that is a multiple of 4: the stage sums, the
    error estimates and the dense output's _D product of all lanes are each
    one BLAS product, and only then does each lane's block of d entries
    take the same kernel path as a single lane's.  Pad a narrower state with a constant component.

    Returns one :class:`Trajectory` per lane, with the whole lane's
    termination, ``n_rhs_evals`` and ``n_rejected``: all of its steps when
    ``history`` is set, else its last node alone.  A lane repeats
    :func:`integrate`'s shot with ``dense`` = ``history``: without history
    the block forms the dense output of only the lanes whose step crosses,
    in one product, and a lane's count is its nodes-only shot's.
    """
    cfg = config or IntegratorConfig()
    t0 = np.array(t0, dtype=float)
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 2 or t0.shape != y0.shape[:1]:
        raise ValueError("need t0 of shape (B,) and y0 of shape (B, d)")
    if y0.shape[1] % 4:
        raise ValueError(f"state width {y0.shape[1]} is not a multiple of 4")
    t_end = float(t_end)
    if not np.all(t_end > t0):
        raise ValueError("integration is forward only: t_end must exceed every t0")
    n_lanes, d = y0.shape
    tails = [None] * n_lanes  # per lane, its trajectory from integrate's loop
    n_rejected = np.zeros(n_lanes, dtype=int)
    # per step, the accepted steps by their left nodes: (lane ids, t, y, dense_q, dense_h)
    log = [(np.zeros(0, int), np.zeros(0), np.zeros((0, d)), np.zeros((0, d, 7)), np.zeros(0))]
    n_steps = 0  # steps tried by every lane still in the batch
    tiny = 10 * np.finfo(float).eps

    # the blow-up guard on the initial state, as in ``integrate``
    blown = _blown_up(y0)
    for i in np.flatnonzero(blown).tolist():
        tails[i] = _blown_start(t0[i], y0[i], 7)
    lane = np.flatnonzero(~blown)
    t, y = t0[lane], y0[lane]
    f = rhs(t, y)
    h = np.array([
        _hairer_initial_step(rhs, t[i], y[i], f[i], cfg.rtol, cfg.atol, t_end - t[i])
        for i in range(lane.size)
    ])
    g_prev = event.fn(t, y.T)
    h_old = err_old = np.full(lane.size, math.nan)  # the controller's memory, per lane
    flat_rhs = lambda t, y: rhs(t, y.reshape(t.size, d)).ravel()  # on blocks laid end to end

    def hand_off(mask, step=None):
        # from the state before the step, with the step's accepted try if
        # made; its dense output is formed wherever the loop reads it, so no
        # stages go along
        nonlocal lane, t, y, f, h, g_prev, h_old, err_old
        for i in np.flatnonzero(mask).tolist():
            tried = None if step is None else ((step[0][i], step[1][i], step[2][i], None), float(step[3][i]), float(step[4][i]))
            rejected = int(n_rejected[lane[i]])
            # a single shot's calls: 2 to start, 12 a try and 3 an accepted
            # step that forms its dense output
            tails[lane[i]] = _steps(
                rhs, t_end, cfg, event, None, None, float(t[i]), y[i], f[i], float(h[i]),
                float(g_prev[i]), n_steps, rejected, 2 + 12 * n_steps + (3 * (n_steps - rejected) if history else 0), tried,
                float(h_old[i]), float(err_old[i]), history,
            )
        lane, t, y, f, h, g_prev, h_old, err_old = (a[~mask] for a in (lane, t, y, f, h, g_prev, h_old, err_old))

    if not event.monotone:  # every step is probed: each lane goes on alone in integrate's loop
        hand_off(np.ones(lane.size, bool))
    while lane.size:
        h = np.minimum(h, t_end - t)
        # before a step that integrate's loop would not take, and the last
        # lane left, which steps as cheaply there as a single shot
        leave = ~(t < t_end) | (n_steps >= _MAX_STEPS) | (lane.size == 1)
        leave |= ~(h >= tiny * np.maximum(np.abs(t), 1.0))
        if leave.any():
            hand_off(leave)
            continue

        hc = np.repeat(h, d)
        y_new, err5, err3, K = _dop853(flat_rhs, t, y.ravel(), f.ravel(), h, hc)
        if history:  # the dense stages of every lane in one block; a rejected lane's go unused
            q = _dense(flat_rhs, t, y.ravel(), y_new, h, hc, K).reshape(-1, d, 7)
        y_new, err5, err3, f_new = (a.reshape(-1, d) for a in (y_new, err5, err3, K[12]))
        err_norm = _error_norm(err5, y, y_new, cfg, err3)
        ok = err_norm <= 1.0
        n_rejected[lane[~ok]] += 1
        tries = zip(h.tolist(), err_norm.tolist(), h_old.tolist(), err_old.tolist())
        factor = np.array([_step_factor(*a, ORDER) for a in tries])
        g_end = event.fn(t + h, y_new.T)  # g at the step's end; the loop walks a crossing step
        crossed = _crossing(g_prev, g_end, event.direction)
        end = ok & (crossed | _blown_up(y_new))
        if history:
            end |= ok & ~np.isfinite(q).all(axis=(1, 2))
        else:  # the dense output of the lanes whose loop walks this step, in one block
            q = [None] * lane.size
            walked = np.flatnonzero(ok & crossed)
            if walked.size:
                hw = h[walked]
                K_w = K.reshape(16, -1, d)[:, walked].reshape(16, -1)
                q_w = _dense(flat_rhs, t[walked], y[walked].ravel(), y_new[walked].ravel(), hw, np.repeat(hw, d), K_w)
                for i, q_i in zip(walked.tolist(), q_w.reshape(-1, d, 7)):
                    q[i] = q_i
        go = ok & ~end
        if history:
            log.append((lane[go], t[go], y[go], q[go], h[go]))
        t = np.where(go, t + h, t)
        y = np.where(go[:, None], y_new, y)
        f = np.where(go[:, None], f_new, f)
        g_prev = np.where(go, g_end, g_prev)
        h_old = np.where(go, h, h_old)
        err_old = np.where(go, np.maximum(err_norm, _ERR_FLOOR), err_old)
        h = np.where(end, h, h * factor)
        if end.any():  # else hand_off would only copy every lane's arrays
            hand_off(end, (y_new, q, f_new, factor, err_norm))
        n_steps += 1

    if history:
        return _assemble(tails, log)
    # each lane's last node, with the whole lane's termination and counters
    return [
        Trajectory(tail.t[-1:], tail.y[-1:], tail.dense_q[:0], tail.dense_h[:0],
                   tail.termination, tail.n_rhs_evals, tail.n_rejected)
        for tail in tails
    ]


def _assemble(tails, log) -> list:
    """Per lane, the steps it took in the batch, logged by their left
    nodes, followed by its tail from integrate's loop."""
    ids, *logged = (np.concatenate(parts) for parts in zip(*log))
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(len(tails) + 1))
    names = ("t", "y", "dense_q", "dense_h")
    return [
        replace(tail, **{k: np.concatenate((v[order[a:b]], getattr(tail, k))) for k, v in zip(names, logged)})
        for tail, a, b in zip(tails, bounds[:-1], bounds[1:])
    ]


def locate_event(
    traj: Trajectory,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    direction: int = 0,
) -> Optional[float]:
    """Time of the first crossing of g(t, y(t)) = 0 on a stored trajectory.

    ``fn`` is called as :class:`Event` describes: once on the probes of
    every segment (t of shape (m,), y of shape (d, m)), then at scalar t
    while the first crossing is refined.  Each segment is probed at 8
    dense points, so crossings that reverse within one step are still
    caught.  Returns the time of the first crossing in ``direction``, or
    None; ``traj.eval`` gives the state there.

    A trajectory stopped by an event ends at the refined root, where g
    may still sit on the near side of zero by a rounding error.  So when
    its last segment shows no crossing, the search goes on along that
    step's interpolant to the step's original end, and a crossing that
    refines onto t[-1] within the refinement accuracy is reported at t[-1].
    """
    n_seg = len(traj.t) - 1
    if n_seg == 0:
        return None
    # one walk per segment from its left node (t_a, y_a) to t_b; past an
    # event one more walks the last step on from t[-1] to its original end
    t_a, t_b, y_a = traj.t[:-1], traj.t[1:], traj.y[:-1]
    probe_t = np.minimum(t_a[:, None] + _LOCATE_FRACS * (t_b - t_a)[:, None], t_b[:, None])
    probe_y = traj._at(np.arange(n_seg), probe_t)
    extended = traj.termination == "event"
    if extended:  # the walk past the cut is no stored segment: no node to snap to
        t_cut, t_b = traj.t[-1], traj.t[-2] + traj.dense_h[-1]
        past = np.minimum(t_cut + _LOCATE_FRACS * (t_b - t_cut), t_b)[None]
        last = _segment(traj.t[-2], traj.y[-2], traj.dense_q[-1], traj.dense_h[-1])
        t_a, probe_t, probe_y = np.append(t_a, t_cut), np.concatenate((probe_t, past)), np.concatenate((probe_y, last(past)))
        y_a = traj.y  # y[:-1], then y[-1] for the walk past the cut
    walk_t = np.column_stack((t_a, probe_t))
    walk_y = np.concatenate((y_a[:, None], probe_y), axis=1)
    g = fn(walk_t.ravel(), walk_y.reshape(-1, traj.y.shape[1]).T)
    walk_g = np.asarray(g).reshape(walk_t.shape)
    first = _crossing_index(walk_g, direction)

    def refine(r):
        i = min(r, n_seg - 1)  # the walk past the cut is on the last step
        seg_eval = _segment(float(traj.t[i]), traj.y[i], traj.dense_q[i], traj.dense_h[i])
        return _refine_crossing(seg_eval, fn, walk_t[r], walk_g[r], first[r])

    rows = np.flatnonzero(first[:n_seg] >= 0)
    if rows.size:
        return refine(rows[0])
    t_end = float(traj.t[-1])
    if extended and first[-1] >= 0 and refine(n_seg) - t_end <= _XTOL + _RTOL * abs(t_end):
        return t_end
    return None
