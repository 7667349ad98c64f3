"""The library's refusal contract, one row per refusal.

Every input the library refuses is a row of ``LIBRARY_REFUSALS``, the
config reader ``load_spec``'s and writer ``serialize``'s too, and one test
holds each row to the whole contract: the exception is exactly the row's
type, its message starts with the row's text, no warning comes first, and
it is one that ``cli.main`` turns into an ``error:`` line and exit 2
(``ValueError``, ``ExperimentInvalid`` or ``OSError``).  The rows of
``PROGRAMMER_ERRORS`` are the only others: they raise ``TypeError``.  A new
refusal is one more row.  ``tests/test_cli.py::REFUSALS`` states the CLI's
side of the same contract.
"""
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from lagwave.analysis import (
    ExperimentInvalid,
    diffusion_coefficient,
    eulerian_dispersion_roots,
    measure_front_speed,
    string_stability_experiment,
    sweep_dn,
)
from lagwave.cli import ConfigError, StabilitySpec, _config_parser, load_spec, serialize
from lagwave.conditions import validate_step_sizes
from lagwave.engine import (
    JWZ,
    Corrected1,
    Corrected2,
    NonstandardLWR,
    PhillipsRelax,
    Scenario,
    Scheme,
    Trajectory,
    acceleration,
    simulate,
)
from lagwave.fundamental import GreenshieldsFD, KernerFD, SpacingBelowJam, TriangularFD
from lagwave.riemann import NonConcaveDiagram, riemann_wave, shock_speed_rh, synthetic_shock_trajectory
from lagwave.templates import TEMPLATES, template_text
from reference import BASE_SC, make_cfg

G, T, KC = GreenshieldsFD(), TriangularFD(), KernerFD()
NAN, INF = math.nan, math.inf

# A small Greenshields scenario's fields, which a row changes one at a time.
SC = dict(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=1.0, dt=0.1, duration=1.0)
# Two slots behind a leader at 7.5 m/s: ten steps of the float kernel.
MOVING = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=1.0, dt=0.35, duration=3.5)
# More slots than numpy can allocate.
HUGE = Scenario(**{**SC, "m": 10**30})
LIMIT = np.iinfo(np.intp).max
GRID = "grid of duration / dt steps and m slots: "  # numpy's own reason follows
SHOCK = dict(fd=G, k1=G.K / 4.0, k2=0.625 * G.K, m=5, dn=1.0, duration=10.0, dt=0.1)
SWEEP = dict(scenario=MOVING, dn_values=(1.0,), vehicles=4, dt_ratio=0.35)
STABILITY = dict(fd=G, model=NonstandardLWR(), s0=14.0, amplitude=0.02, omega=0.1)
NO_RESPONSE = "a follower shows no oscillation: the window is too short or the followers do not respond to the leader\n"
TRAJECTORY = dict(times=np.arange(3.0), positions=np.array([[0.0, -8.0], [0.0, -6.0], [0.0, -7.5]]),
                  speeds=np.array([[0.0, 2.0], [0.0, -1.5], [0.0, 0.5]]))
# Each diagram's scale fields, which must be positive, then its shape constants.
SCALES = {GreenshieldsFD: ("V", "K"), TriangularFD: ("V", "W", "K"),
          KernerFD: ("unit_length", "relax_time", "K", "c1", "c3")}
SHAPES = {KernerFD: ("c2", "c4")}
DENSITY = "density must be a number in [0, {!r}]\n"
SPACING = "spacing must be a number at or above the jam spacing S={!r}\n"
SHOCK_A = "[run]\ntemplate = greenshields-shock-a\n"
# Config keys are the dataclass fields in lower case: every key of another
# diagram type or model, and one that is no field at all, is refused, and
# every [stability] field is required.
DIAGRAMS = {"greenshields": GreenshieldsFD, "triangular": TriangularFD, "kerner": KernerFD}
MODELS = {"nonstandard": NonstandardLWR, "phillips": PhillipsRelax, "jwz": JWZ}


class Unlisted(GreenshieldsFD):
    """A diagram of a class that serialize has no name for."""


BASE = load_spec(make_cfg())
UNLISTED = replace(BASE, scenario=replace(BASE.scenario, fd=Unlisted()))


def _lead(bad):
    """MOVING's leader speeds with step 3's speed ``bad``."""
    lead = np.full(MOVING.steps, 7.5)
    lead[3] = bad
    return lead


def _nan_inputs(valid):
    """A NaN input, alone and between two ``valid`` values, by name."""
    return {"nan": np.nan, "nan-in-array": np.array([valid, np.nan, valid])}


def _first_row(**kwargs):
    """sweep_dn's first (trajectory, row) at ``kwargs``."""
    return next(sweep_dn(**kwargs))


def _keys(*classes):
    """The config keys of the dataclasses ``classes``: their fields' names in lower case."""
    return {f.name.lower() for cls in classes for f in fields(cls)}


def _load(message, text=None, **sections):
    """A load_spec row: ``text``, or else make_cfg(**sections), refused with the whole ``message``."""
    return load_spec, {"text": make_cfg(**sections) if text is None else text}, ConfigError, message + "\n"


def _front_speed(**levels):
    """measure_front_speed on five slots behind a leader at 7.5 m/s, at ``levels``."""
    traj = simulate(Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=5, dn=0.5, dt=0.175, duration=7.0))
    return measure_front_speed(traj, **{"v1": 15.0, "v2": 7.5, **levels})


# id -> (callable, its keyword arguments, the exception's exact type, the
# start of its message).  A start ending in a newline is the whole message.
LIBRARY_REFUSALS = {
    # Models.
    "corrected1-of-corrected1": (Corrected1, {"inner": Corrected1(NonstandardLWR())}, ValueError,
                                 "corrections do not nest\n"),
    "corrected2-of-corrected1": (Corrected2, {"inner": Corrected1(PhillipsRelax())}, ValueError,
                                 "corrections do not nest\n"),
    **{f"{cls.__name__}-{field}-{value!r}": (cls, {field: value}, ValueError,
                                             f"{field} must be {rule}, got {value!r}\n")
       for cls, field, value, rule in [
           (PhillipsRelax, "T", 0.0, "positive"), (PhillipsRelax, "T", -1.0, "positive"),
           (PhillipsRelax, "T", NAN, "finite"), (JWZ, "T", -1.0, "positive"), (JWZ, "T", INF, "finite"),
           (JWZ, "c0", INF, "finite"), (JWZ, "c0", NAN, "finite"),
           # A bool was taken as T = 1.
           (PhillipsRelax, "T", True, "a number")]},
    # Scenario.
    "scenario-k1-above-K": (Scenario, {**SC, "k1": G.K * 1.01}, ValueError, f"k1 must lie in (0, K={G.K!r}]\n"),
    "scenario-m-negative": (Scenario, {**SC, "m": -1}, ValueError, "m must be nonnegative\n"),
    "scenario-dn-negative": (Scenario, {**SC, "dn": -1.0}, ValueError, "dn must be positive, got -1.0\n"),
    "scenario-lead-speed-negative": (Scenario, {**SC, "lead_speed": -2.0}, ValueError,
                                     "lead_speed must be nonnegative\n"),
    "scenario-duration-negative": (Scenario, {**SC, "duration": -1.0}, ValueError, "duration must be nonnegative\n"),
    "scenario-initial-speed-negative": (Scenario, {**SC, "initial_speed": -5.0}, ValueError,
                                        "initial_speed must be nonnegative\n"),
    **{f"scenario-{field}-{value!r}": (Scenario, {**SC, field: value}, ValueError,
                                       f"{field} must be finite, got {value!r}\n")
       for field in ("lead_speed", "dn", "dt", "duration", "initial_speed") for value in (INF, NAN)},
    # duration / dt overflowed to inf, and math.ceil raised OverflowError in steps.
    "scenario-steps-overflow": (Scenario, {**SC, "dt": 1e-320}, ValueError,
                                "the step count duration / dt is not finite: duration=1.0, dt=1e-320\n"),
    # A float m was accepted, and simulate then raised numpy's TypeError; a bool ran as one slot.
    **{f"scenario-m-{value!r}": (Scenario, {**SC, "m": value}, ValueError, f"m must be an integer, got {value!r}\n")
       for value in (2.5, 3.0, True)},
    # simulate.
    "simulate-relaxation-on-a-rival-scheme": (simulate, {"scenario": MOVING, "model": PhillipsRelax(),
                                                         "scheme": Scheme.FORWARD_SPACING}, ValueError,
                                              "scheme 'forward' supports only the equilibrium model\n"),
    **{f"simulate-object-as-model-{kernel}": (simulate, {"scenario": Scenario(**{**SC, "m": m}), "model": object()},
                                              TypeError, "unknown model <object object at ")
       for kernel, m in (("float-kernel", 2), ("numpy-kernel", 20))},
    # Every shape is far past the address space, so numpy refuses it before touching memory.
    "simulate-unable-to-allocate": (simulate, {"scenario": Scenario(**{**SC, "dt": 1e-15})}, ValueError,
                                    "numpy cannot allocate the (1000000000000001, 4) " + GRID),
    # A count past numpy's dimension limit is written as ">limit", not in its hundreds of digits.
    "simulate-steps-past-the-dimension-limit": (simulate, {"scenario": Scenario(**{**SC, "dt": 1e-300})}, ValueError,
                                                f"numpy cannot allocate the (>{LIMIT}, 4) " + GRID),
    "simulate-slots-past-the-dimension-limit": (simulate, {"scenario": HUGE}, ValueError,
                                                f"numpy cannot allocate the (11, >{LIMIT}) " + GRID),
    "simulate-lead-speeds-short": (simulate, {"scenario": MOVING, "lead_speeds": np.full(MOVING.steps - 1, 7.5)},
                                   ValueError, f"lead_speeds must have shape ({MOVING.steps},)\n"),
    **{f"simulate-lead-speed-{bad!r}": (simulate, {"scenario": MOVING, "lead_speeds": _lead(bad)}, ValueError,
                                        "lead_speeds must be finite and nonnegative\n")
       for bad in (-5.0, NAN, INF)},
    # Each refusal names the first of the three that fails, although the grid
    # is made by the stepping loop and lead_speeds are checked there.
    "simulate-model-before-grid-and-lead-speeds": (simulate, {"scenario": HUGE, "model": PhillipsRelax(),
                                                              "scheme": Scheme.FORWARD_SPACING,
                                                              "lead_speeds": np.full(HUGE.steps, -1.0)},
                                                   ValueError,
                                                   "scheme 'forward' supports only the equilibrium model\n"),
    "simulate-grid-before-lead-speeds": (simulate, {"scenario": HUGE, "lead_speeds": np.full(HUGE.steps, -1.0)},
                                         ValueError, f"numpy cannot allocate the (11, >{LIMIT}) " + GRID),
    "acceleration-dt-zero": (acceleration, {"speeds": np.zeros((3, 2)), "dt": 0.0}, ValueError,
                             "dt must be positive and finite, got 0.0\n"),
    **{f"acceleration-dt-{dt!r}": (acceleration, {"speeds": np.zeros((3, 2)), "dt": dt}, ValueError,
                                   f"dt must be positive and finite, got {dt!r}\n") for dt in (NAN, INF)},
    "trajectory-without-scenario": (Trajectory, TRAJECTORY, TypeError,
                                    "Trajectory.__init__() missing 1 required positional argument: 'scenario'\n"),
    # Diagrams.
    **{f"{cls.__name__}-{field}-{value!r}": (cls, {field: value}, ValueError,
                                             f"{field} must be finite, got {value!r}\n")
       for cls in SCALES for field in SCALES[cls] + SHAPES.get(cls, ()) for value in (NAN, INF, -INF)},
    **{f"{cls.__name__}-{field}-{value!r}": (cls, {field: value}, ValueError,
                                             f"{field} must be positive, got {value!r}\n")
       for cls in SCALES for field in SCALES[cls] for value in (0.0, -1.0)},
    # eta divides K by max(k, kc/2): kc/2 = 0 divides by zero, and a subnormal kc/2 or 2V + W overflows.
    **{f"TriangularFD-{name}": (TriangularFD, kw, ValueError,
                                "kc/2 = W*K/(V+W)/2 must be positive and W*(K/(kc/2) - 1) finite, got "
                                + ", ".join(f"{k}={v!r}" for k, v in kw.items()) + "\n")
       for name, kw in [("kc-zero", {"V": 1.0, "W": 1e-200, "K": 1e-200}),
                        ("kc-subnormal", {"V": 1e10, "W": 1e-300, "K": 1.0}),
                        ("branch-overflows", {"V": 1e308, "W": 1e307, "K": 1.0})]},
    # eta_prime and eta_second divide W*K by k*k and k**3: kc**3 underflows to 0 (divide by zero), or
    # W*K overflows, which made kc infinite and eta -W everywhere.
    **{f"TriangularFD-{name}": (TriangularFD, kw, ValueError,
                                "kc**3 = (W*K/(V+W))**3 must be positive and 2*W*K/kc**3 finite, got "
                                + ", ".join(f"{k}={v!r}" for k, v in kw.items()) + "\n")
       for name, kw in [("kc-cube-underflows", {"V": 1.0, "W": 1e-100, "K": 1e-100}),
                        ("wk-overflows", {"V": 1.0, "W": 1e200, "K": 1e200})]},
    # theta_prime divides by s * s, least at S = 1/K: a subnormal S*S loses bits, and at 0 the
    # quotient was inf or NaN with a warning where the slope is finite.
    **{f"{cls.__name__}-K-{K!r}": (cls, {"K": K}, ValueError, f"S*S = (1/K)**2 must be a normal float, got K={K!r}\n")
       for cls in SCALES for K in (1e154, 1e200)},
    # A non-empty string clamped: eta(K) read 0.0, where False gives -9.496764517068743e-08.
    "KernerFD-clamp_nonnegative-'false'": (KernerFD, {"clamp_nonnegative": "false"}, ValueError,
                                           "clamp_nonnegative must be a boolean, got 'false'\n"),
    "density-negative": (G.eta, {"k": -0.01}, ValueError, DENSITY.format(G.K)),
    "density-above-K": (G.eta, {"k": G.K + 1e-3}, ValueError, DENSITY.format(G.K)),
    "density-array-above-K": (T.phi, {"k": np.array([0.0, 0.2])}, ValueError, DENSITY.format(T.K)),
    **{f"{type(fd).__name__}-{method}-{name}": (getattr(fd, method), {"k": bad}, ValueError, DENSITY.format(fd.K))
       for fd in (G, T, KC) for method in ("eta", "eta_prime", "eta_second", "phi", "phi_prime")
       for name, bad in _nan_inputs(0.5 * fd.K).items()},
    **{f"{type(fd).__name__}-{method}-{name}": (getattr(fd, method), {"s": bad}, SpacingBelowJam, SPACING.format(fd.S))
       for fd in (G, T, KC) for method in ("theta", "theta_prime") for name, bad in _nan_inputs(2.0 * fd.S).items()},
    **{f"spacing-{s!r}-below-jam": (G.theta, {"s": s}, SpacingBelowJam, SPACING.format(G.S)) for s in (6.9, 0.0, -3.0)},
    "spacing-below-jam-theta_prime": (G.theta_prime, {"s": 6.9}, SpacingBelowJam, SPACING.format(G.S)),
    # Step sizes.
    **{f"step-sizes-dn-{dn!r}-dt-{dt!r}": (validate_step_sizes, {"fd": G, "dn": dn, "dt": dt}, ValueError,
                                           f"dn and dt must be positive and finite, got dn={dn!r}, dt={dt!r}\n")
       # An infinite dn would otherwise read as an infinite rate that passes both checks.
       for dn, dt in [(0.0, 0.1), (1.0, -0.1), (INF, 1.0), (NAN, 1.0), (1.0, INF), (1.0, NAN)]},
    # Exact waves.
    "shock-speed-equal-densities": (shock_speed_rh, {"fd": G, "k1": 0.05, "k2": 0.05}, ValueError,
                                    "shock speed is undefined for equal densities\n"),
    "wave-nonconcave": (riemann_wave, {"fd": KC, "k1": 0.01, "k2": 0.1}, NonConcaveDiagram,
                        "flow is not concave; classical entropy solutions do not apply\n"),
    "wave-k1-negative": (riemann_wave, {"fd": G, "k1": -0.01, "k2": 0.05}, ValueError, DENSITY.format(G.K)),
    "wave-k2-above-K": (riemann_wave, {"fd": G, "k1": 0.05, "k2": G.K + 0.01}, ValueError, DENSITY.format(G.K)),
    "synthetic-nonconcave": (synthetic_shock_trajectory, {**SHOCK, "fd": KC, "k1": 0.01, "k2": 0.1},
                             NonConcaveDiagram, "flow is not concave; classical entropy solutions do not apply\n"),
    # Two free-branch densities share speed V; the front never separates.
    "synthetic-comoving": (synthetic_shock_trajectory, {**SHOCK, "fd": T, "k1": T.K / 100.0, "k2": T.K / 50.0},
                           ValueError, "vehicles at v1 never reach the shock line\n"),
    # The step count comes from the trajectory's Scenario, which refuses
    # this; before, a negative duration gave a one-row record.
    "synthetic-duration-negative": (synthetic_shock_trajectory, {**SHOCK, "duration": -1.0}, ValueError,
                                    "duration must be nonnegative\n"),
    "synthetic-rarefaction-order": (synthetic_shock_trajectory, {**SHOCK, "k1": 0.625 * G.K, "k2": G.K / 4.0},
                                    ValueError, "need k1 < k2 for a shock\n"),
    # The Scenario is built before any input is divided by: these raised
    # ZeroDivisionError, or "cannot convert float NaN to integer", and dt = inf ran.
    "synthetic-dt-zero": (synthetic_shock_trajectory, {**SHOCK, "dt": 0.0}, ValueError,
                          "dt must be positive, got 0.0\n"),
    "synthetic-k1-zero": (synthetic_shock_trajectory, {**SHOCK, "k1": 0.0}, ValueError,
                          f"k1 must lie in (0, K={G.K!r}]\n"),
    **{f"synthetic-{field}-{value!r}": (synthetic_shock_trajectory, {**SHOCK, field: value}, ValueError,
                                        f"{field} must be finite, got {value!r}\n")
       for field, value in (("dt", NAN), ("dn", NAN), ("dt", INF))},
    # Grids past the address space, and past numpy's dimension limit: these raised
    # MemoryError and numpy's bare "Maximum allowed size exceeded".
    "synthetic-unable-to-allocate": (synthetic_shock_trajectory, {**SHOCK, "duration": 1e6, "dt": 1e-9}, ValueError,
                                     "numpy cannot allocate the (1000000000000001, 6) " + GRID),
    "synthetic-steps-past-the-dimension-limit": (synthetic_shock_trajectory, {**SHOCK, "dt": 1e-300}, ValueError,
                                                 f"numpy cannot allocate the (>{LIMIT}, 6) " + GRID),
    # duration / dt is finite, but t1 / dt overflowed, and round raised OverflowError.
    "synthetic-kink-steps-overflow": (synthetic_shock_trajectory, {**SHOCK, "duration": 1e-10, "dt": 1e-310},
                                      ValueError, "the snapped step count t1 / dt to vehicle 1's kink is not finite: "
                                                  "t1=2.24, dt=1e-310\n"),
    # Measurements and sweeps.  These raised OverflowError, ZeroDivisionError
    # and "cannot convert float NaN to integer" from round(vehicles / dn).
    **{f"sweep-dn-{dn!r}": (_first_row, {**SWEEP, "dn_values": (dn,)}, ValueError,
                            f"dn must be positive and finite, got {dn!r}\n") for dn in (0.0, NAN)},
    "sweep-dn-1e-320": (_first_row, {**SWEEP, "dn_values": (1e-320,)}, ValueError,
                        "the slot count vehicles / dn is too large for a float\n"),
    "sweep-vehicles-negative": (_first_row, {**SWEEP, "vehicles": -3}, ValueError,
                                "vehicles must be nonnegative, got -3\n"),
    # At dn = 0.5 this stepped 5 slots without a word.
    "sweep-vehicles-2.5": (_first_row, {**SWEEP, "dn_values": (0.5,), "vehicles": 2.5}, ValueError,
                           "vehicles must be an integer, got 2.5\n"),
    # 2.5 raised numpy's TypeError, and True, 0 and -1 ran.
    **{f"sweep-display-vehicles-{value!r}": (_first_row, {**SWEEP, "display_vehicles": value}, ValueError,
                                             f"display_vehicles must be an integer, got {value!r}\n")
       for value in (2.5, True)},
    **{f"sweep-display-vehicles-{value!r}": (_first_row, {**SWEEP, "display_vehicles": value}, ValueError,
                                             f"display_vehicles must be at least 1, got {value!r}\n")
       for value in (0, -1)},
    # These raised MeasurementError("only 0 crossings, need at least 3").
    **{f"front-speed-{name}-{value!r}": (_front_speed, {name: value}, ValueError,
                                         f"{name} must be finite, got {value!r}\n")
       for name in ("v1", "v2") for value in (NAN, INF, -INF)},
    "front-speed-equal-levels": (_front_speed, {"v1": 7.5, "v2": 7.5}, ValueError, "v1 and v2 must differ\n"),
    # The equilibrium speed is 10; the forcing amplitude may not exceed it.
    "stability-amplitude-above-speed": (string_stability_experiment, {**STABILITY, "amplitude": 11.0}, ValueError,
                                        "perturbation drives the lead speed negative\n"),
    "stability-one-follower": (string_stability_experiment, {**STABILITY, "m": 1}, ValueError,
                               "need at least two followers to form a ratio\n"),
    "stability-amplitude-negative": (string_stability_experiment, {**STABILITY, "amplitude": -0.02}, ValueError,
                                     "amplitude must be nonnegative\n"),
    # amplitude = nan was refused as a bad lead speed, amplitude = inf as a
    # negative one, and omega = inf warned in the sine.
    **{f"stability-{field}-{value!r}": (string_stability_experiment, {**STABILITY, field: value}, ValueError,
                                        f"{field} must be finite, got {value!r}\n")
       for field, value in [("amplitude", NAN), ("amplitude", INF), ("omega", NAN), ("omega", INF), ("omega", -INF)]},
    # omega * J * dt overflowed in numpy's multiply, and the sine of inf
    # warned; 3429 steps of 0.35 s carry even 1e306 past the float range.
    **{f"stability-phase-overflow-{omega!r}": (string_stability_experiment, {**STABILITY, "omega": omega}, ValueError,
                                               f"omega is too large: the phase omega * J * dt overflows at "
                                               f"omega={omega!r}, J=3429 steps of dt=0.35\n")
       for omega in (1e308, -1e308, 1e306)},
    # Three steps move only the first followers; the rest stay in equilibrium.
    "stability-window-too-short": (string_stability_experiment, {**STABILITY, "duration": 1.05}, ExperimentInvalid,
                                   NO_RESPONSE),
    # The equilibrium model's followers stay at the free speed.
    "stability-free-flow-no-response": (string_stability_experiment, {**STABILITY, "fd": T, "s0": 50.0},
                                        ExperimentInvalid, NO_RESPONSE),
    "stability-collision": (string_stability_experiment,
                            dict(fd=G, model=PhillipsRelax(T=5.0), s0=8.0, amplitude=1.0, omega=0.5, m=5, dn=1.0,
                                 dt=3.0, duration=90.0),
                            ExperimentInvalid, "platoon collided 95 times; amplitude too large\n"),
    # Linear analyzers.
    **{f"dispersion-T-{t_rel!r}-wavenumber-{w!r}": (
        eulerian_dispersion_roots, {"fd": G, "k0": G.K / 2.0, "T": t_rel, "wavenumber": w}, ValueError,
        f"T must be positive and finite, wavenumber finite; got T={t_rel!r}, wavenumber={w!r}\n")
       for t_rel, w in [(0.0, 0.1), (NAN, 0.1), (INF, 0.1), (5.0, NAN), (5.0, INF), (5.0, -INF)]},
    **{f"diffusion-T-{t_rel!r}": (diffusion_coefficient, {"fd": G, "k": G.K / 2.0, "T": t_rel}, ValueError,
                                  f"T must be positive and finite, got {t_rel!r}\n") for t_rel in (-1.0, NAN, INF)},
    # The config reader: its sections and keys.
    "config-empty": _load("empty config; required keys: fd.type, scenario.k1, scenario.lead_speed, scenario.dn, "
                          "scenario.duration, scenario.dt or scenario.dt_ratio", text=""),
    "config-malformed-header": _load("malformed config: File contains no section headers.\nfile: '<string>', "
                                     "line: 1\n'[fd\\n'", text="[fd\ntype = greenshields\n"),
    "config-duplicate-key": _load("malformed config: While reading from '<string>' [line  3]: option 'type' in "
                                  "section 'fd' already exists", text="[fd]\ntype = greenshields\ntype = triangular\n"),
    "config-duplicate-section": _load("malformed config: While reading from '<string>' [line  3]: section 'run' "
                                      "already exists", text=SHOCK_A + "[run]\nmodel = jwz\n"),
    "config-malformed-line": _load("malformed config: Source contains parsing errors: '<string>'\n\t[line  3]: "
                                   "'this line has no separator\\n'", text=SHOCK_A + "this line has no separator\n"),
    "config-section-plot": _load("unknown section [plot]", extra="\n[plot]\nstyle = x\n"),
    # [DEFAULT] passed its keys to every section.
    "config-section-default": _load("unknown section [DEFAULT]",
                                    text="[DEFAULT]\n" + template_text("greenshields-shock-a")),
    "config-template-unknown": _load(f"unknown run.template 'no-such-thing'; bundled: {', '.join(sorted(TEMPLATES))}",
                                     text="[run]\ntemplate = no-such-thing\n"),
    "config-without-fd-type": _load("missing required key fd.type", fd={}),
    "config-fd-type-unknown": _load("unknown fd.type 'parabolic'; expected one of greenshields, triangular, kerner",
                                    fd={"type": "parabolic"}),
    "config-greenshields-fd.w-5": _load("unknown key fd.w for type 'greenshields'",
                                        fd={"type": "greenshields", "w": "5"}),
    **{f"config-{kind}-fd.{key}": _load(f"unknown key fd.{key} for type {kind!r}", fd={"type": kind, key: "1"})
       for kind, cls in DIAGRAMS.items() for key in sorted(_keys(*DIAGRAMS.values()) - _keys(cls)) + ["bogus"]},
    "config-scenario-foo": _load("unknown key scenario.foo", scenario={**BASE_SC, "foo": "1"}),
    "config-run-bar": _load("unknown key run.bar for model 'nonstandard'", run_sec={"bar": "1"}),
    "config-nonstandard-run.t-5.0": _load("unknown key run.t for model 'nonstandard'", run_sec={"t": "5.0"}),
    "config-phillips-run.c0-2.0": _load("unknown key run.c0 for model 'phillips'",
                                        run_sec={"model": "phillips", "c0": "2.0"}),
    **{f"config-{name}-run.{key}": _load(f"unknown key run.{key} for model {name!r}", run_sec={"model": name, key: "1"})
       for name, cls in MODELS.items() for key in sorted(_keys(*MODELS.values()) - _keys(cls)) + ["bogus"]},
    "config-stability-phase": _load("unknown key stability.phase",
                                    stability_sec={"amplitude": "0.02", "omega": "0.1", "phase": "0"}),
    "config-stability-amplitude-only": _load("missing required key stability.omega",
                                             stability_sec={"amplitude": "0.02"}),
    **{f"config-stability-without-{key}": _load(f"missing required key stability.{key}",
                                                stability_sec={k: "0.1" for k in _keys(StabilitySpec) - {key}})
       for key in sorted(_keys(StabilitySpec))},
    # Values read by their field's type.
    "config-k1-not-a-number": _load("key scenario.k1 is not a number: 'abc'", scenario={**BASE_SC, "k1": "abc"}),
    "config-m-not-an-integer": _load("key scenario.m is not an integer: '2.5'", scenario={**BASE_SC, "m": "2.5"}),
    "config-clamp-not-a-boolean": _load("key fd.clamp_nonnegative is not a boolean: 'maybe'",
                                        fd={"type": "kerner", "clamp_nonnegative": "maybe"}),
    # Values the dataclasses refuse.
    "config-fd-v-nan": _load("invalid fd: V must be finite, got nan", fd={"type": "greenshields", "v": "nan"}),
    "config-fd-k-zero": _load("invalid fd: K must be positive, got 0.0", fd={"type": "greenshields", "k": "0"}),
    "config-fd-w-negative": _load("invalid fd: W must be positive, got -5.0", fd={"type": "triangular", "w": "-5"}),
    "config-fd-relax-time-inf": _load("invalid fd: relax_time must be finite, got inf",
                                      fd={"type": "kerner", "relax_time": "inf"}),
    "config-k1-above-K": _load(f"invalid scenario: k1 must lie in (0, K={G.K!r}]", scenario={**BASE_SC, "k1": "0.5"}),
    **{f"config-{model}-{key}-{raw}": _load(f"invalid model: {rule}", run_sec={"model": model, key: raw})
       for model, key, raw, rule in [("phillips", "t", "-1", "T must be positive, got -1.0"),
                                     ("phillips", "t", "0", "T must be positive, got 0.0"),
                                     ("phillips", "t", "nan", "T must be finite, got nan"),
                                     ("jwz", "c0", "inf", "c0 must be finite, got inf")]},
    **{f"config-stability-{key}-{raw}": _load(f"invalid stability: {rule}",
                                               stability_sec={"amplitude": "0.02", "omega": "0.1", key: raw})
       for key, raw, rule in [("amplitude", "-0.5", "amplitude must be nonnegative, got -0.5"),
                              ("amplitude", "nan", "amplitude must be finite, got nan"),
                              ("omega", "nan", "omega must be finite, got nan")]},
    # The scenario's aliases.
    "config-dt-and-dt-ratio": _load("give exactly one of scenario.dt and scenario.dt_ratio",
                                    scenario={**BASE_SC, "dt_ratio": "0.35"}),
    "config-m-and-vehicles": _load("give at most one of scenario.m and scenario.vehicles",
                                   scenario={**BASE_SC, "m": "5", "vehicles": "5"}),
    **{f"config-without-{key}": _load(f"missing required key scenario.{key}{alias}",
                                      scenario={k: v for k, v in BASE_SC.items() if k != key})
       for key, alias in (("dt", " or scenario.dt_ratio"), ("dn", ""))},
    **{f"config-dn-{dn}": _load(f"key scenario.dn must be positive and finite, got {dn}",
                                scenario={**BASE_SC, "dn": dn, "vehicles": "10"}) for dn in ("nan", "inf")},
    "config-vehicles-negative": _load("keys scenario.vehicles and scenario.dn: vehicles must be nonnegative, got -3",
                                      scenario={**BASE_SC, "vehicles": "-3"}),
    # [run]'s choices.
    "config-corrected-3": _load("unknown run.corrected '3'; expected one of none, 1, 2", run_sec={"corrected": "3"}),
    "config-scheme-unknown": _load("unknown run.scheme 'leapfrog'; expected one of anisotropic, forward, arithmetic, "
                                   "harmonic, explicit-explicit", run_sec={"scheme": "leapfrog"}),
    "config-scheme-forward-with-phillips": _load("run.scheme 'forward' supports only model nonstandard",
                                                 run_sec={"model": "phillips", "scheme": "forward"}),
    "config-display-vehicles-zero": _load("key run.display_vehicles must be at least 1",
                                          run_sec={"display_vehicles": "0"}),
    # run.sweep's dn values.
    "config-sweep-empty": _load("sweep needs at least one dn value", run_sec={"sweep": ""}),
    **{f"config-sweep-{raw}": _load("sweep dn values must be positive and finite", run_sec={"sweep": raw})
       for raw in ("-1.0", "1.0,nan", "inf")},
    # Equal values were refused apart, as not distinct.
    **{f"config-sweep-{raw}": _load(f"sweep dn values {raw.replace(',', ' and ')} both write trajectory_dn1.csv",
                                    run_sec={"sweep": raw}) for raw in ("1.0,1.0", "1.0000001,1.0000002")},
    # The config writer.
    "serialize-unlisted-diagram": (serialize, {"spec": UNLISTED}, ConfigError, "cannot serialize diagram "),
}

# Rows whose caller, not its input, is at fault: Python's own TypeError.
PROGRAMMER_ERRORS = {"simulate-object-as-model-float-kernel", "simulate-object-as-model-numpy-kernel",
                     "trajectory-without-scenario"}


@pytest.mark.parametrize("row", LIBRARY_REFUSALS)
def test_library_refuses_with_the_rows_exception_and_message(row):
    fn, kwargs, cls, message = LIBRARY_REFUSALS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            fn(**kwargs)
    assert type(info.value) is cls
    assert (str(info.value) + "\n").startswith(message)
    assert issubclass(cls, TypeError if row in PROGRAMMER_ERRORS else (ValueError, ExperimentInvalid, OSError))


# load_spec reuses one ConfigParser per process: a config it refuses, here
# as configparser does, must leave nothing in it for the next one.
@pytest.mark.parametrize("row", ["config-duplicate-key", "config-duplicate-section", "config-malformed-line"])
def test_config_errors_leave_the_parser_clean(row):
    test_library_refuses_with_the_rows_exception_and_message(row)
    clean = template_text("greenshields-shock-a")
    after = load_spec(clean)
    parser, _ = _config_parser()
    _config_parser.cache_clear()
    assert _config_parser()[0] is not parser
    assert after == load_spec(clean)
