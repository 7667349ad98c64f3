"""Bundled experiment presets.

Each template is a complete configuration in the INI dialect the CLI
reads; ``template_text`` renders one for loading or for use as a
starting point.  Durations are tuned so the wave of interest traverses
the displayed vehicles with margin.
"""
from __future__ import annotations

__all__ = ["TEMPLATES", "template_text"]

_K7 = 1.0 / 7.0

_GREENSHIELDS = dict(type="greenshields", v=20.0, k=_K7)
_TRIANGULAR = dict(type="triangular", v=20.0, w=5.0, k=_K7)
# The raw (unclamped) sigmoid curve: the negative-speed failure at the
# coarse step is part of what its red light demonstrates.
_KERNER_RAW = dict(type="kerner", clamp_nonnegative="false")
_RUN = dict(model="nonstandard", scheme="anisotropic", display_vehicles=5)


def _preset(fd, scenario, run=_RUN, stability=None) -> dict[str, dict[str, str]]:
    """The sections of one template as config strings: floats by
    ``repr``, everything else by ``str``; no [stability] when None."""
    sections = {"fd": fd, "scenario": scenario, "run": run, "stability": stability}
    return {
        section: {key: repr(value) if isinstance(value, float) else str(value) for key, value in keys.items()}
        for section, keys in sections.items()
        if keys is not None
    }


def _platoon(fd: dict, k1: float, lead_speed: float, vehicles: int, dt_ratio: float, duration: float):
    """``vehicles`` whole vehicles at density k1, resolved at dn = 1/16."""
    scenario = dict(
        k1=k1, lead_speed=lead_speed, vehicles=vehicles, dn=1.0 / 16.0, dt_ratio=dt_ratio, duration=duration
    )
    return _preset(fd, scenario)


def _kerner_redlight(dt_ratio: float, duration: float):
    scenario = dict(k1=0.002, lead_speed=0.0, m=5, dn=0.1, dt_ratio=dt_ratio, duration=duration)
    return _preset(_KERNER_RAW, scenario)


def _jwz_redlight(corrected: str):
    scenario = dict(k1=_K7 / 100.0, lead_speed=0.0, initial_speed=0.0, m=5, dn=1.0, dt_ratio=1.0, duration=400.0)
    run = dict(model="jwz", t=5.0, c0=2.0, corrected=corrected, scheme="anisotropic", display_vehicles=5)
    return _preset(_TRIANGULAR, scenario, run)


def _stability(model: str, **model_keys: float):
    scenario = dict(k1=1.0 / 14.0, lead_speed=10.0, m=10, dn=1.0, dt_ratio=0.35, duration=1200.0)
    run = {**_RUN, "model": model, **model_keys}
    return _preset(_GREENSHIELDS, scenario, run, dict(amplitude=0.02, omega=0.1))


TEMPLATES: dict[str, dict[str, dict[str, str]]] = {
    # Single shocks against a slower / denser downstream state.
    "greenshields-shock-a": _platoon(_GREENSHIELDS, _K7 / 4.0, 7.5, 10, 0.35, 26.0),
    "greenshields-shock-b": _platoon(_GREENSHIELDS, _K7 / 4.0, 2.5, 10, 0.35, 19.0),
    "triangular-shock-a": _platoon(_TRIANGULAR, _K7 / 10.0, 7.5, 10, 1.2, 48.0),
    "triangular-shock-b": _platoon(_TRIANGULAR, _K7 / 10.0, 1.25, 10, 1.2, 38.0),
    # Queues released from rest behind a leader at free speed.
    "greenshields-discharge": _platoon(_GREENSHIELDS, _K7, 20.0, 10, 0.35, 5.0),
    "triangular-discharge": _platoon(_TRIANGULAR, _K7, 20.0, 60, 1.2, 100.0),
    # Fast sparse traffic hitting a red light on a sigmoid diagram.
    "kerner-redlight": _kerner_redlight(1.0, 2400.0),
    "kerner-redlight-coarse": _kerner_redlight(2.0, 60.0),
    # Widely spaced stopped vehicles approaching a parked leader.
    "jwz-redlight": _jwz_redlight("none"),
    "jwz-redlight-corrected1": _jwz_redlight("1"),
    "jwz-redlight-corrected2": _jwz_redlight("2"),
    # Sinusoidal lead perturbation of an equilibrium platoon.
    "phillips-stability": _stability("phillips", t=5.0),
    "nonstandard-stability": _stability("nonstandard"),
}


def template_text(name: str) -> str:
    """Render a bundled template as configuration text."""
    if name not in TEMPLATES:
        raise KeyError(f"no template named {name!r}")
    lines = []
    for section, keys in TEMPLATES[name].items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
