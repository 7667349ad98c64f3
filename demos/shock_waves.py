"""Shock fronts in a decelerating platoon, measured against exact values.

Four bundled scenarios drop a leader into slower traffic.  The shock
speed fitted from the simulated trajectories is compared with the
Rankine-Hugoniot value for the corresponding density jump; the
synthetic-trajectory generator closes the loop by confirming that the
measurement is exact when fed exact input.
"""
from lagwave import (
    GreenshieldsFD,
    TriangularFD,
    load_spec,
    measure_front_speed,
    measure_wave,
    shock_speed_rh,
    simulate,
    synthetic_shock_trajectory,
    template_text,
)

G = GreenshieldsFD()
T = TriangularFD()

# template name -> (diagram, upstream density, downstream density)
CASES = [
    ("greenshields-shock-a", G, G.K / 4.0, 0.625 * G.K),
    ("greenshields-shock-b", G, G.K / 4.0, 0.875 * G.K),
    ("triangular-shock-a", T, T.K / 10.0, 0.4 * T.K),
    ("triangular-shock-b", T, T.K / 10.0, 0.8 * T.K),
]


def main():
    print("template                 exact sigma   measured   rel err   r^2")
    for name, fd, k1, k2 in CASES:
        spec = load_spec(template_text(name))
        traj = simulate(spec.scenario, model=spec.model, scheme=spec.scheme)
        speed, r2 = measure_wave(traj)
        sigma = shock_speed_rh(fd, k1, k2)
        rel = abs(speed - sigma) / abs(sigma)
        print(f"{name:24s} {sigma:10.4f} {speed:10.4f} {rel:9.2e}   {r2:.6f}")

    print()
    print("Same measurement on an exact piecewise-linear trajectory set:")
    k1, k2 = G.K / 4.0, 0.625 * G.K
    traj = synthetic_shock_trajectory(G, k1, k2, m=20, dn=0.5,
                                      duration=40.0, dt=0.2)
    meas = measure_front_speed(traj, G.eta(k1), G.eta(k2))
    sigma = shock_speed_rh(G, k1, k2)
    print(f"  exact sigma = {sigma}")
    print(f"  recovered   = {meas.speed}")
    print(f"  error       = {abs(meas.speed - sigma):.2e}")


if __name__ == "__main__":
    main()
