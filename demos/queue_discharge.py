"""Queue discharge: a jammed platoon released at a green light.

Two things happen as the vehicle-index step dn shrinks.  The startup
wave speed converges to the congested characteristic speed, and the
first vehicle's peak acceleration grows without bound, because the
continuum solution asks a vehicle at rest to adopt a finite speed
instantly.  Trajectories still converge; accelerations do not.
"""
from lagwave import GreenshieldsFD, Scenario, TriangularFD, measure_startup_wave, sweep_dn


def main():
    G = GreenshieldsFD()
    print("Greenshields discharge, peak acceleration of whole vehicles 1-5:")
    print("  dn        dt      max |a| (m/s^2)")
    jam = Scenario(fd=G, k1=G.K, lead_speed=G.V, m=10, dn=1.0, dt=0.35, duration=5.0)
    for traj, row in sweep_dn(jam, (1.0, 0.5, 0.25, 0.125, 0.0625), vehicles=10, dt_ratio=0.35):
        print(f"  {row.dn:7.4f} {traj.scenario.dt:7.4f} {row.max_abs_accel:12.2f}")
    print("The continuum speed jumps from 0 to V at the light, so the")
    print("discrete acceleration scales like 1/dn and never settles.")
    print()

    T = TriangularFD()
    print("Triangular discharge, startup wave speed (exact value -5):")
    print("  dn        measured    r^2")
    jam = Scenario(fd=T, k1=T.K, lead_speed=T.V, m=60, dn=1.0, dt=1.2, duration=100.0)
    for traj, _ in sweep_dn(jam, (0.25, 0.125, 0.0625), vehicles=60, dt_ratio=1.2):
        meas = measure_startup_wave(traj)
        print(f"  {traj.dn:7.4f} {meas.speed:10.4f}   {meas.r_squared:.6f}")
    print("The release front travels upstream at the congested wave")
    print("speed -W while positions converge at first order in dn.")


if __name__ == "__main__":
    main()
