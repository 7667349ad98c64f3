"""Why the backward spacing and the semi-implicit position update matter.

Five ways to step the same car-following law are run on one scenario:
a platoon at twice the jam spacing approaching a stopped leader.  The
four rivals put some weight on the spacing behind a vehicle (or move
vehicles with stale speeds) and drive follower 1 into the leader in two
steps.  The reference scheme only ever looks ahead, and the new speed
moves the vehicle immediately, so spacing can approach the jam value
but never cross it.
"""
from lagwave import Scenario, Scheme, TriangularFD, diagnose, simulate

T = TriangularFD()

LABELS = {
    Scheme.ANISOTROPIC_SYMPLECTIC: "backward spacing, semi-implicit (reference)",
    Scheme.FORWARD_SPACING: "forward spacing",
    Scheme.ARITHMETIC_CENTRAL: "centered spacing, arithmetic mean",
    Scheme.HARMONIC_CENTRAL: "centered spacing, harmonic mean",
    Scheme.EXPLICIT_EXPLICIT: "backward spacing, fully explicit",
}


def main():
    sc = Scenario(fd=T, k1=1.0 / 14.0, lead_speed=0.0, m=3, dn=1.0, dt=1.0,
                  duration=10.0)
    print("Stopped leader, three followers at spacing 14 (jam spacing 7).")
    print()
    for scheme, label in LABELS.items():
        traj = simulate(sc, scheme=scheme)
        collisions = diagnose(traj).collision_events
        gaps1 = traj.spacings()[:, 0]
        shown = "  ".join(f"{g:7.3f}" for g in gaps1[:4])
        verdict = f"collision at step {collisions[0, 0]}" if len(collisions) else "no collision"
        print(f"{label}")
        print(f"  gap to leader, steps 0..3:  {shown}")
        print(f"  {verdict}")
        print()

    long_run = Scenario(fd=T, k1=1.0 / 14.0, lead_speed=0.0, m=3, dn=1.0,
                        dt=1.0, duration=10_000.0)
    rep = diagnose(simulate(long_run))
    print(f"Reference scheme over {long_run.steps} steps:"
          f" min spacing {rep.min_spacing:.12f}, clean = {rep.clean}")


if __name__ == "__main__":
    main()
